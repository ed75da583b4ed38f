"""The input guards of the public functions, each with its message."""

import pytest

from sgdom import (
    DegreeProfile,
    Graph,
    Mode,
    ThreeSatFormula,
    bnb_sigma,
    brute_force_sigma,
    brute_force_upper,
    complete_bipartite,
    extremal_params,
    forced_plus_vertices,
    gamma,
    indicator,
    nearly_regular_bound,
    nonneg_check,
    path,
    reduce_1in3,
    reduce_mds,
    reduce_mtds,
)

_POSITIVE_K = "k must be a positive integer"
_FORMULA = ThreeSatFormula(3, ((1, 2, 3),))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: indicator(1, 0), _POSITIVE_K, id="indicator"),
        pytest.param(
            lambda: forced_plus_vertices(path(3), 0, Mode.CLOSED), _POSITIVE_K,
            id="forced_plus_vertices",
        ),
        pytest.param(
            lambda: extremal_params(0, 2, 3, Mode.CLOSED), _POSITIVE_K, id="extremal_params"
        ),
        pytest.param(lambda: reduce_mds(path(3), 0), _POSITIVE_K, id="reduce_mds"),
        pytest.param(lambda: reduce_mtds(path(3), 0), _POSITIVE_K, id="reduce_mtds"),
        pytest.param(lambda: reduce_1in3(_FORMULA, 0), _POSITIVE_K, id="reduce_1in3"),
        pytest.param(
            lambda: brute_force_sigma(path(3), 0, Mode.CLOSED), _POSITIVE_K,
            id="brute_force_sigma",
        ),
        pytest.param(lambda: brute_force_upper(path(3), 0), _POSITIVE_K, id="brute_force_upper"),
        pytest.param(lambda: bnb_sigma(path(3), 0, Mode.TOTAL), _POSITIVE_K, id="bnb_sigma"),
        pytest.param(lambda: Graph(-1), "vertex count must be nonnegative", id="Graph order"),
        pytest.param(
            lambda: Graph(3, [(0, 1), 5]), "edge 5 is not a pair of vertices", id="Graph edge"
        ),
        pytest.param(
            lambda: Graph(0).max_degree, "max degree undefined on the empty graph",
            id="max_degree",
        ),
        pytest.param(
            lambda: complete_bipartite(-1, 2), "part sizes must be nonnegative",
            id="complete_bipartite",
        ),
        pytest.param(
            lambda: DegreeProfile(-1, 0, 0, 1), "order must be nonnegative", id="DegreeProfile"
        ),
        pytest.param(
            lambda: nearly_regular_bound(0, 2, 1, Mode.CLOSED), "order must be positive",
            id="nearly_regular_bound",
        ),
        pytest.param(
            lambda: nonneg_check(DegreeProfile(5, 0, 1, 1)),
            "nonnegativity corollary requires delta >= k", id="nonneg_check",
        ),
        pytest.param(
            lambda: ThreeSatFormula(0, ()), "formula needs at least one variable",
            id="ThreeSatFormula",
        ),
        pytest.param(
            lambda: reduce_mds(path(3), 1).threshold(),
            "set reductions need a source threshold r", id="threshold",
        ),
    ],
)
def test_guard_refuses(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_graph_from_a_generator_equals_one_from_a_list():
    edges = [(0, 1), (1, 2), (0, 3)]
    assert Graph(4, (e for e in edges)) == Graph(4, edges)


def test_gamma_of_the_empty_graph():
    assert gamma(Graph(0)) == 0
