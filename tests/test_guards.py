"""The input guards of the public functions, each with its message."""

import numpy as np
import pytest

from sgdom import (
    DegreeProfile,
    ExtremalSpec,
    Graph,
    Mode,
    SignFunction,
    ThreeSatFormula,
    bnb_sigma,
    brute_force_sigma,
    brute_force_upper,
    complete_bipartite,
    extremal_params,
    forced_plus_vertices,
    gamma,
    indicator,
    lower_bound,
    nearly_regular_bound,
    nonneg_check,
    path,
    reduce_1in3,
    reduce_mds,
    reduce_mtds,
    threshold_check,
    verify,
)

_POSITIVE_K = "k must be a positive integer"
_FORMULA = ThreeSatFormula(3, ((1, 2, 3),))
_MODE = "mode must be Mode.CLOSED or Mode.TOTAL"


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
        # A k that is not an integer, bool included, is refused by every solver
        # alike, so no two solvers can give it different answers.
        *(
            pytest.param(
                lambda solver=solver, k=k: solver(path(3), k, Mode.CLOSED), _POSITIVE_K,
                id=f"{name} k={k}",
            )
            for solver, name in ((brute_force_sigma, "brute"), (bnb_sigma, "bnb"))
            for k in (1.5, True)
        ),
        pytest.param(
            lambda: verify(path(3), 0, Mode.CLOSED, SignFunction((1, 1, 1))), _POSITIVE_K,
            id="verify",
        ),
        pytest.param(lambda: DegreeProfile(3, 1, 2, 0), _POSITIVE_K, id="DegreeProfile k"),
        # A mode given as its string, or any other non-Mode, is refused
        # rather than read as total mode.
        pytest.param(
            lambda: verify(path(3), 2, "closed", SignFunction((1, 1, 1))), _MODE,
            id="verify mode",
        ),
        pytest.param(
            lambda: forced_plus_vertices(path(3), 1, "closed"), _MODE,
            id="forced_plus_vertices mode",
        ),
        pytest.param(
            lambda: brute_force_sigma(path(3), 1, "closed"), _MODE, id="brute_force_sigma mode"
        ),
        pytest.param(lambda: bnb_sigma(path(3), 1, "closed"), _MODE, id="bnb_sigma mode"),
        pytest.param(
            lambda: lower_bound(DegreeProfile(4, 2, 3, 1), "closed"), _MODE,
            id="lower_bound mode",
        ),
        pytest.param(
            lambda: threshold_check(DegreeProfile(4, 2, 3, 1), 0, "closed"), _MODE,
            id="threshold_check mode",
        ),
        pytest.param(
            lambda: ExtremalSpec(1, 2, 3, 4, "closed"), _MODE, id="ExtremalSpec mode"
        ),
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


@pytest.mark.parametrize("solver", [brute_force_sigma, bnb_sigma])
def test_numpy_integer_k_is_accepted(solver):
    assert solver(path(3), np.int64(1), Mode.CLOSED) == solver(path(3), 1, Mode.CLOSED)


def test_graph_from_a_generator_equals_one_from_a_list():
    edges = [(0, 1), (1, 2), (0, 3)]
    assert Graph(4, (e for e in edges)) == Graph(4, edges)


def test_gamma_of_the_empty_graph():
    assert gamma(Graph(0)) == 0
