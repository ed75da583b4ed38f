import random
import re
import tracemalloc
from itertools import combinations

import pytest

from sgdom import (
    Mode,
    SignFunction,
    ThreeSatFormula,
    brute_force_sigma,
    brute_force_upper,
    complete,
    cycle,
    gamma,
    gamma_t,
    is_minimal_skdf,
    lift_solution,
    one_in_three_sat,
    parse_cnf,
    path,
    project_solution,
    reduce_1in3,
    reduce_mds,
    reduce_mtds,
    verify,
)
from sgdom import graph as graph_module
from sgdom.certify import emit_certificate
from sgdom.graph import Graph, GraphFormatError, emit_graph
from sgdom.reductions import InvalidSourceError, emit_provenance, gadget_size

from conftest import (
    all_signs,
    assert_format_error,
    feasible,
    format_error_cases,
    loop_1in3_gadget,
    loop_certificate_text,
    loop_graph_text,
    loop_provenance_text,
    loop_set_gadget,
    nbhd,
    random_connected_graph,
)


class TestFormula:
    def test_rejects_repeated_variable_in_clause(self):
        with pytest.raises(ValueError):
            ThreeSatFormula(3, ((1, 1, 2),))

    def test_rejects_out_of_range_variable(self):
        with pytest.raises(ValueError):
            ThreeSatFormula(3, ((1, 2, 4),))

    @pytest.mark.parametrize(
        "clauses, message",
        [
            (((1, 2),), "clause (1, 2) must have 3 distinct variables"),
            (((1, 2), (2, 3), (1, 3)), "clause (1, 2) must have 3 distinct variables"),
            (((1, 2, 3), (1, 2, 3, 1)), "clause (1, 2, 3, 1) must have 3 distinct variables"),
            (((1, 2, 3), (3, 0, 9)), "variable 0 out of range in clause (3, 0, 9)"),
            (((1, 2, 3), (3, 10**30, 2)), f"variable {10**30} out of range in clause"),
            (((1, 2, 3.5),), "variable 3.5 out of range in clause (1, 2, 3.5)"),
            (((1.5, 2, 3),), "variable 1.5 is not an integer in clause (1.5, 2, 3)"),
            ((("1", "2", "3"),), "variable 1 is not an integer in clause ('1', '2', '3')"),
            (((True, 2, 3),), "variable True is not an integer in clause (True, 2, 3)"),
            ((5,), "clause 5 must have 3 distinct variables"),
            ((([1], 2, 3),), "clause ([1], 2, 3) must have 3 distinct variables"),
        ],
        ids=[
            "short", "all-short", "ragged", "range", "huge", "non-integer", "fraction",
            "string", "bool", "not-a-sequence", "unhashable",
        ],
    )
    def test_names_the_first_bad_clause(self, clauses, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ThreeSatFormula(3, clauses)

    def test_parse_cnf(self):
        formula = parse_cnf("c comment\np cnf 4 2\n1 2 3 0\n2 3 4 0\n")
        assert formula.num_vars == 4
        assert formula.clauses == ((1, 2, 3), (2, 3, 4))

    @pytest.mark.parametrize(
        "text, line, message",
        format_error_cases(
            ("p cnf 3 1\n1 -2 3 0\n", 2, "negative literals are not allowed"),
            ("p cnf 3 1\n1 2 3\n", 2, "clause must be three literals then 0"),
            ("p cnf 3 2\n1 2 3 0\n", None, "header declares 2 clauses, found 1"),
            ("1 2 3 0\n", 1, "'1' before header"),
            # A clause line has no tag: a stray one is a malformed clause.
            ("p cnf 3 1\nx 1 2\n", 2, "malformed clause line 'x 1 2'"),
            ("", None, "missing header"),
            ("c x\n", None, "missing header"),
        ),
    )
    def test_parse_errors(self, text, line, message):
        assert_format_error(parse_cnf, text, line, message)

    @pytest.mark.parametrize(
        "header,message",
        [
            ("p cnf x 1", "malformed header"),
            ("p cnf 3 y", "malformed header"),
            ("p cnf -1 0", "negative counts"),
            ("p cnf 3 -1", "negative counts"),
            ("p cnf 0 0", "at least one variable"),
        ],
    )
    def test_bad_header_reports_its_line(self, header, message):
        with pytest.raises(GraphFormatError, match=message) as exc:
            parse_cnf(f"c comment\n{header}\n")
        assert exc.value.line == 2

    @pytest.mark.parametrize(
        "clause,message",
        [
            ("1 1 2 0", "distinct"),  # repeated variable
            ("0 1 2 0", "out of range"),  # zero literal
            ("1 2 4 0", "out of range"),  # variable above n
        ],
    )
    def test_bad_clause_reports_its_line(self, clause, message):
        with pytest.raises(GraphFormatError, match=message) as exc:
            parse_cnf(f"p cnf 3 2\n1 2 3 0\n{clause}\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "body,line,message",
        [
            ("1 x", 3, "malformed clause line '1 x'"),
            ("1 2 x 0", 3, "malformed clause line '1 2 x 0'"),
            ("1 2 3", 3, "clause must be three literals then 0"),
            ("1 2 3 0 0", 3, "clause must be three literals then 0"),
            ("1 2 3 4", 3, "clause must be three literals then 0"),
            ("1 -2 3 0", 3, "negative literals are not allowed"),
            ("0 1 2 0", 3, "variable out of range 1..3 in clause (0, 1, 2)"),
            (
                "1 99999999999999999999 2 0", 3,
                "variable out of range 1..3 in clause (1, 99999999999999999999, 2)",
            ),
            ("1 1 2 0", 3, "clause (1, 1, 2) must have 3 distinct variables"),
            ("3 2 1 0\np cnf 3 2", 4, "duplicate header"),
            ("1 1 2 0\np cnf 3 2", 3, "clause (1, 1, 2) must have 3 distinct variables"),
            ("c note\n2 2 1 0\n1 x", 4, "clause (2, 2, 1) must have 3 distinct variables"),
            ("3 2 1 0\n1 2 3 0", None, "header declares 2 clauses, found 3"),
            # The first bad row wins, whether its terminator or its clause is wrong.
            ("1 2 3 4\n1 1 2 0", 3, "clause must be three literals then 0"),
            ("1 1 2 0\n1 2 3 4", 3, "clause (1, 1, 2) must have 3 distinct variables"),
        ],
    )
    def test_clause_errors_are_pinned(self, body, line, message):
        """Every clause error, as str and as bytes, with the line it names:
        the first offending line, whichever error it has."""
        assert_format_error(parse_cnf, f"p cnf 3 2\n1 2 3 0\n{body}\n", line, message)


class TestMtdsConstruction:
    def test_path_instance(self):
        art = reduce_mtds(path(3), 1)
        # t = (0, 1, 0): one K_3 hanging off the center
        assert art.graph.n == 6
        assert art.T == 3
        assert art.threshold(2) == 4  # r -> 2r - 3 + 3

    def test_vertex_count_formula(self):
        for g, k in [(cycle(5), 1), (complete(4), 2), (path(4), 3)]:
            art = reduce_mtds(g, k)
            expected_t = (k + 2) * sum(g.degree(v) + k - 2 for v in range(g.n))
            assert art.T == expected_t
            assert art.graph.n == g.n + expected_t

    def test_c4_k2(self):
        art = reduce_mtds(cycle(4), 2)
        assert art.T == 32 and art.graph.n == 36

    def test_copy_degree_formula(self):
        for g, k in [(path(4), 1), (cycle(5), 2)]:
            art = reduce_mtds(g, k)
            for v in range(g.n):
                assert art.graph.degree(v) == 2 * g.degree(v) + k - 2

    def test_rejects_isolated_vertices(self):
        with pytest.raises(InvalidSourceError):
            reduce_mtds(Graph(3, [(0, 1)]), 1)

    def test_provenance_resolves(self):
        art = reduce_mtds(path(3), 1)
        assert art.vertex_of(("original", 2)) == 1
        assert len(art.provenance) == art.graph.n
        text = emit_provenance(art)
        assert "clique_block(2,1,0)" in text


class TestMdsConstruction:
    def test_path_instance(self):
        art = reduce_mds(path(3), 1)
        # s = (1, 2, 1): four K_2 blocks
        assert art.graph.n == 11
        assert art.T == 8
        assert art.threshold(1) == 7  # r -> 2r + 5

    def test_triangle_instance(self):
        art = reduce_mds(complete(3), 1)
        assert art.T == 12 and art.graph.n == 15

    def test_known_sigma_value(self):
        art = reduce_mds(path(3), 1)
        assert brute_force_sigma(art.graph, 1, Mode.CLOSED).value == 7

    def test_rejects_isolated_vertices(self):
        with pytest.raises(InvalidSourceError):
            reduce_mds(Graph(1), 1)


class TestReductionIdentities:
    # Fast subset; the full corpus runs in the acceptance suite.
    @pytest.mark.parametrize("g", [path(3), path(4), cycle(4)])
    def test_total_identity(self, g):
        art = reduce_mtds(g, 1)
        lhs = brute_force_sigma(art.graph, 1, Mode.TOTAL).value
        assert lhs == 2 * gamma_t(g) - g.n + art.T

    @pytest.mark.parametrize("g", [path(3), path(4), complete(3)])
    def test_closed_identity(self, g):
        art = reduce_mds(g, 1)
        lhs = brute_force_sigma(art.graph, 1, Mode.CLOSED).value
        assert lhs == 2 * gamma(g) - g.n + art.T

    def test_block_vertices_forced_plus(self):
        # every clique-block vertex is +1 in every feasible certificate
        art = reduce_mtds(path(3), 1)
        h, _, _ = loop_set_gadget(path(3), 1, "mtds")
        assert art.graph == h
        block = [v for v, label in enumerate(art.provenance) if label[0] != "original"]
        for values in all_signs(h.n):
            if feasible(h, 1, Mode.TOTAL, values):
                assert all(values[v] == 1 for v in block)


def _assert_matches_reference(art, graph, T, provenance):
    assert art.graph == graph
    assert art.T == T
    assert art.provenance == provenance
    assert all(art.vertex_of(label) == v for v, label in enumerate(provenance))
    assert emit_graph(art.graph) == loop_graph_text(graph)
    assert emit_provenance(art) == loop_provenance_text(provenance)


class TestArrayBuilders:
    """The array-built gadgets equal the per-edge reference builders: the
    same graph, T, labels and text."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind, reduce", [("mds", reduce_mds), ("mtds", reduce_mtds)])
    def test_set_reductions(self, kind, reduce, k):
        rng = random.Random(f"{kind}-{k}")
        for n, p in [(2, 0.0), (3, 1.0), (7, 0.3), (20, 0.2), (60, 0.05)]:
            g = random_connected_graph(rng, n, p)
            reference = loop_set_gadget(g, k, kind)
            _assert_matches_reference(reduce(g, k), *reference)
            assert gadget_size(kind, k, g.n, g.m) == (reference[0].n, reference[0].m)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_1in3_reduction(self, k):
        rng = random.Random(k)
        for num_vars, m in [(1, 0), (3, 1), (5, 4), (12, 20)]:
            clauses = tuple(tuple(rng.sample(range(1, num_vars + 1), 3)) for _ in range(m))
            formula = ThreeSatFormula(num_vars, clauses)
            reference = loop_1in3_gadget(formula, k)
            _assert_matches_reference(reduce_1in3(formula, k), *reference)
            assert gadget_size("1in3", k, num_vars, m) == (reference[0].n, reference[0].m)

    def test_text_written_in_blocks(self, monkeypatch):
        """With two rows per `%`, every writer still joins its blocks into
        the text of the per-line references."""
        monkeypatch.setattr(graph_module, "_EMIT_BLOCK", 2)
        formula = ThreeSatFormula(3, ((1, 2, 3),))
        for art, (graph, _, provenance) in [
            (reduce_mds(path(3), 2), loop_set_gadget(path(3), 2, "mds")),
            (reduce_1in3(formula, 1), loop_1in3_gadget(formula, 1)),
        ]:
            assert emit_graph(art.graph) == loop_graph_text(graph)
            assert emit_provenance(art) == loop_provenance_text(provenance)
        for values in [(), (1,), (1, -1), (-1, 1, 1, -1, 1)]:
            f = SignFunction(values)
            assert emit_certificate(f, 2, Mode.TOTAL) == loop_certificate_text(f, 2, Mode.TOTAL)

    def test_peak_memory_of_a_gadget_build(self):
        """Building a gadget of 5k vertices and 99k edges holds at most four
        times the bytes of the rows the graph keeps: the edge array and its
        sorted keys, which become the rows."""
        tracemalloc.start()
        try:
            h = reduce_mds(path(3), 40).graph
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (h._nbr.nbytes + h._ptr.nbytes)

    def test_peak_memory_of_writing_a_gadget(self):
        """Writing the 99k edges of a gadget holds at most five times the
        bytes of the text: the edge columns, one block's record and the text
        twice while its blocks are joined, with no stacked or shifted copy
        of the columns."""
        h = reduce_mds(path(3), 40).graph
        tracemalloc.start()
        try:
            text = emit_graph(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * len(text)


class TestSatConstruction:
    def test_single_clause(self):
        formula = ThreeSatFormula(3, ((1, 2, 3),))
        art = reduce_1in3(formula, 1)
        assert art.graph.n == 15
        assert art.threshold() == 9

    def test_vertex_count_formula(self):
        formula = ThreeSatFormula(4, ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))
        art = reduce_1in3(formula, 1)
        assert art.graph.n == 28
        assert art.threshold() == 20

    def test_variable_block_missing_edge(self):
        art = reduce_1in3(ThreeSatFormula(3, ((1, 2, 3),)), 1)
        x1 = art.vertex_of(("variable_block", 1, 0))
        x2 = art.vertex_of(("variable_block", 1, 1))
        assert not art.graph.has_edge(x1, x2)
        x3 = art.vertex_of(("variable_block", 1, 2))
        assert art.graph.has_edge(x1, x3) and art.graph.has_edge(x2, x3)

    def test_cross_edges(self):
        art = reduce_1in3(ThreeSatFormula(3, ((1, 2, 3),)), 1)
        c1 = art.vertex_of(("clause_block", 1, 0))
        for j in (1, 2, 3):
            assert art.graph.has_edge(c1, art.vertex_of(("variable_block", j, 0)))

    def test_satisfiable_side(self):
        art = reduce_1in3(ThreeSatFormula(3, ((1, 2, 3),)), 1)
        assert brute_force_upper(art.graph, 1).value >= 9


class TestLiftProject:
    def test_mtds_round_trip(self):
        g = path(3)
        art = reduce_mtds(g, 1)
        s = {0, 1}
        f = lift_solution(s, art)
        assert f.weight == 2 * len(s) - g.n + art.T
        assert verify(art.graph, 1, Mode.TOTAL, f).feasible
        assert project_solution(f, art) == frozenset(s)

    def test_mds_round_trip(self):
        g = path(3)
        art = reduce_mds(g, 1)
        f = lift_solution({1}, art)
        assert f.weight == 7
        assert verify(art.graph, 1, Mode.CLOSED, f).feasible
        assert project_solution(f, art) == frozenset({1})

    def test_project_optimal_certificate(self):
        g = path(3)
        art = reduce_mtds(g, 1)
        result = brute_force_sigma(art.graph, 1, Mode.TOTAL)
        s = project_solution(result.certificate, art)
        assert len(s) == (result.value + g.n - art.T) // 2 == gamma_t(g)

    def test_sat_lift_is_minimal_with_threshold_weight(self):
        formula = ThreeSatFormula(3, ((1, 2, 3),))
        art = reduce_1in3(formula, 1)
        witness = one_in_three_sat(formula)
        f = lift_solution(witness, art)
        assert f.weight == art.threshold()
        assert verify(art.graph, 1, Mode.CLOSED, f).feasible
        assert is_minimal_skdf(art.graph, 1, f).minimal
        assert project_solution(f, art) == witness

    def test_sat_projection_yields_exactly_one_true(self):
        formula = ThreeSatFormula(3, ((1, 2, 3),))
        art = reduce_1in3(formula, 1)
        for witness in [(True, False, False), (False, True, False), (False, False, True)]:
            f = lift_solution(witness, art)
            back = project_solution(f, art)
            assert back == witness
            assert sum(back) == 1

    def test_all_plus_variable_block_breaks_minimality(self):
        # setting a whole variable block to +1 leaves x'' without a tight
        # closed neighbor
        formula = ThreeSatFormula(3, ((1, 2, 3),))
        art = reduce_1in3(formula, 1)
        witness = one_in_three_sat(formula)
        f = lift_solution(witness, art)
        values = list(f.values)
        for idx in range(4):
            values[art.vertex_of(("variable_block", 3, idx))] = 1
        raised = SignFunction(tuple(values))
        assert verify(art.graph, 1, Mode.CLOSED, raised).feasible
        assert not is_minimal_skdf(art.graph, 1, raised).minimal

    def test_lift_rejects_non_dominating_set(self):
        art = reduce_mtds(path(3), 1)
        with pytest.raises(InvalidSourceError):
            lift_solution({0}, art)
        # Every subset of a small source graph that leaves exactly one vertex
        # uncovered (found by a plain loop) is refused, in both modes.
        g = random_connected_graph(random.Random(5), 7, 0.3)
        for reduce, mode in ((reduce_mds, Mode.CLOSED), (reduce_mtds, Mode.TOTAL)):
            art = reduce(g, 1)
            tried = 0
            for size in range(g.n + 1):
                for s in combinations(range(g.n), size):
                    uncovered = [v for v in range(g.n) if not set(nbhd(g, v, mode)) & set(s)]
                    if len(uncovered) == 1:
                        tried += 1
                        with pytest.raises(InvalidSourceError):
                            lift_solution(s, art)
            assert tried > 0

    def test_lift_rejects_bad_assignment(self):
        art = reduce_1in3(ThreeSatFormula(3, ((1, 2, 3),)), 1)
        with pytest.raises(InvalidSourceError):
            lift_solution((True, True, False), art)

    @pytest.mark.parametrize(
        "assignment, clause",
        [
            ((True, True, False, False), "(1, 2, 3)"),  # two TRUE literals
            ((True, False, False, False), "(2, 3, 4)"),  # none, after a satisfied clause
        ],
    )
    def test_lift_names_the_first_unsatisfied_clause(self, assignment, clause):
        art = reduce_1in3(ThreeSatFormula(4, ((1, 2, 3), (2, 3, 4))), 1)
        with pytest.raises(
            InvalidSourceError, match=f"^clause {re.escape(clause)} is not 1-in-3 satisfied$"
        ):
            lift_solution(assignment, art)

    def test_lift_rejects_wrong_length_or_foreign_vertices(self):
        art = reduce_1in3(ThreeSatFormula(3, ((1, 2, 3),)), 1)
        with pytest.raises(InvalidSourceError, match="^assignment length != variable count$"):
            lift_solution((True, False), art)
        art = reduce_mds(path(3), 1)
        for source in ({0, 3}, {-1, 1}):
            with pytest.raises(
                InvalidSourceError, match="^solution contains vertices outside the source graph$"
            ):
                lift_solution(source, art)

    def test_project_rejects_wrong_length_infeasible_or_light_sat_certificate(self):
        art = reduce_1in3(ThreeSatFormula(3, ((1, 2, 3),)), 1)
        with pytest.raises(InvalidSourceError, match="^certificate length != gadget order$"):
            project_solution(SignFunction((1,) * (art.graph.n - 1)), art)
        with pytest.raises(InvalidSourceError, match="^certificate is not a feasible SkDF$"):
            project_solution(SignFunction((-1,) * art.graph.n), art)
        # A minimum certificate is minimal, but lighter than the threshold.
        light = brute_force_sigma(art.graph, 1, Mode.CLOSED).certificate
        assert (light.weight, art.threshold_value) == (7, 9)
        assert is_minimal_skdf(art.graph, 1, light).minimal
        with pytest.raises(
            InvalidSourceError, match="^certificate weight below the SAT threshold$"
        ):
            project_solution(light, art)

    def test_project_rejects_infeasible_certificate(self):
        art = reduce_mds(path(3), 1)
        with pytest.raises(InvalidSourceError):
            project_solution(SignFunction((-1,) * art.graph.n), art)

    def test_project_rejects_non_minimal_sat_certificate(self):
        art = reduce_1in3(ThreeSatFormula(3, ((1, 2, 3),)), 1)
        all_plus = SignFunction((1,) * art.graph.n)
        assert verify(art.graph, 1, Mode.CLOSED, all_plus).feasible
        with pytest.raises(InvalidSourceError):
            project_solution(all_plus, art)
