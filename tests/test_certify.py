from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgdom import (
    Graph,
    Mode,
    SignFunction,
    complete,
    cycle,
    emit_certificate,
    forced_plus_vertices,
    is_minimal_skdf,
    parse_certificate,
    path,
    verify,
)
from sgdom.certify import _mode_rows
from sgdom.graph import GraphFormatError

from conftest import (
    DrawnGraph,
    all_signs,
    assert_format_error,
    definitionally_minimal,
    feasible,
    first_offending,
    forced_reference,
    format_error_cases,
    nbhd,
    nbhd_sums,
    random_graph,
)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(n=st.integers(0, 12), data=st.data())
def test_verify_matches_reference_sums(n, data):
    """verify's array sums, the forced vertices and the first offending
    vertex of minimality equal the per-vertex references in both modes, on
    graphs with isolated vertices and on the empty graph."""
    vertex = st.integers(0, max(n - 1, 0))
    edges = data.draw(
        st.lists(
            st.tuples(vertex, vertex).filter(lambda e: e[0] < e[1]),
            unique=True,
            max_size=2 * n if n >= 2 else 0,
        )
    )
    g = DrawnGraph(n, edges)
    values = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n))
    k = data.draw(st.integers(1, 3))
    for mode in Mode:
        report = verify(g, k, mode, SignFunction(tuple(values)))
        sums = nbhd_sums(g, mode, values)
        assert report.per_vertex_sum == tuple(sums)
        assert report.violations == frozenset(v for v in range(n) if sums[v] < k)
        assert report.min_slack == (min(sums) - k if n else None)
        assert report.feasible == (not report.violations)
        assert forced_plus_vertices(g, k, mode) == forced_reference(g, k, mode)
        if mode is Mode.CLOSED and report.feasible:
            f = SignFunction(tuple(values))
            assert is_minimal_skdf(g, k, f).offending == first_offending(g, k, values)


@pytest.mark.parametrize("mode", list(Mode))
def test_mode_rows_are_the_sorted_neighbourhoods(rng, mode):
    """Row v of _mode_rows is N_mode(v), sorted, as built from the edge list
    alone; the rows are read-only."""
    for _ in range(40):
        n = rng.randint(0, 12)
        g = random_graph(rng, n, 0.4)
        ptr, nbr = _mode_rows(g, mode)
        assert [nbr[a:b].tolist() for a, b in zip(ptr[:-1], ptr[1:])] == [
            nbhd(g, v, mode) for v in range(n)
        ]
        assert not ptr.flags.writeable and not nbr.flags.writeable


class TestVerify:
    def test_triangle_closed(self):
        # On a complete graph every closed sum equals the total weight.
        report = verify(complete(3), 1, Mode.CLOSED, SignFunction((1, 1, -1)))
        assert report.feasible
        assert report.per_vertex_sum == (1, 1, 1)
        assert report.min_slack == 0

    def test_c4_total_violations(self):
        f = SignFunction((1, 1, 1, -1))
        report = verify(cycle(4), 1, Mode.TOTAL, f)
        assert not report.feasible
        # vertices 0 and 2 are the neighbors of the -1 vertex
        assert report.violations == frozenset({0, 2})
        assert report.min_slack == -1

    def test_extremal_block_sums(self):
        from sgdom import ExtremalSpec, build_extremal

        spec = ExtremalSpec(1, 2, 3, 4, Mode.CLOSED)
        g, f = build_extremal(spec)
        report = verify(g, 1, Mode.CLOSED, f)
        assert report.feasible
        assert all(report.per_vertex_sum[v] == 2 for v in spec.p_vertices)
        assert all(report.per_vertex_sum[v] == 1 for v in spec.q_vertices)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            verify(path(3), 1, Mode.CLOSED, SignFunction((1, 1)))

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            verify(path(3), 0, Mode.CLOSED, SignFunction((1, 1, 1)))

    def test_empty_graph(self):
        report = verify(Graph(0), 1, Mode.CLOSED, SignFunction(()))
        assert report.feasible and report.min_slack is None


class TestSignFunction:
    def test_rejects_other_values(self):
        with pytest.raises(ValueError):
            SignFunction((1, 0, -1))

    def test_weight_and_parity(self, rng):
        for _ in range(50):
            n = rng.randint(0, 10)
            f = SignFunction(tuple(rng.choice((-1, 1)) for _ in range(n)))
            assert f.weight % 2 == n % 2

    def test_sum_parity_matches_neighborhood_size(self, rng):
        g = random_graph(rng, 8, 0.4)
        for values in [tuple(rng.choice((-1, 1)) for _ in range(8)) for _ in range(20)]:
            f = SignFunction(values)
            closed = verify(g, 1, Mode.CLOSED, f).per_vertex_sum
            open_ = verify(g, 1, Mode.TOTAL, f).per_vertex_sum
            for v in range(8):
                assert closed[v] % 2 == (g.degree(v) + 1) % 2
                assert open_[v] % 2 == g.degree(v) % 2


class TestMonotonicity:
    def test_raising_values_preserves_feasibility(self, rng):
        for _ in range(30):
            g = random_graph(rng, 7, 0.5)
            for values in all_signs(7):
                if not feasible(g, 1, Mode.CLOSED, values):
                    continue
                raised = tuple(
                    1 if rng.random() < 0.3 else x for x in values
                )
                assert verify(g, 1, Mode.CLOSED, SignFunction(raised)).feasible
                break


class TestMinimality:
    def test_triangle_minimal(self):
        report = is_minimal_skdf(complete(3), 1, SignFunction((1, 1, -1)))
        assert report.minimal
        assert report.offending is None

    def test_triangle_all_plus_not_minimal(self):
        report = is_minimal_skdf(complete(3), 1, SignFunction((1, 1, 1)))
        assert not report.minimal
        assert report.offending is not None

    def test_requires_feasible_input(self):
        with pytest.raises(ValueError):
            is_minimal_skdf(path(3), 1, SignFunction((-1, -1, -1)))

    def test_matches_definitional_minimality_small(self, rng):
        # single-flip criterion == subset-enumeration definition
        for _ in range(40):
            n = rng.randint(1, 5)
            g = random_graph(rng, n, 0.5)
            for k in (1, 2):
                for values in all_signs(n):
                    if not feasible(g, k, Mode.CLOSED, values):
                        continue
                    report = is_minimal_skdf(g, k, SignFunction(values))
                    assert report.minimal == definitionally_minimal(g, k, values)
                    assert report.offending == first_offending(g, k, values)


class TestForcedPlus:
    def test_path_closed(self):
        # N[0] and N[2] have k+1 = 2 vertices, so all of P3 is forced; the
        # all-+1 function is the only feasible one.
        assert forced_plus_vertices(path(3), 1, Mode.CLOSED) == frozenset({0, 1, 2})

    def test_c4_total_all_forced(self):
        assert forced_plus_vertices(cycle(4), 1, Mode.TOTAL) == frozenset(range(4))

    def test_k5_total_none_forced(self):
        assert forced_plus_vertices(complete(5), 2, Mode.TOTAL) == frozenset()

    def test_empty_graph(self):
        assert forced_plus_vertices(Graph(0), 1, Mode.CLOSED) == frozenset()

    def test_soundness_exhaustive(self, rng):
        for _ in range(20):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, 0.4)
            for k in (1, 2):
                for mode in (Mode.CLOSED, Mode.TOTAL):
                    forced = forced_plus_vertices(g, k, mode)
                    assert forced == forced_reference(g, k, mode)
                    for values in all_signs(n):
                        if feasible(g, k, mode, values):
                            assert all(values[v] == 1 for v in forced)


class TestDegreeInfeasibility:
    def test_low_degree_means_no_certificate(self, rng):
        for _ in range(20):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, 0.3)
            for k in (1, 2, 3):
                if g.min_degree < k - 1:
                    assert not any(
                        feasible(g, k, Mode.CLOSED, values) for values in all_signs(n)
                    )
                if g.min_degree < k:
                    assert not any(
                        feasible(g, k, Mode.TOTAL, values) for values in all_signs(n)
                    )


class TestCertificateFormat:
    def test_round_trip(self):
        f = SignFunction((1, -1, 1, 1))
        text = emit_certificate(f, 2, Mode.TOTAL)
        k, mode, parsed = parse_certificate(text)
        assert (k, mode, parsed) == (2, Mode.TOTAL, f)

    @pytest.mark.parametrize(
        "values, text",
        [
            ((1, -1, -1, 1), "s sgd-cert 4 2 total\nv 1 +1\nv 2 -1\nv 3 -1\nv 4 +1\n"),
            ((-1,), "s sgd-cert 1 2 total\nv 1 -1\n"),
            ((), "s sgd-cert 0 2 total\n"),
        ],
    )
    def test_emitted_bytes(self, values, text):
        assert emit_certificate(SignFunction(values), 2, Mode.TOTAL) == text

    def test_any_vertex_order(self):
        text = "s sgd-cert 2 1 closed\nv 2 -1\nv 1 +1\n"
        _, _, f = parse_certificate(text)
        assert f.values == (1, -1)

    def test_any_integer_spelling_of_a_sign(self):
        """A value is read as `int` reads it, in either lane; `_` is not
        canonical, so `+0_1` is read line by line only."""
        text = "s sgd-cert 3 1 closed\nv 1 01\nv 2 -01\nv 3 +0_1\n"
        want = (1, Mode.CLOSED, SignFunction((1, -1, 1)))
        assert parse_certificate(text) == want
        canonical = text.replace("+0_1", "+01")
        with mock.patch("sgdom.graph._canonical_rows", return_value=None):
            assert parse_certificate(canonical) == want
        with mock.patch("sgdom.graph._line_rows", side_effect=AssertionError("per-line path")):
            assert parse_certificate(canonical) == want

    @pytest.mark.parametrize(
        "text, line, message",
        format_error_cases(
            ("s sgd-cert 2 1 closed\nv 1 +1\n", None, "expected 2 vertex values, found 1"),
            ("s sgd-cert 2 1 closed\nv 1 +1\nv 1 -1\nv 2 +1\n", 3, "vertex 1 assigned twice"),
            ("s sgd-cert 2 1 closed\nv 1 +2\nv 2 +1\n", 2, "malformed value line 'v 1 +2'"),
            (
                "s sgd-cert 2 1 sideways\nv 1 +1\nv 2 +1\n", 1,
                "malformed header 's sgd-cert 2 1 sideways'",
            ),
            ("v 1 +1\n", 1, "'v' before header"),
            (
                "s sgd-cert 2 1 closed\nv 99999999999999999999 +1\nv 2 +1\n", 2,
                "vertex 99999999999999999999 out of range",
            ),
            ("s sgd-cert 1 1 closed\nx 1 2\n", 2, "unrecognized line 'x 1 2'"),
            ("", None, "missing header"),
            ("c\n", None, "missing header"),
        ),
    )
    def test_format_errors(self, text, line, message):
        assert_format_error(parse_certificate, text, line, message)

    @pytest.mark.parametrize(
        "body, error",
        [
            ("v 1 +1\nv 1 -1\nv x +1\nw", "line 3: vertex 1 assigned twice"),
            ("v 1 +1\nv x +1\nv 1 -1", "line 3: malformed value line 'v x +1'"),
            ("c\nv 4 +1\nv 1 +2", "line 3: vertex 4 out of range"),
            ("v 1 +1\nv 2 +1\nv 3 +2\nv 0 -1", "line 4: malformed value line 'v 3 +2'"),
            ("v 1 +1\nv 2 +1\ns sgd-cert 3 1 closed", "line 4: duplicate header"),
            ("v 1 0", "line 2: malformed value line 'v 1 0'"),
            ("v 1 -2", "line 2: malformed value line 'v 1 -2'"),
            ("v 1 10", "line 2: malformed value line 'v 1 10'"),
            # Beyond int64, too, and not read as some sign.
            ("v 1 99999999999999999999", "line 2: malformed value line 'v 1 99999999999999999999'"),
            # A line's value is checked before its vertex.
            ("v 0 2", "line 2: malformed value line 'v 0 2'"),
            ("v 1 +1\nv 1 2", "line 3: malformed value line 'v 1 2'"),
            ("v 1 +1\nv 2 +1", "expected 3 vertex values, found 2"),
        ],
    )
    def test_first_offending_line_is_named(self, body, error):
        with pytest.raises(GraphFormatError) as exc:
            parse_certificate("s sgd-cert 3 1 closed\n" + body)
        assert str(exc.value) == error
