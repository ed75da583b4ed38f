from fractions import Fraction

import pytest

from sgdom import (
    DegreeProfile,
    ExtremalSpec,
    Mode,
    brute_force_sigma,
    build_extremal,
    extremal_params,
    indicator,
    lower_bound,
    verify,
)

from conftest import circle_round


def admissible_triples(max_degree=5):
    for mode in (Mode.CLOSED, Mode.TOTAL):
        start = 2 if mode is Mode.CLOSED else 3
        for k in (1, 2):
            for delta in range(k + start - 1, max_degree + 1):
                for Delta in range(delta, max_degree + 1):
                    yield k, delta, Delta, mode


class TestParams:
    @pytest.mark.parametrize(
        "k,delta,Delta,mode,expected",
        [
            (1, 2, 3, Mode.CLOSED, (2, 1)),
            (1, 3, 4, Mode.TOTAL, (2, 1)),
            (1, 2, 2, Mode.CLOSED, (2, 1)),
        ],
    )
    def test_examples(self, k, delta, Delta, mode, expected):
        assert extremal_params(k, delta, Delta, mode) == expected

    def test_always_integral_and_in_range(self):
        for k, delta, Delta, mode in admissible_triples(8):
            a, b = extremal_params(k, delta, Delta, mode)
            assert 1 <= a <= delta
            assert 1 <= b <= Delta

    def test_degree_preconditions(self):
        for delta, Delta, mode, message in (
            (1, 3, Mode.CLOSED, "closed-mode construction requires delta >= k+1"),
            (2, 3, Mode.TOTAL, "total-mode construction requires delta >= k+2"),
            (4, 3, Mode.CLOSED, "need Delta >= delta"),
        ):
            with pytest.raises(ValueError) as err:
                extremal_params(1, delta, Delta, mode)
            assert str(err.value) == message


class TestSpec:
    def test_rejects_odd_t(self):
        with pytest.raises(ValueError):
            ExtremalSpec(1, 2, 3, 3, Mode.CLOSED)

    def test_rejects_small_t(self):
        with pytest.raises(ValueError):
            ExtremalSpec(1, 2, 3, 2, Mode.CLOSED)

    def test_smallest_t(self):
        assert ExtremalSpec.smallest(1, 2, 3, Mode.CLOSED).t == 4
        assert ExtremalSpec.smallest(1, 2, 4, Mode.CLOSED).t == 6


class TestBuild:
    def test_reference_instance(self):
        spec = ExtremalSpec(1, 2, 3, 4, Mode.CLOSED)
        # The block sides are fields kept out of repr, equality and hash.
        assert (spec.a, spec.b) == (2, 1)
        assert repr(spec) == (
            "ExtremalSpec(k=1, delta=2, Delta=3, t=4, mode=<Mode.CLOSED: 'closed'>)"
        )
        twin = ExtremalSpec(1, 2, 3, 4, Mode.CLOSED)
        assert twin == spec and hash(twin) == hash(spec)
        g, cert = build_extremal(spec)
        assert g.n == 12
        assert all(g.degree(v) == 3 for v in spec.p_vertices)
        assert all(g.degree(v) == 2 for v in spec.q_vertices)
        assert cert.weight == 4
        assert brute_force_sigma(g, 1, Mode.CLOSED).value == 4

    def test_total_reference_instance(self):
        spec = ExtremalSpec(1, 3, 4, 6, Mode.TOTAL)
        g, cert = build_extremal(spec)
        assert g.n == 18
        assert cert.weight == 6 == lower_bound(DegreeProfile(18, 3, 4, 1), Mode.TOTAL)
        assert verify(g, 1, Mode.TOTAL, cert).feasible

    def test_degree_exactness_and_sharpness_sweep(self):
        for k, delta, Delta, mode in admissible_triples(5):
            spec = ExtremalSpec.smallest(k, delta, Delta, mode)
            g, cert = build_extremal(spec)
            assert all(g.degree(v) == Delta for v in spec.p_vertices)
            assert all(g.degree(v) == delta for v in spec.q_vertices)
            assert g.min_degree == delta and g.max_degree == Delta
            report = verify(g, k, mode, cert)
            assert report.feasible
            profile = DegreeProfile(g.n, delta, Delta, k)
            assert Fraction(cert.weight) == lower_bound(profile, mode)

    def test_block_sums_match_formula_constants(self):
        for k, delta, Delta, mode in admissible_triples(4):
            spec = ExtremalSpec.smallest(k, delta, Delta, mode)
            g, cert = build_extremal(spec)
            sums = verify(g, k, mode, cert).per_vertex_sum
            if mode is Mode.CLOSED:
                p_sum = k + indicator(Delta, k)
                q_sum = k + indicator(delta, k)
            else:
                p_sum = k + 1 - indicator(Delta, k)
                q_sum = k + 1 - indicator(delta, k)
            assert all(sums[v] == p_sum for v in spec.p_vertices)
            assert all(sums[v] == q_sum for v in spec.q_vertices)

    def test_edges_are_blocks_and_first_circle_rounds(self):
        # P gets the first Delta-b rounds of the circle method on len(P)
        # points, Q the first delta-a rounds on len(Q), through the tuples.
        for k, delta, Delta, mode in admissible_triples(4):
            smallest = ExtremalSpec.smallest(k, delta, Delta, mode)
            for t in (smallest.t, smallest.t + 2):
                spec = ExtremalSpec(k, delta, Delta, t, mode)
                block = spec.a + spec.b
                expected = {
                    (u, v)
                    for u in spec.p_vertices
                    for v in spec.q_vertices
                    if u // block == v // block
                }
                for side, rounds in (
                    (spec.p_vertices, Delta - spec.b),
                    (spec.q_vertices, delta - spec.a),
                ):
                    for r in range(rounds):
                        expected |= {(side[u], side[v]) for u, v in circle_round(len(side), r)}
                g, _ = build_extremal(spec)
                assert set(g.edges()) == expected

    def test_infinite_family_shares_bound_ratio(self):
        g1, c1 = build_extremal(ExtremalSpec(1, 2, 3, 4, Mode.CLOSED))
        g2, c2 = build_extremal(ExtremalSpec(1, 2, 3, 6, Mode.CLOSED))
        assert g1.n != g2.n
        assert Fraction(c1.weight, g1.n) == Fraction(c2.weight, g2.n)

    def test_deterministic(self):
        from sgdom import emit_graph

        spec = ExtremalSpec(2, 4, 5, 6, Mode.CLOSED)
        a = build_extremal(spec)
        b = build_extremal(spec)
        assert emit_graph(a[0]) == emit_graph(b[0]) and a[1] == b[1]

    def test_equal_degrees_admitted(self):
        spec = ExtremalSpec.smallest(1, 3, 3, Mode.CLOSED)
        g, cert = build_extremal(spec)
        assert g.min_degree == g.max_degree == 3
        assert verify(g, 1, Mode.CLOSED, cert).feasible
