"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import random
from fractions import Fraction
from itertools import product

import networkx as nx
import pytest

from sgdom import (
    DegreeProfile,
    ExtremalSpec,
    Mode,
    SignFunction,
    ThreeSatFormula,
    bnb_sigma,
    brute_force_sigma,
    brute_force_upper,
    build_extremal,
    complete,
    cycle,
    effective_bound,
    gamma,
    gamma_t,
    indicator,
    is_minimal_skdf,
    lift_solution,
    lower_bound,
    nearly_regular_bound,
    nonneg_check,
    one_factorization,
    one_in_three_sat,
    path,
    reduce_1in3,
    reduce_mds,
    reduce_mtds,
    threshold_check,
    verify,
)
from sgdom.solve import OPTIMAL

from conftest import DrawnGraph, definitionally_minimal, feasible, random_connected_graph

MAX_BRUTE_N = 24


def _report(name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def _from_networkx(h) -> DrawnGraph:
    relabel = {u: i for i, u in enumerate(sorted(h.nodes()))}
    return DrawnGraph(h.number_of_nodes(), [(relabel[u], relabel[v]) for u, v in h.edges()])


def _atlas_graphs(min_n, max_n, connected_only):
    for h in nx.graph_atlas_g()[1:]:
        n = h.number_of_nodes()
        if n < min_n or n > max_n:
            continue
        if connected_only and (n == 0 or not nx.is_connected(h)):
            continue
        yield _from_networkx(h)


@pytest.fixture(scope="module")
def corpus():
    """200 random connected graphs, n in [4, 14], density sweep, with the
    brute-force sigma values for k in {1,2,3} and both modes."""
    rng = random.Random(0x5D0)
    entries = []
    densities = [0.15, 0.3, 0.5, 0.7, 0.9]
    for i in range(200):
        n = 4 + i % 11
        g = random_connected_graph(rng, n, densities[i % len(densities)])
        results = {}
        for k in (1, 2, 3):
            for mode in (Mode.CLOSED, Mode.TOTAL):
                need = k - 1 if mode is Mode.CLOSED else k
                if g.min_degree < need:
                    continue
                results[(k, mode)] = brute_force_sigma(g, k, mode)
        entries.append((g, results))
    return entries


def test_criterion_1_oracle_equivalence(corpus):
    checked = 0
    for g, results in corpus:
        for (k, mode), bf in results.items():
            bb = bnb_sigma(g, k, mode)
            assert bb.status == bf.status
            if bf.status == OPTIMAL:
                assert bb.value == bf.value
                for result in (bf, bb):
                    report = verify(g, k, mode, result.certificate)
                    assert report.feasible
                    assert result.certificate.weight == result.value
            checked += 1
    assert checked >= 200
    _report(f"criterion 1: bnb == brute force on {checked} solver runs", True)


def test_criterion_2_bound_soundness(corpus):
    checked = 0
    for g, results in corpus:
        for (k, mode), bf in results.items():
            if bf.status != OPTIMAL:
                continue
            p = DegreeProfile.of_graph(g, k)
            assert Fraction(bf.value) >= lower_bound(p, mode)
            assert bf.value >= effective_bound(p, mode)
            checked += 1
    _report(f"criterion 2: sigma >= rational lower bound on {checked} instances", True)


def test_criterion_3_sharpness():
    count = 0
    for mode in (Mode.CLOSED, Mode.TOTAL):
        low = 1 if mode is Mode.CLOSED else 2
        for k in (1, 2):
            for delta in range(k + low, 6):
                for Delta in range(delta, 6):
                    spec = ExtremalSpec.smallest(k, delta, Delta, mode)
                    g, cert = build_extremal(spec)
                    assert verify(g, k, mode, cert).feasible
                    p = DegreeProfile(g.n, delta, Delta, k)
                    assert Fraction(cert.weight) == lower_bound(p, mode)
                    count += 1
    g, _ = build_extremal(ExtremalSpec(1, 2, 3, 4, Mode.CLOSED))
    assert g.n == 12
    assert brute_force_sigma(g, 1, Mode.CLOSED).value == 4
    _report(f"criterion 3: {count} extremal constructions attain the bound exactly", True)


def _identity_corpus():
    for g in _atlas_graphs(3, 5, connected_only=True):
        yield g, 1
    for g in (path(3), path(4), cycle(4)):
        yield g, 2


def test_criterion_4_reduction_identity_total():
    checked = skipped = 0
    for g, k in _identity_corpus():
        art = reduce_mtds(g, k)
        if art.graph.n > MAX_BRUTE_N:
            skipped += 1
            continue
        lhs = brute_force_sigma(art.graph, k, Mode.TOTAL, max_n=MAX_BRUTE_N).value
        assert lhs == 2 * gamma_t(g) - g.n + art.T
        checked += 1
    _report(
        f"criterion 4: total-mode reduction identity on {checked} instances "
        f"({skipped} over the brute cap)",
        True,
    )


def test_criterion_5_reduction_identity_closed():
    checked = skipped = 0
    for g, k in _identity_corpus():
        art = reduce_mds(g, k)
        if art.graph.n > MAX_BRUTE_N:
            skipped += 1
            continue
        lhs = brute_force_sigma(art.graph, k, Mode.CLOSED, max_n=MAX_BRUTE_N).value
        assert lhs == 2 * gamma(g) - g.n + art.T
        checked += 1
    _report(
        f"criterion 5: closed-mode reduction identity on {checked} instances "
        f"({skipped} over the brute cap)",
        True,
    )


def test_criterion_6_sat_reduction():
    satisfiable = [
        ThreeSatFormula(3, ((1, 2, 3),)),                # 15 vertices
        ThreeSatFormula(3, ((1, 2, 3), (1, 2, 3))),      # 18 vertices
        ThreeSatFormula(4, ((1, 2, 4),)),                # 19 vertices
    ]
    for formula in satisfiable:
        k = 1
        art = reduce_1in3(formula, k)
        assert art.graph.n <= 20
        threshold = (k + 1) * formula.num_vars + (k + 2) * formula.num_clauses
        assert art.threshold() == threshold
        assert brute_force_upper(art.graph, k).value >= threshold
        witness = one_in_three_sat(formula)
        assert witness is not None
        f = lift_solution(witness, art)
        assert f.weight == threshold
        assert verify(art.graph, k, Mode.CLOSED, f).feasible
        assert is_minimal_skdf(art.graph, k, f).minimal
    unsat = ThreeSatFormula(4, ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)))
    assert one_in_three_sat(unsat) is None
    _report("criterion 6: SAT reduction satisfiable side + SAT-level unsat", True)


def test_criterion_7_complete_graph_closed_forms():
    for k in range(1, 13):
        for n in range(k, 13):
            expected = k + 1 - indicator(n, k)
            assert brute_force_sigma(complete(n), k, Mode.CLOSED).value == expected
        for n in range(k + 1, 13):
            expected = k + 1 + indicator(n, k)
            assert brute_force_sigma(complete(n), k, Mode.TOTAL).value == expected
    _report("criterion 7: complete-graph closed forms for k <= n <= 12", True)


def test_criterion_8_minimality_equivalence():
    rng = random.Random(0x5D8)
    graphs = list(_atlas_graphs(0, 4, connected_only=False))
    for _ in range(100):
        edges = [
            (u, v) for u in range(5) for v in range(u + 1, 5) if rng.random() < 0.5
        ]
        graphs.append(DrawnGraph(5, edges))
    compared = 0
    for g in graphs:
        for k in (1, 2):
            for values in product((-1, 1), repeat=g.n):
                if not feasible(g, k, Mode.CLOSED, values):
                    continue
                got = is_minimal_skdf(g, k, SignFunction(values)).minimal
                assert got == definitionally_minimal(g, k, values)
                compared += 1
    assert compared > 0
    _report(
        f"criterion 8: single-flip == definitional minimality on {compared} "
        f"certificates over {len(graphs)} graphs",
        True,
    )


def test_criterion_9_corollary_consistency():
    for k in range(1, 5):
        for r in range(k, k + 11):
            p = DegreeProfile(60, r - 1, r, k)
            assert nearly_regular_bound(60, r, k, Mode.CLOSED) == lower_bound(
                p, Mode.CLOSED
            )
            if r - 1 >= k:
                assert nearly_regular_bound(60, r, k, Mode.TOTAL) == lower_bound(
                    p, Mode.TOTAL
                )
    cs = [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
    for k in (1, 2, 3):
        for delta in range(k, k + 6):
            for Delta in range(delta, delta + 8):
                p = DegreeProfile(18, delta, Delta, k)
                for c in cs:
                    for mode in (Mode.CLOSED, Mode.TOTAL):
                        if threshold_check(p, c, mode):
                            assert lower_bound(p, mode) >= c * p.n
    for k in (1, 2, 3):
        for delta in range(k, k + 6):
            for Delta in range(delta, delta + 2 * k + 1):
                cond, ok = nonneg_check(DegreeProfile(30, delta, Delta, k))
                assert cond and ok
    _report("criterion 9: corollaries consistent with the general bounds", True)


def test_criterion_10_one_factorization():
    for n in range(2, 41, 2):
        factors = one_factorization(n)
        assert len(factors) == n - 1
        seen = set()
        for factor in factors:
            assert factor.is_perfect_on(range(n))
            assert not (factor.pairs & seen)
            seen |= factor.pairs
        assert len(seen) == n * (n - 1) // 2
    _report("criterion 10: 1-factorization of K_n for all even n <= 40", True)
