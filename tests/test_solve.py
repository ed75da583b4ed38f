import random
import sys
from collections import Counter
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from sgdom import (
    Graph,
    Mode,
    SignFunction,
    ThreeSatFormula,
    bnb_sigma,
    brute_force_sigma,
    brute_force_upper,
    complete,
    cycle,
    forced_plus_vertices,
    gamma,
    gamma_t,
    one_in_three_sat,
    path,
    reduce_1in3,
    reduce_mds,
    reduce_mtds,
    verify,
)
from sgdom import solve
from sgdom.bounds import DegreeProfile, bound_terms, indicator, lower_bound
from sgdom.solve import CAP_EXCEEDED, INFEASIBLE, OPTIMAL, CapExceededError, InfeasibleError

from conftest import (
    DrawnGraph,
    drawn_complete,
    drawn_cycle,
    drawn_path,
    exhaustive_sigma,
    exhaustive_upper,
    first_optimum,
    mode_rows,
    nbhd,
    nbhd_sums,
    random_connected_graph,
    random_graph,
)


class TestBruteForceSigma:
    @pytest.mark.parametrize(
        "g,k,mode,expected",
        [
            (drawn_complete(4), 1, Mode.CLOSED, 2),
            (drawn_cycle(5), 1, Mode.CLOSED, 3),  # frozen from exhaustive_sigma
            (drawn_cycle(4), 1, Mode.TOTAL, 4),
            (drawn_complete(5), 2, Mode.TOTAL, 3),
            # All-plus is the only certificate: every leaf neighborhood has
            # size 2 and must reach an odd threshold (the star K_{1,5}).
            (DrawnGraph(6, [(0, v) for v in range(1, 6)]), 1, Mode.CLOSED, 6),
        ],
    )
    def test_known_values(self, g, k, mode, expected):
        result = brute_force_sigma(g, k, mode)
        assert result.status == OPTIMAL
        assert result.value == expected == exhaustive_sigma(g, k, mode)
        report = verify(g, k, mode, result.certificate)
        assert report.feasible and result.certificate.weight == result.value

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(40):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            for k in (1, 2):
                for mode in (Mode.CLOSED, Mode.TOTAL):
                    assert solve._mode_matrix(g, mode).tolist() == mode_rows(g, mode)
                    result = brute_force_sigma(g, k, mode)
                    expected = exhaustive_sigma(g, k, mode)
                    if expected is None:
                        assert result.status == INFEASIBLE
                    else:
                        assert result.value == expected

    def test_canonical_certificate_is_lexicographically_first(self):
        # On C_5 with k=1 several weight-3 certificates exist; the canonical
        # one puts the single -1 as early as possible.
        result = brute_force_sigma(cycle(5), 1, Mode.CLOSED)
        assert result.certificate.values == (-1, 1, 1, 1, 1)

    def test_deterministic(self):
        a = brute_force_sigma(cycle(6), 1, Mode.TOTAL)
        b = brute_force_sigma(cycle(6), 1, Mode.TOTAL)
        assert a == b

    def test_empty_graph(self):
        result = brute_force_sigma(Graph(0), 1, Mode.CLOSED)
        assert result.status == OPTIMAL and result.value == 0
        for mode in Mode:
            assert solve._mode_matrix(Graph(0), mode).shape == (0, 0)

    def test_cap(self):
        result = brute_force_sigma(complete(6), 1, Mode.CLOSED, max_n=5)
        assert result.status == CAP_EXCEEDED and result.value is None

    def test_order_past_the_table_ceiling_is_refused_whatever_the_cap(self):
        # A 60-vertex high table would need 60 x 2^46 int16 sums; the order
        # alone refuses it, before anything is allocated.
        refused = solve.SolveResult(CAP_EXCEEDED, None, None, 0)
        for n in (37, 60):
            assert brute_force_sigma(cycle(n), 1, Mode.CLOSED, max_n=100) == refused
            assert brute_force_upper(cycle(n), 1, max_n=100) == refused


class TestBruteForceUpper:
    def test_triangle(self):
        result = brute_force_upper(complete(3), 1)
        assert result.value == 1 == exhaustive_upper(drawn_complete(3), 1)

    def test_k4(self):
        result = brute_force_upper(complete(4), 1)
        assert result.value == 2 == exhaustive_upper(drawn_complete(4), 1)

    def test_matches_oracle_on_random_graphs(self, rng):
        for _ in range(30):
            n = rng.randint(1, 7)
            g = random_graph(rng, n, 0.5)
            result = brute_force_upper(g, 1)
            expected = exhaustive_upper(g, 1)
            if expected is None:
                assert result.status == INFEASIBLE
            else:
                assert result.value == expected

    def test_upper_at_least_sigma(self, rng):
        for _ in range(30):
            n = rng.randint(1, 8)
            g = random_graph(rng, n, 0.5)
            for k in (1, 2):
                sigma = brute_force_sigma(g, k, Mode.CLOSED)
                upper = brute_force_upper(g, k)
                assert (sigma.status == OPTIMAL) == (upper.status == OPTIMAL)
                if sigma.status == OPTIMAL:
                    assert upper.value >= sigma.value


def assert_first_optimum(result, g, k, mode, upper=False):
    expected = first_optimum(g, k, mode, upper)
    assert result.nodes_explored == 2**g.n
    if expected is None:
        assert result.status == INFEASIBLE
        assert result.value is None and result.certificate is None
    else:
        assert result.status == OPTIMAL
        assert result.certificate.values == expected
        assert result.value == sum(expected)


@pytest.mark.parametrize("mode", list(Mode))
def test_part_table_is_every_pattern_with_its_sums_and_plus_count(rng, mode):
    """Column j of _part_table(m, start, stop) is the j-th lexicographic sign
    pattern of vertices start..stop-1, zero on the others: its N_mode sums,
    with N_mode built from the edge list alone, and its number of +1s."""
    for _ in range(20):
        n = rng.randint(0, 10)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
        m = np.eye(n, dtype=np.int16) if mode is Mode.CLOSED else np.zeros((n, n), np.int16)
        for u, v in edges:
            m[u, v] = m[v, u] = 1
        for start in range(n + 1):
            for stop in range(start, min(n, start + 6) + 1):
                patterns = list(product((-1, 1), repeat=stop - start))
                signs = np.zeros((n, len(patterns)), dtype=np.int64)
                signs[start:stop] = np.reshape(patterns, (len(patterns), stop - start)).T
                sums, plus = solve._part_table(m, start, stop)
                assert np.array_equal(sums, m.astype(np.int64) @ signs)
                assert plus.tolist() == [pattern.count(1) for pattern in patterns]


class TestSplitEnumeration:
    """A narrow split makes graphs with n <= 9 span several high blocks; the
    6-bit width has low tables long enough for a sort that is not stable to
    break lexicographic ties."""

    @pytest.fixture(params=[2, 3, 6], autouse=True)
    def narrow_split(self, request, monkeypatch):
        monkeypatch.setattr(solve, "_LOW_BITS", request.param)

    def test_sigma_matches_first_optimum(self, rng):
        # Up to 11 vertices, so that a 2-bit split has 2^9 high patterns.
        for _ in range(25):
            g = random_graph(rng, rng.randint(4, 11), rng.choice([0.3, 0.5, 0.8]))
            for k in (1, 2):
                for mode in (Mode.CLOSED, Mode.TOTAL):
                    result = brute_force_sigma(g, k, mode)
                    assert_first_optimum(result, g, k, mode)

    def test_upper_matches_first_optimum(self, rng):
        for _ in range(25):
            g = random_graph(rng, rng.randint(4, 9), rng.choice([0.3, 0.5, 0.8]))
            for k in (1, 2):
                result = brute_force_upper(g, k)
                assert_first_optimum(result, g, k, Mode.CLOSED, upper=True)

    @pytest.mark.parametrize(
        "g",
        [DrawnGraph(0, []), DrawnGraph(1, []), drawn_path(2), drawn_complete(3)],
        ids=["n0", "n1", "n2", "n3"],
    )
    def test_orders_up_to_the_split_width(self, g):
        for k in (1, 2):
            for mode in (Mode.CLOSED, Mode.TOTAL):
                assert_first_optimum(brute_force_sigma(g, k, mode), g, k, mode)
            assert_first_optimum(brute_force_upper(g, k), g, k, Mode.CLOSED, upper=True)

    @pytest.mark.parametrize("isolated", [0, 8], ids=["high", "low"])
    def test_total_mode_isolated_vertex_drops_every_low_pattern(self, isolated):
        # N(isolated) is empty, so its row stays 0 < k with any partner: no
        # low pattern survives the filter, whichever part the vertex is in.
        edges = [(u, v) for u in range(9) for v in range(u + 1, 9) if isolated not in (u, v)]
        g = DrawnGraph(9, edges)
        for k in (1, 2):
            result = brute_force_sigma(g, k, Mode.TOTAL)
            assert result.status == INFEASIBLE
            assert_first_optimum(result, g, k, Mode.TOTAL)

    def test_low_degree_high_vertex_drops_some_high_patterns(self):
        # N[0] = {0, 1} lies in the high part at every narrow width, so with
        # k = 2 only the high patterns with vertices 0 and 1 at +1 survive.
        g = DrawnGraph(9, [(0, 1)] + [(u, v) for u in range(1, 9) for v in range(u + 1, 9)])
        sigma = brute_force_sigma(g, 2, Mode.CLOSED)
        upper = brute_force_upper(g, 2)
        assert sigma.certificate.values[:2] == upper.certificate.values[:2] == (1, 1)
        assert_first_optimum(sigma, g, 2, Mode.CLOSED)
        assert_first_optimum(upper, g, 2, Mode.CLOSED, upper=True)

    def test_infeasible(self):
        g = drawn_path(5)
        assert brute_force_sigma(g, 3, Mode.CLOSED).status == INFEASIBLE
        assert brute_force_upper(g, 3).status == INFEASIBLE
        assert_first_optimum(brute_force_sigma(g, 3, Mode.CLOSED), g, 3, Mode.CLOSED)

    def test_upper_high_vertex_covered_only_by_low_vertices(self):
        # Vertices 1 and 2 are high and 8 is low at every width here. The
        # first Gamma optimum is +1 at vertex 1, and 8 is the only vertex of
        # N[1] whose sum is k or k+1, so a high row's cover comes from the
        # low part of the product alone. It is -1 at vertex 2, and no vertex
        # of N[2] has such a sum: a -1 vertex needs no cover.
        g = DrawnGraph(9, [
            (0, 3), (0, 5), (0, 6), (0, 7), (0, 8), (1, 2), (1, 4), (1, 5), (1, 6), (1, 8),
            (2, 4), (2, 5), (2, 6), (3, 5), (3, 6), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7),
            (5, 8),
        ])
        assert 3 <= g.n - solve._LOW_BITS <= 7
        result = brute_force_upper(g, 1)
        assert_first_optimum(result, g, 1, Mode.CLOSED, upper=True)
        f = result.certificate.values
        sums = nbhd_sums(g, Mode.CLOSED, f)
        tight = [[u for u in nbhd(g, v, Mode.CLOSED) if sums[u] in (1, 2)] for v in (1, 2)]
        assert (f[1], f[2]) == (1, -1)
        assert tight == [[8], []]

    def test_upper_drops_a_candidate_only_for_a_high_vertex(self):
        # The candidate is feasible and beats Gamma = 5, so the sweep tests
        # it; vertex 2, high at every width here, is its only +1 vertex with
        # no vertex of sum k or k+1 in its closed neighbourhood.
        g = DrawnGraph(9, [
            (0, 1), (0, 2), (0, 5), (0, 6), (0, 7), (1, 6), (1, 7), (2, 7), (4, 7), (6, 8),
        ])
        assert g.n - solve._LOW_BITS >= 3
        candidate = (1, -1, 1, 1, 1, 1, 1, 1, 1)
        sums = nbhd_sums(g, Mode.CLOSED, candidate)
        assert min(sums) >= 1
        uncovered = [
            v for v in range(g.n)
            if candidate[v] == 1 and all(sums[u] not in (1, 2) for u in nbhd(g, v, Mode.CLOSED))
        ]
        assert uncovered == [2]
        result = brute_force_upper(g, 1)
        assert result.value == 5 < sum(candidate)
        assert_first_optimum(result, g, 1, Mode.CLOSED, upper=True)

    @pytest.mark.parametrize(
        "upper,optimum",
        [(False, (-5, 0)), (False, (2, 15)), (True, (5, 31))],
        ids=["infeasible", "wrong-weight", "not-minimal"],
    )
    def test_postcondition_rejects_a_bad_certificate(self, monkeypatch, upper, optimum):
        # On C5 with k=1: index 0 is all -1, index 15 is (-1,+1,+1,+1,+1) of
        # weight 3, and index 31 is all +1, feasible but not minimal.
        monkeypatch.setattr(solve, "_first_optimum", lambda *args: optimum)
        with pytest.raises(RuntimeError, match="does not prove"):
            if upper:
                brute_force_upper(cycle(5), 1)
            else:
                brute_force_sigma(cycle(5), 1, Mode.CLOSED)


@pytest.mark.parametrize(
    "n,p,k,mode,value,signs",
    [
        (20, 0.3, 1, None, 14, "--++++-+++++++++++++"),
        (22, 0.25, 1, None, 14, "+-+++++-++++++++--++++"),
        (22, 0.25, 1, Mode.CLOSED, 6, "-+--+-+-+-++-++++++++-"),
        (22, 0.25, 2, Mode.TOTAL, 10, "+++-+--+++++-++-++++-+"),
        (None, None, 1, None, 14, "++++++-+++-++++-++-+++"),
    ],
    ids=["upper-gnp20", "upper-gnp22", "sigma-closed-1-gnp22", "sigma-total-2-gnp22",
         "upper-1in3-22"],
)
def test_pinned_brute_force_at_the_benchmark_orders(n, p, k, mode, value, signs):
    """Brute force at the orders of the benchmark (20-22 vertices, so 64-256
    high blocks at the default split): values and certificates pinned from
    the enumerator before its sweep was reworked. mode None is Gamma, on
    G(n, p) drawn from seed 1 or, with n None, on the 22-vertex 1-in-3
    gadget of a satisfiable formula."""
    if n is None:
        g = reduce_1in3(ThreeSatFormula(4, ((1, 2, 3), (2, 3, 4))), 1).graph
    else:
        g = random_graph(random.Random(1), n, p)
    result = brute_force_upper(g, k) if mode is None else brute_force_sigma(g, k, mode)
    assert result.status == OPTIMAL and result.value == value
    assert result.certificate.values == tuple(1 if c == "+" else -1 for c in signs)
    assert result.nodes_explored == 2**g.n


# C12 and the graphs of TestBranchAndBound.test_pinned_certificates.
BUDGET_GRAPHS = {
    "C12": cycle(12),
    "G24": random_graph(random.Random(24), 24, 0.3),
    "G26": random_graph(random.Random(26), 26, 0.25),
    "G28": random_graph(random.Random(28), 28, 0.25),
    "G30": random_graph(random.Random(30), 30, 0.2),
}


class TestBranchAndBound:
    def test_matches_brute_force(self, rng):
        for _ in range(60):
            n = rng.randint(1, 10)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.7]))
            for k in (1, 2, 3):
                for mode in (Mode.CLOSED, Mode.TOTAL):
                    bf = brute_force_sigma(g, k, mode)
                    bb = bnb_sigma(g, k, mode)
                    assert bb.status == bf.status
                    if bf.status == OPTIMAL:
                        assert bb.value == bf.value
                        report = verify(g, k, mode, bb.certificate)
                        assert report.feasible
                        assert bb.certificate.weight == bb.value

    def test_certificate_is_the_first_optimum_in_degree_order(self, rng):
        """The certificate is the lexicographically first optimum (-1 < +1)
        with the vertices in (|N_mode(v)|, v) order: brute force on the graph
        relabelled into that order, mapped back, gives the same answer."""
        seen = Counter()
        for _ in range(150):
            g = random_graph(rng, rng.randint(0, 14), rng.choice([0.2, 0.35, 0.5]))
            for mode in (Mode.CLOSED, Mode.TOTAL):
                order = sorted(range(g.n), key=lambda v: (len(nbhd(g, v, mode)), v))
                label = {v: i for i, v in enumerate(order)}
                relabelled = DrawnGraph(g.n, [(label[u], label[v]) for u, v in g.edges()])
                for k in (1, 2, 3):
                    bf = brute_force_sigma(relabelled, k, mode)
                    bb = bnb_sigma(g, k, mode)
                    cert = None if bf.certificate is None else SignFunction(
                        tuple(bf.certificate[label[v]] for v in range(g.n))
                    )
                    assert (bb.status, bb.value, bb.certificate) == (bf.status, bf.value, cert)
                    seen[bb.status] += 1
        assert seen[OPTIMAL] > 300 and seen[INFEASIBLE] > 300

    def test_matches_milp_beyond_brute_force(self, rng):
        """Orders past brute force, against scipy's MILP: x = 2z - 1 with z
        binary turns sum_{u in N_mode(v)} x_u >= k into 2 A z >= k + rowsum(A),
        A the mode matrix built from the edge list, and sum x into sum 2z - n."""
        optimize = pytest.importorskip("scipy.optimize")
        seen = Counter()
        for _ in range(20):
            n = rng.randint(26, 45)
            g = random_graph(rng, n, rng.choice([0.1, 0.15, 0.2]))
            for k in (1, 2):
                for mode in (Mode.CLOSED, Mode.TOTAL):
                    a = np.array(mode_rows(g, mode))
                    ilp = optimize.milp(
                        np.full(n, 2.0),
                        integrality=np.ones(n),
                        bounds=optimize.Bounds(0, 1),
                        constraints=optimize.LinearConstraint(2 * a, lb=k + a.sum(axis=1)),
                    )
                    bb = bnb_sigma(g, k, mode)
                    assert (ilp.status == 2) == (bb.status == INFEASIBLE)
                    if bb.status != INFEASIBLE:
                        assert (ilp.status, bb.status) == (0, OPTIMAL)
                        assert round(ilp.fun) - n == bb.value
                    seen[bb.status] += 1
        assert seen[OPTIMAL] > 40 and seen[INFEASIBLE] > 20

    def test_degree_precondition_early_exit(self):
        assert bnb_sigma(path(3), 3, Mode.CLOSED).status == INFEASIBLE
        assert bnb_sigma(Graph(2), 1, Mode.TOTAL).status == INFEASIBLE

    @pytest.mark.parametrize("mode", list(Mode))
    def test_huge_k_is_infeasible_before_the_first_node(self, mode):
        # The thresholds are Python ints, so k far beyond int64 cannot overflow.
        result = bnb_sigma(cycle(5), 10**23, mode)
        assert (result.status, result.nodes_explored) == (INFEASIBLE, 0)

    @pytest.mark.parametrize("k", [1, 3, 10**23])
    @pytest.mark.parametrize("mode", list(Mode))
    def test_empty_graph_is_one_node(self, mode, k):
        # No special case: the root is a complete assignment, so it counts
        # against the node budget like any other root.
        result = bnb_sigma(Graph(0), k, mode)
        assert result == solve.SolveResult(OPTIMAL, 0, SignFunction(()), 1)
        assert bnb_sigma(Graph(0), k, mode, node_budget=0).status == CAP_EXCEEDED

    def test_extremal_instance(self):
        from sgdom import ExtremalSpec, build_extremal

        g, _ = build_extremal(ExtremalSpec(1, 2, 3, 4, Mode.CLOSED))
        assert bnb_sigma(g, 1, Mode.CLOSED).value == 4

    @pytest.mark.parametrize(
        "graph,k,mode,budget,status,value,signs,nodes",
        [
            ("C12", 1, Mode.CLOSED, 3, CAP_EXCEEDED, None, None, 4),
            ("G24", 1, Mode.CLOSED, 3, CAP_EXCEEDED, None, None, 4),
            ("G24", 1, Mode.CLOSED, 10, CAP_EXCEEDED, 6, "----++-++++++++++-+---++", 11),
            ("G24", 1, Mode.CLOSED, 20, CAP_EXCEEDED, 6, "----++-++++++++++-+---++", 21),
            ("G26", 2, Mode.TOTAL, 3, CAP_EXCEEDED, None, None, 4),
            ("G26", 2, Mode.TOTAL, 10, CAP_EXCEEDED, 12, "--++++++++-++--++-+++++-++", 11),
            # The whole tree has 15 nodes, so a budget of 20 does not cut it.
            ("G26", 2, Mode.TOTAL, 20, OPTIMAL, 12, "--++++++++-++--++-+++++-++", 15),
            ("G28", 1, Mode.TOTAL, 3, CAP_EXCEEDED, None, None, 4),
            ("G28", 1, Mode.TOTAL, 10, CAP_EXCEEDED, None, None, 11),
            ("G28", 1, Mode.TOTAL, 20, CAP_EXCEEDED, 4, "+--+-++-+--++-----++++++++-+", 21),
            ("G30", 1, Mode.CLOSED, 3, CAP_EXCEEDED, None, None, 4),
            ("G30", 1, Mode.CLOSED, 10, CAP_EXCEEDED, None, None, 11),
            # The incumbent is not optimal: sigma is 6.
            ("G30", 1, Mode.CLOSED, 20, CAP_EXCEEDED, 8, "--+++-+-+--+++++-+++++++-++---", 21),
        ],
        ids=[
            "C12-3", "G24-3", "G24-10", "G24-20", "G26-3", "G26-10", "G26-20",
            "G28-3", "G28-10", "G28-20", "G30-3", "G30-10", "G30-20",
        ],
    )
    def test_node_budget(self, graph, k, mode, budget, status, value, signs, nodes):
        # A search that the budget cuts short counts one node past it and
        # reports the incumbent it holds, optimal or not.
        result = bnb_sigma(BUDGET_GRAPHS[graph], k, mode, node_budget=budget)
        certificate = None if signs is None else SignFunction(
            tuple(1 if c == "+" else -1 for c in signs)
        )
        assert result == solve.SolveResult(status, value, certificate, nodes)

    def test_matches_brute_force_on_mid_sized_graphs(self, rng):
        # Orders where the Lagrangian bound prunes most of the tree.
        for n in range(14, 21, 2):
            for p in (0.2, 0.3):
                g = random_graph(rng, n, p)
                for k in (1, 2):
                    for mode in (Mode.CLOSED, Mode.TOTAL):
                        bf = brute_force_sigma(g, k, mode)
                        bb = bnb_sigma(g, k, mode)
                        assert (bb.status, bb.value) == (bf.status, bf.value)
                        if bb.status == OPTIMAL:
                            assert verify(g, k, mode, bb.certificate).feasible
                            assert bb.certificate.weight == bb.value

    @pytest.mark.parametrize(
        "n,p,seed,k,mode,value,signs,nodes",
        [
            (24, 0.3, 24, 1, Mode.CLOSED, 6, "----++-++++++++++-+---++", 29),
            (26, 0.25, 26, 2, Mode.TOTAL, 12, "--++++++++-++--++-+++++-++", 15),
            (28, 0.25, 28, 1, Mode.TOTAL, 4, "+--+-++-+--++-----++++++++-+", 27),
            (30, 0.2, 30, 1, Mode.CLOSED, 6, "--++--+-+--+++++++-+-+++-++-+-", 71),
        ],
    )
    def test_pinned_certificates(self, n, p, seed, k, mode, value, signs, nodes):
        # Values and certificates pinned from the search without the
        # Lagrangian bound, which needed 1.2k-111k nodes on these graphs;
        # the bound prunes only subtrees with nothing strictly better than
        # the incumbent, so the first optimal leaf is still the answer. The
        # node counts are pinned too, so a search that explores more fails.
        g = random_graph(random.Random(seed), n, p)
        result = bnb_sigma(g, k, mode, node_budget=2000)
        assert result.status == OPTIMAL and result.value == value
        assert result.certificate.values == tuple(1 if c == "+" else -1 for c in signs)
        assert result.nodes_explored == nodes

    def test_root_rule_matches_the_closed_forms(self):
        # The root step of the unit rule is the size check and
        # forced_plus_vertices: the search stops before its first node iff
        # some |N_mode(v)| < k, and it needs exactly one node iff every
        # vertex is forced (the root is then the only leaf).
        rng = random.Random(9)
        seen = Counter()
        for _ in range(300):
            n = rng.randint(1, 9)
            g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
            for mode in (Mode.CLOSED, Mode.TOTAL):
                sizes = [len(nbhd(g, v, mode)) for v in range(n)]
                for k in (1, 2, 3):
                    nodes = bnb_sigma(g, k, mode).nodes_explored
                    too_small = min(sizes) < k
                    assert (nodes == 0) == too_small
                    if not too_small:
                        all_forced = forced_plus_vertices(g, k, mode) == frozenset(range(n))
                        assert (nodes == 1) == all_forced
                    seen[nodes] += 1
        assert seen[0] > 100 and seen[1] > 100

    def test_depth_beyond_the_recursion_limit(self):
        # On a cycle of order 3m, every third vertex is a branching -1 that
        # forces its two successors, so the first leaf lies at depth m.
        depth = sys.getrecursionlimit() + 10
        g = cycle(3 * depth)
        result = bnb_sigma(g, 1, Mode.CLOSED, node_budget=3 * depth)
        assert result.status in (OPTIMAL, CAP_EXCEEDED)
        assert result.nodes_explored > depth
        assert verify(g, 1, Mode.CLOSED, result.certificate).feasible
        if result.status == OPTIMAL:
            assert result.value == depth

    def test_postcondition_rejects_a_bad_certificate(self, monkeypatch):
        monkeypatch.setattr(solve, "verify", lambda *args: SimpleNamespace(feasible=False))
        with pytest.raises(RuntimeError, match="does not prove"):
            bnb_sigma(cycle(6), 1, Mode.CLOSED)


def lagrangian_instance(g, k, mode):
    """Pairs (v, u) with u in the mode neighbourhood of v, and the
    parity-strengthened thresholds, built apart from bnb_sigma."""
    rows = [nbhd(g, v, mode) for v in range(g.n)]
    pairs = np.array([(v, u) for v in range(g.n) for u in rows[v]], dtype=np.intp).reshape(-1, 2)
    thr = np.array([k + (len(a) - k) % 2 for a in rows], dtype=float)
    return pairs[:, 0], pairs[:, 1], thr


def all_free_block(src, dst, thr):
    """The live block that bnb_sigma builds, at a root that fixes nothing:
    R = F = V, and no fixed row adds to the norm."""
    block = solve._live_block(src, dst, thr, np.zeros(len(thr), dtype=int))
    assert block.cols.tolist() == list(range(len(thr))) and block.fixed_sq == 0
    assert np.array_equal(block.rhs, thr)
    return block


class TestLagrangianBound:
    def test_theorem_is_a_point_of_the_dual(self, rng):
        """L at the uniform multipliers y = 2/den, which one ascent step
        evaluates, is never below the paper's bound n*num/den."""
        checked = 0
        for _ in range(120):
            g = random_graph(rng, rng.randint(3, 16), rng.choice([0.3, 0.5, 0.8]))
            for k in (1, 2, 3):
                for mode in (Mode.CLOSED, Mode.TOTAL):
                    profile = DegreeProfile.of_graph(g, k)
                    try:
                        _, den = bound_terms(profile, mode)
                    except ValueError:
                        continue
                    block = all_free_block(*lagrangian_instance(g, k, mode))
                    bound, _ = solve._dual_ascent(
                        np.full(g.n, 2 / den), block, block.rhs, np.ones(g.n), 0, g.n + 2, 1
                    )
                    assert bound >= float(lower_bound(profile, mode)) - 1e-9
                    checked += 1
        assert checked >= 400

    def test_root_bound_is_below_lp_and_optimum(self, rng):
        """Weak duality against scipy's LP, and the parity-rounded bound
        against the brute-force optimum, with an incumbent two above it so
        the ascent runs every root step."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        checked = 0
        for _ in range(30):
            g = random_graph(rng, rng.randint(6, 14), rng.choice([0.3, 0.5]))
            for k in (1, 2):
                for mode in (Mode.CLOSED, Mode.TOTAL):
                    opt = brute_force_sigma(g, k, mode)
                    if opt.status != OPTIMAL:
                        continue
                    src, dst, thr = lagrangian_instance(g, k, mode)
                    a = np.zeros((g.n, g.n))
                    a[src, dst] = 1
                    lp = linprog(np.ones(g.n), A_ub=-a, b_ub=-thr, bounds=(-1, 1))
                    assert lp.status == 0
                    block = all_free_block(src, dst, thr)
                    bound, y = solve._dual_ascent(
                        np.zeros(g.n), block, block.rhs, np.ones(g.n), 0,
                        opt.value + 2, solve._ROOT_STEPS,
                    )
                    assert (y >= 0).all()
                    assert bound <= lp.fun + 1e-6
                    assert solve._parity_ceil(bound, g.n) <= opt.value
                    checked += 1
        assert checked >= 40

    def test_parity_ceil(self):
        assert solve._parity_ceil(3.2, 10) == 4
        assert solve._parity_ceil(3.2, 11) == 5
        assert solve._parity_ceil(4.0, 10) == 4
        # Float error just above an integer does not lift the bound.
        assert solve._parity_ceil(4.0 + 1e-9, 10) == 4
        assert solve._parity_ceil(-2.5, 7) == -1


def recorded_blocks(monkeypatch):
    """The live blocks that bnb_sigma builds from now on, in order."""
    blocks = []
    build = solve._live_block

    def record(*args):
        blocks.append(build(*args))
        return blocks[-1]

    monkeypatch.setattr(solve, "_live_block", record)
    return blocks


class TestLiveBlock:
    def test_block_is_the_live_part_of_the_matrix(self, rng):
        """Under any root assignment, R is the rows that meet a free vertex,
        rhs and fixed_sq come from the root-fixed members, and cover and
        sums are y.B and B.x for the 0/1 matrix of R x F."""
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.4]))
            for k in (1, 2):
                for mode in (Mode.CLOSED, Mode.TOTAL):
                    src, dst, thr = lagrangian_instance(g, k, mode)
                    root = np.array([rng.choice([-1, 0, 0, 1]) for _ in range(g.n)])
                    block = solve._live_block(src, dst, thr, root)
                    free = [u for u in range(g.n) if root[u] == 0]
                    if not free:
                        continue
                    rows = [v for v in range(g.n) if set(nbhd(g, v, mode)) & set(free)]
                    rhs = [thr[v] - sum(root[u] for u in nbhd(g, v, mode)) for v in range(g.n)]
                    b = np.array(mode_rows(g, mode), dtype=float)[np.ix_(rows, free)]
                    y = np.array([rng.random() for _ in rows])
                    x = np.array([rng.choice([-1.0, 0.0, 1.0]) for _ in free])
                    assert block.cols.tolist() == free and block.order == g.n
                    assert block.rhs.tolist() == [rhs[v] for v in rows]
                    assert block.fixed_sq == sum(rhs[v] ** 2 for v in range(g.n) if v not in rows)
                    assert np.allclose(block.cover(y), y @ b, rtol=0, atol=1e-12)
                    assert block.sums(x).tolist() == (b @ x).tolist()

    def test_gadget_roots_fix_most_vertices(self, rng, monkeypatch):
        """On MDS/MTDS gadgets the root's unit pass leaves under half of V
        free, so the ascent runs on a block smaller than the whole matrix."""
        blocks = recorded_blocks(monkeypatch)
        gadgets = 0
        for n0 in (5, 6, 7):
            g0 = random_connected_graph(rng, n0, 0.3)
            for k in (1, 2):
                for reduce, mode in ((reduce_mds, Mode.CLOSED), (reduce_mtds, Mode.TOTAL)):
                    assert bnb_sigma(reduce(g0, k).graph, k, mode).status == OPTIMAL
                    gadgets += 1
        assert len(blocks) == gadgets
        assert all(2 * len(block.cols) < block.order for block in blocks)

    @pytest.mark.parametrize(
        "n,p,seed,k,mode,value,signs,nodes",
        [
            (24, 0.15, 3, 1, Mode.TOTAL, 6, "++-+--+--+-+-+++++-++-++", 19),
            (34, 0.1, 4, 1, Mode.CLOSED, 14, "---++++--+++++++++++-+++++++---++-", 33),
            (26, 0.4, 6, 2, Mode.CLOSED, 6, "---++++-++-+++-+--+-+++++-", 75),
            (28, 0.3, 1, 3, Mode.TOTAL, 12, "++--+++++++-+-++-+-+-+-+++++", 25),
        ],
    )
    def test_pinned_searches(self, n, p, seed, k, mode, value, signs, nodes):
        # The node counts of an ascent over all of V. The first two searches
        # take 21 and 31 nodes if the rows that the root fixes whole do not
        # add their sum rhs^2 to each step's norm, and the last two 77 and 21
        # if y.B is an OpenBLAS product, which adds in its own order.
        result = bnb_sigma(random_graph(random.Random(seed), n, p), k, mode)
        assert result.status == OPTIMAL and result.value == value
        assert result.certificate.values == tuple(1 if c == "+" else -1 for c in signs)
        assert result.nodes_explored == nodes


class TestCompleteGraphClosedForms:
    def test_sigma_closed(self):
        for k in range(1, 6):
            for n in range(k, 11):
                expected = k + 1 - indicator(n, k)
                assert brute_force_sigma(complete(n), k, Mode.CLOSED).value == expected

    def test_sigma_total(self):
        for k in range(1, 6):
            for n in range(k + 1, 11):
                expected = k + 1 + indicator(n, k)
                assert brute_force_sigma(complete(n), k, Mode.TOTAL).value == expected


class TestDominationBaselines:
    def test_examples(self):
        assert gamma(path(3)) == 1
        assert gamma_t(path(3)) == 2
        assert gamma_t(cycle(4)) == 2
        assert gamma(complete(5)) == 1
        assert gamma(Graph(3)) == 3  # isolated vertices dominate themselves

    def test_gamma_t_rejects_isolated_vertices(self):
        with pytest.raises(InfeasibleError):
            gamma_t(Graph(3, [(0, 1)]))

    def test_cap(self):
        with pytest.raises(CapExceededError):
            gamma(complete(6), max_n=5)


class TestOneInThreeSat:
    def test_single_clause(self):
        formula = ThreeSatFormula(3, ((1, 2, 3),))
        witness = one_in_three_sat(formula)
        assert witness is not None
        assert sum(witness) == 1
        # lexicographically first with FALSE < TRUE
        assert witness == (False, False, True)

    def test_all_triples_unsatisfiable(self):
        clauses = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        assert one_in_three_sat(ThreeSatFormula(4, clauses)) is None

    def test_repeated_clause(self):
        formula = ThreeSatFormula(3, ((1, 2, 3), (1, 2, 3)))
        assert one_in_three_sat(formula) is not None

    def test_cap(self):
        formula = ThreeSatFormula(5, ((1, 2, 3),))
        with pytest.raises(CapExceededError):
            one_in_three_sat(formula, max_vars=4)
