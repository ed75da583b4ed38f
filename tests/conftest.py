"""Shared oracles and corpus helpers.

The oracles here are deliberately independent of the package's solvers: plain
itertools enumeration with direct neighborhood sums, so solver bugs and test
bugs cannot cancel out.
"""

import random
from itertools import combinations, product

import pytest

from sgdom import Graph, Mode, SignFunction


def nbhd_sums(g, mode, values):
    sums = []
    for v in range(g.n):
        total = sum(values[u] for u in g.neighbors(v))
        if mode is Mode.CLOSED:
            total += values[v]
        sums.append(total)
    return sums


def reference_graph(n, edges):
    """Plain per-edge reference for Graph(n, edges).

    Returns (sorted neighbor lists, None), or (None, (i, reason)) for the
    first edge i that is not a pair ("pair"), has a vertex outside 0..n-1
    ("range"), is a self-loop ("loop") or repeats an earlier edge in either
    orientation ("duplicate").
    """
    adj = [set() for _ in range(n)]
    for i, edge in enumerate(edges):
        if len(edge) != 2:
            return None, (i, "pair")
        u, v = edge
        if not (0 <= u < n and 0 <= v < n):
            return None, (i, "range")
        if u == v:
            return None, (i, "loop")
        if v in adj[u]:
            return None, (i, "duplicate")
        adj[u].add(v)
        adj[v].add(u)
    return [sorted(a) for a in adj], None


def feasible(g, k, mode, values):
    return all(s >= k for s in nbhd_sums(g, mode, values))


def exhaustive_sigma(g, k, mode):
    """Minimum feasible weight by raw enumeration; None if infeasible."""
    best = None
    for values in product((-1, 1), repeat=g.n):
        if feasible(g, k, mode, values) and (best is None or sum(values) < best):
            best = sum(values)
    return best


def definitionally_minimal(g, k, values):
    """No feasible f' != f with f' <= f pointwise (direct subset check)."""
    plus = [v for v in range(g.n) if values[v] == 1]
    for size in range(1, len(plus) + 1):
        for flip in combinations(plus, size):
            candidate = list(values)
            for v in flip:
                candidate[v] = -1
            if feasible(g, k, Mode.CLOSED, candidate):
                return False
    return True


def exhaustive_upper(g, k):
    """Maximum weight over definitionally minimal SkDFs; None if no SkDF."""
    best = None
    for values in product((-1, 1), repeat=g.n):
        if not feasible(g, k, Mode.CLOSED, values):
            continue
        if definitionally_minimal(g, k, values) and (
            best is None or sum(values) > best
        ):
            best = sum(values)
    return best


def first_optimum(g, k, mode, upper=False):
    """First optimal assignment in `product((-1, 1), repeat=n)` order, or
    None. upper=True maximises the weight over definitionally minimal closed
    SkDFs (mode is ignored); otherwise the weight is minimised over feasible
    assignments. Only a strict improvement replaces the incumbent."""
    best = None
    for values in product((-1, 1), repeat=g.n):
        if best is not None and (
            sum(values) <= sum(best) if upper else sum(values) >= sum(best)
        ):
            continue
        if not feasible(g, k, Mode.CLOSED if upper else mode, values):
            continue
        if upper and not definitionally_minimal(g, k, values):
            continue
        best = values
    return best


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> Graph:
    """Random spanning tree plus density-p extra edges."""
    order = list(range(n))
    rng.shuffle(order)
    edges = set()
    for i in range(1, n):
        u = order[i]
        v = order[rng.randrange(i)]
        edges.add((min(u, v), max(u, v)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return Graph(n, sorted(edges))


def all_signs(n):
    return product((-1, 1), repeat=n)


@pytest.fixture
def rng():
    return random.Random(20260823)


def sign_function(values) -> SignFunction:
    return SignFunction(tuple(values))
