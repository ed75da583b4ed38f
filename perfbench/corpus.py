"""Seeded instances for the benchmark, generated without sgdom.

Every instance is a pure function of its pool name and index, so the pinned
reference table (reference.json) stays valid for any run seed: a run seed only
chooses which pool members a pass uses.
"""

from __future__ import annotations

import random

# Pool name -> generator parameters. G(n, p) pools reject samples whose
# minimum degree is below `min_degree`, so every op on them is feasible.
GNP_POOLS = {
    "gnp18": (18, 0.3, 2),
    "gnp20": (20, 0.3, 2),
    "gnp22": (22, 0.3, 2),
    "easy26": (26, 0.2, 2),
    "easy28": (28, 0.2, 2),
    "easy30": (30, 0.2, 2),
    "easy32": (32, 0.2, 2),
    "hard34": (34, 0.2, 2),
    "hard36": (36, 0.2, 2),
    "src16": (16, 0.25, 1),
    "src20": (20, 0.25, 1),
    "src24": (24, 0.25, 1),
}

# 1-in-3 SAT pools for the k=1 gadget: (variables, clauses); the gadget has
# 4 * variables + 3 * clauses vertices.
SAT_POOLS = {
    "sat18": (3, 2),
    "sat19": (4, 1),
    "sat22": (4, 2),
}

# Extremal family members (k, delta, Delta, t, mode) solved by B&B.
EXTREMAL_POOL = [
    (1, 3, 4, 6, "closed"),
    (2, 3, 4, 6, "closed"),
    (1, 3, 4, 6, "total"),
    (2, 4, 5, 6, "total"),
]

CYCLE_POOL = [27, 30]


def rng_for(pool: str, index: int) -> random.Random:
    return random.Random(f"sgdom-bench:{pool}:{index}")


def gnp(rng: random.Random, n: int, p: float, min_degree: int) -> list[tuple[int, int]]:
    """Edges (u < v) of a G(n, p) sample with minimum degree >= min_degree."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        degree = [0] * n
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        if min(degree) >= min_degree:
            return edges


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]


def random_clauses(rng: random.Random, num_vars: int, m: int) -> list[tuple[int, ...]]:
    return [tuple(sorted(rng.sample(range(1, num_vars + 1), 3))) for _ in range(m)]


def planted_clauses(
    rng: random.Random, num_vars: int, m: int
) -> tuple[list[tuple[int, ...]], tuple[bool, ...]]:
    """Clauses with exactly one TRUE variable each under a planted assignment."""
    truth = [rng.random() < 1 / 3 for _ in range(num_vars)]
    truth[0], truth[1], truth[2] = True, False, False
    true_vars = [j + 1 for j in range(num_vars) if truth[j]]
    false_vars = [j + 1 for j in range(num_vars) if not truth[j]]
    clauses = []
    for _ in range(m):
        lits = [rng.choice(true_vars)] + rng.sample(false_vars, 2)
        clauses.append(tuple(sorted(lits)))
    return clauses, tuple(truth)


def pool_graph(pool: str, index: int) -> tuple[int, list[tuple[int, int]]]:
    n, p, min_degree = GNP_POOLS[pool]
    return n, gnp(rng_for(pool, index), n, p, min_degree)


def pool_formula(pool: str, index: int) -> tuple[int, list[tuple[int, ...]]]:
    num_vars, m = SAT_POOLS[pool]
    return num_vars, random_clauses(rng_for(pool, index), num_vars, m)


def set_gadget(n: int, edges, k: int, kind: str) -> tuple[int, list[tuple[int, int]], int]:
    """The paper's gadget for minimum (total) domination: per vertex v attach
    d(v)+k-1 copies of K_{k+1} ("mds") or d(v)+k-2 copies of K_{k+2}
    ("mtds"), each joined to v by one edge. Returns (order, edges, T)."""
    size, extra = (k + 1, k - 1) if kind == "mds" else (k + 2, k - 2)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    out = list(edges)
    nxt = n
    for v in range(n):
        for _ in range(degree[v] + extra):
            out.extend((nxt + x, nxt + y) for x in range(size) for y in range(x + 1, size))
            out.append((v, nxt))
            nxt += size
    return nxt, out, nxt - n


def sat_gadget(num_vars: int, clauses, k: int) -> tuple[int, list[tuple[int, int]]]:
    """The paper's 1-in-3 SAT gadget: a K_{k+2} per clause, a K_{k+3} minus
    one edge per variable, and clause vertex i joined to each variable's x'."""
    m = len(clauses)
    var_base = [m * (k + 2) + j * (k + 3) for j in range(num_vars)]
    edges = []
    for i in range(m):
        base = i * (k + 2)
        edges.extend((base + x, base + y) for x in range(k + 2) for y in range(x + 1, k + 2))
    for base in var_base:
        edges.extend(
            (base + x, base + y)
            for x in range(k + 3)
            for y in range(x + 1, k + 3)
            if (x, y) != (0, 1)
        )
    for i, clause in enumerate(clauses):
        edges.extend((i * (k + 2), var_base[x - 1]) for x in clause)
    return m * (k + 2) + num_vars * (k + 3), edges


def sgd_text(n: int, edges) -> str:
    lines = [f"p sgd {n} {len(edges)}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in edges)
    return "\n".join(lines) + "\n"


def cnf_text(num_vars: int, clauses) -> str:
    lines = [f"p cnf {num_vars} {len(clauses)}"]
    lines.extend(f"{a} {b} {c} 0" for a, b, c in clauses)
    return "\n".join(lines) + "\n"


def greedy_dominating_set(n: int, adj: list[list[int]], total: bool) -> list[int]:
    """A (total) dominating set: repeatedly take the vertex covering the most
    undominated vertices, ties to the smallest index."""
    cover = [set(adj[v]) if total else set(adj[v]) | {v} for v in range(n)]
    undominated = set(range(n))
    chosen = []
    while undominated:
        best = max(range(n), key=lambda v: (len(cover[v] & undominated), -v))
        chosen.append(best)
        undominated -= cover[best]
    return sorted(chosen)
