"""Shared oracles and corpus helpers.

The oracles here are deliberately independent of the package's solvers: plain
itertools enumeration with direct neighborhood sums, so solver bugs and test
bugs cannot cancel out. They take a DrawnGraph and read its neighbourhoods from
the edge list it was built from, never from the CSR rows of Graph.
"""

import random
from itertools import combinations, product

import pytest
from hypothesis import settings

from sgdom import Graph, GraphFormatError, Mode, SignFunction

# Every property test draws the same examples on every run, with no deadline.
settings.register_profile("sgdom", derandomize=True, deadline=None)
settings.load_profile("sgdom")


class DrawnGraph(Graph):
    """A Graph that also keeps the neighbourhoods of the edge list it was
    built from, as plain sets, for the oracles."""

    __slots__ = ("adj",)

    def __init__(self, n, edges):
        edges = list(edges)
        super().__init__(n, edges)
        self.adj = [set() for _ in range(n)]
        for u, v in edges:
            self.adj[u].add(v)
            self.adj[v].add(u)


def drawn_path(n):
    return DrawnGraph(n, [(i, i + 1) for i in range(n - 1)])


def drawn_cycle(n):
    return DrawnGraph(n, [(i, (i + 1) % n) for i in range(n)])


def drawn_complete(n):
    return DrawnGraph(n, combinations(range(n), 2))


def nbhd(g, v, mode):
    """N[v] (closed mode) or N(v) (total mode) of a DrawnGraph, sorted."""
    return sorted(g.adj[v] | {v} if mode is Mode.CLOSED else g.adj[v])


def nbhd_sums(g, mode, values):
    return [sum(values[u] for u in nbhd(g, v, mode)) for v in range(g.n)]


def mode_rows(g, mode):
    """Row v is the 0/1 indicator of N_mode(v)."""
    return [[int(u in nbhd(g, v, mode)) for u in range(g.n)] for v in range(g.n)]


def forced_reference(g, k, mode):
    """The union of N_mode(v) over the vertices v with |N_mode(v)| in {k, k+1}."""
    forced = set()
    for v in range(g.n):
        if len(nbhd(g, v, mode)) in (k, k + 1):
            forced.update(nbhd(g, v, mode))
    return frozenset(forced)


def first_offending(g, k, values):
    """The first +1 vertex of a feasible SkDF with no closed neighbour whose
    closed sum is k or k+1, or None."""
    sums = nbhd_sums(g, Mode.CLOSED, values)
    for v in range(g.n):
        if values[v] == 1 and all(sums[u] not in (k, k + 1) for u in nbhd(g, v, Mode.CLOSED)):
            return v
    return None


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


def random_graph(rng: random.Random, n: int, p: float) -> DrawnGraph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return DrawnGraph(n, edges)


def random_connected_graph(rng: random.Random, n: int, p: float) -> DrawnGraph:
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
    return DrawnGraph(n, sorted(edges))


def all_signs(n):
    return product((-1, 1), repeat=n)


def circle_round(n, r):
    """Round r of the textbook circle method on K_n, n even, as a set of
    pairs (u, v) with u < v: r meets the hub n-1, and r+i meets r-i (mod
    n-1) for 0 < i < n/2."""
    hub = n - 1
    pairs = {(r, hub)}
    for i in range(1, n // 2):
        u, v = (r + i) % hub, (r - i) % hub
        pairs.add((min(u, v), max(u, v)))
    return pairs


# Per-edge reference builders for the reduction gadgets: tuples appended in
# loops, block by block, as the paper describes the constructions.

def loop_set_gadget(g, k, kind):
    """(gadget, T, provenance) of the MDS (kind "mds") or MTDS ("mtds")
    reduction: vertex v gets d(v)+k-1 copies of K_{k+1} (mds) or d(v)+k-2
    copies of K_{k+2} (mtds), each joined to v from its local vertex 0."""
    size, extra = (k + 1, k - 1) if kind == "mds" else (k + 2, k - 2)
    edges = list(g.edges())
    provenance = [("original", v + 1) for v in range(g.n)]
    nxt = g.n
    for v in range(g.n):
        for i in range(1, g.degree(v) + extra + 1):
            for x in range(size):
                provenance.append(("clique_block", v + 1, i, x))
                for y in range(x + 1, size):
                    edges.append((nxt + x, nxt + y))
            edges.append((v, nxt))
            nxt += size
    return DrawnGraph(nxt, edges), nxt - g.n, tuple(provenance)


def loop_1in3_gadget(formula, k):
    """(gadget, T, provenance) of the 1-in-3 SAT reduction: a K_{k+2} per
    clause, a K_{k+3} minus the edge of locals 0 and 1 per variable, and the
    clause's local 0 joined to local 0 of each of its variables."""
    n, m = formula.num_vars, formula.num_clauses
    edges, provenance = [], []
    clause_base = [i * (k + 2) for i in range(m)]
    var_base = [m * (k + 2) + j * (k + 3) for j in range(n)]
    for i in range(m):
        for x in range(k + 2):
            provenance.append(("clause_block", i + 1, x))
            for y in range(x + 1, k + 2):
                edges.append((clause_base[i] + x, clause_base[i] + y))
    for j in range(n):
        for x in range(k + 3):
            provenance.append(("variable_block", j + 1, x))
            for y in range(x + 1, k + 3):
                if (x, y) != (0, 1):
                    edges.append((var_base[j] + x, var_base[j] + y))
    for i, clause in enumerate(formula.clauses):
        for var in clause:
            edges.append((clause_base[i], var_base[var - 1]))
    h = Graph(m * (k + 2) + n * (k + 3), edges)
    return h, h.n, tuple(provenance)


def loop_graph_text(g):
    """Reference text of emit_graph, one formatted line per edge."""
    lines = [f"p sgd {g.n} {g.m}"] + [f"e {u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def loop_provenance_text(provenance):
    """Reference text of emit_provenance, one formatted line per label."""
    lines = [
        f"{v + 1} {head}({','.join(str(x) for x in rest)})"
        for v, (head, *rest) in enumerate(provenance)
    ]
    return "\n".join(lines) + "\n"


def loop_certificate_text(f, k, mode):
    """Reference text of emit_certificate, one formatted line per vertex."""
    lines = [f"s sgd-cert {len(f)} {k} {mode.value}"]
    lines += [f"v {v + 1} {'+1' if f[v] == 1 else '-1'}" for v in range(len(f))]
    return "\n".join(lines) + "\n"


def loop_cnf_text(formula):
    """Canonical `p cnf` text of a formula, one formatted line per clause."""
    lines = [f"p cnf {formula.num_vars} {formula.num_clauses}"]
    lines += [f"{a} {b} {c} 0" for a, b, c in formula.clauses]
    return "\n".join(lines) + "\n"


def format_error_cases(*cases):
    """pytest params (text, line, message), each with its text as its id."""
    return [pytest.param(*case, id=case[0]) for case in cases]


def assert_format_error(parse, text, line, message):
    """parse refuses text, as str and as bytes, with exactly this message,
    prefixed by `line <line>: ` when it names a line."""
    for raw in (text, text.encode("ascii")):
        with pytest.raises(GraphFormatError) as exc:
            parse(raw)
        assert exc.value.line == line
        assert str(exc.value) == (message if line is None else f"line {line}: {message}")


@pytest.fixture
def rng():
    return random.Random(20260823)


def sign_function(values) -> SignFunction:
    return SignFunction(tuple(values))
