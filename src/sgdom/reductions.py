"""Constructive NP-hardness reductions with executable round-trip transforms:
total domination -> signed total k-domination, domination -> signed
k-domination, and 1-in-3 SAT -> upper signed k-domination."""

from __future__ import annotations

from dataclasses import dataclass, field

from .certify import Mode, SignFunction, is_minimal_skdf, verify
from .graph import Graph, GraphFormatError, _read_lines

MTDS = "mtds"
MDS = "mds"
ONE_IN_THREE = "1in3"


@dataclass(frozen=True)
class ThreeSatFormula:
    """A 1-in-3 SAT instance: clauses of exactly three distinct positive
    literals over variables 1..num_vars."""

    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.num_vars < 1:
            raise ValueError("formula needs at least one variable")
        for clause in self.clauses:
            if len(clause) != 3 or len(set(clause)) != 3:
                raise ValueError(f"clause {clause} must have 3 distinct variables")
            for x in clause:
                if not (1 <= x <= self.num_vars):
                    raise ValueError(f"variable {x} out of range in clause {clause}")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


def parse_cnf(text: str | bytes) -> ThreeSatFormula:
    """Parse DIMACS-style `p cnf <n> <m>` with clause lines `a b c 0`.

    All literals must be positive; a negative literal is a format error.
    """
    lines = _read_lines(text, "p", "cnf", int, int)
    header_line, (n, m) = next(lines)
    if n < 1:
        raise GraphFormatError("formula needs at least one variable", header_line)
    clauses: list[tuple[int, int, int]] = []
    for lineno, fields in lines:
        try:
            lits = [int(x) for x in fields]
        except ValueError:
            raise GraphFormatError(f"malformed clause line {' '.join(fields)!r}", lineno) from None
        if len(lits) != 4 or lits[3] != 0:
            raise GraphFormatError("clause must be three literals then 0", lineno)
        clause = tuple(lits[:3])
        if min(clause) < 0:
            raise GraphFormatError("negative literals are not allowed", lineno)
        if min(clause) == 0 or max(clause) > n:
            raise GraphFormatError(f"variable out of range 1..{n} in clause {clause}", lineno)
        if len(set(clause)) != 3:
            raise GraphFormatError(f"clause {clause} must have 3 distinct variables", lineno)
        clauses.append(clause)
    if len(clauses) != m:
        raise GraphFormatError(f"header declares {m} clauses, found {len(clauses)}")
    return ThreeSatFormula(n, tuple(clauses))


@dataclass(frozen=True)
class ReductionArtifact:
    """Output of one reduction: the gadget graph, the block-vertex count T,
    the threshold transform, and per-vertex provenance labels."""

    kind: str
    k: int
    graph: Graph
    T: int
    provenance: tuple[tuple, ...]
    source_graph: Graph | None = None
    formula: ThreeSatFormula | None = None
    threshold_value: int | None = None  # SAT reduction only
    _label_index: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        index = {label: v for v, label in enumerate(self.provenance)}
        assert len(index) == self.graph.n, "provenance labels must be unique"
        object.__setattr__(self, "_label_index", index)

    @property
    def mode(self) -> Mode:
        return Mode.TOTAL if self.kind == MTDS else Mode.CLOSED

    @property
    def threshold_slope(self) -> int | None:
        return None if self.kind == ONE_IN_THREE else 2

    @property
    def threshold_offset(self) -> int | None:
        if self.kind == ONE_IN_THREE:
            return None
        return self.T - self.source_graph.n

    def threshold(self, r: int | None = None) -> int:
        """Map a source threshold r to the signed threshold; the SAT
        reduction has a fixed threshold and ignores r."""
        if self.kind == ONE_IN_THREE:
            return self.threshold_value
        if r is None:
            raise ValueError("set reductions need a source threshold r")
        return self.threshold_slope * r + self.threshold_offset

    def vertex_of(self, label: tuple) -> int:
        return self._label_index[label]


def _labels_text(label: tuple) -> str:
    head, *rest = label
    return f"{head}({','.join(str(x) for x in rest)})"


def emit_provenance(art: ReductionArtifact) -> str:
    """Sidecar text: one `<1-indexed id> <label>` line per vertex."""
    lines = [
        f"{v + 1} {_labels_text(label)}" for v, label in enumerate(art.provenance)
    ]
    return "\n".join(lines) + "\n"


def _attach_blocks(
    g: Graph, k: int, block_size: int, count_of, kind: str
) -> tuple[Graph, int, tuple[tuple, ...]]:
    """Shared machinery for the two set reductions: per original vertex v,
    attach count_of(v) disjoint complete blocks, each joined to v by one edge
    from the block's local vertex 0."""
    if g.n == 0 or g.min_degree == 0:
        raise InvalidSourceError("reduction input must have no isolated vertices")
    n0 = g.n
    edges = list(g.edges())
    provenance: list[tuple] = [("original", v + 1) for v in range(n0)]
    nxt = n0
    for v in range(n0):
        for i in range(1, count_of(v) + 1):
            base = nxt
            for x in range(block_size):
                provenance.append((f"{kind}_block", v + 1, i, x))
                for y in range(x + 1, block_size):
                    edges.append((base + x, base + y))
            edges.append((v, base))
            nxt += block_size
    h = Graph(nxt, edges)
    t_total = nxt - n0
    return h, t_total, tuple(provenance)


class InvalidSourceError(ValueError):
    """The input graph, formula, or solution violates a reduction
    precondition."""


def reduce_mtds(g: Graph, k: int) -> ReductionArtifact:
    """Total domination -> signed total k-domination.

    Per vertex v, attach d(v)+k-2 copies of K_{k+2}, one edge each to v.
    gamma_t(g) <= r iff sigma_tkS(H) <= 2r - |V(g)| + T.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    h, t_total, provenance = _attach_blocks(
        g, k, k + 2, lambda v: g.degree(v) + k - 2, "clique"
    )
    for v in range(g.n):
        assert h.degree(v) == 2 * g.degree(v) + k - 2
    assert t_total == (k + 2) * sum(g.degree(v) + k - 2 for v in range(g.n))
    return ReductionArtifact(MTDS, k, h, t_total, provenance, source_graph=g)


def reduce_mds(g: Graph, k: int) -> ReductionArtifact:
    """Domination -> signed k-domination.

    Per vertex v, attach d(v)+k-1 copies of K_{k+1}, one edge each to v.
    gamma(g) <= r iff sigma_kS(H) <= 2r - |V(g)| + T.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    h, t_total, provenance = _attach_blocks(
        g, k, k + 1, lambda v: g.degree(v) + k - 1, "clique"
    )
    assert t_total == (k + 1) * sum(g.degree(v) + k - 1 for v in range(g.n))
    return ReductionArtifact(MDS, k, h, t_total, provenance, source_graph=g)


def reduce_1in3(formula: ThreeSatFormula, k: int) -> ReductionArtifact:
    """1-in-3 SAT -> upper signed k-domination.

    Clause i gets a K_{k+2} block with distinguished vertex c'_i (local 0);
    variable j gets a K_{k+3} block minus the edge between x'_j and x''_j
    (locals 0 and 1); c'_i is joined to the x' vertex of each of its three
    variables. Gamma_kS >= (k+1)n + (k+2)m iff the formula is 1-in-3
    satisfiable.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    n, m = formula.num_vars, formula.num_clauses
    edges: list[tuple[int, int]] = []
    provenance: list[tuple] = []
    clause_base = [i * (k + 2) for i in range(m)]
    var_base = [m * (k + 2) + j * (k + 3) for j in range(n)]
    for i in range(m):
        base = clause_base[i]
        for x in range(k + 2):
            provenance.append(("clause_block", i + 1, x))
            for y in range(x + 1, k + 2):
                edges.append((base + x, base + y))
    for j in range(n):
        base = var_base[j]
        for x in range(k + 3):
            provenance.append(("variable_block", j + 1, x))
            for y in range(x + 1, k + 3):
                if (x, y) != (0, 1):
                    edges.append((base + x, base + y))
    for i, clause in enumerate(formula.clauses):
        for var in clause:
            edges.append((clause_base[i], var_base[var - 1]))
    h = Graph(m * (k + 2) + n * (k + 3), edges)
    assert h.n == (k + 3) * n + (k + 2) * m
    return ReductionArtifact(
        ONE_IN_THREE,
        k,
        h,
        h.n,
        tuple(provenance),
        formula=formula,
        threshold_value=(k + 1) * n + (k + 2) * m,
    )


# ---------------------------------------------------------------------------
# Solution transforms

def _check_cover(g: Graph, s: frozenset[int], total: bool) -> bool:
    for v in range(g.n):
        nbhd = g.neighbors(v) if total else g.closed_neighbors(v)
        if not any(u in s for u in nbhd):
            return False
    return True


def lift_solution(source, art: ReductionArtifact) -> SignFunction:
    """Carry a source-side solution to a feasible signed certificate.

    Set reductions take a (total) dominating set of the original graph and
    produce f = -1 on the copies of its complement, +1 elsewhere, of weight
    2|S| - |V(g)| + T. The SAT reduction takes a 1-in-3 witness and produces
    the minimal SkDF of weight (k+1)n + (k+2)m with x'_j mirroring the
    assignment and x''_j its negation.
    """
    if art.kind == ONE_IN_THREE:
        formula = art.formula
        truth = tuple(bool(x) for x in source)
        if len(truth) != formula.num_vars:
            raise InvalidSourceError("assignment length != variable count")
        for clause in formula.clauses:
            if sum(truth[x - 1] for x in clause) != 1:
                raise InvalidSourceError(f"clause {clause} is not 1-in-3 satisfied")
        values = [1] * art.graph.n
        for j in range(formula.num_vars):
            x1 = art.vertex_of(("variable_block", j + 1, 0))
            x2 = art.vertex_of(("variable_block", j + 1, 1))
            values[x2 if truth[j] else x1] = -1
        return SignFunction(tuple(values))

    g = art.source_graph
    s = frozenset(source)
    if not all(0 <= v < g.n for v in s):
        raise InvalidSourceError("solution contains vertices outside the source graph")
    if not _check_cover(g, s, total=art.kind == MTDS):
        raise InvalidSourceError(f"source set is not a {'total ' if art.kind == MTDS else ''}dominating set")
    values = [1] * art.graph.n
    for v in range(g.n):
        if v not in s:
            values[v] = -1
    return SignFunction(tuple(values))


def project_solution(f: SignFunction, art: ReductionArtifact):
    """Read a source-side solution back off a signed certificate.

    Set reductions return S = {v : f(v') = +1}, a (total) dominating set of
    size (w(f) + |V(g)| - T)/2. The SAT reduction requires a minimal SkDF of
    weight at least the threshold and returns the assignment with x_j TRUE
    iff f(x'_j) = +1.
    """
    if len(f) != art.graph.n:
        raise InvalidSourceError("certificate length != gadget order")
    if art.kind == ONE_IN_THREE:
        if not verify(art.graph, art.k, Mode.CLOSED, f).feasible:
            raise InvalidSourceError("certificate is not a feasible SkDF")
        if not is_minimal_skdf(art.graph, art.k, f).minimal:
            raise InvalidSourceError("certificate is not a minimal SkDF")
        if f.weight < art.threshold_value:
            raise InvalidSourceError("certificate weight below the SAT threshold")
        formula = art.formula
        truth = tuple(
            f[art.vertex_of(("variable_block", j + 1, 0))] == 1
            for j in range(formula.num_vars)
        )
        for clause in formula.clauses:
            if sum(truth[x - 1] for x in clause) != 1:
                raise InvalidSourceError("projected assignment is not a 1-in-3 witness")
        return truth

    if not verify(art.graph, art.k, art.mode, f).feasible:
        raise InvalidSourceError("certificate is infeasible for the gadget")
    g = art.source_graph
    s = frozenset(v for v in range(g.n) if f[v] == 1)
    # Both facts are forced by feasibility: block vertices are all +1, and
    # the projected set covers the source graph.
    assert 2 * len(s) == f.weight + g.n - art.T
    assert _check_cover(g, s, total=art.kind == MTDS)
    return s
