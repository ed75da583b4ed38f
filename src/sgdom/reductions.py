"""Constructive NP-hardness reductions with executable round-trip transforms:
total domination -> signed total k-domination, domination -> signed
k-domination, and 1-in-3 SAT -> upper signed k-domination."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat

import numpy as np

from .certify import (
    Mode, SignFunction, _check_k, _minimality, _mode_sums, _sign_function, verify,
)
from .graph import (
    Graph, GraphFormatError, _RowError, _emit_rows, _line_fields, _number, _read_body,
)

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
        for i, clause in enumerate(self.clauses):
            try:
                distinct = len(clause) == 3 and len(set(clause)) == 3
            except TypeError:  # 5 has no length; ([1], 2, 3) cannot be hashed
                distinct = False
            if not distinct:
                raise _RowError(f"clause {clause} must have 3 distinct variables", i)
            for x in clause:
                # bool is an int, but True names no variable.
                integer = isinstance(x, (int, np.integer)) and not isinstance(x, bool)
                number = integer or isinstance(x, (float, np.floating))
                if number and not (1 <= x <= self.num_vars):
                    raise _RowError(f"variable {x} out of range in clause {clause}", i)
                if not integer:
                    raise _RowError(f"variable {x} is not an integer in clause {clause}", i)

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def _unsatisfied_clause(self, truth: tuple[bool, ...]) -> tuple[int, int, int] | None:
        """The first clause without exactly one TRUE literal, or None."""
        return next((c for c in self.clauses if sum(truth[x - 1] for x in c) != 1), None)


def _clause_error(fields: list[str], n: int = 0) -> str:
    """What is wrong with the clause line `fields` over variables 1..n. The
    reader asks, without n, only about a line whose field count or fields
    are wrong."""
    try:
        *clause, end = map(int, fields)
    except ValueError:
        return f"malformed clause line {' '.join(fields)!r}"
    clause = tuple(clause)
    if len(clause) != 3 or end != 0:
        return "clause must be three literals then 0"
    if min(clause) < 0:
        return "negative literals are not allowed"
    if min(clause) == 0 or max(clause) > n:
        return f"variable out of range 1..{n} in clause {clause}"
    return f"clause {clause} must have 3 distinct variables"


def parse_cnf(text: str | bytes) -> ThreeSatFormula:
    """Parse DIMACS-style `p cnf <n> <m>` with clause lines `a b c 0`.

    All literals must be positive; a negative literal is a format error.
    The literals are checked by ThreeSatFormula; every error names the first
    offending line.
    """
    (header_line, (n, m)), rows, linenos, stop = _read_body(
        text, "p", "cnf", (int, int), None, 4, _clause_error
    )
    if n < 1:
        raise GraphFormatError("formula needs at least one variable", header_line)
    # The first row that does not end in 0, unless a clause before it is bad.
    bad = next(iter(np.flatnonzero(rows[:, 3] != 0).tolist()), len(rows))
    try:
        formula = ThreeSatFormula(n, tuple(map(tuple, rows[:bad, :3].tolist())))
    except _RowError as exc:
        bad = exc.index
    if bad < len(rows):
        lineno = linenos[bad]
        raise GraphFormatError(_clause_error(_line_fields(text, lineno), n), lineno)
    if stop is not None:
        raise stop
    if len(rows) != m:
        raise GraphFormatError(f"header declares {m} clauses, found {len(rows)}")
    return formula


@dataclass(frozen=True)
class ReductionArtifact:
    """Output of one reduction: the gadget graph, the block-vertex count T,
    the threshold transform, and per-vertex provenance labels.

    The labels are stored as columns: `labels` is a sequence of runs
    (head, columns) over consecutive vertices, and the i-th vertex of a run
    is labelled (head, *(column[i] for column in columns)). `provenance` and
    `vertex_of` expand them into tuples on first use.
    """

    kind: str
    k: int
    graph: Graph
    T: int
    labels: tuple[tuple[str, tuple[np.ndarray, ...]], ...] = field(compare=False, repr=False)
    source_graph: Graph | None = None
    formula: ThreeSatFormula | None = None
    threshold_value: int | None = None  # SAT reduction only

    def __post_init__(self):
        rows = sum(len(columns[0]) for _, columns in self.labels)
        assert rows == self.graph.n, "one provenance label per vertex"

    @cached_property
    def provenance(self) -> tuple[tuple, ...]:
        """The label of every vertex as a tuple, e.g. ("original", 3)."""
        return tuple(
            label
            for head, columns in self.labels
            for label in zip(repeat(head), *(column.tolist() for column in columns))
        )

    @cached_property
    def _label_index(self) -> dict[tuple, int]:
        index = {label: v for v, label in enumerate(self.provenance)}
        assert len(index) == self.graph.n, "provenance labels must be unique"
        return index

    @property
    def mode(self) -> Mode:
        return Mode.TOTAL if self.kind == MTDS else Mode.CLOSED

    def threshold(self, r: int | None = None) -> int:
        """Map a source threshold r to the signed threshold; the SAT
        reduction has a fixed threshold and ignores r."""
        if self.kind == ONE_IN_THREE:
            return self.threshold_value
        if r is None:
            raise ValueError("set reductions need a source threshold r")
        return 2 * r + self.T - self.source_graph.n

    def vertex_of(self, label: tuple) -> int:
        return self._label_index[label]


def emit_provenance(art: ReductionArtifact) -> str:
    """Sidecar text: one `<1-indexed id> <label>` line per vertex, e.g.
    `4 clique_block(1,1,0)`."""
    parts = []
    start = 1
    for head, columns in art.labels:
        rows = len(columns[0])
        prefixes = [f" {head}("] + [","] * (len(columns) - 1)
        suffixes = [""] * (len(columns) - 1) + [")\n"]
        fields = [_number(c, 0, p, s) for c, p, s in zip(columns, prefixes, suffixes)]
        parts.append(_emit_rows("", _number(np.arange(rows), start), *fields))
        start += rows
    return "".join(parts)


def _cliques(bases: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The edges (base + x[j], base + y[j]) for every base and j, as an
    (m, 2) array: one copy of the pattern (x, y) per block."""
    return np.column_stack(((bases[:, None] + x).ravel(), (bases[:, None] + y).ravel()))


def _block_shape(kind: str, k: int) -> tuple[int, int]:
    """(s, e) of a set reduction: vertex v gets d(v) + e blocks K_s."""
    return (k + 1, k - 1) if kind == MDS else (k + 2, k - 2)


def gadget_size(kind: str, k: int, n: int, m: int) -> tuple[int, int]:
    """(vertices, edges) of the `kind` gadget for k >= 1, from n vertices and
    m edges, or n variables and m clauses. A set reduction joins 2m + n*e
    blocks K_s, (s, e) from `_block_shape`, to the source by one edge each."""
    _check_k(k)
    if kind == ONE_IN_THREE:
        edges = m * (k + 2) * (k + 1) // 2 + n * ((k + 3) * (k + 2) // 2 - 1) + 3 * m
        return (k + 3) * n + (k + 2) * m, edges
    size, extra = _block_shape(kind, k)
    blocks = 2 * m + n * extra
    return n + size * blocks, m + blocks * (size * (size - 1) // 2 + 1)


class InvalidSourceError(ValueError):
    """The input graph, formula, or solution violates a reduction
    precondition."""


def _reduce_set(kind: str, g: Graph, k: int) -> ReductionArtifact:
    """The two set reductions: vertex v gets d(v) + e blocks K_s, (s, e) from
    `_block_shape`, each joined to v by one edge from the block's local
    vertex 0. The blocks follow the source vertices, in order of owner."""
    _check_k(k)
    if g.n == 0 or g.min_degree == 0:
        raise InvalidSourceError("reduction input must have no isolated vertices")
    size, extra = _block_shape(kind, k)
    n0, degrees = g.n, g._degrees()
    counts = degrees + extra
    blocks = int(counts.sum())
    owner = np.repeat(np.arange(n0), counts)
    bases = n0 + size * np.arange(blocks)
    edges = np.concatenate((
        np.column_stack(g._edge_columns()),
        _cliques(bases, *np.triu_indices(size, 1)),
        np.column_stack((owner, bases)),
    ))
    h = Graph(n0 + size * blocks, edges)
    assert (h._degrees()[:n0] == 2 * degrees + extra).all()
    assert (h.n, h.m) == gadget_size(kind, k, n0, g.m)
    number = np.arange(blocks) - np.repeat(np.cumsum(counts) - counts, counts) + 1
    labels = (
        ("original", (np.arange(1, n0 + 1),)),
        ("clique_block", (
            np.repeat(owner + 1, size),
            np.repeat(number, size),
            np.tile(np.arange(size), blocks),
        )),
    )
    return ReductionArtifact(kind, k, h, size * blocks, labels, source_graph=g)


def reduce_mtds(g: Graph, k: int) -> ReductionArtifact:
    """Total domination -> signed total k-domination.

    Per vertex v, attach d(v)+k-2 copies of K_{k+2}, one edge each to v.
    gamma_t(g) <= r iff sigma_tkS(H) <= 2r - |V(g)| + T.
    """
    return _reduce_set(MTDS, g, k)


def reduce_mds(g: Graph, k: int) -> ReductionArtifact:
    """Domination -> signed k-domination.

    Per vertex v, attach d(v)+k-1 copies of K_{k+1}, one edge each to v.
    gamma(g) <= r iff sigma_kS(H) <= 2r - |V(g)| + T.
    """
    return _reduce_set(MDS, g, k)


def reduce_1in3(formula: ThreeSatFormula, k: int) -> ReductionArtifact:
    """1-in-3 SAT -> upper signed k-domination.

    Clause i gets a K_{k+2} block with distinguished vertex c'_i (local 0);
    variable j gets a K_{k+3} block minus the edge between x'_j and x''_j
    (locals 0 and 1); c'_i is joined to the x' vertex of each of its three
    variables. Gamma_kS >= (k+1)n + (k+2)m iff the formula is 1-in-3
    satisfiable.
    """
    _check_k(k)
    n, m = formula.num_vars, formula.num_clauses
    clause_size, var_size = k + 2, k + 3
    clause_bases = clause_size * np.arange(m)
    var_bases = clause_size * m + var_size * np.arange(n)
    var_x, var_y = np.triu_indices(var_size, 1)  # (0, 1) comes first
    lits = np.array(formula.clauses, dtype=np.int64).reshape(m, 3)
    edges = np.concatenate((
        _cliques(clause_bases, *np.triu_indices(clause_size, 1)),
        _cliques(var_bases, var_x[1:], var_y[1:]),
        np.column_stack((np.repeat(clause_bases, 3), var_bases[lits.ravel() - 1])),
    ))
    h = Graph(clause_size * m + var_size * n, edges)
    labels = (
        ("clause_block", (
            np.repeat(np.arange(1, m + 1), clause_size), np.tile(np.arange(clause_size), m),
        )),
        ("variable_block", (
            np.repeat(np.arange(1, n + 1), var_size), np.tile(np.arange(var_size), n),
        )),
    )
    assert (h.n, h.m) == gadget_size(ONE_IN_THREE, k, n, m)
    return ReductionArtifact(
        ONE_IN_THREE,
        k,
        h,
        h.n,
        labels,
        formula=formula,
        threshold_value=(k + 1) * n + (k + 2) * m,
    )


# ---------------------------------------------------------------------------
# Solution transforms

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
        if (clause := formula._unsatisfied_clause(truth)) is not None:
            raise InvalidSourceError(f"clause {clause} is not 1-in-3 satisfied")
        values = np.ones(art.graph.n, dtype=np.int64)
        for j in range(formula.num_vars):
            # x''_j (local index 1) gets -1 when x_j is TRUE, x'_j (0) otherwise.
            values[art.vertex_of(("variable_block", j + 1, int(truth[j])))] = -1
        return _sign_function(values)

    g = art.source_graph
    s = frozenset(source)
    if not all(0 <= v < g.n for v in s):
        raise InvalidSourceError("solution contains vertices outside the source graph")
    inside = np.zeros(g.n, dtype=np.int64)
    inside[list(s)] = 1
    if not (_mode_sums(g, inside, art.mode) > 0).all():
        raise InvalidSourceError(f"source set is not a {'total ' if art.kind == MTDS else ''}dominating set")
    values = np.ones(art.graph.n, dtype=np.int64)
    values[:g.n] = 2 * inside - 1
    return _sign_function(values)


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
        report = verify(art.graph, art.k, Mode.CLOSED, f)
        if not report.feasible:
            raise InvalidSourceError("certificate is not a feasible SkDF")
        if not _minimality(art.graph, art.k, f, report).minimal:
            raise InvalidSourceError("certificate is not a minimal SkDF")
        if f.weight < art.threshold_value:
            raise InvalidSourceError("certificate weight below the SAT threshold")
        formula = art.formula
        truth = tuple(
            f[art.vertex_of(("variable_block", j + 1, 0))] == 1
            for j in range(formula.num_vars)
        )
        if formula._unsatisfied_clause(truth) is not None:
            raise InvalidSourceError("projected assignment is not a 1-in-3 witness")
        return truth

    if not verify(art.graph, art.k, art.mode, f).feasible:
        raise InvalidSourceError("certificate is infeasible for the gadget")
    g = art.source_graph
    inside = (f.array[:g.n] == 1).astype(np.int64)
    s = frozenset(np.flatnonzero(inside).tolist())
    # Both facts are forced by feasibility: block vertices are all +1, and
    # the projected set covers the source graph.
    assert 2 * len(s) == f.weight + g.n - art.T
    assert (_mode_sums(g, inside, art.mode) > 0).all()
    return s
