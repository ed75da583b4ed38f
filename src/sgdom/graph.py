"""Simple undirected graphs, the `p sgd` text format, standard constructions,
and 1-factorization of complete graphs via the circle method."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


class GraphFormatError(ValueError):
    """A graph (or certificate) file violates its text format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Neighbor sets are stored sorted; adjacency is symmetric, loop-free and
    without multi-edges by construction.
    """

    __slots__ = ("n", "m", "_adj", "_adjsets")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        adjsets: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if v in adjsets[u]:
                raise ValueError(f"duplicate edge ({u},{v})")
            adjsets[u].add(v)
            adjsets[v].add(u)
            m += 1
        self.n = n
        self.m = m
        self._adjsets = tuple(frozenset(s) for s in adjsets)
        self._adj = tuple(tuple(sorted(s)) for s in adjsets)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Open neighborhood N(v), sorted."""
        self._check_vertex(v)
        return self._adj[v]

    def closed_neighbors(self, v: int) -> tuple[int, ...]:
        """Closed neighborhood N[v] = N(v) ∪ {v}, sorted."""
        self._check_vertex(v)
        return tuple(sorted(self._adj[v] + (v,)))

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return v in self._adjsets[u]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    @property
    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("min degree undefined on the empty graph")
        return min(len(a) for a in self._adj)

    @property
    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("max degree undefined on the empty graph")
        return max(len(a) for a in self._adj)

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def vertices(self) -> range:
        return range(self.n)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._adjsets == other._adjsets

    def __hash__(self) -> int:
        return hash((self.n, self._adjsets))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint unordered pairs."""

    pairs: frozenset[tuple[int, int]]

    def __post_init__(self):
        seen: set[int] = set()
        for u, v in self.pairs:
            if u >= v:
                raise ValueError(f"pair ({u},{v}) must satisfy u < v")
            if u in seen or v in seen:
                raise ValueError("vertex repeated across matching pairs")
            seen.update((u, v))

    def vertices(self) -> frozenset[int]:
        return frozenset(v for pair in self.pairs for v in pair)

    def is_perfect_on(self, vertex_set: Iterable[int]) -> bool:
        return self.vertices() == frozenset(vertex_set)


# ---------------------------------------------------------------------------
# Text I/O ("p sgd" format, DIMACS-style 1-indexed vertices)

def _read_lines(
    text: str | bytes, tag: str, magic: str, *header
) -> Iterator[tuple[int, list]]:
    """One pass over a line format shared by the graph, certificate and CNF
    parsers.

    Lines are numbered from 1; blank lines and lines starting with `c` are
    skipped. The header is `<tag> <magic>` followed by one field per
    converter in `header`; fields read by `int` are counts and must be
    nonnegative. Yields (lineno, converted header fields) first, then
    (lineno, fields) for every later line. A line before the header, a
    second header and a missing header are format errors.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    header_line = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] != tag:
            if header_line is None:
                raise GraphFormatError(f"{fields[0]!r} before header", lineno)
            yield lineno, fields
            continue
        if header_line is not None:
            raise GraphFormatError("duplicate header", lineno)
        if len(fields) != len(header) + 2 or fields[1] != magic:
            raise GraphFormatError(f"malformed header {line!r}", lineno)
        try:
            values = [parse(x) for parse, x in zip(header, fields[2:])]
        except ValueError:
            raise GraphFormatError(f"malformed header {line!r}", lineno) from None
        if any(parse is int and x < 0 for parse, x in zip(header, values)):
            raise GraphFormatError("negative counts in header", lineno)
        header_line = lineno
        yield lineno, values
    if header_line is None:
        raise GraphFormatError("missing header")


def parse_graph(text: str | bytes) -> Graph:
    """Parse the `p sgd <n> <m>` edge-list format into a Graph."""
    lines = _read_lines(text, "p", "sgd", int, int)
    _, (n, m) = next(lines)
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for lineno, fields in lines:
        if fields[0] != "e":
            raise GraphFormatError(f"unrecognized line {' '.join(fields)!r}", lineno)
        if len(fields) != 3:
            raise GraphFormatError(f"malformed edge line {' '.join(fields)!r}", lineno)
        try:
            u, v = int(fields[1]), int(fields[2])
        except ValueError:
            raise GraphFormatError(f"malformed edge line {' '.join(fields)!r}", lineno) from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise GraphFormatError(f"vertex out of range in {' '.join(fields)!r}", lineno)
        if u == v:
            raise GraphFormatError(f"self-loop at vertex {u}", lineno)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphFormatError(f"duplicate edge {key}", lineno)
        seen.add(key)
        edges.append((u - 1, v - 1))
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}")
    return Graph(n, edges)


def emit_graph(g: Graph) -> str:
    """Canonical text form: header, then edges `e u v` with u < v, sorted."""
    lines = [f"p sgd {g.n} {g.m}"]
    lines.extend(f"e {u + 1} {v + 1}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Standard constructions

def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 0 or b < 0:
        raise ValueError("part sizes must be nonnegative")
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def path(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle requires at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; g2's vertices are relabeled by offset g1.n."""
    off = g1.n
    edges = list(g1.edges()) + [(u + off, v + off) for u, v in g2.edges()]
    return Graph(g1.n + g2.n, edges)


# ---------------------------------------------------------------------------
# 1-factorization (circle method)

def _circle_factor(n: int, r: int) -> list[tuple[int, int]]:
    """Round r of the circle method on K_n, n even: vertex n-1 stays fixed,
    the others rotate. Each pair (u, v) has u < v."""
    hub = n - 1
    pairs = [(r, hub)]
    for i in range(1, n // 2):
        u = (r + i) % hub
        v = (r - i) % hub
        pairs.append((min(u, v), max(u, v)))
    return pairs


def one_factorization(n: int) -> list[Matching]:
    """The n-1 pairwise edge-disjoint perfect matchings partitioning E(K_n).

    Deterministic circle method: vertex n-1 stays fixed, the others rotate.
    """
    if n <= 0 or n % 2 != 0:
        raise ValueError("1-factorization requires even n >= 2")
    return [Matching(frozenset(_circle_factor(n, r))) for r in range(n - 1)]


def regularize_independent_set(g: Graph, s: Iterable[int], r: int) -> Graph:
    """Overlay the first r 1-factors of K_{|S|} onto the independent set S.

    S is taken in ascending vertex order; every vertex of S gains exactly r
    new edges, all inside S.
    """
    vertices = sorted(set(s))
    if len(vertices) % 2 != 0:
        raise ValueError("independent set must have even size")
    for v in vertices:
        g._check_vertex(v)
    for i, u in enumerate(vertices):
        for v in vertices[i + 1:]:
            if g.has_edge(u, v):
                raise ValueError(f"set is not independent: edge ({u},{v}) present")
    if not (0 <= r <= max(len(vertices) - 1, 0)):
        raise ValueError(f"r={r} out of range for |S|={len(vertices)}")
    if r == 0:
        return g
    new_edges = list(g.edges())
    for i in range(r):
        for a, b in _circle_factor(len(vertices), i):
            new_edges.append((vertices[a], vertices[b]))
    return Graph(g.n, new_edges)
