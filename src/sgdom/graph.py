"""Simple undirected graphs, the `p sgd` text format, standard constructions,
and 1-factorization of complete graphs via the circle method."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator

import numpy as np


class GraphFormatError(ValueError):
    """A graph (or certificate) file violates its text format."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class Graph:
    """Immutable simple undirected graph on vertices 0..n-1.

    Stored only as compressed sparse rows, which every accessor reads: the
    neighbors of v are `_nbr[_ptr[v]:_ptr[v + 1]]`, sorted. Adjacency is
    symmetric, loop-free and without multi-edges by construction.
    """

    __slots__ = ("n", "m", "_ptr", "_nbr")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > _MAX_ORDER:
            raise ValueError(f"vertex count {n} exceeds {_MAX_ORDER}")
        if not isinstance(edges, (list, tuple, np.ndarray)):
            edges = list(edges)
        pairs, cut = _edge_array(edges)
        # The entries of the doubled edge list are sorted once as keys
        # (u, v) -> u << width | v, in uint32 when two vertices fit. A key
        # equal to its neighbour is a repeat (a self-loop repeats itself), and
        # without one the keys' low bits are the rows, which start at the
        # running sum of the degrees.
        width = operator.index(max(n - 1, 0)).bit_length()
        key = None
        if pairs.size == 0 or pairs.view(np.uint64).max() < n:  # a negative wraps
            key = _entry_keys(width, pairs, np.uint32 if 2 * width <= 32 else np.int64)
            key.sort()
            if (key[1:] == key[:-1]).any():
                key = None
        if key is None:
            index, reason = _first_bad_edge(n, width, pairs)
            u, v = edges[index]
            message = {
                "range": f"edge ({u},{v}) out of range for n={n}",
                "loop": f"self-loop at vertex {u}",
                "duplicate": f"duplicate edge ({u},{v})",
            }[reason]
            raise _RowError(message, index, reason)
        if cut is not None:
            raise ValueError(f"edge {edges[cut]!r} is not a pair of vertices")
        self.n = n
        self.m = len(pairs)
        self._ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pairs.ravel(), minlength=n), out=self._ptr[1:])
        key &= (1 << width) - 1
        self._nbr = key.astype(np.int64, copy=False)

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Open neighborhood N(v), sorted."""
        self._check_vertex(v)
        return tuple(self._nbr[self._ptr[v]:self._ptr[v + 1]].tolist())

    def closed_neighbors(self, v: int) -> tuple[int, ...]:
        """Closed neighborhood N[v] = N(v) ∪ {v}, sorted."""
        return tuple(sorted(self.neighbors(v) + (v,)))

    def neighbor_sums(self, x: np.ndarray) -> np.ndarray:
        """The sum of x over N(v) for every vertex v, from one cumulative sum
        over the rows; x is indexed by vertex along axis 0, so each column of
        a 2-D x is summed on its own."""
        csum = np.zeros((self._nbr.size + 1, *x.shape[1:]), dtype=x.dtype)
        np.cumsum(x[self._nbr], axis=0, out=csum[1:])
        return csum[self._ptr[1:]] - csum[self._ptr[:-1]]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        row = self._nbr[self._ptr[u]:self._ptr[u + 1]]
        i = row.searchsorted(v)
        return bool(i < row.size and row[i] == v)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self._ptr[v + 1] - self._ptr[v])

    def _degrees(self) -> np.ndarray:
        """The degree of every vertex, as an array indexed by vertex."""
        return np.diff(self._ptr)

    @property
    def min_degree(self) -> int:
        if self.n == 0:
            raise ValueError("min degree undefined on the empty graph")
        return int(self._degrees().min())

    @property
    def max_degree(self) -> int:
        if self.n == 0:
            raise ValueError("max degree undefined on the empty graph")
        return int(self._degrees().max())

    def _edge_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays (u, v) of all edges with u < v, in lexicographic order; u is
        int32, which holds every vertex of an order Graph accepts."""
        src = np.repeat(np.arange(self.n, dtype=np.int32), self._degrees())
        upper = src < self._nbr
        return src[upper], self._nbr[upper]

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges (u, v) with u < v, in lexicographic order."""
        u, v = self._edge_columns()
        return zip(u.tolist(), v.tolist())

    def vertices(self) -> range:
        return range(self.n)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise ValueError(f"vertex {v} out of range for n={self.n}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self._ptr, other._ptr) and np.array_equal(self._nbr, other._nbr)

    def __hash__(self) -> int:
        return hash((self._ptr.tobytes(), self._nbr.tobytes()))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class _RowError(ValueError):
    """The first bad row, rows[index], of Graph's edges or ThreeSatFormula's
    clauses; an edge's `reason` is "range", "loop" or "duplicate"."""

    def __init__(self, message: str, index: int, reason: str | None = None):
        super().__init__(message)
        self.index = index
        self.reason = reason


# A value beyond int64 is stored as this value, which no range accepts.
_OUT_OF_RANGE = 2**63 - 1  # nor is it a sign or the CNF's closing 0
# The largest order Graph builds: its vertices have at most 31 bits, so an
# entry key of two vertices fits in int64.
_MAX_ORDER = 1 << 31
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def _edge_array(edges) -> tuple[np.ndarray, int | None]:
    """The edges as an (m, 2) int64 array, up to the first item that is not
    a pair, and that item's index (None if every item is a pair). A vertex
    beyond int64 becomes _OUT_OF_RANGE; one that is not an integer raises
    TypeError."""
    try:
        pairs = np.asarray(edges)
    except ValueError:  # items of different lengths
        pairs = None
    if pairs is not None and pairs.ndim == 2 and pairs.shape[1] == 2 and pairs.dtype.kind in "iub":
        return pairs.astype(np.int64, copy=False), None
    cut = next((i for i, e in enumerate(edges) if not _is_pair(e)), None)
    flat = [operator.index(x) for e in edges[:cut] for x in e]
    return _int64_array(flat).reshape(-1, 2), cut


def _int64_array(values: list[int]) -> np.ndarray:
    """values as an int64 array; a value beyond int64 becomes _OUT_OF_RANGE."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(
            [x if _INT64_MIN <= x <= _INT64_MAX else _OUT_OF_RANGE for x in values], dtype=np.int64
        )


def _is_pair(item) -> bool:
    try:
        return len(item) == 2
    except TypeError:
        return False


def _repeats(key: np.ndarray) -> np.ndarray:
    """Mask of the items whose key equals that of an earlier item."""
    order = np.argsort(key, kind="stable")  # equal items keep their order
    ordered = key[order]
    mask = np.zeros(order.size, dtype=bool)
    mask[order[1:][ordered[1:] == ordered[:-1]]] = True
    return mask


def _entry_keys(width: int, pairs: np.ndarray, dtype=np.int64) -> np.ndarray:
    """The key u << width | v of each entry (u, v) of the doubled edge list,
    in which edge i = (u, v) is entry 2i = (u, v) and entry 2i+1 = (v, u),
    as dtype. Every vertex must lie in 0..2^width - 1, and dtype must hold
    2 * width bits; the keys then sort as the entries do, lexicographically."""
    part = pairs.astype(dtype, copy=False)
    key = part << width
    key |= part[:, ::-1]
    return key.ravel()


def _first_bad_edge(n: int, width: int, pairs: np.ndarray) -> tuple[int, str]:
    """(index, reason) of the first edge that is out of range for n
    vertices, a self-loop or a repeat of an earlier edge in either
    orientation, checked in that order; some edge must be one of these.

    The edges before the first one out of range are all in range, so their
    entry keys are exact: an entry whose key equals that of an earlier entry
    belongs to a repeat (or to a self-loop, reported as a loop first).
    """
    out = ((pairs < 0) | (pairs >= n)).any(axis=1)
    stop = int(np.append(out, True).argmax())  # the first edge out of range
    head = pairs[:stop]
    loop = head[:, 0] == head[:, 1]
    repeat = _repeats(_entry_keys(width, head)).reshape(-1, 2).any(axis=1)
    i = int(np.append(loop | repeat, True).argmax())
    return i, "range" if i == stop else "loop" if loop[i] else "duplicate"


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

# Largest count a header may declare. A graph or certificate of this order
# still fits in a few hundred megabytes; a larger count is refused before
# anything is allocated for it.
_MAX_COUNT = 1 << 22
# The widest number the writers emit and the canonical lane reads: a count.
_MAX_DIGITS = len(str(_MAX_COUNT))


def _header(line: str, lineno: int, tag: str, magic: str, header) -> list:
    """The converted fields of the header `line`, line `lineno` of its text
    and the first that is neither blank nor a comment: `<tag> <magic>`, then
    one field per converter in `header`. Fields read by `int` are counts and
    must lie in 0.._MAX_COUNT."""
    fields = line.split()
    if fields[0] != tag:
        raise GraphFormatError(f"{fields[0]!r} before header", lineno)
    malformed = GraphFormatError(f"malformed header {line.strip()!r}", lineno)
    if len(fields) != len(header) + 2 or fields[1] != magic:
        raise malformed
    try:
        values = [parse(x) for parse, x in zip(header, fields[2:])]
    except ValueError:
        raise malformed from None
    counts = [x for parse, x in zip(header, values) if parse is int]
    if min(counts) < 0:
        raise GraphFormatError("negative counts in header", lineno)
    if max(counts) > _MAX_COUNT:
        raise GraphFormatError(f"count too large (limit {_MAX_COUNT})", lineno)
    return values


def _read_body(text, tag, magic, header, line_tag, width, malformed):
    """The one record reader of the graph, certificate and CNF formats.

    Lines are numbered from 1; blank lines and lines starting with `c` are
    skipped. The first other line is the header, read by `_header`, which
    raises its errors; a missing header is an error. A body line is
    `line_tag` (if not None), then `width` fields, each read by `int`.
    Returns the header's (lineno, values); an (r, width) int64 array, one row
    per body line, a value beyond int64 stored as _OUT_OF_RANGE; the line
    number of each row; and `stop`, the error of the first line whose tag,
    field count or fields are wrong, a second header too (None if there is
    none; the rows end before it), worded by `malformed(fields)`. The caller
    checks the rows' values, and re-reads an offending row's fields with
    `_line_fields`.

    Text in canonical form is read by array arithmetic over its bytes, any
    other text line by line, to the same result.
    """
    return _canonical_rows(text, tag, magic, header, line_tag, width) or _line_rows(
        text, tag, magic, header, line_tag, width, malformed
    )


def _canonical_rows(text, tag, magic, header, line_tag, width):
    """The canonical lane of `_read_body`: row i holds the numbers of line
    i + 2 of text in the form the emitters write, a header of printable ASCII
    starting with `tag` then the body `_canonical_runs` checks; else None (a
    first line that is a comment, say: the header's errors are the per-line
    lane's)."""
    if isinstance(text, str):
        text = text.encode("utf-8")  # the form is ASCII bytes only
    end = text.find(b"\n")  # the header's newline
    head = text[:end]
    printable = head.isascii() and head.decode().isprintable()
    if not (printable and text.endswith(b"\n") and head.startswith(tag.encode())):
        return None
    first = 1, _header(head.decode(), 1, tag, magic, header)
    # The body from the header's newline on: every run has a byte before it.
    chars = np.frombuffer(text, dtype=np.uint8, offset=end)
    if (runs := _canonical_runs(chars, line_tag, width)) is None:
        return None
    # Horner's rule over the runs aligned at their last digit, in int32,
    # which holds _MAX_DIGITS digits: place p of a run shorter than p + 1
    # digits reads as a leading zero.
    digits, start, stop, before = runs
    size = stop - start
    values = np.zeros(start.size, dtype=np.int32)
    for place in range(int(size.max(initial=0)) - 1, -1, -1):
        values *= 10
        values += digits.take(stop - 1 - place, mode="clip") * (size > place)
    np.negative(values, out=values, where=before == ord("-"))
    rows = values.astype(np.int64).reshape(-1, width)
    return first, rows, range(2, len(rows) + 2), None


def _canonical_runs(chars, line_tag, width):
    """(digits, start, stop, before) of chars, a body from the header's
    newline to the last one, if it is canonical, else None: each line is
    `line_tag` (if not None) and `width` numbers, single spaces apart, each
    an optional sign and 1.._MAX_DIGITS digits. `digits` is each byte less
    `0`, as uint8; a run of ASCII digits is chars[start:stop], and `before`
    is the byte before it. With each run written as one `#`, the sign before
    it dropped and its other digits deleted, every line must read
    `<line_tag> # #...`; a `#` of the text's own would be one more than the
    lines hold."""
    digits = chars - np.uint8(ord("0"))  # bytes below '0' wrap
    digit = digits < 10
    # The body starts and ends with a newline, so the edges of the digit
    # mask pair up: a run starts at one and stops at the next.
    edge = np.flatnonzero(digit[1:] != digit[:-1]) + 1
    start, stop = edge[::2], edge[1::2]
    if start.size % width or (stop - start).max(initial=0) > _MAX_DIGITS:
        return None
    form = chars.copy()
    form[start] = ord("#")
    before = chars[start - 1]
    form[start[(before == ord("+")) | (before == ord("-"))] - 1] = ord("0")  # deleted
    line = " ".join(([line_tag] if line_tag else []) + ["#"] * width)
    lines = f"\n{line}".encode() * (start.size // width) + b"\n"
    canonical = form.tobytes().translate(None, b"0123456789") == lines
    return (digits, start, stop, before) if canonical else None


def _line_rows(text, tag, magic, header, line_tag, width, malformed):
    """The per-line lane of `_read_body`. One loop reads the header and
    checks each later line's tag and field count, up to `stop`; one
    `map(int)` then converts the fields of all lines, up to the first field
    that does not convert."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphFormatError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    skip = line_tag is not None
    first = stop = None
    tokens: list[str] = []  # the fields of all lines after their tags
    linenos: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split()
        if not fields or fields[0][0] == "c":
            continue
        if first is None:
            first = lineno, _header(raw, lineno, tag, magic, header)
            continue
        if fields[0] == tag:
            stop = GraphFormatError("duplicate header", lineno)
        elif skip and fields[0] != line_tag:
            stop = GraphFormatError(f"unrecognized line {' '.join(fields)!r}", lineno)
        elif len(fields) != skip + width:
            stop = GraphFormatError(malformed(fields), lineno)
        else:
            tokens += fields[skip:]
            linenos.append(lineno)
            continue
        break
    if first is None:
        raise GraphFormatError("missing header")
    values: list[int] = []
    try:
        values.extend(map(int, tokens))
    except ValueError:  # extend keeps the values read before the bad field
        lineno = linenos[len(values) // width]
        stop = GraphFormatError(malformed(_line_fields(text, lineno)), lineno)
    rows = _int64_array(values[:len(values) - len(values) % width]).reshape(-1, width)
    return first, rows, linenos, stop


def _line_fields(text: str | bytes, lineno: int) -> list[str]:
    """The fields of line `lineno` of text, numbered as `_read_body`
    numbers them: the original tokens of an offending row, for its error."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return text.splitlines()[lineno - 1].split()


def parse_graph(text: str | bytes) -> Graph:
    """Parse the `p sgd <n> <m>` edge-list format into a Graph.

    The vertices of all edges are checked at once by Graph; every error
    names the first offending line.
    """
    (_, (n, m)), rows, linenos, stop = _read_body(
        text, "p", "sgd", (int, int), "e", 2,
        lambda fields: f"malformed edge line {' '.join(fields)!r}",
    )
    try:
        g = Graph(n, rows - 1)
    except _RowError as exc:
        lineno = linenos[exc.index]
        fields = _line_fields(text, lineno)
        u, v = map(int, fields[1:])
        message = {
            "range": f"vertex out of range in {' '.join(fields)!r}",
            "loop": f"self-loop at vertex {u}",
            "duplicate": f"duplicate edge {(min(u, v), max(u, v))}",
        }[exc.reason]
        raise GraphFormatError(message, lineno) from None
    if stop is not None:
        raise stop
    if g.m != m:
        raise GraphFormatError(f"header declares {m} edges, found {g.m}")
    return g


# Decimal spellings shared by every writer: word i spells i, its digits in
# the high bytes of a 64-bit word and zero bytes below them. The cache grows
# by doubling: word i is word i // 10 moved down a byte, then i's last digit.
# Digits are thus computed once per value, not once per row.
_DIGITS = np.arange(ord("0"), ord("9") + 1, dtype=np.uint64) << np.uint64(56)

_EMIT_BLOCK = 1 << 16  # rows per record: bounds the size of the temporaries


def _digit_words(stop: int) -> np.ndarray:
    """The digit cache, grown to spell at least 0..stop-1."""
    global _DIGITS
    while len(_DIGITS) < stop:
        high, low = np.divmod(np.arange(len(_DIGITS), 2 * len(_DIGITS)), 10)
        low = low.astype(np.uint64) + np.uint64(ord("0"))
        grown = _DIGITS[high] >> np.uint64(8) | low << np.uint64(56)
        _DIGITS = np.concatenate((_DIGITS, grown))
    return _DIGITS


def _words(*texts: str) -> np.ndarray:
    """A (len(texts), w) table of little-endian words: row i holds the ASCII
    texts[i] and zero bytes after it, in as few words as the longest needs."""
    size = -(-max(map(len, texts)) // 8)
    spelled = b"".join(text.encode("ascii").ljust(8 * size, b"\0") for text in texts)
    return np.frombuffer(spelled, dtype="<u8").reshape(len(texts), size)


def _number(column: np.ndarray, offset: int = 0, prefix: str = "", suffix: str = ""):
    """The field of `_emit_rows` that writes each value of column plus offset
    in decimal, between prefix and suffix: (table, column), row i of the
    table spelling prefix, i + offset, suffix. Values plus offset must be
    nonnegative and have at most _MAX_DIGITS digits; every count and index
    of the formats lies in 0.._MAX_COUNT.

    One word holds the digits, moved down to make room for the suffix's
    first bytes at the top; the prefix's last bytes take the bottom bytes
    that no value's digits reach. What does not fit gets words of its own
    before or after it, which the zero bytes between keep in order."""
    stop = int(column.max(initial=0)) + offset + 1
    if stop > 10**_MAX_DIGITS:
        raise ValueError(f"cannot write {stop - 1}: more than {_MAX_DIGITS} digits")
    room = 8 - len(str(stop - 1))
    tail = suffix[:room]
    cut = max(len(prefix) - (room - len(tail)), 0)
    ends = int.from_bytes(prefix[cut:].encode(), "little")
    ends |= int.from_bytes(tail.encode(), "little") << 8 * (8 - len(tail))
    before, after = _words(prefix[:cut]), _words(suffix[len(tail):])
    at = before.shape[1]
    table = np.empty((stop - offset, at + 1 + after.shape[1]), dtype="<u8")
    table[:, :at] = before
    table[:, at] = _digit_words(stop)[offset:stop] >> np.uint64(8 * len(tail)) | np.uint64(ends)
    table[:, at + 1:] = after
    return table, column


def _emit_rows(head: str, *fields) -> str:
    """head, then the text of each row: for each field (table, column), in
    order, the words of table[column[row]], their zero bytes dropped.

    Each block of _EMIT_BLOCK rows takes the words of every field into one
    (rows, words) record of little-endian words, whose bytes, copied out,
    lose their zero bytes to one `bytes.translate`."""
    rows = len(fields[0][1])
    cut = [0, *accumulate(table.shape[1] for table, _ in fields)]
    parts = [head]
    for start in range(0, rows, _EMIT_BLOCK):
        block = slice(start, start + _EMIT_BLOCK)
        record = np.empty((min(rows - start, _EMIT_BLOCK), cut[-1]), dtype="<u8")
        for (table, column), a, b in zip(fields, cut, cut[1:]):
            np.take(table, column[block], axis=0, out=record[:, a:b])
        parts.append(record.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(parts)


def emit_graph(g: Graph) -> str:
    """Canonical text form: header, then edges `e u v` with u < v, sorted."""
    u, v = g._edge_columns()
    return _emit_rows(f"p sgd {g.n} {g.m}\n", _number(u, 1, "e "), _number(v, 1, " ", "\n"))


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


# ---------------------------------------------------------------------------
# 1-factorization (circle method)

def _factor_rounds(n: int) -> Iterator[list[tuple[int, int]]]:
    """The n-1 rounds of the circle method on K_n, made one at a time; n is
    checked at the call. Vertex n-1 stays fixed and the others rotate: round
    r pairs r with n-1, and r+i with r-i (mod n-1) for 0 < i < n/2. As r+i
    and r-i sum to 2r, that pairs each u != r with 2r-u (mod n-1, which is
    odd, so 2r-u = u only at u = r); walking u upward lists the round
    sorted, with u < v in every pair (u, v)."""
    if n <= 0 or n % 2 != 0:
        raise ValueError("1-factorization requires even n >= 2")
    hub = n - 1
    return (
        [(u, v if u != v else hub) for u in range(hub) if u <= (v := (2 * r - u) % hub)]
        for r in range(hub)
    )


def one_factorization(n: int) -> list[Matching]:
    """The n-1 pairwise edge-disjoint perfect matchings partitioning E(K_n).

    Deterministic circle method: vertex n-1 stays fixed, the others rotate.
    """
    return [Matching(frozenset(pairs)) for pairs in _factor_rounds(n)]
