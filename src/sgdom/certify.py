"""Sign certificates and polynomial-time verifiers for signed k-domination,
signed total k-domination, and minimality of signed k-dominating functions."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import (
    Graph,
    GraphFormatError,
    _emit_rows,
    _line_fields,
    _number,
    _read_body,
    _repeats,
    _words,
)


class Mode(enum.Enum):
    """Which neighborhood a vertex constraint sums over."""

    CLOSED = "closed"  # N[v]; parameter sigma_kS
    TOTAL = "total"    # N(v); parameter sigma_tkS

    def __str__(self) -> str:
        return self.value


def _check_k(k: int) -> None:
    if not (type(k) is int or isinstance(k, np.integer)) or k < 1:
        raise ValueError("k must be a positive integer")


def _own(mode: Mode) -> int:
    """1 if N_mode(v) holds v itself (closed mode, N[v]), 0 if not (total
    mode, N(v)), so |N_mode(v)| = deg(v) + _own(mode). The one place that
    tells the modes apart."""
    if not isinstance(mode, Mode):
        raise ValueError("mode must be Mode.CLOSED or Mode.TOTAL")
    return 1 if mode is Mode.CLOSED else 0


def _mode_sums(g: Graph, x: np.ndarray, mode: Mode) -> np.ndarray:
    """The sum of x over N_mode(v) for every vertex v. x is indexed by vertex
    along axis 0, so each column of a 2-D x gets its own sums."""
    sums = g.neighbor_sums(x)
    if _own(mode):
        sums += x
    return sums


def _mode_rows(g: Graph, mode: Mode) -> tuple[np.ndarray, np.ndarray]:
    """N_mode(v) of every v as read-only rows (ptr, nbr), each sorted: row v
    is nbr[ptr[v]:ptr[v + 1]]. Total mode gives views of the graph's own
    arrays; closed mode inserts v into row v after its neighbours below v.
    Branch-and-bound adds floats in row order, so the order is kept."""
    ptr, nbr = g._ptr.view(), g._nbr.view()
    if _own(mode):
        src = np.repeat(np.arange(g.n), g._degrees())
        below = np.bincount(src[nbr < src], minlength=g.n)
        nbr = np.insert(nbr, ptr[:-1] + below, np.arange(g.n))
        ptr = ptr + np.arange(g.n + 1)
    ptr.flags.writeable = nbr.flags.writeable = False
    return ptr, nbr


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class SignFunction:
    """A total assignment V -> {-1, +1}."""

    values: tuple[int, ...]

    def __post_init__(self):
        if not set(self.values) <= {-1, 1}:
            bad = next(x for x in self.values if x not in (-1, 1))
            raise ValueError(f"sign values must be -1 or +1, got {bad}")

    @cached_property
    def array(self) -> np.ndarray:
        """The values as a read-only int64 array. Not a field: equality,
        hashing and repr read `values` alone."""
        return _read_only(np.array(self.values, dtype=np.int64))

    @property
    def weight(self) -> int:
        return int(self.array.sum())

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, v: int) -> int:
        return self.values[v]


def _sign_function(array: np.ndarray) -> SignFunction:
    """The SignFunction of an int64 array whose values the caller has
    checked to be -1 or +1; the array, made read-only, becomes its `array`."""
    f = object.__new__(SignFunction)
    object.__setattr__(f, "values", tuple(array.tolist()))
    f.__dict__["array"] = _read_only(array)
    return f


@dataclass(frozen=True)
class VerifyReport:
    feasible: bool
    per_vertex_sum: tuple[int, ...]
    violations: frozenset[int]
    min_slack: int | None  # None only on the empty graph

    @cached_property
    def _sums(self) -> np.ndarray:
        """per_vertex_sum as a read-only int64 array; `verify` gives its own."""
        return _read_only(np.array(self.per_vertex_sum, dtype=np.int64))


def verify(g: Graph, k: int, mode: Mode, f: SignFunction) -> VerifyReport:
    """Check whether every neighborhood sum reaches k.

    Closed mode sums f over N[v], total mode over N(v). Pure function; degree
    preconditions are not enforced here, an impossible instance simply comes
    back infeasible.
    """
    _check_k(k)
    if len(f) != g.n:
        raise ValueError(f"certificate length {len(f)} != graph order {g.n}")
    sums = _mode_sums(g, f.array, mode)
    violations = frozenset(np.flatnonzero(sums < k).tolist())
    min_slack = int(sums.min()) - k if g.n else None
    report = VerifyReport(not violations, tuple(sums.tolist()), violations, min_slack)
    report.__dict__["_sums"] = _read_only(sums)
    return report


@dataclass(frozen=True)
class MinimalityReport:
    minimal: bool
    offending: int | None  # the first +1 vertex with no tight closed neighbor


def is_minimal_skdf(g: Graph, k: int, f: SignFunction) -> MinimalityReport:
    """Single-flip minimality test for a feasible signed k-dominating function.

    f is minimal iff every vertex with value +1 has some u in N[v] whose
    closed sum lies in {k, k+1}. The constraints are monotone nondecreasing in
    f, so a pointwise-dominated feasible function exists exactly when a single
    +1 can be flipped; flipping v lowers each closed sum over N[v] by 2.
    """
    return _minimality(g, k, f, verify(g, k, Mode.CLOSED, f))


def _minimality(g: Graph, k: int, f: SignFunction, report: VerifyReport) -> MinimalityReport:
    """`is_minimal_skdf` given f's closed-mode report, which a caller that
    has verified f already holds."""
    if not report.feasible:
        raise ValueError("minimality is only defined for feasible SkDFs")
    sums = report._sums
    tight = ((sums == k) | (sums == k + 1)).astype(np.int64)
    plus = f.array == 1
    offending = np.flatnonzero(plus & (_mode_sums(g, tight, Mode.CLOSED) == 0))
    if offending.size:
        return MinimalityReport(False, int(offending[0]))
    return MinimalityReport(True, None)


def forced_plus_vertices(g: Graph, k: int, mode: Mode) -> frozenset[int]:
    """Vertices that take value +1 in every feasible certificate of the mode.

    If |N_mode(v)| is k or k+1, a single -1 in it caps v's sum below k, so
    every vertex of N_mode(v) is forced (N[v] in closed mode, N(v) in total
    mode). u lies in N_mode(v) iff v lies in N_mode(u), so u is forced iff
    its own neighbourhood holds such a centre v.
    """
    _check_k(k)
    size = _mode_sums(g, np.ones(g.n, dtype=np.int64), mode)
    centres = ((size == k) | (size == k + 1)).astype(np.int64)
    return frozenset(np.flatnonzero(_mode_sums(g, centres, mode) > 0).tolist())


# ---------------------------------------------------------------------------
# Certificate text format

def parse_certificate(text: str | bytes) -> tuple[int, Mode, SignFunction]:
    """Parse `s sgd-cert <n> <k> <mode>` plus n `v <i> <+1|-1>` lines, a
    value being any integer spelling of +1 or -1 (`1`, `-01`).

    Returns (k, mode, sign function). The values and indices of all lines
    are checked at once, a line's value first; every error names the first
    offending line.
    """
    def malformed(fields):
        return f"malformed value line {' '.join(fields)!r}"

    (_, (n, k, mode)), rows, linenos, stop = _read_body(
        text, "s", "sgd-cert", (int, int, Mode), "v", 2, malformed
    )
    index = rows[:, 0] - 1
    sign = np.abs(rows[:, 1]) == 1
    out = (index < 0) | (index >= n)
    wrong = np.flatnonzero(~sign | out | _repeats(index))
    if wrong.size:
        i = int(wrong[0])
        fields = _line_fields(text, linenos[i])
        problem = "out of range" if out[i] else "assigned twice"
        message = f"vertex {int(fields[1])} {problem}" if sign[i] else malformed(fields)
        raise GraphFormatError(message, linenos[i])
    if stop is not None:
        raise stop
    if index.size != n:
        raise GraphFormatError(f"expected {n} vertex values, found {index.size}")
    values = np.empty(n, dtype=np.int64)
    values[index] = rows[:, 1]
    return k, mode, _sign_function(values)


# The sign field `emit_certificate` writes, indexed by value > 0.
_SIGN_WORDS = _words(" -1\n", " +1\n")


def emit_certificate(f: SignFunction, k: int, mode: Mode) -> str:
    plus = f.array > 0
    head = f"s sgd-cert {len(f)} {k} {mode.value}\n"
    return _emit_rows(head, _number(np.arange(len(f)), 1, "v "), (_SIGN_WORDS, plus))
