"""Exact solvers: brute-force oracles and a propagating branch-and-bound for
the signed (total) k-domination numbers, a filtered brute force for the upper
signed k-domination number, and baseline solvers for domination numbers and
1-in-3 SAT used in reduction cross-validation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bounds import indicator, parity_ceil
from .certify import (
    Mode,
    SignFunction,
    _check_k,
    _mode_rows,
    _mode_sums,
    is_minimal_skdf,
    verify,
)
from .graph import Graph

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
CAP_EXCEEDED = "cap_exceeded"

# Default caps of the brute-force and branch-and-bound solvers.
DEFAULT_MAX_BRUTE_N = 24
DEFAULT_NODE_BUDGET = 10**8

# Low-part width of the brute-force split: the low table holds 2^14 columns
# of n int16 sums, small enough to stay in cache.
_LOW_BITS = 14

# Largest order brute force tabulates, whatever its cap: the high table then
# has at most 2^22 columns (36 x 2^22 int16 sums, about 300 MB). A larger
# order is refused as cap_exceeded before any table is allocated.
_MAX_BRUTE_ORDER = _LOW_BITS + 22

# Lagrangian bound of the branch-and-bound: subgradient steps at the first
# node that needs the bound, then per node from the parent's multipliers;
# and the float tolerance taken off every bound.
_ROOT_STEPS = 100
_NODE_STEPS = 15
_FLOAT_TOL = 1e-6


class CapExceededError(RuntimeError):
    """An enumeration cap or node budget was exceeded."""


class InfeasibleError(ValueError):
    """The requested parameter does not exist on this input."""


@dataclass(frozen=True)
class SolveResult:
    status: str
    value: int | None
    certificate: SignFunction | None
    nodes_explored: int


def _mode_matrix(g: Graph, mode: Mode) -> np.ndarray:
    """Row v marks the vertices of N[v] (closed) or N(v) (total): summing
    the columns of the identity over N_mode(v) gives its indicator."""
    return _mode_sums(g, np.eye(g.n, dtype=np.int16), mode)


def _part_table(m: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Neighbourhood sums (n x 2^width) of every sign pattern of vertices
    start..stop-1, zero on every other vertex, and its number of +1s.

    Columns are in lexicographic order with -1 < +1: vertex `start` is the
    most significant bit, and bit 0 encodes -1.
    """
    width = stop - start
    twice = 2 * m[:, start:stop]
    sums = np.empty((m.shape[0], 1 << width), dtype=np.int16)
    plus = np.zeros(1 << width, dtype=np.int8)
    sums[:, 0] = -m[:, start:stop].sum(axis=1)
    # Doubling: making vertex u the most significant bit keeps the table
    # for u = -1 and appends a copy with u = +1, which adds 2 m[:, u].
    for u in range(width - 1, -1, -1):
        s = 1 << (width - 1 - u)
        np.add(sums[:, :s], twice[:, u, None], out=sums[:, s : 2 * s])
        plus[s : 2 * s] = plus[:s] + 1
    return sums, plus


def _first_optimum(
    g: Graph, k: int, mode: Mode, upper: bool
) -> tuple[int, int] | None:
    """Value and index of the lexicographically first optimum over
    {-1,+1}^n, or None if nothing qualifies.

    None comes only from an empty low filter: otherwise all +1 is feasible,
    so some assignment is feasible (and minimal) with both halves kept and
    the sweep sets an incumbent. A bug that left none would raise at the
    return, an internal error (exit 4) in the CLI, not `infeasible`.

    The index has vertex 0 as its most significant bit and bit value 1 for
    +1. sigma (upper=False) minimises the weight over feasible assignments;
    Gamma (upper=True, closed mode) maximises it over feasible, minimal ones.

    Split enumeration (Horowitz & Sahni): vertices 0..h-1 form the high part
    and h..n-1 the low part, so an index is `p << l | q`. The neighbourhood
    sums of every low pattern q are tabulated once; each high pattern p, in
    increasing order, adds its own sums to the whole table. Low patterns are
    sorted stably by the objective, so the ones that strictly beat the
    incumbent form a prefix, and the first of them that passes the test is
    the block's lexicographically first best. A block replaces the incumbent
    only when strictly better, which keeps the global winner the
    lexicographically first optimum. Tables are vertex-major because
    reducing over the short vertex axis of a row-major table is slow.

    Two relaxation filters come first. A low pattern is kept only if every
    row v reaches k with the most that any high pattern adds to it (all of
    the high part in N_mode(v) at +1); a high pattern is then kept only if
    every row reaches k with the most that any kept low pattern adds. A
    dropped pattern breaks some row with every partner, and the kept ones
    stay in (key, index) order, so the filters change no result. After them
    the high table is turned in place into each pattern's threshold k - sums
    on the low sums, and the prefix length of every later high pattern is
    one `searchsorted`, redone only when the incumbent improves.

    Gamma's minimality test builds two arrays once per solve: the
    closed-neighbourhood matrix as float32 and the -1 mask of every kept low
    pattern; a high pattern's -1 mask comes from the bits of p. A feasible
    candidate's sum at v is k or k+1 iff its low sum is at most the
    threshold + 1, and it is minimal iff every +1 vertex has such a vertex in
    its closed neighbourhood: one float32 product counts them, exactly, since
    no count exceeds n <= 36.
    """
    n = g.n
    # Every sum lies in [-n, n], so k > n is exactly as infeasible as n + 1;
    # clamping keeps k - sum inside int16.
    k = min(k, n + 1)
    low = min(_LOW_BITS, n)
    high = n - low
    m = _mode_matrix(g, mode)
    lo_sums, lo_plus = _part_table(m, high, n)
    hi_sums, hi_plus = _part_table(m, 0, high)
    (order,) = np.nonzero((lo_sums >= k - hi_sums.max(axis=1)[:, None]).all(axis=0))
    if len(order) == 0:
        return None
    # key = weight for sigma and -weight for Gamma; the search minimises it.
    # It is sorted as int8, which makes the stable argsort a radix sort, and
    # searched as int64, the type of the bounds taken from the high keys.
    sense = -1 if upper else 1
    lo_key = sense * (2 * lo_plus[order] - low)
    by_key = np.argsort(lo_key, kind="stable")
    order, lo_key = order[by_key], lo_key[by_key].astype(np.int64)
    # take() keeps the table C-contiguous; a[:, order] would not.
    lo_sums = lo_sums.take(order, axis=1)
    (hi_kept,) = np.nonzero((hi_sums >= k - lo_sums.max(axis=1)[:, None]).all(axis=0))
    hi_key = (sense * (2 * hi_plus[hi_kept] - high)).astype(np.int64)
    # From here on the high table holds each pattern's threshold on the low
    # sums: q completes p iff lo_sums[:, q] >= need[:, p] on every row.
    need = np.subtract(k, hi_sums, out=hi_sums)
    if upper:
        adj = m.astype(np.float32)
        lo_minus = (order >> np.arange(low - 1, -1, -1)[:, None]) & 1 == 0
        hi_shift = np.arange(high - 1, -1, -1)
    best_key: int | None = None
    best_index: int | None = None
    # Columns of the low table that strictly beat the incumbent with each
    # kept high pattern; they change only when the incumbent does.
    limits = np.full(len(hi_kept), len(order))
    for i, p in enumerate(hi_kept.tolist()):
        cols = limits[i]
        if cols == 0:
            continue
        (cand,) = (lo_sums[:, :cols] >= need[:, p, None]).all(axis=0).nonzero()
        if upper and len(cand):
            # A candidate is feasible, so its sum at v is k or k+1 iff its
            # low sum is at most need + 1.
            tight = lo_sums[:, cand] <= need[:, p, None] + 1
            covered = adj.dot(tight.astype(np.float32)) > 0
            covered[:high] |= (p >> hi_shift)[:, None] & 1 == 0
            covered[high:] |= lo_minus[:, cand]
            cand = cand[covered.all(axis=0)]
        if len(cand) == 0:
            continue
        q = int(cand[0])
        best_key = int(lo_key[q] + hi_key[i])
        best_index = (p << low) | int(order[q])
        limits[i + 1 :] = np.searchsorted(lo_key, best_key - hi_key[i + 1 :])
    return sense * best_key, best_index


def _certificate_at(index: int, n: int) -> SignFunction:
    return SignFunction(
        tuple(1 if (index >> (n - 1 - v)) & 1 else -1 for v in range(n))
    )


def _optimal(
    g: Graph, k: int, mode: Mode, value: int, f: SignFunction, nodes: int, upper: bool = False
) -> SolveResult:
    """The postcondition of both solvers: an optimal result, returned only
    once its certificate proves the value (and, for Gamma, is minimal)."""
    if (
        f.weight != value
        or not verify(g, k, mode, f).feasible
        or (upper and not is_minimal_skdf(g, k, f).minimal)
    ):
        raise RuntimeError(f"certificate {f.values} does not prove value {value}")
    return SolveResult(OPTIMAL, value, f, nodes)


def _brute_force(
    g: Graph, k: int, mode: Mode, upper: bool, max_n: int
) -> SolveResult:
    """Shared body of brute_force_sigma and brute_force_upper."""
    _check_k(k)
    n = g.n
    if n > min(max_n, _MAX_BRUTE_ORDER):
        return SolveResult(CAP_EXCEEDED, None, None, 0)
    optimum = _first_optimum(g, k, mode, upper)
    if optimum is None:
        return SolveResult(INFEASIBLE, None, None, 1 << n)
    value, index = optimum
    return _optimal(g, k, mode, value, _certificate_at(index, n), 1 << n, upper)


def brute_force_sigma(
    g: Graph, k: int, mode: Mode, max_n: int = DEFAULT_MAX_BRUTE_N
) -> SolveResult:
    """Exhaustive minimum over all 2^n sign functions.

    Returns the lexicographically first optimal certificate (-1 < +1, vertex
    order 0..n-1); deterministic and bit-identical across runs. An order
    above max_n or `_MAX_BRUTE_ORDER` (36) comes back cap_exceeded.
    """
    return _brute_force(g, k, mode, False, max_n)


def brute_force_upper(g: Graph, k: int, max_n: int = DEFAULT_MAX_BRUTE_N) -> SolveResult:
    """Exhaustive maximum weight over minimal signed k-dominating functions."""
    return _brute_force(g, k, Mode.CLOSED, True, max_n)


def _parity_ceil(bound: float, n: int) -> int:
    """`parity_ceil` of `bound` less a float tolerance, so rounding error
    can only weaken the bound."""
    return parity_ceil(bound - _FLOAT_TOL, n)


@dataclass(frozen=True)
class _LiveBlock:
    """The constraints the root leaves live, as `_dual_ascent` reads them.

    Columns F are the vertices the root's unit pass leaves undecided, the
    only ones any node can have free; rows R are the constraints whose
    N_mode(v) meets F. B is the 0/1 matrix of u in N_mode(v) over R x F,
    held as its pairs (`r`, `c`) of row and column indices in (row, column)
    order. `cols` lists F, `rhs` is each row's threshold less its root-fixed
    members, `fixed_sq` is the sum of rhs^2 over the rows outside R and
    `order` is n.
    """

    cols: np.ndarray
    r: np.ndarray
    c: np.ndarray
    rhs: np.ndarray
    fixed_sq: float
    order: int

    def cover(self, y: np.ndarray) -> np.ndarray:
        """y.B, added in pair order: the same floats in the same order as a
        bincount over all of V, where a BLAS product would reorder them and
        move the search."""
        return np.bincount(self.c, y[self.r], len(self.cols))

    def sums(self, x: np.ndarray) -> np.ndarray:
        """B.x; x is -1, 0 or +1, so the sums are exact."""
        return np.bincount(self.r, x[self.c], len(self.rhs))


def _live_block(
    src: np.ndarray, dst: np.ndarray, thr: np.ndarray, root: np.ndarray
) -> _LiveBlock:
    """The live block of the constraints sum_{u in N_mode(v)} x_u >= thr_v
    under the root assignment `root` (0 = undecided). (src, dst) lists each
    pair with dst in N_mode(src), sorted; the relation is symmetric."""
    n = len(thr)
    free = root == 0
    live = free[dst]
    in_rows = np.bincount(src[live], minlength=n) > 0
    rhs = thr - np.bincount(src, weights=root[dst], minlength=n)
    fixed = rhs[~in_rows]
    r = (np.cumsum(in_rows) - 1)[src[live]]
    c = (np.cumsum(free) - 1)[dst[live]]
    return _LiveBlock(
        np.flatnonzero(free), r, c, rhs[in_rows], float(fixed.dot(fixed)), n
    )


def _dual_ascent(
    y: np.ndarray,
    block: _LiveBlock,
    rhs: np.ndarray,
    free: np.ndarray,
    w: int,
    best: int,
    steps: int,
) -> tuple[float, np.ndarray]:
    """Projected subgradient ascent on the Lagrangian dual of one node.

    For multipliers y >= 0 on the constraints sum_{u in nbhd[v]} x_u >= rhs_v
    over the free vertices, L(y) = w + y.rhs - sum_{u free} |1 - c_u| with
    c_u = sum_{v in nbhd[u]} y_v is a lower bound on every completion's
    weight. Polyak steps aim just above the pruning level best - 2; the
    ascent stops once L clears it. Returns the best L seen and its y.

    y and rhs run over the rows R of the live block and free over its
    columns F (see `_live_block`). A row outside R has all its members fixed
    at the root, so its rhs is a constant <= 0: its y starts at 0 and every
    step is positive, so it stays 0 and adds nothing to L or c. Its
    subgradient entry is that rhs, so it adds the constant `fixed_sq` to the
    squared norm. c and the norm add the same numbers in the same order as
    an ascent over all of V, but L's two dot products, y.rhs and excess.x,
    add over R and F where that ascent adds over V with zeros between, so
    BLAS may round L, and with it a step, differently in the last bits. The
    two ascents take the same search on every instance measured, not by
    construction; `test_pinned_searches` and `test_pinned_certificates`
    guard it.
    """
    n, cover, sums, fixed_sq = block.order, block.cover, block.sums, block.fixed_sq
    target = best - 1
    top, top_y = -math.inf, y
    for _ in range(steps):
        excess = cover(y) - 1.0
        # The minimising x is +1 on free vertices with c_u > 1, else -1, so
        # excess.x is sum_{u free} |1 - c_u|.
        x = np.copysign(free, excess)
        bound = w + y.dot(rhs) - excess.dot(x)
        if bound > top:
            top, top_y = bound, y
            if _parity_ceil(bound, n) >= best:
                break
        grad = rhs - sums(x)
        norm = grad.dot(grad) + fixed_sq
        if norm == 0:
            break
        step = ((target - bound) / norm) * grad
        step += y
        y = np.maximum(step, 0.0, out=step)
    return top, top_y


def bnb_sigma(
    g: Graph, k: int, mode: Mode, node_budget: int = DEFAULT_NODE_BUDGET
) -> SolveResult:
    """Branch-and-bound for sigma_kS / sigma_tkS.

    Uses parity-strengthened per-vertex thresholds thr[v] (a neighbourhood
    whose size has the opposite parity of k must reach k+1) and a one-step
    unit rule on slack[v], the largest sum N_mode(v) can still reach less
    thr[v]: |N_mode(v)| - thr[v], lowered by 2 for each -1 placed in it.
    The constraints are monotone in f, so a +1 changes no slack. A negative
    slack is a conflict, and a slack of at most 1 sets every undecided vertex
    of N_mode(v) to +1; those +1s change no slack, so the rule never
    cascades. It runs on every vertex at the root (a neighbourhood of fewer
    than k vertices is a root conflict; the vertices it forces are
    `forced_plus_vertices`) and then on N_mode(u) after each -1 at u.
    Nodes are pruned against the incumbent by Lagrangian bounds rounded up to
    the parity of n (see `_dual_ascent`), whose multipliers are tuned at the
    first node that needs them and warm-started down the search. The ascent
    runs on the live block (see `_live_block`), built once after the root's
    unit pass: only the constraints that meet a vertex the root leaves
    undecided, the rest adding one constant to each step's norm. The search
    is one loop over a stack of child records, so its depth is not limited
    by Python's recursion limit; a child whose unit rule conflicts is not
    counted as a node. Its answer is brute_force_sigma's on the graph with
    the vertices relabelled in (|N_mode(v)|, v) order, mapped back: the
    certificate is the lexicographically first optimum (-1 < +1) in that
    order.
    """
    _check_k(k)
    n = g.n
    ptr, dst = _mode_rows(g, mode)
    flat, ends = dst.tolist(), ptr.tolist()
    nbhd = [flat[a:b] for a, b in zip(ends, ends[1:])]
    thr = [k + 1 - indicator(len(a), k) for a in nbhd]
    slack = [len(a) - t for a, t in zip(nbhd, thr)]
    assign = [0] * n
    # assign as a float array, which the bound indexes by the live columns.
    signs = np.zeros(n)
    trail: list[int] = []

    def place(u: int, val: int) -> None:
        assign[u] = signs[u] = val
        trail.append(u)
        if val < 0:
            for v in nbhd[u]:
                slack[v] -= 2

    def unit(v: int) -> bool:
        """The whole propagation rule at v; False on a conflict."""
        if slack[v] < 0:
            return False
        if slack[v] <= 1:
            for u in nbhd[v]:
                if assign[u] == 0:
                    place(u, 1)
        return True

    # |N[v]| = degree + 1, so both modes branch in (degree, v) order.
    sizes = np.diff(ptr)
    order = np.argsort(sizes, kind="stable").tolist()
    src = np.repeat(np.arange(n), sizes)
    thr_arr = np.array(thr, dtype=float)

    nodes = 0
    best_w: int | None = None
    best_f: SignFunction | None = None
    block: _LiveBlock | None = None
    root_y: np.ndarray | None = None
    # A record is a node still to visit: (branch vertex, its value, the
    # parent's trail mark, the order position where the search for an
    # undecided vertex resumes, the parent's tuned multipliers or None before
    # any incumbent). The root is the record with no vertex.
    stack: list[tuple] = [(None, 0, 0, 0, None)]
    while stack:
        u, val, mark, pos, y = stack.pop()
        # Back to the parent's assignment, then the child's own step.
        while len(trail) > mark:
            v = trail.pop()
            if assign[v] < 0:
                for t in nbhd[v]:
                    slack[t] += 2
            assign[v] = signs[v] = 0
        if u is None:
            touched = range(n)
        else:
            place(u, val)
            touched = nbhd[u] if val < 0 else ()
        if not all(unit(v) for v in touched):
            continue
        nodes += 1
        if nodes > node_budget:
            return SolveResult(CAP_EXCEEDED, best_w, best_f, nodes)
        w, free_total = sum(assign), n - len(trail)
        if best_w is not None and w - free_total >= best_w:
            continue
        if free_total == 0:
            best_w, best_f = w, SignFunction(tuple(assign))
            continue
        if block is None:
            # The root, after its unit pass: later nodes only fix more.
            block = _live_block(src, dst, thr_arr, signs)
        if best_w is not None:
            x = signs[block.cols]
            rhs = block.rhs - block.sums(x)
            free = (x == 0).astype(float)
            if y is None:
                if root_y is None:
                    _, root_y = _dual_ascent(
                        np.zeros(len(rhs)), block, rhs, free, w, best_w, _ROOT_STEPS
                    )
                y = root_y
            bound, y = _dual_ascent(y, block, rhs, free, w, best_w, _NODE_STEPS)
            if _parity_ceil(bound, n) >= best_w:
                continue
        while assign[order[pos]] != 0:
            pos += 1
        # The -1 child is pushed last, so it is searched first.
        mark = len(trail)
        stack += [(order[pos], 1, mark, pos, y), (order[pos], -1, mark, pos, y)]

    if best_w is None:
        return SolveResult(INFEASIBLE, None, None, nodes)
    return _optimal(g, k, mode, best_w, best_f, nodes)


# ---------------------------------------------------------------------------
# Baseline solvers for reduction cross-validation

def _min_cover(g: Graph, mode: Mode, max_n: int) -> int:
    """Fewest vertices v whose neighbourhoods N_mode(v) together cover V."""
    n = g.n
    if n > max_n:
        raise CapExceededError(f"subset enumeration capped at n={max_n}")
    if n == 0:
        return 0
    full = (1 << n) - 1
    masks = [sum(1 << u for u in np.flatnonzero(row).tolist()) for row in _mode_matrix(g, mode)]
    for size in range(n + 1):
        for subset in combinations(range(n), size):
            covered = 0
            for v in subset:
                covered |= masks[v]
            if covered == full:
                return size
    raise AssertionError("the full vertex set always covers")


def gamma(g: Graph, max_n: int = 20) -> int:
    """Domination number by subset enumeration in increasing size."""
    return _min_cover(g, Mode.CLOSED, max_n)


def gamma_t(g: Graph, max_n: int = 20) -> int:
    """Total domination number by subset enumeration in increasing size."""
    if g.n > 0 and g.min_degree == 0:
        raise InfeasibleError("total domination undefined with isolated vertices")
    return _min_cover(g, Mode.TOTAL, max_n)


def one_in_three_sat(formula, max_vars: int = 30):
    """First assignment (lexicographic, FALSE < TRUE, variable 1 most
    significant) with exactly one TRUE per clause, or None."""
    nv = formula.num_vars
    if nv > max_vars:
        raise CapExceededError(f"SAT enumeration capped at {max_vars} variables")
    clauses = formula.clauses
    for i in range(1 << nv):
        truth = tuple(bool((i >> (nv - j)) & 1) for j in range(1, nv + 1))
        if all(sum(truth[x - 1] for x in clause) == 1 for clause in clauses):
            return truth
    return None
