"""Exact-rational lower bounds on the signed (total) k-domination number in
terms of minimum and maximum degree, with the nearly-regular, c*n-threshold
and nonnegativity corollaries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .certify import Mode, _check_k

# Bound values are exact rationals; floating point is banned in this module.
BoundValue = Fraction


def indicator(x: int, k: int) -> int:
    """1 iff x and k have the same parity."""
    _check_k(k)
    return 1 if (x - k) % 2 == 0 else 0


@dataclass(frozen=True)
class DegreeProfile:
    n: int
    delta: int
    Delta: int
    k: int

    def __post_init__(self):
        _check_k(self.k)
        if self.n < 0:
            raise ValueError("order must be nonnegative")
        if not (0 <= self.delta <= self.Delta):
            raise ValueError("need 0 <= delta <= Delta")

    @classmethod
    def of_graph(cls, g, k: int) -> "DegreeProfile":
        return cls(g.n, g.min_degree, g.max_degree, k)


def _check_mode_precondition(p: DegreeProfile, mode: Mode) -> None:
    if mode is Mode.CLOSED and p.delta < p.k - 1:
        raise ValueError(f"closed mode requires delta >= k-1 (delta={p.delta}, k={p.k})")
    if mode is Mode.TOTAL and p.delta < p.k:
        raise ValueError(f"total mode requires delta >= k (delta={p.delta}, k={p.k})")


def bound_terms(p: DegreeProfile, mode: Mode) -> tuple[int, int]:
    """The (numerator, denominator) of the per-vertex bound fraction,
    before multiplying by the order and reducing."""
    _check_mode_precondition(p, mode)
    i_d = indicator(p.delta, p.k)
    i_D = indicator(p.Delta, p.k)
    if mode is Mode.CLOSED:
        num = p.delta - p.Delta + 2 * p.k + i_d + i_D
        den = p.delta + p.Delta + 2 + i_d - i_D
    else:
        num = p.delta - p.Delta + 2 * p.k + 2 - i_d - i_D
        den = p.delta + p.Delta + i_D - i_d
    assert den > 0, "denominator must be positive under the degree preconditions"
    return num, den


def lower_bound(p: DegreeProfile, mode: Mode) -> BoundValue:
    """Sharp lower bound on sigma_kS (closed) or sigma_tkS (total)."""
    num, den = bound_terms(p, mode)
    return Fraction(p.n * num, den)


def parity_ceil(x, n: int) -> int:
    """Least integer >= x with the parity of n.

    Certificate weights satisfy w(f) == n (mod 2), so rounding any lower
    bound on them this way is free.
    """
    w = math.ceil(x)
    return w + (w - n) % 2


def effective_bound(p: DegreeProfile, mode: Mode) -> int:
    """Smallest integer >= lower_bound with the parity of the order."""
    return parity_ceil(lower_bound(p, mode), p.n)


def nearly_regular_bound(n: int, r: int, k: int, mode: Mode) -> BoundValue:
    """Lower bound for nearly r-regular graphs: the theorem at delta = r-1,
    Delta = r. Total mode needs delta >= k, so r > k there."""
    if r < k:
        raise ValueError(f"nearly regular bound requires r >= k (r={r}, k={k})")
    if n < 1:
        raise ValueError("order must be positive")
    return lower_bound(DegreeProfile(n, r - 1, r, k), mode)


def threshold_check(p: DegreeProfile, c: Fraction, mode: Mode) -> bool:
    """True iff the theorem's inequality num >= c*den holds with both parity
    indicators at their least favourable value (0 in closed mode, 1 in total
    mode), which guarantees the bound is at least c*n. c is an exact
    rational in (-1, 1]."""
    c = Fraction(c)
    if not (-1 < c <= 1):
        raise ValueError("c must satisfy -1 < c <= 1")
    _check_mode_precondition(p, mode)
    den = p.delta + p.Delta + (2 if mode is Mode.CLOSED else 0)
    return p.delta - p.Delta + 2 * p.k >= c * den


def nonneg_check(p: DegreeProfile) -> tuple[bool, bool]:
    """(condition, bounds_ok): whether Delta <= delta + 2k, and when it holds,
    whether both mode bounds are nonnegative (always true by the corollary)."""
    if p.delta < p.k:
        raise ValueError("nonnegativity corollary requires delta >= k")
    condition = p.Delta <= p.delta + 2 * p.k
    if not condition:
        return False, False
    bounds_ok = (
        lower_bound(p, Mode.CLOSED) >= 0 and lower_bound(p, Mode.TOTAL) >= 0
    )
    return True, bounds_ok
