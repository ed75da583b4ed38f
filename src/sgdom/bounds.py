"""Exact-rational lower bounds on the signed (total) k-domination number in
terms of minimum and maximum degree, with the nearly-regular, c*n-threshold
and nonnegativity corollaries."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .certify import Mode, _check_k, _own

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


def _sizes(p: DegreeProfile, mode: Mode) -> tuple[int, int]:
    """The least and largest neighbourhood sizes (s, S) = (delta + own,
    Delta + own), own being 1 if N_mode(v) holds v. The theorem needs s >= k."""
    own = _own(mode)
    s, S = p.delta + own, p.Delta + own
    if s < p.k:
        raise ValueError(
            f"{mode.value} mode requires delta >= k{'-1' * own} (delta={p.delta}, k={p.k})"
        )
    return s, S


def bound_terms(p: DegreeProfile, mode: Mode) -> tuple[int, int]:
    """The (numerator, denominator) of the per-vertex bound fraction,
    before multiplying by the order and reducing. As N[v] = N(v) + {v}, the
    paper's closed-mode bound is its total-mode bound at the neighbourhood
    sizes s = delta + 1 and S = Delta + 1, so one formula in s, S serves both."""
    s, S = _sizes(p, mode)
    i_s = indicator(s, p.k)
    i_S = indicator(S, p.k)
    num = s - S + 2 * p.k + 2 - i_s - i_S
    den = s + S + i_S - i_s
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
    indicators at their least favourable value, I(s) = I(S) = 1, where it
    reads s - S + 2k >= c*(s + S); that guarantees the bound is at least c*n.
    c is an exact rational in (-1, 1]."""
    c = Fraction(c)
    if not (-1 < c <= 1):
        raise ValueError("c must satisfy -1 < c <= 1")
    s, S = _sizes(p, mode)
    return s - S + 2 * p.k >= c * (s + S)


def nonneg_check(p: DegreeProfile) -> tuple[bool, bool]:
    """(condition, bounds_ok): whether Delta <= delta + 2k, and when it holds,
    whether both mode bounds are nonnegative (always true by the corollary).
    The condition is `threshold_check` at c = 0, the same in either mode."""
    if p.delta < p.k:
        raise ValueError("nonnegativity corollary requires delta >= k")
    if not threshold_check(p, 0, Mode.TOTAL):
        return False, False
    bounds_ok = (
        lower_bound(p, Mode.CLOSED) >= 0 and lower_bound(p, Mode.TOTAL) >= 0
    )
    return True, bounds_ok
