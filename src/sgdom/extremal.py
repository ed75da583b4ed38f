"""Generators for the extremal families attaining the degree-based lower
bounds: t disjoint copies of K_{a,b} regularized inside each side, together
with the optimal certificate (+1 on the a-sides, -1 on the b-sides)."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .bounds import DegreeProfile, bound_terms, lower_bound
from .certify import Mode, SignFunction, _check_k, _own
from .graph import Graph, _factor_rounds


def extremal_params(k: int, delta: int, Delta: int, mode: Mode) -> tuple[int, int]:
    """Block side sizes (a, b) = ((den + num)/4, (den - num)/4) for the
    extremal construction, from the bound's `bound_terms`: a block has den/2
    vertices and weight num/2. It requires Delta >= delta and a least
    neighbourhood size delta + own of at least k+2: delta >= k+1 in closed
    mode, delta >= k+2 in total mode."""
    _check_k(k)
    if Delta < delta:
        raise ValueError("need Delta >= delta")
    own = _own(mode)
    if delta + own < k + 2:
        raise ValueError(f"{mode.value}-mode construction requires delta >= k+{2 - own}")
    num, den = bound_terms(DegreeProfile(0, delta, Delta, k), mode)
    assert (den + num) % 4 == (den - num) % 4 == 0
    a, b = (den + num) // 4, (den - num) // 4
    assert 1 <= a <= delta and 1 <= b <= Delta
    return a, b


@dataclass(frozen=True)
class ExtremalSpec:
    k: int
    delta: int
    Delta: int
    t: int
    mode: Mode
    # The block sides, worked out once from the other fields.
    a: int = field(init=False, repr=False, compare=False)
    b: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = extremal_params(self.k, self.delta, self.Delta, self.mode)
        if self.t % 2 != 0 or self.t <= self.Delta:
            raise ValueError("t must be an even integer larger than Delta")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def order(self) -> int:
        return self.t * (self.a + self.b)

    @property
    def size(self) -> int:
        """The edge count: t*a*b block edges, then Delta-b rounds of a perfect
        matching on the t*a p-vertices and delta-a rounds on the t*b
        q-vertices."""
        a, b, t = self.a, self.b, self.t
        return t * a * b + (t * a * (self.Delta - b) + t * b * (self.delta - a)) // 2

    @property
    def p_vertices(self) -> tuple[int, ...]:
        a, b = self.a, self.b
        return tuple(
            i * (a + b) + j for i in range(self.t) for j in range(a)
        )

    @property
    def q_vertices(self) -> tuple[int, ...]:
        a, b = self.a, self.b
        return tuple(
            i * (a + b) + a + j for i in range(self.t) for j in range(b)
        )

    @classmethod
    def smallest(cls, k: int, delta: int, Delta: int, mode: Mode) -> "ExtremalSpec":
        """The family member with the smallest admissible t."""
        t = Delta + 1 if (Delta + 1) % 2 == 0 else Delta + 2
        return cls(k, delta, Delta, t, mode)


def build_extremal(spec: ExtremalSpec) -> tuple[Graph, SignFunction]:
    """Build the extremal graph and its optimal certificate.

    Blocks are laid out in order, a-side before b-side; the independent sets
    P and Q then get the first Delta-b and delta-a rounds of the circle
    method's 1-factorization, so the output is byte-for-byte reproducible.
    Every p-vertex ends with degree Delta and every q-vertex with degree
    delta, and the certificate weight equals the rational lower bound
    exactly.
    """
    a, b, t = spec.a, spec.b, spec.t
    edges = [
        (i * (a + b) + x, i * (a + b) + a + y)
        for i in range(t)
        for x in range(a)
        for y in range(b)
    ]
    for side, r in ((spec.p_vertices, spec.Delta - b), (spec.q_vertices, spec.delta - a)):
        for pairs in islice(_factor_rounds(len(side)), r):
            edges.extend((side[u], side[v]) for u, v in pairs)
    g = Graph(spec.order, edges)
    assert g.m == spec.size
    cert = SignFunction(((1,) * a + (-1,) * b) * t)
    profile = DegreeProfile(g.n, spec.delta, spec.Delta, spec.k)
    assert cert.weight == lower_bound(profile, spec.mode)
    return g, cert
