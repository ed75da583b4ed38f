from fractions import Fraction

import pytest

from sgdom import (
    DegreeProfile,
    Mode,
    brute_force_sigma,
    effective_bound,
    indicator,
    lower_bound,
    nearly_regular_bound,
    nonneg_check,
    threshold_check,
)
from sgdom.bounds import bound_terms
from sgdom.solve import OPTIMAL

from conftest import random_connected_graph


class TestIndicator:
    @pytest.mark.parametrize(
        "x,k,expected", [(3, 1, 1), (2, 1, 0), (4, 2, 1), (0, 2, 1), (-1, 1, 1)]
    )
    def test_values(self, x, k, expected):
        assert indicator(x, k) == expected


class TestLowerBound:
    def test_closed_instance(self):
        assert lower_bound(DegreeProfile(12, 2, 3, 1), Mode.CLOSED) == 4

    def test_regular_specialization(self):
        # delta == Delta == r reduces to n(k + I_r)/(r + 1)
        assert lower_bound(DegreeProfile(10, 3, 3, 1), Mode.CLOSED) == 5
        for r in range(1, 8):
            for k in range(1, r + 2):
                p = DegreeProfile(30, r, r, k)
                expected = Fraction(30 * (k + indicator(r, k)), r + 1)
                assert lower_bound(p, Mode.CLOSED) == expected

    def test_total_instance(self):
        assert lower_bound(DegreeProfile(12, 3, 4, 1), Mode.TOTAL) == 4

    def test_exact_rational(self):
        b = lower_bound(DegreeProfile(5, 2, 2, 1), Mode.CLOSED)
        assert isinstance(b, Fraction)
        assert b == Fraction(5, 3)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            lower_bound(DegreeProfile(5, 0, 3, 2), Mode.CLOSED)
        with pytest.raises(ValueError):
            lower_bound(DegreeProfile(5, 1, 3, 2), Mode.TOTAL)

    def test_matches_the_papers_two_formulas(self):
        """bound_terms is the paper's closed-mode bound and its total-mode
        bound, each as the paper states it in delta and Delta, with the same
        refusal where the theorem's precondition fails."""

        def closed(d, D, k):
            i_d, i_D = indicator(d, k), indicator(D, k)
            return d - D + 2 * k + i_d + i_D, d + D + 2 + i_d - i_D

        def total(d, D, k):
            i_d, i_D = indicator(d, k), indicator(D, k)
            return d - D + 2 * k + 2 - i_d - i_D, d + D + i_D - i_d

        papers = (
            (Mode.CLOSED, closed, lambda d, k: d >= k - 1, "closed mode requires delta >= k-1"),
            (Mode.TOTAL, total, lambda d, k: d >= k, "total mode requires delta >= k"),
        )
        for mode, formula, holds, refusal in papers:
            for k in range(1, 7):
                for Delta in range(17):
                    for delta in range(Delta + 1):
                        p = DegreeProfile(0, delta, Delta, k)
                        if holds(delta, k):
                            assert bound_terms(p, mode) == formula(delta, Delta, k)
                            continue
                        with pytest.raises(ValueError) as err:
                            bound_terms(p, mode)
                        assert str(err.value) == f"{refusal} (delta={delta}, k={k})"


class TestEffectiveBound:
    def test_rounds_to_order_parity(self):
        assert effective_bound(DegreeProfile(5, 2, 2, 1), Mode.CLOSED) == 3
        assert effective_bound(DegreeProfile(12, 2, 3, 1), Mode.CLOSED) == 4
        assert effective_bound(DegreeProfile(4, 3, 3, 1), Mode.CLOSED) == 2

    def test_within_two_of_bound(self, rng):
        for _ in range(100):
            k = rng.randint(1, 3)
            delta = rng.randint(k, 8)
            Delta = rng.randint(delta, 10)
            n = rng.randint(max(Delta + 1, 1), 30)
            p = DegreeProfile(n, delta, Delta, k)
            for mode in (Mode.CLOSED, Mode.TOTAL):
                b = lower_bound(p, mode)
                e = effective_bound(p, mode)
                assert e >= b and (e - n) % 2 == 0
                assert e - b < 2


class TestSoundness:
    def test_brute_force_respects_bounds(self, rng):
        checked = 0
        while checked < 60:
            n = rng.randint(4, 11)
            g = random_connected_graph(rng, n, rng.choice([0.2, 0.5, 0.8]))
            for k in (1, 2, 3):
                for mode in (Mode.CLOSED, Mode.TOTAL):
                    need = k - 1 if mode is Mode.CLOSED else k
                    if g.min_degree < need:
                        continue
                    result = brute_force_sigma(g, k, mode)
                    assert result.status == OPTIMAL
                    p = DegreeProfile.of_graph(g, k)
                    assert result.value >= lower_bound(p, mode)
                    assert result.value >= effective_bound(p, mode)
                    checked += 1


class TestNearlyRegular:
    def test_examples(self):
        assert nearly_regular_bound(12, 3, 1, Mode.CLOSED) == 4
        assert nearly_regular_bound(12, 3, 1, Mode.TOTAL) == 4

    def test_matches_general_bound(self):
        for k in range(1, 5):
            for r in range(k, k + 11):
                p = DegreeProfile(24, r - 1, r, k)
                assert nearly_regular_bound(24, r, k, Mode.CLOSED) == lower_bound(
                    p, Mode.CLOSED
                )
                if r - 1 >= k:
                    assert nearly_regular_bound(24, r, k, Mode.TOTAL) == lower_bound(
                        p, Mode.TOTAL
                    )

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            nearly_regular_bound(10, 1, 2, Mode.CLOSED)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_total_mode_needs_r_above_k(self, k):
        # r = k gives minimum degree k - 1 < k, where sigma_tkS is undefined.
        with pytest.raises(ValueError, match="total mode requires delta >= k"):
            nearly_regular_bound(12, k, k, Mode.TOTAL)


class TestThresholdCheck:
    def test_zero_c_reduces_to_nonnegativity_condition(self):
        for k in range(1, 6):
            for mode in (Mode.CLOSED, Mode.TOTAL):
                for delta in range(k, k + 7):
                    for Delta in range(delta, delta + 2 * k + 4):
                        p = DegreeProfile(10, delta, Delta, k)
                        assert threshold_check(p, Fraction(0), mode) == (
                            Delta <= delta + 2 * k
                        )

    def test_matches_the_papers_delta_threshold_form(self):
        # The paper states the c*n corollary as a bound on Delta; the check
        # must agree with it wherever both are defined.
        cs = {Fraction(p, q) for q in range(1, 13) for p in range(-q + 1, q + 1)}
        for k in range(1, 6):
            for mode in (Mode.CLOSED, Mode.TOTAL):
                for delta in range(k, 14):
                    for c in cs:
                        if mode is Mode.CLOSED:
                            bound = ((1 - c) * delta + 2 * k - 2 * c) / (1 + c)
                        else:
                            bound = ((1 - c) * delta + 2 * k) / (1 + c)
                        for Delta in range(delta, 30):
                            p = DegreeProfile(10, delta, Delta, k)
                            assert threshold_check(p, c, mode) == (Delta <= bound)

    def test_failing_instance(self):
        assert not threshold_check(DegreeProfile(10, 2, 9, 1), Fraction(0), Mode.CLOSED)

    def test_implies_bound_at_least_cn(self):
        cs = [Fraction(-1, 2), Fraction(0), Fraction(1, 2), Fraction(1)]
        for k in (1, 2):
            for delta in range(k, k + 5):
                for Delta in range(delta, delta + 6):
                    p = DegreeProfile(12, delta, Delta, k)
                    for c in cs:
                        for mode in (Mode.CLOSED, Mode.TOTAL):
                            if threshold_check(p, c, mode):
                                assert lower_bound(p, mode) >= c * p.n

    def test_c_out_of_range(self):
        p = DegreeProfile(10, 2, 3, 1)
        with pytest.raises(ValueError):
            threshold_check(p, Fraction(-1), Mode.CLOSED)
        with pytest.raises(ValueError):
            threshold_check(p, Fraction(3, 2), Mode.CLOSED)


class TestNonnegCheck:
    def test_condition_holds(self):
        cond, ok = nonneg_check(DegreeProfile(10, 3, 4, 1))
        assert cond and ok

    def test_condition_fails(self):
        cond, _ = nonneg_check(DegreeProfile(10, 2, 10, 1))
        assert not cond

    def test_boundary(self):
        cond, ok = nonneg_check(DegreeProfile(10, 2, 6, 2))
        assert cond and ok

    def test_sweep(self):
        for k in (1, 2, 3):
            for delta in range(k, k + 6):
                for Delta in range(delta, delta + 2 * k + 1):
                    cond, ok = nonneg_check(DegreeProfile(20, delta, Delta, k))
                    assert cond and ok
