import math

import pytest
from hypothesis import given, strategies as st

from prorl.bounds import (
    approximation_error_combination,
    bc_sample_term,
    performance_gap_bound,
    recommended_alpha,
    residual_bound,
    robust_gap_bound,
    stat_error,
    unregularized_competition_slack,
    value_bound,
)


class TestStatError:
    def test_spot_value_all_ones(self):
        # n = n0 = 2, delta = .5, singleton classes: both sqrt factors reduce
        # to sqrt(2 log(8) / 2) = sqrt(log 8).
        root = math.sqrt(math.log(8.0))
        for gamma in (0.0, 0.5, 0.9):
            for alpha in (0.0, 1.0, 2.5):
                got = stat_error(2, 2, alpha, 1, 1, 1, 1, (1, 1), 0.5, gamma=gamma)
                want = (1 - gamma) * root + (alpha + 1) * root
                assert got == pytest.approx(want, rel=1e-12)

    def test_alpha_zero_second_term(self):
        got = stat_error(100, 10**9, 0.0, 2.0, 5.0, 1.0, 3.0, (4, 7), 0.1, gamma=0.9)
        want_second = 2.0 * 3.0 * math.sqrt(2 * math.log(4 * 28 / 0.1) / 100)
        # first term is negligible at n0 = 1e9 but not exactly zero
        assert got == pytest.approx(want_second, rel=1e-3)

    @given(
        n=st.integers(1, 10**6),
        factor=st.integers(2, 50),
        n0=st.integers(1, 10**6),
    )
    def test_monotone_in_sample_sizes(self, n, factor, n0):
        args = (0.5, 2.0, 3.0, 4.0, 5.0, (8, 16), 0.1)
        big_n = stat_error(n * factor, n0, *args, gamma=0.7)
        small = stat_error(n, n0, *args, gamma=0.7)
        assert big_n <= small
        assert stat_error(n, n0 * factor, *args, gamma=0.7) <= small

    def test_large_samples_shrink(self):
        args = (0.5, 2.0, 3.0, 4.0, 5.0, (8, 16), 0.1)
        assert stat_error(10**6, 10**6, *args, gamma=0.9) < stat_error(
            10**3, 10**3, *args, gamma=0.9
        )

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="n, n0"):
            stat_error(0, 5, 0.1, 1, 1, 1, 1, (1, 1), 0.1, gamma=0.9)
        with pytest.raises(ValueError, match="delta"):
            stat_error(5, 5, 0.1, 1, 1, 1, 1, (1, 1), 1.5, gamma=0.9)
        with pytest.raises(ValueError, match="sizes"):
            stat_error(5, 5, 0.1, 1, 1, 1, 1, (0, 1), 0.1, gamma=0.9)
        with pytest.raises(TypeError, match="gamma"):  # a default of 0 read any MDP at gamma 0
            stat_error(5, 5, 0.1, 1, 1, 1, 1, (1, 1), 0.1)


class TestGapBounds:
    def test_unit_ratio(self):
        # eps_stat = alpha m_f makes the sqrt factor one.
        assert performance_gap_bound(0.2, 0.4, 0.5, 0.5) == pytest.approx(8.0)

    def test_spot_value(self):
        got = performance_gap_bound(0.01, 0.1, 1.0, 0.9)
        assert got == pytest.approx(40.0 * math.sqrt(0.1), rel=1e-12)
        assert got == pytest.approx(12.649110640673518, rel=1e-12)

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError, match="alpha"):
            performance_gap_bound(0.1, 0.0, 1.0, 0.9)

    def test_robust_reduces_to_plain(self):
        plain = performance_gap_bound(0.02, 0.3, 1.0, 0.8)
        assert robust_gap_bound(0.02, 0.0, 0.0, 0.3, 1.0, 0.8) == pytest.approx(plain)

    def test_robust_adds_slack_term(self):
        got = robust_gap_bound(0.02, 0.01, 0.03, 0.3, 1.0, 0.8)
        extra = 2.0 / 0.2 * math.sqrt(2 * 0.04 / 0.3)
        assert got == pytest.approx(performance_gap_bound(0.02, 0.3, 1.0, 0.8) + extra)

    def test_approximation_combination(self):
        got = approximation_error_combination(0.1, 0.2, b_w=3.0, b_e=5.0, b_fprime=2.0, alpha=0.5)
        assert got == pytest.approx((3 + 1) * 0.1 + (5 + 0.5 * 2) * 0.2)


class TestConstants:
    def test_value_bound(self):
        assert value_bound(0.5, 2.0, 0.9) == pytest.approx(20.0)
        assert value_bound(0.0, 7.0, 0.5) == pytest.approx(2.0)

    def test_residual_bound(self):
        assert residual_bound(10.0, 0.9) == pytest.approx(20.0)


class TestBcBound:
    def test_sample_term_formula(self):
        got = bc_sample_term(2.0, 16, 0.1, 400)
        assert got == pytest.approx(8.0 * math.sqrt(6 * math.log(640) / 400))

    def test_n2_positive(self):
        with pytest.raises(ValueError, match="n2"):
            bc_sample_term(1.0, 4, 0.1, 0)


class TestAlphaSelection:
    def test_recommended_values(self):
        assert recommended_alpha(0.2, 1.0) == pytest.approx(0.1)
        assert recommended_alpha(0.2, 4.0) == pytest.approx(0.025)
        for eps, b_f0 in ((0.0, 1.0), (0.1, 0.0), (-0.1, 1.0)):
            with pytest.raises(ValueError, match="positive"):
                recommended_alpha(eps, b_f0)

    def test_slack_formula(self):
        assert unregularized_competition_slack(0.3, 2.0) == pytest.approx(0.6)
