import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import AbsoluteContinuityError, deriv, f_divergence, grid_sup_bounds
from prorl.mdp import Occupancy
from prorl.regularizers import Regularizer


class TestPointwise:
    def test_quadratic_values(self):
        reg = Regularizer("quadratic", m_f=2.0)
        assert reg.eval(3.0) == 9.0
        assert deriv(reg, 3.0) == 6.0
        assert reg.deriv_inverse(6.0) == 3.0

    def test_shift_moves_values_not_derivatives(self):
        reg = Regularizer("shifted_quadratic", m_f=2.0, shift=1.5)
        assert reg.eval(3.0) == 10.5
        assert deriv(reg, 3.0) == 6.0
        assert reg.deriv_inverse(6.0) == 3.0

    @given(
        m_f=st.floats(0.1, 10.0, allow_nan=False),
        x=st.floats(-50.0, 50.0, allow_nan=False),
    )
    def test_deriv_inverse_round_trip(self, m_f, x):
        reg = Regularizer(m_f=m_f)
        assert reg.deriv_inverse(deriv(reg, x)) == pytest.approx(x, rel=1e-12, abs=1e-12)

    @given(
        m_f=st.floats(0.1, 10.0),
        x=st.floats(-20.0, 20.0),
        y=st.floats(-20.0, 20.0),
    )
    def test_strong_convexity_midpoint(self, m_f, x, y):
        # Quadratics meet the strong-convexity midpoint bound with equality.
        reg = Regularizer(m_f=m_f)
        mid = reg.eval(0.5 * (x + y))
        avg = 0.5 * (reg.eval(x) + reg.eval(y))
        assert avg - mid == pytest.approx(m_f / 8.0 * (x - y) ** 2, rel=1e-9, abs=1e-9)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="m_f"):
            Regularizer(m_f=0.0)
        with pytest.raises(ValueError, match="kind"):
            Regularizer(kind="entropy")
        with pytest.raises(ValueError, match="shift"):
            Regularizer(kind="quadratic", shift=1.0)


class TestBounds:
    def test_closed_form_example(self):
        assert Regularizer(m_f=2.0).bounds(3.0) == (9.0, 6.0)

    @given(
        m_f=st.floats(0.1, 5.0),
        shift=st.floats(0.0, 3.0),
        b_w=st.floats(0.0, 20.0),
    )
    def test_matches_grid_search(self, m_f, shift, b_w):
        kind = "shifted_quadratic" if shift > 0 else "quadratic"
        reg = Regularizer(kind, m_f=m_f, shift=shift)
        b_f, b_fp = reg.bounds(b_w)
        g_f, g_fp = grid_sup_bounds(m_f, shift, b_w)
        assert b_f == pytest.approx(g_f, rel=1e-6, abs=1e-9)
        assert b_fp == pytest.approx(g_fp, rel=1e-6, abs=1e-9)


class TestFDivergence:
    def test_identity_ratio(self):
        reg = Regularizer(m_f=2.0)
        dd = np.array([[0.25, 0.25], [0.5, 0.0]])
        assert f_divergence(reg, dd, dd) == pytest.approx(1.0, abs=1e-15)

    def test_zero_candidate(self):
        reg = Regularizer(m_f=2.0)
        dd = np.array([[0.5, 0.5]])
        assert f_divergence(reg, np.zeros_like(dd), dd) == 0.0

    @given(seed=st.integers(0, 200), m_f=st.floats(0.2, 4.0), shift=st.floats(0.0, 2.0))
    def test_equal_arguments_give_f_of_one_times_mass(self, seed, m_f, shift):
        rng = np.random.default_rng(seed)
        dd = rng.uniform(0.0, 1.0, size=(3, 2))
        dd[rng.random(dd.shape) < 0.3] = 0.0
        kind = "shifted_quadratic" if shift > 0 else "quadratic"
        reg = Regularizer(kind, m_f=m_f, shift=shift)
        expected = reg.eval(1.0) * dd.sum()
        assert f_divergence(reg, dd, dd) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_absolute_continuity_violation_names_cell(self):
        reg = Regularizer()
        dd = np.array([[0.5, 0.0], [0.25, 0.25]])
        d = np.array([[0.4, 0.1], [0.25, 0.25]])
        with pytest.raises(AbsoluteContinuityError, match=r"\(0, 1\)") as err:
            f_divergence(reg, d, dd)
        assert err.value.state == 0 and err.value.action == 1

    def test_accepts_occupancy_objects(self):
        reg = Regularizer(m_f=2.0)
        dd = Occupancy(np.array([[0.5, 0.5]]))
        assert f_divergence(reg, dd, dd) == pytest.approx(1.0)


class TestConfig:
    def test_round_trip(self):
        for reg in (Regularizer(m_f=0.5), Regularizer("shifted_quadratic", 2.0, 0.25)):
            assert Regularizer.from_config(reg.to_config()) == reg

    def test_fragment_defaults(self):
        reg = Regularizer.from_config({"kind": "quadratic", "m_f": 1.0})
        assert reg == Regularizer()
