import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import (
    brute_force_lagrangian,
    empirical_lagrangian,
    exact_frequency_columns,
    policy_values,
    population_lagrangian,
    sampled_residuals,
)
from prorl.datasets import DatasetSampler, law_counts
from prorl.mdp import (
    build_counterexample,
    exact_occupancy,
    random_mdp,
    uniform_policy,
)
from prorl.objective import (
    approximation_errors,
    empirical_lagrangian_members,
    population_lagrangian_members,
    residual_ev,
    weighted_l2,
)
from prorl.regularizers import Regularizer


def setup_random(seed, n_states=4, n_actions=2, gamma=0.9):
    mdp = random_mdp(n_states, n_actions, gamma, seed=seed)
    dd = exact_occupancy(mdp, uniform_policy(n_states, n_actions)).mass
    return mdp, dd


class TestResidual:
    def test_zero_value_gives_reward(self):
        mdp, _ = setup_random(0)
        np.testing.assert_array_equal(residual_ev(mdp, np.zeros(4)), mdp.reward)

    def test_policy_value_gives_advantage(self):
        mdp, _ = setup_random(1)
        policy = uniform_policy(4, 2)
        v, q = policy_values(mdp, policy)
        np.testing.assert_allclose(residual_ev(mdp, v), q - v[:, None], atol=1e-12)

    def test_optimal_value_residual_nonpositive(self):
        bundle = build_counterexample(0.5)
        e = residual_ev(bundle.mdp, bundle.v_star_unreg)
        assert e.max() <= 1e-12
        # the greedy action at each state has zero residual
        assert np.allclose(e.max(axis=1), 0.0, atol=1e-12)

    @given(seed=st.integers(0, 300), scale=st.floats(0.1, 10.0))
    def test_magnitude_envelope(self, seed, scale):
        mdp, _ = setup_random(seed % 7)
        rng = np.random.default_rng(seed)
        v = rng.uniform(-scale, scale, size=4)
        bound = (1.0 + mdp.gamma) * np.abs(v).max() + 1.0
        assert np.abs(residual_ev(mdp, v)).max() <= bound + 1e-12

    def test_sampled_residuals_match_population_for_deterministic_mdp(self):
        bundle = build_counterexample(0.5)
        data = exact_frequency_columns(bundle.mdp, bundle.data_occupancy)
        v = np.array([0.3, -0.2, 0.9, 0.1])
        e_pop = residual_ev(bundle.mdp, v)
        np.testing.assert_allclose(
            sampled_residuals(data, v), e_pop[data.states, data.actions], atol=1e-15
        )


class TestPopulationLagrangian:
    def test_alpha_zero_weightless_is_init_term(self):
        mdp, dd = setup_random(2)
        v = np.array([0.5, -1.0, 2.0, 0.25])
        got = population_lagrangian(mdp, dd, Regularizer(), 0.0, v, np.zeros((4, 2)))
        assert got == pytest.approx((1 - mdp.gamma) * float(mdp.init_dist @ v), abs=1e-15)

    def test_counterexample_tie_is_exact(self):
        bundle = build_counterexample(0.5)
        reg = Regularizer()
        left = population_lagrangian(
            bundle.mdp, bundle.data_occupancy, reg, 0.0, bundle.v_star_unreg, bundle.w_left
        )
        right = population_lagrangian(
            bundle.mdp, bundle.data_occupancy, reg, 0.0, bundle.v_star_unreg, bundle.w_right
        )
        assert left == pytest.approx(right, abs=1e-15)
        # and the tied value is the optimal return scaled by (1 - gamma)
        assert left == pytest.approx(0.5 * 0.5, abs=1e-15)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_brute_force_sum(self, seed):
        mdp, dd = setup_random(seed)
        rng = np.random.default_rng(seed + 40)
        v = rng.uniform(-2, 2, size=4)
        w = rng.uniform(0, 3, size=(4, 2))
        for alpha in (0.0, 0.3, 1.2):
            m_f = float(rng.uniform(0.5, 2.0))
            got = population_lagrangian(mdp, dd, Regularizer(m_f=m_f), alpha, v, w)
            want = brute_force_lagrangian(mdp, dd, m_f, alpha, v, w)
            assert got == pytest.approx(want, abs=1e-12)

    def test_negative_alpha_rejected(self):
        mdp, dd = setup_random(0)
        with pytest.raises(ValueError, match="alpha"):
            population_lagrangian(mdp, dd, Regularizer(), -0.1, np.zeros(4), np.zeros((4, 2)))

    def test_off_support_weight_ignored(self):
        bundle = build_counterexample(0.5)
        w = bundle.w_left.copy()
        w[bundle.C, :] = 17.0  # uncovered cells must not contribute
        reg = Regularizer()
        a = population_lagrangian(
            bundle.mdp, bundle.data_occupancy, reg, 0.5, bundle.v_star_unreg, w
        )
        b = population_lagrangian(
            bundle.mdp, bundle.data_occupancy, reg, 0.5, bundle.v_star_unreg, bundle.w_left
        )
        assert a == b

    def test_members_kernel_ties_exactly_and_ignores_off_support(self):
        bundle = build_counterexample(0.5)
        w_far = bundle.w_left.copy()
        w_far[bundle.C, :] = 17.0
        pop = population_lagrangian_members(
            bundle.mdp, bundle.data_occupancy, Regularizer(), 0.0,
            [bundle.v_star_unreg], [bundle.w_left, bundle.w_right, w_far],
        )
        assert pop[0, 0] == pop[1, 0] == pop[2, 0]


class TestEmpiricalLagrangian:
    def test_empty_dataset_rejected(self):
        mdp, dd = setup_random(1)
        data = DatasetSampler(mdp, dd).count(0, 0, seed=0)[0]
        with pytest.raises(ValueError, match="n=0"):
            empirical_lagrangian_members(
                data, Regularizer(), 0.1, [np.zeros(4)], [np.zeros((4, 2))]
            )

    def test_exact_frequency_equals_population(self):
        bundle = build_counterexample(0.5)
        data = law_counts(bundle.mdp, bundle.data_occupancy, 6, 1)
        reg = Regularizer(m_f=2.0)
        rng = np.random.default_rng(0)
        for _ in range(5):
            v = rng.uniform(-1, 1, size=4)
            w = rng.uniform(0, 2, size=(4, 2))
            want = population_lagrangian(bundle.mdp, bundle.data_occupancy, reg, 0.4, v, w)
            got = empirical_lagrangian_members(data, reg, 0.4, [v], [w])[0, 0]
            assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n, n0", [(1, 1), (6, 1), (37, 5), (10**6, 10**3)])
    def test_law_counts_give_the_population_objective(self, n, n0):
        # a stochastic MDP, with an uncovered cell: no finite sample has its law
        mdp = random_mdp(4, 2, 0.9, seed=3)
        dd = exact_occupancy(mdp, uniform_policy(4, 2)).mass.copy()
        dd[2, 1] = 0.0
        dd /= dd.sum()
        reg, rng = Regularizer(m_f=1.5), np.random.default_rng(n)
        vs = rng.uniform(-2.0, 2.0, size=(3, 4))
        ws = rng.uniform(0.0, 3.0, size=(4, 4, 2))
        got = empirical_lagrangian_members(law_counts(mdp, dd, n, n0), reg, 0.3, vs, ws)
        want = [[population_lagrangian(mdp, dd, reg, 0.3, v, w) for v in vs] for w in ws]
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_unbiased_over_many_datasets(self):
        # Mean of 2000 independent estimates within 4 standard errors of L.
        mdp, dd = setup_random(6)
        reg = Regularizer(m_f=1.0)
        rng = np.random.default_rng(123)
        v = rng.uniform(-1, 2, size=4)
        w = rng.uniform(0, 2, size=(4, 2))
        alpha = 0.4
        target = population_lagrangian(mdp, dd, reg, alpha, v, w)
        sampler = DatasetSampler(mdp, dd)
        vals = np.array([
            empirical_lagrangian_members(sampler.count(200, 200, 10_000 + k)[0], reg, alpha,
                                         [v], [w])[0, 0]
            for k in range(2000)
        ])
        se = vals.std(ddof=1) / np.sqrt(len(vals))
        assert abs(vals.mean() - target) <= 4.0 * se

    def test_members_matrix_matches_scalar_calls(self):
        mdp, dd = setup_random(3)
        sampler = DatasetSampler(mdp, dd)
        data, counted = sampler.draw(150, 60, 2), sampler.count(150, 60, 2)[0]
        reg = Regularizer(m_f=1.5)
        rng = np.random.default_rng(9)
        vs = [rng.uniform(-1, 1, size=4) for _ in range(3)]
        ws = [rng.uniform(0, 2, size=(4, 2)) for _ in range(4)]
        mat = empirical_lagrangian_members(counted, reg, 0.25, vs, ws)
        for i, w in enumerate(ws):
            for j, v in enumerate(vs):
                assert mat[i, j] == pytest.approx(
                    empirical_lagrangian(data, reg, 0.25, v, w), abs=1e-12
                )

    def test_population_members_matrix_matches_scalar_calls(self):
        mdp, dd = setup_random(4)
        reg = Regularizer(m_f=0.8)
        rng = np.random.default_rng(10)
        vs = [rng.uniform(-1, 1, size=4) for _ in range(3)]
        ws = [rng.uniform(0, 2, size=(4, 2)) for _ in range(3)]
        mat = population_lagrangian_members(mdp, dd, reg, 0.6, vs, ws)
        for i, w in enumerate(ws):
            for j, v in enumerate(vs):
                assert mat[i, j] == pytest.approx(
                    population_lagrangian(mdp, dd, reg, 0.6, v, w), abs=1e-12
                )


class TestShapeProperties:
    def test_strong_concavity_midpoint_is_exact_for_quadratic(self):
        # For f = m_f/2 x^2 the concavity gap at the midpoint is exactly
        # alpha m_f / 8 times the weighted squared distance.
        mdp, dd = setup_random(5)
        reg = Regularizer(m_f=2.3)
        alpha = 0.7
        rng = np.random.default_rng(77)
        for _ in range(100):
            v = rng.uniform(-2, 2, size=4)
            w1 = rng.uniform(0, 3, size=(4, 2))
            w2 = rng.uniform(0, 3, size=(4, 2))
            mid = population_lagrangian(mdp, dd, reg, alpha, v, 0.5 * (w1 + w2))
            avg = 0.5 * (
                population_lagrangian(mdp, dd, reg, alpha, v, w1)
                + population_lagrangian(mdp, dd, reg, alpha, v, w2)
            )
            gap = mid - avg
            want = alpha * reg.m_f / 8.0 * weighted_l2(w1, w2, dd) ** 2
            assert gap == pytest.approx(want, abs=1e-10)

    @given(theta=st.floats(0.0, 1.0), seed=st.integers(0, 100))
    def test_affine_in_v(self, theta, seed):
        mdp, dd = setup_random(seed % 5)
        reg = Regularizer()
        rng = np.random.default_rng(seed)
        v1, v2 = rng.uniform(-2, 2, size=(2, 4))
        w = rng.uniform(0, 2, size=(4, 2))
        alpha = 0.3
        lhs = population_lagrangian(mdp, dd, reg, alpha, theta * v1 + (1 - theta) * v2, w)
        rhs = theta * population_lagrangian(mdp, dd, reg, alpha, v1, w) + (
            1 - theta
        ) * population_lagrangian(mdp, dd, reg, alpha, v2, w)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestApproximationErrors:
    def test_constant_shift_value_class(self):
        mdp, dd = setup_random(7)
        dd = dd / dd.sum()
        v_star = np.zeros(4)
        w_star = np.ones((4, 2))
        for c in (0.5, -0.25, 2.0):
            eps_rv, eps_rw = approximation_errors(
                mdp, dd, v_star, w_star, [v_star + c], [w_star]
            )
            assert eps_rv == pytest.approx(3.0 * abs(c), abs=1e-12)
            assert eps_rw == 0.0

    def test_exact_members_give_zero(self):
        mdp, dd = setup_random(8)
        rng = np.random.default_rng(1)
        v_star = rng.uniform(-1, 1, size=4)
        w_star = rng.uniform(0, 2, size=(4, 2))
        eps_rv, eps_rw = approximation_errors(
            mdp, dd, v_star, w_star, [v_star + 1.0, v_star], [w_star + 0.5, w_star]
        )
        assert eps_rv == 0.0 and eps_rw == 0.0

    def test_weighted_l2_simple(self):
        dd = np.array([[0.5, 0.5]])
        assert weighted_l2(np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]), dd) == pytest.approx(
            np.sqrt(0.5 * 1 + 0.5 * 4)
        )
