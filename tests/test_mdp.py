import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from oracles import deterministic_policy, mc_occupancy, policy_values, power_iteration_values
from prorl.mdp import (
    CounterexampleBundle,
    Occupancy,
    Policy,
    TabularMdp,
    build_counterexample,
    build_mixing_mdp,
    exact_occupancy,
    flow_residual,
    policy_return,
    random_mdp,
    uniform_policy,
)


def random_policy(mdp, seed):
    rng = np.random.default_rng(seed)
    return Policy(rng.dirichlet(np.ones(mdp.num_actions), size=mdp.num_states))


class TestValidation:
    def test_bad_row_sums_rejected(self):
        t = np.ones((2, 1, 2))  # rows sum to 2
        with pytest.raises(ValueError, match="sum to 1"):
            TabularMdp(2, 1, t, np.zeros((2, 1)), 0.9, np.array([0.5, 0.5]))

    def test_reward_out_of_range_rejected(self):
        mdp = random_mdp(3, 2, 0.9, seed=0)
        with pytest.raises(ValueError, match="rewards"):
            TabularMdp(3, 2, mdp.transition, mdp.reward + 1.5, 0.9, mdp.init_dist)

    def test_gamma_one_rejected(self):
        mdp = random_mdp(3, 2, 0.9, seed=0)
        with pytest.raises(ValueError, match="gamma"):
            TabularMdp(3, 2, mdp.transition, mdp.reward, 1.0, mdp.init_dist)

    def test_init_dist_must_normalize(self):
        mdp = random_mdp(3, 2, 0.9, seed=0)
        with pytest.raises(ValueError, match="init_dist"):
            TabularMdp(3, 2, mdp.transition, mdp.reward, 0.9, np.array([0.5, 0.5, 0.5]))

    def test_policy_rows_must_be_stochastic(self):
        with pytest.raises(ValueError, match="rows"):
            Policy(np.array([[0.5, 0.4]]))
        with pytest.raises(ValueError, match="nonnegative"):
            Policy(np.array([[1.5, -0.5]]))

    def test_occupancy_rejects_negative_mass(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Occupancy(np.array([[0.5, -0.5]]))

    def test_random_mdp_init_strictly_positive(self):
        for seed in range(5):
            assert random_mdp(6, 3, 0.9, seed=seed).init_dist.min() > 0.0


class TestExactOccupancy:
    def test_single_state_single_action(self):
        mdp = TabularMdp(1, 1, np.ones((1, 1, 1)), np.zeros((1, 1)), 0.9, np.array([1.0]))
        d = exact_occupancy(mdp, uniform_policy(1, 1))
        np.testing.assert_allclose(d.mass, [[1.0]], atol=1e-12)

    def test_two_state_deterministic_cycle(self):
        # 0 -> 1 -> 0 under the single action, uniform start, gamma = .5:
        # symmetry forces the uniform occupancy.
        t = np.zeros((2, 1, 2))
        t[0, 0, 1] = 1.0
        t[1, 0, 0] = 1.0
        mdp = TabularMdp(2, 1, t, np.zeros((2, 1)), 0.5, np.array([0.5, 0.5]))
        d = exact_occupancy(mdp, uniform_policy(2, 1))
        np.testing.assert_allclose(d.mass, [[0.5], [0.5]], atol=1e-12)

    def test_matches_monte_carlo_on_random_mdp(self):
        # Independent check by simulation: one geometric-time sample per draw.
        mdp = random_mdp(4, 3, 0.9, seed=7)
        policy = random_policy(mdp, seed=7)
        d = exact_occupancy(mdp, policy)
        est, se = mc_occupancy(mdp, policy.probs, num_samples=1_000_000, seed=7)
        assert np.all(np.abs(d.mass - est) <= 3.0 * se)

    def test_normalization_and_flow(self):
        for seed in range(4):
            mdp = random_mdp(5, 2, 0.8, seed=seed)
            d = exact_occupancy(mdp, random_policy(mdp, seed=seed + 100))
            assert d.total == pytest.approx(1.0, abs=1e-10)
            assert flow_residual(mdp, d) < 1e-10


class TestFlowResidual:
    def test_scaling_a_valid_occupancy(self):
        # Doubling a valid occupancy leaves exactly (1-gamma) mu0 uncovered.
        mdp = random_mdp(5, 3, 0.7, seed=3)
        d = exact_occupancy(mdp, random_policy(mdp, seed=4))
        expected = (1.0 - mdp.gamma) * mdp.init_dist.max()
        assert flow_residual(mdp, 2.0 * d.mass) == pytest.approx(expected, abs=1e-12)

    def test_counterexample_right_weight_violates_flow(self):
        bundle = build_counterexample(0.5)
        mass = bundle.w_right * bundle.data_occupancy.mass
        assert flow_residual(bundle.mdp, mass) > 0.1

    def test_counterexample_left_weight_is_exact(self):
        bundle = build_counterexample(0.5)
        mass = bundle.w_left * bundle.data_occupancy.mass
        assert flow_residual(bundle.mdp, mass) < 1e-12


class TestPolicyValues:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_power_iteration(self, seed):
        mdp = random_mdp(6, 3, 0.9, seed=seed)
        policy = random_policy(mdp, seed=seed + 50)
        v, q = policy_values(mdp, policy)
        v_ref = power_iteration_values(mdp, policy.probs)
        np.testing.assert_allclose(v, v_ref, atol=1e-10)
        q_ref = mdp.reward + mdp.gamma * np.einsum("sat,t->sa", mdp.transition, v_ref)
        np.testing.assert_allclose(q, q_ref, atol=1e-10)

    def test_value_bounded_by_horizon(self):
        mdp = random_mdp(5, 2, 0.95, seed=11)
        v, _ = policy_values(mdp, random_policy(mdp, seed=12))
        assert np.all(v >= 0.0) and np.all(v <= mdp.horizon + 1e-12)


class TestPolicyReturn:
    @pytest.mark.parametrize("seed", [0, 5, 9])
    def test_two_routes_agree(self, seed):
        mdp = random_mdp(5, 3, 0.85, seed=seed)
        policy = random_policy(mdp, seed=seed + 1)
        j = policy_return(mdp, policy)
        v, _ = policy_values(mdp, policy)
        assert 0.0 <= j <= 1.0
        assert j == pytest.approx((1.0 - mdp.gamma) * float(mdp.init_dist @ v), abs=1e-10)


class TestPerformanceDifference:
    @given(
        seed=st.integers(0, 500),
        n_states=st.integers(2, 6),
        n_actions=st.integers(2, 4),
    )
    def test_advantage_identity(self, seed, n_states, n_actions):
        mdp = random_mdp(n_states, n_actions, 0.9, seed=seed)
        pa = random_policy(mdp, seed=seed + 1)
        pb = random_policy(mdp, seed=seed + 2)
        # (1/(1-gamma)) E_{s ~ d^{pi_a}} <Q^{pi_b}(s, .), pi_a(.|s) - pi_b(.|s)>
        d_a = exact_occupancy(mdp, pa).state_marginal
        va, _ = policy_values(mdp, pa)
        vb, q_b = policy_values(mdp, pb)
        lhs = np.einsum("s,sa,sa->", d_a, pa.probs - pb.probs, q_b) / (1.0 - mdp.gamma)
        rhs = float(mdp.init_dist @ (va - vb))
        assert lhs == pytest.approx(rhs, abs=1e-10)


class TestCounterexample:
    def test_structure(self):
        b = build_counterexample(0.5, instance=1)
        A, B, C, T = b.A, b.B, b.C, b.T
        assert b.mdp.transition[A, b.LEFT, B] == 1.0
        assert b.mdp.transition[A, b.RIGHT, C] == 1.0
        assert np.all(b.mdp.transition[T, :, T] == 1.0)
        # data never covers C, but covers both actions everywhere else
        assert np.all(b.data_occupancy.mass[C] == 0.0)
        assert np.all(b.data_occupancy.mass[[A, B, T]] == 1.0 / 6.0)

    def test_instances_differ_only_at_c(self):
        b1 = build_counterexample(0.5, instance=1)
        b2 = build_counterexample(0.5, instance=2)
        assert b1.mdp.reward[b1.C, b1.LEFT] == 1.0 and b1.mdp.reward[b1.C, b1.RIGHT] == 0.0
        assert b2.mdp.reward[b2.C, b2.RIGHT] == 1.0 and b2.mdp.reward[b2.C, b2.LEFT] == 0.0
        mask = np.ones((4, 2), dtype=bool)
        mask[b1.C] = False
        assert np.array_equal(b1.mdp.reward[mask], b2.mdp.reward[mask])
        assert np.array_equal(b1.mdp.transition, b2.mdp.transition)

    def test_optimal_values(self):
        for gamma in (0.3, 0.5, 0.9):
            b = build_counterexample(gamma)
            np.testing.assert_allclose(b.v_star_unreg, [gamma, 1.0, 1.0, 0.0], atol=0)

    def test_left_weight_is_left_policy_ratio(self):
        gamma = 0.5
        b = build_counterexample(gamma)
        probs = np.full((4, 2), 0.5)
        probs[b.A] = [1.0, 0.0]
        d = exact_occupancy(b.mdp, Policy(probs))
        np.testing.assert_allclose(
            b.w_left * b.data_occupancy.mass, d.mass, atol=1e-14
        )

    def test_bad_instance_rejected(self):
        with pytest.raises(ValueError, match="instance"):
            build_counterexample(0.5, instance=3)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        mdp = random_mdp(4, 2, 0.9, seed=42)
        path = tmp_path / "mdp.json"
        with open(path, "w") as fh:
            json.dump(mdp.to_dict(), fh)
        with open(path) as fh:
            back = TabularMdp.from_dict(json.load(fh))
        np.testing.assert_array_equal(back.transition, mdp.transition)
        np.testing.assert_array_equal(back.reward, mdp.reward)
        np.testing.assert_array_equal(back.init_dist, mdp.init_dist)
        assert back.gamma == mdp.gamma


class TestHelpers:
    def test_deterministic_policy(self):
        p = deterministic_policy([1, 0], num_actions=2)
        np.testing.assert_array_equal(p.probs, [[0.0, 1.0], [1.0, 0.0]])

    def test_conditional_policy_uniform_fallback(self):
        occ = Occupancy(np.array([[0.5, 0.5], [0.0, 0.0]]))
        pol = occ.conditional_policy()
        np.testing.assert_allclose(pol.probs, [[0.5, 0.5], [0.5, 0.5]])

    def test_mixing_mdp_rows_bounded_below(self):
        mdp = build_mixing_mdp(5, 3, 0.9, seed=1, mixing=0.5)
        assert mdp.transition.min() >= 0.5 / 5 - 1e-12
