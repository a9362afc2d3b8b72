import numpy as np
import pytest

from oracles import double_loop_saddle, empirical_lagrangian
from prorl.classes import ValueClass, WeightClass, build_misspecified
from prorl.datasets import DatasetSampler, law_counts
from prorl.mdp import build_counterexample, exact_occupancy, random_mdp, uniform_policy
from prorl.objective import (
    empirical_lagrangian_members,
    population_lagrangian_members,
    weighted_l2,
)
from prorl.oracle import solve_regularized
from prorl.regularizers import Regularizer
from prorl.saddle import solve_exact, solve_inexact


def payoff(data, classes, reg, alpha):
    return empirical_lagrangian_members(data, reg, alpha, classes[0].members, classes[1].members)


def make_instance(seed, n=400, alpha=0.3, num_distractors=6):
    mdp = random_mdp(4, 2, 0.8, seed=seed)
    dd = exact_occupancy(mdp, uniform_policy(4, 2)).mass
    reg = Regularizer(m_f=1.0)
    sol = solve_regularized(mdp, dd, reg, alpha)
    classes = build_misspecified(sol, 0.0, mdp, dd, reg=reg, gamma=0.8,  # realizable
                                 num_distractors=num_distractors, seed=seed + 100)[:2]
    data = DatasetSampler(mdp, dd).count(n, n // 4, seed + 200)[0]
    return mdp, dd, reg, sol, classes, data


class TestSolveExact:
    def test_singletons(self):
        _, _, reg, sol, _, data = make_instance(0)
        vc = ValueClass((sol.v_star,), b_v=float(np.abs(sol.v_star).max()) + 1.0, lower=-10.0)
        wc = WeightClass((sol.w_star,), b_w=float(sol.w_star.max()) + 1.0)
        out = solve_exact(payoff(data, (vc, wc), reg, 0.3))
        assert out.w_index == 0 and out.v_index == 0
        np.testing.assert_array_equal(wc.members[out.w_index], sol.w_star)
        assert out.eps_ov == 0.0 and out.eps_ow == 0.0

    def test_matches_double_loop(self):
        _, _, reg, _, classes, data = make_instance(1)
        l_matrix = payoff(data, classes, reg, 0.3)
        out = solve_exact(l_matrix)
        w_idx, v_idx, value = double_loop_saddle(l_matrix)
        assert (out.w_index, out.v_index) == (w_idx, v_idx)
        assert l_matrix[out.w_index, out.v_index] == pytest.approx(value, abs=0.0)

    def test_value_consistent_with_scalar_objective(self):
        mdp, dd, reg, _, classes, data = make_instance(2)
        l_matrix = payoff(data, classes, reg, 0.3)
        out = solve_exact(l_matrix)
        columns = DatasetSampler(mdp, dd).draw(400, 100, seed=202)  # the draws data counts
        direct = empirical_lagrangian(columns, reg, 0.3, classes[0].members[out.v_index],
                                      classes[1].members[out.w_index])
        assert l_matrix[out.w_index, out.v_index] == pytest.approx(direct, abs=1e-12)

    def test_counterexample_tie_broken_by_order(self):
        # both weight candidates score identically on the tie dataset, so
        # the listed order alone decides; the adversarial order picks the
        # flow-inconsistent candidate that routes mass to the dead end
        bundle = build_counterexample(0.5)
        data = law_counts(bundle.mdp, bundle.data_occupancy, 6, 1)
        vc = ValueClass((bundle.v_star_unreg,), b_v=2.0, lower=0.0)
        wc = WeightClass((bundle.w_left, bundle.w_right), b_w=3.0)
        reg = Regularizer(m_f=1.0)
        l_matrix = payoff(data, (vc, wc), reg, 0.0)
        friendly = solve_exact(l_matrix)
        assert friendly.w_index == 0
        adversarial = solve_exact(l_matrix, w_order=[1, 0])
        assert adversarial.w_index == 1
        assert l_matrix[adversarial.w_index, adversarial.v_index] == pytest.approx(
            l_matrix[friendly.w_index, friendly.v_index], abs=0.0)

    def test_w_order_must_be_permutation(self):
        _, _, reg, _, classes, data = make_instance(3)
        with pytest.raises(ValueError, match="permutation"):
            solve_exact(payoff(data, classes, reg, 0.3), w_order=[0, 0, 1, 2, 3, 4, 5])

    def test_deterministic(self):
        _, _, reg, _, classes, data = make_instance(4)
        a = solve_exact(payoff(data, classes, reg, 0.3))
        b = solve_exact(payoff(data, classes, reg, 0.3))
        assert a == b


class TestSolveInexact:
    def test_zero_slacks_reduce_to_exact(self):
        _, _, reg, _, classes, data = make_instance(5)
        l_matrix = payoff(data, classes, reg, 0.3)
        exact = solve_exact(l_matrix)
        loose = solve_inexact(l_matrix, eps_ov=0.0, eps_ow=0.0, seed=9)
        assert (loose.w_index, loose.v_index) == (exact.w_index, exact.v_index)
        assert loose.eps_ov == 0.0 and loose.eps_ow == 0.0

    def test_infinite_slacks_report_achieved(self):
        _, _, reg, _, classes, data = make_instance(6)
        big = float("inf")
        l_matrix = payoff(data, classes, reg, 0.3)
        out = solve_inexact(l_matrix, eps_ov=big, eps_ow=big, seed=3)
        inner = l_matrix.min(axis=1)
        assert out.eps_ov == pytest.approx(l_matrix[out.w_index, out.v_index] - inner[out.w_index])
        assert out.eps_ow == pytest.approx(inner.max() - inner[out.w_index])

    def test_achieved_never_exceeds_requested(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            _, _, reg, _, classes, data = make_instance(trial % 5, n=150, num_distractors=4)
            req_ov, req_ow = rng.uniform(0, 0.5, size=2)
            out = solve_inexact(
                payoff(data, classes, reg, 0.3), eps_ov=req_ov, eps_ow=req_ow, seed=trial
            )
            assert out.eps_ov <= req_ov + 1e-12
            assert out.eps_ow <= req_ow + 1e-12

    def test_negative_slack_rejected(self):
        _, _, reg, _, classes, data = make_instance(7)
        with pytest.raises(ValueError, match="nonnegative"):
            solve_inexact(payoff(data, classes, reg, 0.3), eps_ov=-0.1, eps_ow=0.0, seed=0)

    def test_seed_controls_selection(self):
        _, _, reg, _, classes, data = make_instance(8)
        l_matrix = payoff(data, classes, reg, 0.3)
        picks = {
            solve_inexact(l_matrix, 10.0, 10.0, seed=s).w_index
            for s in range(12)
        }
        assert len(picks) > 1  # wide slacks admit many pairs


class TestPopulationSaddleCheck:
    @pytest.mark.parametrize("seed", range(10))
    def test_realizable_with_distractors_passes(self, seed):
        # the exact pair sits at index 0 of realizable classes and is a
        # max-min point of the population objective over them, against box
        # distractors and against close competitors drawn near the anchor
        mdp, dd, reg, sol, (vc, wc), _ = make_instance(seed, num_distractors=10)
        assert np.abs(wc.members[0] - sol.w_star).max() <= 1e-8
        rng = np.random.default_rng(seed + 100)
        near_v = [np.clip(sol.v_star + rng.standard_normal(4), -vc.b_v, vc.b_v)
                  for _ in range(10)]
        near_w = [np.clip(sol.w_star + rng.standard_normal((4, 2)), 0.0, wc.b_w)
                  for _ in range(10)]
        pop = population_lagrangian_members(
            mdp, dd, reg, 0.3, [*vc.members, *near_v], [*wc.members, *near_w]
        )
        inner = pop.min(axis=1)
        assert inner[0] >= inner.max() - 1e-10


class TestPopulationChain:
    """Deterministic consequences of max-min optimality with realizable classes."""

    @pytest.mark.parametrize("seed", range(8))
    def test_value_and_weight_deviation_envelopes(self, seed):
        mdp, dd, reg, sol, classes, data = make_instance(seed, n=300, num_distractors=8)
        alpha = 0.3
        emp = payoff(data, classes, reg, alpha)
        w_hat = classes[1].members[solve_exact(emp).w_index]
        pop = population_lagrangian_members(
            mdp, dd, reg, alpha, classes[0].members, classes[1].members
        )
        eps_hat = float(np.abs(emp - pop).max())
        at_v_star = population_lagrangian_members(
            mdp, dd, reg, alpha, [sol.v_star], [sol.w_star, w_hat]
        )
        gap = float(at_v_star[0, 0] - at_v_star[1, 0])
        assert gap <= 2.0 * eps_hat + 1e-12
        dev = weighted_l2(w_hat, sol.w_star, dd)
        assert dev <= np.sqrt(4.0 * eps_hat / (alpha * reg.m_f)) + 1e-12
