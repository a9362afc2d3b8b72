"""The count-based payoff and cloning kernels against per-sample references.

Both kernels sum over covered cells weighted by the dataset's counts; the
references in ``oracles.py`` average over the transitions one by one. The two
must agree to rounding on every kind of dataset the pipeline builds.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import (
    bc_objective,
    column_slice,
    count_columns,
    empirical_lagrangian,
    exact_frequency_columns,
    load_dataset,
)
from prorl.classes import PolicyClass, witness_class
from prorl.datasets import DatasetSampler, OfflineDataset, law_counts
from prorl.extraction import bc_objective_matrix
from prorl.mdp import Policy, build_counterexample, random_mdp
from prorl.objective import empirical_lagrangian_members
from prorl.regularizers import Regularizer

# values a weight member may hold on cells without transitions; the kernels
# must never read them
UNCOVERED = (np.nan, np.inf, -1e6, 1e6, -3.0)


def close(got, want):
    np.testing.assert_array_less(np.abs(got - want), 1e-12 * (1.0 + np.abs(want)))


def reference_payoff(data, reg, alpha, vs, ws):
    return np.array([[empirical_lagrangian(data, reg, alpha, v, w) for v in vs] for w in ws])


def random_sampler(rng, num_states, num_actions):
    mdp = random_mdp(num_states, num_actions, float(rng.uniform(0.5, 0.95)),
                     seed=int(rng.integers(1 << 30)))
    mass = rng.dirichlet(np.full(num_states * num_actions, 0.5))
    mass[rng.random(mass.size) < 0.3] = 0.0
    if mass.sum() == 0.0:
        mass[0] = 1.0
    dd = (mass / mass.sum()).reshape(num_states, num_actions)
    return mdp, DatasetSampler(mdp, dd)


def random_instance(rng, num_states, num_actions, n, n0):
    """An MDP, n transitions and n0 initial states drawn as columns, and their counts."""
    mdp, sampler = random_sampler(rng, num_states, num_actions)
    seed = int(rng.integers(1 << 30))
    return mdp, sampler.draw(n, n0, seed), sampler.count(n, n0, seed)[0]


def members(rng, data, num_states, num_actions, num_v=3, num_w=4):
    covered = data.checked(num_states, num_actions).transitions.sum(axis=2) > 0
    vs = [rng.uniform(-2.0, 2.0, num_states) for _ in range(num_v)]
    ws = []
    for _ in range(num_w):
        w = rng.uniform(0.0, 3.0, (num_states, num_actions))
        w[~covered] = rng.choice(UNCOVERED, size=int((~covered).sum()))
        ws.append(w)
    return vs, ws


def random_policy_class(rng, num_states, num_actions, size):
    return PolicyClass(tuple(
        Policy(rng.dirichlet(np.ones(num_actions), size=num_states)) for _ in range(size)
    ))


def check_both_kernels(rng, data, num_states, num_actions, alpha, ref):
    """Both kernels on the counts data against the per-sample references on ref's columns."""
    reg = Regularizer(m_f=float(rng.uniform(0.5, 2.0)))
    vs, ws = members(rng, data, num_states, num_actions)
    if data.n0 > 0:
        close(empirical_lagrangian_members(data, reg, alpha, vs, ws),
              reference_payoff(ref, reg, alpha, vs, ws))
    pc = random_policy_class(rng, num_states, num_actions, int(rng.integers(1, 4)))
    witnesses = witness_class(pc)
    w_hat = np.where(np.isfinite(ws[0]), np.abs(ws[0]), 0.0)
    close(bc_objective_matrix(w_hat, data, pc), bc_objective(w_hat, ref, pc, witnesses))


class TestMatchesPerSampleReference:
    @given(
        num_states=st.integers(2, 8),
        num_actions=st.integers(1, 4),
        n=st.integers(1, 2000),
        n0=st.integers(1, 2000),
        alpha=st.floats(0.0, 2.0),
        seed=st.integers(0, 2**31),
    )
    def test_random_mdps(self, num_states, num_actions, n, n0, alpha, seed):
        assume(n0 != n)
        rng = np.random.default_rng(seed)
        _, columns, data = random_instance(rng, num_states, num_actions, n, n0)
        check_both_kernels(rng, data, num_states, num_actions, alpha, columns)

    @given(n=st.integers(2, 2000), cut=st.floats(0.0, 1.0), seed=st.integers(0, 2**31))
    def test_take_splits(self, n, cut, seed):
        # the parts of count's bc cut against the same transitions drawn as columns;
        # the held part carries no initial states (n0 = 0): cloning only
        rng = np.random.default_rng(seed)
        _, sampler = random_sampler(rng, 5, 3)
        data_seed = int(rng.integers(1 << 30))
        data = sampler.draw(n, 37, data_seed)
        n1 = min(max(1, int(cut * n)), n - 1)
        head, tail = sampler.count(n, 37, data_seed, n1)
        check_both_kernels(rng, head, 5, 3, 0.4, column_slice(data, 0, n1))
        check_both_kernels(rng, tail, 5, 3, 0.4, column_slice(data, n1, n, keep_inits=False))

    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**31))
    def test_jsonl_rewards_come_from_the_data(self, seed):
        rng = np.random.default_rng(seed)
        mdp, data, counted = random_instance(rng, 4, 2, 300, 50)
        noisy = OfflineDataset(
            data.states, data.actions, data.rewards + rng.normal(0.0, 0.5, data.n),
            data.next_states, data.init_states, data.gamma,
        )
        with tempfile.TemporaryDirectory() as tmp:
            t_path, i_path = str(Path(tmp) / "t.jsonl"), str(Path(tmp) / "i.txt")
            noisy.save(t_path, i_path)
            loaded = load_dataset(t_path, i_path, gamma=mdp.gamma)
        reg, loaded_counts = Regularizer(), count_columns(loaded, 4, 2)
        vs, ws = members(rng, loaded_counts, 4, 2)
        got = empirical_lagrangian_members(loaded_counts, reg, 0.2, vs, ws)
        close(got, reference_payoff(loaded, reg, 0.2, vs, ws))
        # the reward table would give a different matrix
        assert np.abs(got - empirical_lagrangian_members(counted, reg, 0.2, vs, ws)).max() > 1e-6

    @pytest.mark.parametrize("repeats", [1, 3])
    @pytest.mark.parametrize("instance", [1, 2])
    def test_exact_frequency_dataset(self, instance, repeats):
        # the law's counts of a deterministic MDP against a sample with that law
        bundle = build_counterexample(0.5, instance)
        data = law_counts(bundle.mdp, bundle.data_occupancy, 6 * repeats, repeats)
        columns = exact_frequency_columns(bundle.mdp, bundle.data_occupancy, repeats)
        rng = np.random.default_rng(10 * instance + repeats)
        for alpha in (0.0, 0.1, 1.0):
            check_both_kernels(rng, data, 4, 2, alpha, columns)


class TestCounterexampleTie:
    @pytest.mark.parametrize("repeats", [1, 3])
    @pytest.mark.parametrize("instance", [1, 2])
    def test_tie_is_bitwise(self, instance, repeats):
        bundle = build_counterexample(0.5, instance)
        data = law_counts(bundle.mdp, bundle.data_occupancy, 6 * repeats, repeats)
        emp = empirical_lagrangian_members(
            data, Regularizer(), 0.0, [bundle.v_star_unreg], [bundle.w_left, bundle.w_right]
        )
        assert emp[0, 0] == emp[1, 0]


class TestShapeGuards:
    def test_action_past_num_actions_rejected(self):
        # action 2 at state 0 with A = 2 would alias cell (1, 0), so no counts hold it;
        # counts of another (S, A) than the members' are rejected by both kernels
        data = OfflineDataset([0, 1], [2, 0], [0.7, 0.0], [1, 0], [0], gamma=0.9)
        with pytest.raises(ValueError, match="^actions must lie in"):
            count_columns(data, 2, 2)
        counts, ws = count_columns(data, 2, 3), [np.ones((2, 2))]
        with pytest.raises(ValueError, match=r"shape \(2, 3\) asked for as \(2, 2\)"):
            empirical_lagrangian_members(counts, Regularizer(), 0.1, [np.zeros(2)], ws)
        pc = PolicyClass((Policy(np.full((2, 2), 0.5)),))
        with pytest.raises(ValueError, match=r"shape \(2, 3\) asked for as \(2, 2\)"):
            bc_objective_matrix(ws[0], counts, pc)

    def test_value_member_length_must_match_states(self):
        rng = np.random.default_rng(0)
        _, _, data = random_instance(rng, 4, 2, 50, 10)
        with pytest.raises(ValueError, match="length 5, expected 4"):
            empirical_lagrangian_members(
                data, Regularizer(), 0.1, [np.zeros(5)], [np.ones((4, 2))]
            )
