import numpy as np
import pytest

from prorl.datasets import OfflineDataset, exact_frequency_dataset, generate_dataset
from prorl.mdp import build_counterexample, exact_occupancy, random_mdp, uniform_policy


def behavior_distribution(mdp, seed=0):
    d = exact_occupancy(mdp, uniform_policy(mdp.num_states, mdp.num_actions))
    return d.mass


class TestGeneration:
    def test_shapes_and_rewards_match_source(self):
        mdp = random_mdp(5, 3, 0.9, seed=1)
        dd = behavior_distribution(mdp)
        data = generate_dataset(mdp, dd, n=500, n0=100, seed=3)
        assert data.n == 500 and data.n0 == 100
        np.testing.assert_array_equal(data.rewards, mdp.reward[data.states, data.actions])
        assert data.gamma == mdp.gamma

    def test_empty_counts_allowed(self):
        mdp = random_mdp(3, 2, 0.8, seed=2)
        data = generate_dataset(mdp, behavior_distribution(mdp), n=0, n0=0, seed=0)
        assert data.n == 0 and data.n0 == 0

    def test_negative_counts_rejected(self):
        mdp = random_mdp(3, 2, 0.8, seed=2)
        with pytest.raises(ValueError, match="nonnegative"):
            generate_dataset(mdp, behavior_distribution(mdp), n=-1, n0=0, seed=0)

    def test_unnormalized_distribution_rejected(self):
        mdp = random_mdp(3, 2, 0.8, seed=2)
        with pytest.raises(ValueError, match="sum to 1"):
            generate_dataset(mdp, 2.0 * behavior_distribution(mdp), n=10, n0=10, seed=0)

    def test_cell_frequencies_match_distribution(self):
        # 1e6 draws: every cell within 3 binomial standard errors.
        mdp = random_mdp(4, 3, 0.9, seed=5)
        dd = behavior_distribution(mdp)
        data = generate_dataset(mdp, dd, n=1_000_000, n0=1_000_000, seed=11)
        counts = np.zeros_like(dd)
        np.add.at(counts, (data.states, data.actions), 1.0)
        freq = counts / data.n
        se = np.sqrt(np.maximum(dd * (1 - dd), 1e-12) / data.n)
        assert np.all(np.abs(freq - dd) <= 3.0 * se)
        init_freq = np.bincount(data.init_states, minlength=4) / data.n0
        init_se = np.sqrt(np.maximum(mdp.init_dist * (1 - mdp.init_dist), 1e-12) / data.n0)
        assert np.all(np.abs(init_freq - mdp.init_dist) <= 3.0 * init_se)

    def test_next_state_frequencies_match_transitions(self):
        mdp = random_mdp(3, 2, 0.9, seed=8)
        dd = behavior_distribution(mdp)
        data = generate_dataset(mdp, dd, n=200_000, n0=1, seed=13)
        # condition on the most frequent cell
        cells, counts = np.unique(
            data.states * mdp.num_actions + data.actions, return_counts=True
        )
        top = cells[np.argmax(counts)]
        s, a = divmod(top, mdp.num_actions)
        sel = (data.states == s) & (data.actions == a)
        freq = np.bincount(data.next_states[sel], minlength=3) / sel.sum()
        se = np.sqrt(np.maximum(mdp.transition[s, a] * (1 - mdp.transition[s, a]), 1e-12) / sel.sum())
        assert np.all(np.abs(freq - mdp.transition[s, a]) <= 4.0 * se)

    def test_byte_identical_per_seed(self, tmp_path):
        mdp = random_mdp(4, 2, 0.9, seed=3)
        dd = behavior_distribution(mdp)
        paths = []
        for run in ("a", "b"):
            data = generate_dataset(mdp, dd, n=300, n0=40, seed=777)
            t_path = tmp_path / f"trans_{run}.jsonl"
            i_path = tmp_path / f"init_{run}.txt"
            data.save(str(t_path), str(i_path))
            paths.append((t_path.read_bytes(), i_path.read_bytes()))
        assert paths[0] == paths[1]

    def test_different_seeds_differ(self):
        mdp = random_mdp(4, 2, 0.9, seed=3)
        dd = behavior_distribution(mdp)
        d1 = generate_dataset(mdp, dd, n=100, n0=10, seed=1)
        d2 = generate_dataset(mdp, dd, n=100, n0=10, seed=2)
        assert not np.array_equal(d1.states, d2.states)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        mdp = random_mdp(4, 2, 0.85, seed=9)
        data = generate_dataset(mdp, behavior_distribution(mdp), n=50, n0=7, seed=5)
        t_path, i_path = str(tmp_path / "t.jsonl"), str(tmp_path / "i.txt")
        data.save(t_path, i_path)
        back = OfflineDataset.load(t_path, i_path, gamma=mdp.gamma)
        np.testing.assert_array_equal(back.states, data.states)
        np.testing.assert_array_equal(back.actions, data.actions)
        np.testing.assert_array_equal(back.rewards, data.rewards)
        np.testing.assert_array_equal(back.next_states, data.next_states)
        np.testing.assert_array_equal(back.init_states, data.init_states)


class TestTake:
    def test_prefix_and_inits_control(self):
        mdp = random_mdp(3, 2, 0.9, seed=4)
        data = generate_dataset(mdp, behavior_distribution(mdp), n=20, n0=5, seed=6)
        head = data.take(0, 15)
        tail = data.take(15, 20, keep_inits=False)
        assert head.n == 15 and head.n0 == 5
        assert tail.n == 5 and tail.n0 == 0
        np.testing.assert_array_equal(
            np.concatenate([head.states, tail.states]), data.states
        )


class TestExactFrequency:
    def test_counterexample_frequencies_are_exact(self):
        bundle = build_counterexample(0.5)
        data = exact_frequency_dataset(bundle.mdp, bundle.data_occupancy)
        assert data.n == 6
        counts = np.zeros((4, 2))
        np.add.at(counts, (data.states, data.actions), 1.0)
        np.testing.assert_allclose(counts / data.n, bundle.data_occupancy.mass, atol=0)
        assert np.all(data.init_states == bundle.A)

    def test_stochastic_mdp_rejected(self):
        mdp = random_mdp(3, 2, 0.9, seed=1)
        dd = np.full((3, 2), 1.0 / 6.0)
        with pytest.raises(ValueError, match="stochastic"):
            exact_frequency_dataset(mdp, dd)

    def test_incommensurable_distribution_rejected(self):
        bundle = build_counterexample(0.5)
        dd = bundle.data_occupancy.mass.copy()
        dd[bundle.A, bundle.LEFT] += 0.01
        dd[bundle.B, bundle.LEFT] -= 0.01
        with pytest.raises(ValueError, match="commensurable"):
            exact_frequency_dataset(bundle.mdp, dd)


class TestCounts:
    def test_counts_match_per_transition_tallies(self):
        mdp = random_mdp(4, 3, 0.9, seed=2)
        data = generate_dataset(mdp, behavior_distribution(mdp), n=700, n0=90, seed=4)
        c = data.counts(4, 3)
        want = np.zeros((4, 3, 4))
        np.add.at(want, (data.states, data.actions, data.next_states), 1)
        np.testing.assert_array_equal(c.transitions, want)
        want_r = np.zeros((4, 3))
        np.add.at(want_r, (data.states, data.actions), data.rewards)
        np.testing.assert_allclose(c.rewards, want_r, rtol=1e-14)
        np.testing.assert_array_equal(c.inits, np.bincount(data.init_states, minlength=4))
        assert c.transitions.sum() == data.n and c.inits.sum() == data.n0

    def test_take_halves_add_up(self):
        mdp = random_mdp(3, 2, 0.9, seed=4)
        data = generate_dataset(mdp, behavior_distribution(mdp), n=40, n0=5, seed=6)
        head, tail = data.take(0, 25).counts(3, 2), data.take(25, 40, keep_inits=False).counts(3, 2)
        whole = data.counts(3, 2)
        np.testing.assert_array_equal(head.transitions + tail.transitions, whole.transitions)
        np.testing.assert_array_equal(tail.inits, np.zeros(3))
        np.testing.assert_array_equal(head.inits, whole.inits)

    def test_empty_dataset_gives_zero_counts(self):
        mdp = random_mdp(3, 2, 0.8, seed=2)
        c = generate_dataset(mdp, behavior_distribution(mdp), n=0, n0=0, seed=0).counts(3, 2)
        assert c.transitions.shape == (3, 2, 3) and not c.transitions.any()
        assert c.rewards.shape == (3, 2) and c.inits.shape == (3,)

    @pytest.mark.parametrize(
        "column, value",
        [
            ("states", 3),
            ("states", -1),
            ("actions", 2),
            ("actions", -1),
            ("next_states", 3),
            ("init_states", 3),
        ],
    )
    def test_out_of_range_index_names_its_column(self, column, value):
        # a flat index s*A + a would otherwise alias an action past A onto
        # the next state's first action
        cols = {"states": [0, 1], "actions": [0, 1], "next_states": [1, 2], "init_states": [0]}
        cols[column][0] = value
        data = OfflineDataset(rewards=[0.7, 0.0], gamma=0.9, **cols)
        with pytest.raises(ValueError, match=f"^{column} must lie in"):
            data.counts(3, 2)
