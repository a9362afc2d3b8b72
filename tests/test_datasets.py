import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    column_slice,
    count_columns,
    exact_frequency_columns,
    load_dataset,
    searchsorted_dataset,
)

from prorl import datasets
from prorl.datasets import (
    _BLOCK as B,
    _GUIDE_BUCKETS as K,
    DatasetSampler,
    OfflineDataset,
    _cumulative,
    _GuideTable,
    law_counts,
)
from prorl.mdp import (
    Occupancy,
    TabularMdp,
    build_counterexample,
    exact_occupancy,
    random_mdp,
    uniform_policy,
)


def behavior_distribution(mdp, seed=0):
    d = exact_occupancy(mdp, uniform_policy(mdp.num_states, mdp.num_actions))
    return d.mass


class TestGeneration:
    def test_shapes_and_rewards_match_source(self):
        mdp = random_mdp(5, 3, 0.9, seed=1)
        dd = behavior_distribution(mdp)
        data = DatasetSampler(mdp, dd).draw(n=500, n0=100, seed=3)
        assert data.n == 500 and data.n0 == 100
        np.testing.assert_array_equal(data.rewards, mdp.reward[data.states, data.actions])
        assert data.gamma == mdp.gamma

    def test_empty_counts_allowed(self):
        mdp = random_mdp(3, 2, 0.8, seed=2)
        data = DatasetSampler(mdp, behavior_distribution(mdp)).draw(n=0, n0=0, seed=0)
        assert data.n == 0 and data.n0 == 0

    def test_negative_counts_rejected(self):
        mdp = random_mdp(3, 2, 0.8, seed=2)
        with pytest.raises(ValueError, match="nonnegative"):
            DatasetSampler(mdp, behavior_distribution(mdp)).draw(n=-1, n0=0, seed=0)

    def test_unnormalized_distribution_rejected(self):
        mdp = random_mdp(3, 2, 0.8, seed=2)
        with pytest.raises(ValueError, match="sum to 1"):
            DatasetSampler(mdp, 2.0 * behavior_distribution(mdp)).draw(n=10, n0=10, seed=0)

    def test_cell_frequencies_match_distribution(self):
        # 1e6 draws: every cell within 3 binomial standard errors.
        mdp = random_mdp(4, 3, 0.9, seed=5)
        dd = behavior_distribution(mdp)
        data = DatasetSampler(mdp, dd).draw(n=1_000_000, n0=1_000_000, seed=11)
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
        data = DatasetSampler(mdp, dd).draw(n=200_000, n0=1, seed=13)
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
            data = DatasetSampler(mdp, dd).draw(n=300, n0=40, seed=777)
            t_path = tmp_path / f"trans_{run}.jsonl"
            i_path = tmp_path / f"init_{run}.txt"
            data.save(str(t_path), str(i_path))
            paths.append((t_path.read_bytes(), i_path.read_bytes()))
        assert paths[0] == paths[1]

    def test_different_seeds_differ(self):
        mdp = random_mdp(4, 2, 0.9, seed=3)
        dd = behavior_distribution(mdp)
        d1 = DatasetSampler(mdp, dd).draw(n=100, n0=10, seed=1)
        d2 = DatasetSampler(mdp, dd).draw(n=100, n0=10, seed=2)
        assert not np.array_equal(d1.states, d2.states)


def sparse_mdp_and_data(num_states, num_actions, seed, zero_frac):
    """Random MDP and data distribution with about zero_frac of each law zeroed.

    Cells, transition entries and initial states alike; every law keeps at
    least one positive entry.
    """
    rng = np.random.default_rng(seed)

    def law(shape):
        p = rng.random(shape) * (rng.random(shape) >= zero_frac)
        flat = p.reshape(-1, shape[-1])
        empty = ~flat.any(axis=1)
        flat[empty, rng.integers(shape[-1], size=empty.sum())] = 1.0
        return p / p.sum(axis=-1, keepdims=True)

    mdp = TabularMdp(
        num_states,
        num_actions,
        law((num_states, num_actions, num_states)),
        rng.random((num_states, num_actions)),
        0.9,
        law((num_states,)),
    )
    return mdp, law((num_states * num_actions,)).reshape(num_states, num_actions)


def words_of(draws):
    """PCG64 words whose doubles (word >> 11) 2**-53 are the draws, rounded down to that grid."""
    return np.floor(np.asarray(draws) * 2.0**53).astype(np.uint64) << np.uint64(11)


def expected_searchsorted(cum, draws, rows):
    cum, draws = np.atleast_2d(cum), (words_of(draws) >> 11) * 2.0**-53
    return np.array([np.searchsorted(cum[r], u, side="right") for u, r in zip(draws, rows)])


def lookup(cum, draws, rows=None):
    return _GuideTable(np.asarray(cum)).lookup(words_of(draws), rows)


class TestGuideTable:
    """A prebuilt table's lookup equals searchsorted(cum[row], u, side="right") draw by draw,
    for every draw u the generator can make: a multiple of 2**-53."""

    @pytest.mark.parametrize(
        "cum, draws",
        [
            # draws exactly at bucket edges b / K and one generator step either side
            (
                [0.25, 0.5, 0.75, 1.0],
                [0.0, 255 / K, 256 / K, 257 / K] + [0.5 - 2**-53, 0.5, 0.5 + 2**-53],
            ),
            # cumulative entries exactly on bucket edges, and draws between them
            (
                [3 / K, 4 / K, 700 / K, 1.0],
                [2.5 / K, 3 / K, 3.5 / K, 4 / K, 699.9 / K, 700 / K, 0.9],
            ),
            # repeated cumulative values (zero-probability entries), leading zeros
            ([0.0, 0.0, 0.1, 0.1, 0.1, 0.6, 0.6, 1.0], [0.0, 0.05, 0.1, 0.3, 0.6, 0.99]),
            # several entries inside one bucket
            (
                [0.5, 0.5 + 1e-6, 0.5 + 2e-6, 0.5 + 3e-6, 1.0],
                [0.5, 0.5 + 5e-7, 0.5 + 1e-6, 0.5 + 2.5e-6, 0.5 + 3e-6, 0.5 + 1e-5],
            ),
            # a one-entry row
            ([1.0], [0.0, 0.5, np.nextafter(1.0, 0.0)]),
        ],
    )
    def test_crafted_rows(self, cum, draws):
        cum, draws = np.asarray(cum), np.asarray(draws)
        got = lookup(cum, draws)
        want = expected_searchsorted(cum, draws, np.zeros(draws.size, int))
        np.testing.assert_array_equal(got, want)

    def test_rows_pick_their_own_table(self):
        cum = np.array([[0.5, 1.0, 1.0], [0.0, 0.25, 1.0], [1.0, 1.0, 1.0]])
        draws = np.array([0.1, 0.1, 0.1, 0.6, 0.6, 0.6, 0.25, 0.25, 0.25])
        rows = np.array([0, 1, 2] * 3)
        np.testing.assert_array_equal(
            lookup(cum, draws, rows), expected_searchsorted(cum, draws, rows)
        )

    @given(
        width=st.integers(1, 12),
        num_rows=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        grid=st.sampled_from([16, 2048, 0]),
    )
    def test_matches_searchsorted(self, width, num_rows, seed, grid):
        # grid > 0 snaps entries and draws to multiples of 1/grid, so they sit
        # on bucket edges (16, 2048) or crowd into one bucket (2048)
        rng = np.random.default_rng(seed)
        cum = np.sort(rng.random((num_rows, width)), axis=1)
        draws = rng.random(200)
        if grid:
            cum, draws = np.floor(cum * grid) / grid, np.floor(draws * grid) / grid
        cum[:, -1] = 1.0
        rows = rng.integers(num_rows, size=draws.size)
        np.testing.assert_array_equal(
            lookup(cum, draws, rows), expected_searchsorted(cum, draws, rows)
        )


class TestRawWords:
    """The sampler reads PCG64's raw words: numpy's double from a word is u = (word >> 11)
    2**-53, so the word's top ten bits are the guide bucket floor(u K). A numpy that changes
    that conversion fails here, not as drifted artifact digests."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**63 + 7])
    @pytest.mark.parametrize("skip", [0, 5, B + 3, 2**100 + 1])
    def test_doubles_are_the_words_top_bits(self, seed, skip):
        assert K == 2**10  # the lookup's bucket is word >> 54
        rng = np.random.default_rng(seed)
        rng.bit_generator.advance(skip)
        doubles = rng.random(5000)
        words = datasets._Uniforms(seed).read(skip, 5000)
        assert words.dtype == np.uint64
        np.testing.assert_array_equal(doubles, (words >> 11) * 2.0**-53)
        np.testing.assert_array_equal(words >> 54, np.floor(doubles * 1024).astype(np.uint64))


class TestReferenceSampler:
    @settings(max_examples=150)
    @given(
        num_states=st.integers(1, 8),
        num_actions=st.integers(1, 4),
        n=st.sampled_from([0, 1, 7, 300]),
        n0=st.sampled_from([0, 1, 25]),
        seed=st.integers(0, 2**32 - 1),
        zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
    )
    def test_same_arrays_as_searchsorted(self, num_states, num_actions, n, n0, seed, zero_frac):
        mdp, dd = sparse_mdp_and_data(num_states, num_actions, seed, zero_frac)
        data = DatasetSampler(mdp, dd).draw(n, n0, seed)
        want = searchsorted_dataset(mdp, dd, n, n0, seed)
        for got, ref in zip((data.states, data.actions, data.next_states, data.init_states), want):
            np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(data.rewards, mdp.reward[want[0], want[1]])

    def test_top_draws_land_on_the_last_positive_entry(self, monkeypatch):
        # Every law is ten masses of 0.1 and a zero, so its cumulative sum
        # stops at 1 - 2**-53 = nextafter(1, 0). Plain searchsorted sent that
        # draw to the zero-mass last cell (a ValueError), and the whole-row
        # comparison sent it to state 0.
        law = np.array([0.1] * 10 + [0.0])
        assert np.cumsum(law)[-1] == np.nextafter(1.0, 0.0)
        mdp = TabularMdp(11, 1, np.tile(law, (11, 1, 1)), np.zeros((11, 1)), 0.9, law)
        top = np.uint64(2**64 - 1)  # the word of the draw nextafter(1, 0)
        monkeypatch.setattr(datasets._Uniforms, "read",
                            lambda self, offset, size: np.full(size, top))
        data = DatasetSampler(mdp, law[:, None]).draw(n=3, n0=2, seed=0)
        np.testing.assert_array_equal(data.states, [9, 9, 9])
        np.testing.assert_array_equal(data.next_states, [9, 9, 9])
        np.testing.assert_array_equal(data.init_states, [9, 9])
        fit, _ = DatasetSampler(mdp, law[:, None]).count(3, 2, seed=0)
        assert fit.transitions[9, 0, 9] == 3 and fit.inits[9] == 2

    def test_cumulative_is_one_from_the_last_positive_entry(self):
        law = np.array([
            [0.1] * 10 + [0.0, 0.0],
            [0.5, 0.0, 0.5] + [0.0] * 9,
            # sums past 1 within the row-sum tolerance, before a tiny last mass
            [0.5, 0.5 + 1e-10] + [0.0] * 8 + [1e-11, 0.0],
        ])
        cum = _cumulative(law)
        np.testing.assert_array_equal(cum[:, 10:], 1.0)
        np.testing.assert_array_equal(cum[1, :3], [0.5, 0.5, 1.0])
        np.testing.assert_array_equal(cum[0, :9], np.cumsum(law[0])[:9])
        assert np.all(np.diff(cum, axis=1) >= 0.0) and cum.max() == 1.0
        draws = np.array([0.25, 0.75, np.nextafter(1.0, 0.0)])
        np.testing.assert_array_equal(lookup(cum, draws, np.full(3, 2)), [0, 1, 1])


class TestDatasetSampler:
    @pytest.mark.parametrize("n, n0", [(0, 0), (1, 1), (700, 90), (20_000, 3)])
    def test_reused_sampler_draws_what_a_fresh_one_draws(self, n, n0):
        mdp, dd = sparse_mdp_and_data(6, 3, 21, 0.3)
        sampler = DatasetSampler(mdp, dd)
        for seed in (0, 5):  # one sampler, many draws
            got, want = sampler.draw(n, n0, seed), DatasetSampler(mdp, dd).draw(n, n0, seed)
            for name in ("states", "actions", "rewards", "next_states", "init_states"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
            assert got.gamma == want.gamma
            np.testing.assert_array_equal(got.generating_dd.mass, dd)

    def test_rejects_a_bad_law_or_count(self):
        mdp = random_mdp(3, 2, 0.8, seed=2)
        with pytest.raises(ValueError, match="sum to 1"):
            DatasetSampler(mdp, 2.0 * behavior_distribution(mdp))
        with pytest.raises(ValueError, match="shape"):
            DatasetSampler(mdp, np.full((2, 3), 1.0 / 6.0))
        with pytest.raises(ValueError, match="nonnegative"):
            DatasetSampler(mdp, behavior_distribution(mdp)).draw(5, -1, 0)


def column_counts(mdp, dd, n, n0, seed, start=0, stop=None, with_inits=True):
    """N(s,a,s'), R(s,a), N0(s) of transitions [start, stop) of ``searchsorted_dataset``,
    by the ordered bincount of its columns."""
    states, actions, next_states, init_states = searchsorted_dataset(mdp, dd, n, n0, seed)
    cut = slice(start, stop)
    columns = OfflineDataset(states[cut], actions[cut], mdp.reward[states, actions][cut],
                             next_states[cut], init_states if with_inits else [], mdp.gamma)
    return count_columns(columns, mdp.num_states, mdp.num_actions)


def assert_same_counts(part, want, n, n0, reward):
    """part's counts N and N0 equal want's, and its reward sums are R = N(s,a) r(s,a)
    byte for byte, within the sequential-sum bound of want's reward sums."""
    assert (part.n, part.n0) == (want.n, want.n0) == (n, n0)
    got = part.checked(*want.rewards.shape)
    np.testing.assert_array_equal(got.transitions, want.transitions)
    np.testing.assert_array_equal(got.inits, want.inits)
    assert got.transitions.dtype == want.transitions.dtype and got.inits.dtype == want.inits.dtype
    k = got.transitions.sum(axis=2)
    assert got.rewards.tobytes() == (k * reward).tobytes()
    # want's sums add k = N(s,a) rewards in draw order: within gamma_k of the exact sum
    gamma_k = k * 2.0**-53 / (1.0 - k * 2.0**-53)
    assert np.all(np.abs(got.rewards - want.rewards) <= gamma_k * np.abs(want.rewards))


class TestBlockCounts:
    """``DatasetSampler.count`` bins the draws block by block into the counts of the columns."""

    MDP, DD = sparse_mdp_and_data(5, 3, 8, 0.3)

    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("n0_over_n", [0.5, 1.2])
    def test_equal_the_column_counts_at_block_edges(self, n, n0_over_n):
        n0 = int(n * n0_over_n) + (n0_over_n > 1)  # below n and above it
        fit, held = DatasetSampler(self.MDP, self.DD).count(n, n0, seed=4)
        assert_same_counts(fit, column_counts(self.MDP, self.DD, n, n0, 4), n, n0, self.MDP.reward)
        assert held.n == held.n0 == 0 and not held.transitions.any()

    @pytest.mark.parametrize("n1", [0, 100, B, B + 100, 2 * B + 1],
                             ids=["zero", "inside", "boundary", "second", "all"])
    def test_cloning_cut(self, n1):
        n, n0 = 2 * B + 1, 300
        fit, held = DatasetSampler(self.MDP, self.DD).count(n, n0, 6, n1=n1)
        r = self.MDP.reward
        assert_same_counts(fit, column_counts(self.MDP, self.DD, n, n0, 6, stop=n1), n1, n0, r)
        assert_same_counts(held, column_counts(self.MDP, self.DD, n, n0, 6, start=n1,
                                               with_inits=False), n - n1, 0, r)

    @settings(max_examples=150, deadline=None)
    @given(
        num_states=st.integers(1, 8),
        num_actions=st.integers(1, 4),
        n=st.sampled_from([0, 1, 7, 300]),
        n0=st.sampled_from([0, 1, 25]),
        cut=st.floats(0.0, 1.0),
        block=st.sampled_from([1, 3, 64, B]),
        seed=st.integers(0, 2**32 - 1),
        zero_frac=st.sampled_from([0.0, 0.3, 0.7]),
    )
    def test_same_counts_as_searchsorted(self, num_states, num_actions, n, n0, cut, block, seed,
                                         zero_frac):
        mdp, dd = sparse_mdp_and_data(num_states, num_actions, seed, zero_frac)
        n1 = int(cut * n)
        with mock.patch.object(datasets, "_BLOCK", block):
            fit, held = DatasetSampler(mdp, dd).count(n, n0, seed, n1=n1)
            data = DatasetSampler(mdp, dd).draw(n, n0, seed)
        assert_same_counts(fit, column_counts(mdp, dd, n, n0, seed, stop=n1), n1, n0, mdp.reward)
        assert_same_counts(held, column_counts(mdp, dd, n, n0, seed, start=n1, with_inits=False),
                           n - n1, 0, mdp.reward)
        for got, ref in zip((data.states, data.actions, data.next_states, data.init_states),
                            searchsorted_dataset(mdp, dd, n, n0, seed)):
            np.testing.assert_array_equal(got, ref)

    def test_seed_sequence_seeds(self):
        seed = np.random.SeedSequence(2024, spawn_key=(3,))
        sampler = DatasetSampler(self.MDP, self.DD)
        want = column_counts(self.MDP, self.DD, B + 9, 40, seed)
        for _ in range(2):  # a SeedSequence is not used up
            assert_same_counts(sampler.count(B + 9, 40, seed)[0], want, B + 9, 40,
                               self.MDP.reward)
        np.testing.assert_array_equal(sampler.draw(B + 9, 40, seed).next_states,
                                      searchsorted_dataset(self.MDP, self.DD, B + 9, 40, seed)[2])

    @settings(max_examples=60, deadline=None)
    @given(calls=st.lists(st.tuples(st.integers(0, 1), st.sampled_from([5, 40]),
                                    st.sampled_from([1, 3]), st.integers(0, 2),
                                    st.sampled_from([None, 0, 2])),
                          min_size=1, max_size=12))
    def test_kept_counts_serve_only_their_own_key(self, calls):
        # interleaved calls on two samplers: a repeated key returns the kept counts,
        # every other key is counted afresh, and both equal a new sampler's counts
        laws = [sparse_mdp_and_data(4, 2, seed, 0.3) for seed in (1, 2)]
        samplers, last = [DatasetSampler(*law) for law in laws], [None, None]
        for which, n, n0, seed, n1 in calls:
            got = samplers[which].count(n, n0, seed, n1)
            want = DatasetSampler(*laws[which]).count(n, n0, seed, n1)
            for part, ref in zip(got, want):
                assert_same_counts(part, ref, ref.n, ref.n0, laws[which][0].reward)
            key = (n, n0, seed, n if n1 is None else n1)
            if last[which] is not None and last[which][0] == key:
                assert got is last[which][1]
            last[which] = (key, got)

    def test_counts_are_read_only_and_checked_for_shape(self):
        fit, held = DatasetSampler(self.MDP, self.DD).count(50, 5, 0, n1=30)
        for array in fit[3:] + held[3:]:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        with pytest.raises(ValueError, match="asked for as"):
            fit.checked(3, 5)

    @pytest.mark.parametrize("n, n0, n1", [(-1, 0, None), (5, -1, None), (5, 1, 6), (5, 1, -1)])
    def test_rejects_bad_sizes(self, n, n0, n1):
        with pytest.raises(ValueError, match="nonnegative and n1 must lie in"):
            DatasetSampler(self.MDP, self.DD).count(n, n0, 0, n1=n1)

    def test_counting_a_million_draws_holds_no_per_transition_array(self):
        sampler = DatasetSampler(self.MDP, self.DD)
        tracemalloc.start()
        fit, _ = sampler.count(1_000_000, 1_000_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 2 * 2**20  # one column of 1e6 int64 alone is 7.6 MiB
        assert fit.transitions.sum() == fit.inits.sum() == 1_000_000


class TestSerialization:
    def test_round_trip(self, tmp_path):
        mdp = random_mdp(4, 2, 0.85, seed=9)
        data = DatasetSampler(mdp, behavior_distribution(mdp)).draw(n=50, n0=7, seed=5)
        t_path, i_path = str(tmp_path / "t.jsonl"), str(tmp_path / "i.txt")
        data.save(t_path, i_path)
        back = load_dataset(t_path, i_path, gamma=mdp.gamma)
        np.testing.assert_array_equal(back.states, data.states)
        np.testing.assert_array_equal(back.actions, data.actions)
        np.testing.assert_array_equal(back.rewards, data.rewards)
        np.testing.assert_array_equal(back.next_states, data.next_states)
        np.testing.assert_array_equal(back.init_states, data.init_states)


class TestTake:
    """The bc cut of ``DatasetSampler.count``: transitions [0, n1) and [n1, n) of one draw."""

    def test_prefix_and_inits_control(self):
        mdp = random_mdp(3, 2, 0.9, seed=4)
        sampler = DatasetSampler(mdp, behavior_distribution(mdp))
        head, tail = sampler.count(20, 5, 6, n1=15)
        assert head.n == 15 and head.n0 == 5
        assert tail.n == 5 and tail.n0 == 0
        data = sampler.draw(20, 5, 6)
        for part, want in ((head, column_slice(data, 0, 15)),
                           (tail, column_slice(data, 15, 20, keep_inits=False))):
            for got, expected in zip(part[3:], count_columns(want, 3, 2)[3:]):
                np.testing.assert_array_equal(got, expected)


class TestZeroMassGuard:
    """A dataset that names its generating distribution has no transition on a zero-mass cell."""

    DD = np.array([[0.25, 0.25], [0.0, 0.5]])  # cell (1, 0) has no mass

    def build(self, states, actions, mass):
        return OfflineDataset(states=states, actions=actions, rewards=np.zeros(len(states)),
                              next_states=np.zeros(len(states), dtype=int), init_states=[0],
                              gamma=0.9, generating_dd=Occupancy(mass))

    def test_hand_built_transition_on_zero_mass_cell_raises(self):
        with pytest.raises(ValueError, match=r"^transition 2 drawn at a zero-probability "
                                             r"cell \(1, 0\)$"):
            self.build([0, 1, 1, 0, 1], [1, 1, 0, 0, 0], self.DD)

    def test_covered_cells_pass(self):
        data = self.build([0, 1, 0], [1, 1, 0], self.DD)
        assert data.n == 3


class TestExactFrequency:
    def test_counterexample_frequencies_are_exact(self):
        bundle = build_counterexample(0.5)
        data = law_counts(bundle.mdp, bundle.data_occupancy, 6, 1)
        assert (data.n, data.n0) == (6, 1)
        np.testing.assert_allclose(data.transitions.sum(axis=2) / data.n,
                                   bundle.data_occupancy.mass, atol=0)
        assert data.inits[bundle.A] == 1
        for array in data[3:]:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0

    @pytest.mark.parametrize("repeats", [1, 2, 3])
    @pytest.mark.parametrize("instance", [1, 2])
    def test_counts_bin_the_sorted_columns(self, instance, repeats):
        # on a deterministic MDP with commensurable d^D a finite sample has the
        # population law: the law's counts at n = 6 repeats equal the ordered
        # bincount of those columns, to rounding
        bundle = build_counterexample(0.5, instance)
        columns = exact_frequency_columns(bundle.mdp, bundle.data_occupancy, repeats)
        want = count_columns(columns, 4, 2)
        got = law_counts(bundle.mdp, bundle.data_occupancy, 6 * repeats, repeats)
        assert got[:3] == want[:3] == (6 * repeats, repeats, bundle.mdp.gamma)
        for name in ("transitions", "rewards", "inits"):
            np.testing.assert_allclose(getattr(got, name), getattr(want, name),
                                       rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n, n0", [(1, 1), (7, 3), (10**5, 10**4)])
    def test_stochastic_mdp_counts_have_its_law(self, n, n0):
        # no finite sample of a stochastic MDP has its law, but its counts do
        mdp = random_mdp(3, 2, 0.9, seed=1)
        dd = np.arange(1.0, 7.0).reshape(3, 2) / 21.0
        data = law_counts(mdp, dd, n, n0)
        n_sa = data.transitions.sum(axis=2)
        np.testing.assert_allclose(n_sa / n, dd, rtol=1e-14)
        np.testing.assert_allclose(data.transitions / n_sa[:, :, None], mdp.transition,
                                   rtol=1e-14, atol=1e-16)
        np.testing.assert_allclose(data.rewards / n_sa, mdp.reward, rtol=1e-14)
        np.testing.assert_allclose(data.inits / n0, mdp.init_dist, rtol=1e-14)
        assert (data.n, data.n0, data.gamma) == (n, n0, mdp.gamma)


def assert_counts_match_tallies(data, num_states, num_actions, counted=None):
    """The counts of counted (default data) against per-transition tallies of data's columns."""
    c = (count_columns(data, num_states, num_actions) if counted is None
         else counted.checked(num_states, num_actions))
    want = np.zeros((num_states, num_actions, num_states))
    np.add.at(want, (data.states, data.actions, data.next_states), 1)
    np.testing.assert_array_equal(c.transitions, want)
    want_r = np.zeros((num_states, num_actions))
    np.add.at(want_r, (data.states, data.actions), data.rewards)
    np.testing.assert_allclose(c.rewards, want_r, rtol=1e-14)
    np.testing.assert_array_equal(c.inits, np.bincount(data.init_states, minlength=num_states))
    assert c.transitions.sum() == data.n and c.inits.sum() == data.n0


class TestCounts:
    def test_counts_match_per_transition_tallies(self):
        mdp = random_mdp(4, 3, 0.9, seed=2)
        data = DatasetSampler(mdp, behavior_distribution(mdp)).draw(n=700, n0=90, seed=4)
        assert_counts_match_tallies(data, 4, 3)

    @pytest.mark.parametrize("part", ["whole", "head", "tail", "empty"])
    def test_sampled_counts_match_tallies(self, part):
        # count's parts against tallies of the same transitions drawn as columns
        mdp, dd = sparse_mdp_and_data(5, 3, 8, 0.3)
        sampler, n = DatasetSampler(mdp, dd), 0 if part == "empty" else 900
        data = sampler.draw(n, 40, 3)
        head, tail = sampler.count(n, 40, 3, n1=600 if part in ("head", "tail") else n)
        if part == "tail":
            assert_counts_match_tallies(column_slice(data, 600, 900, keep_inits=False), 5, 3, tail)
        else:
            assert_counts_match_tallies(column_slice(data, 0, head.n), 5, 3, head)

    def test_sampled_counts_at_another_shape_check_their_columns(self):
        # the columns are range checked at every shape they are counted at
        mdp = random_mdp(3, 2, 0.9, seed=4)
        data = DatasetSampler(mdp, behavior_distribution(mdp)).draw(n=40, n0=5, seed=6)
        with pytest.raises(ValueError, match="^states must lie in"):
            count_columns(data, 2, 3)
        assert count_columns(data, 3, 3).transitions.sum() == 40

    @pytest.mark.parametrize("table", ["next_states", "init_states"], ids=["next", "init"])
    def test_draw_past_the_tables_raises(self, table):
        # a corrupt table entry answers state 3 of 3, so the counting kernel's
        # bincount comes out longer than the counts' shape allows
        dd = np.zeros((3, 2))
        dd[2, 1] = 1.0  # every transition at the last cell, whose row ends the table
        sampler = DatasetSampler(random_mdp(3, 2, 0.9, seed=4), dd)
        guide = getattr(sampler, table)
        guide.packed = guide.packed.copy()  # the sampler's own tables are read-only
        guide.packed[-K:] = 3
        with pytest.raises(ValueError, match="outside the tables"):
            sampler.count(10, 4, seed=0)

    def test_take_halves_add_up(self):
        # the two parts of count's bc cut add up to the uncut count
        mdp = random_mdp(3, 2, 0.9, seed=4)
        sampler = DatasetSampler(mdp, behavior_distribution(mdp))
        head, tail = sampler.count(40, 5, 6, n1=25)
        whole = sampler.count(40, 5, 6)[0]
        np.testing.assert_allclose(head.rewards + tail.rewards, whole.rewards, rtol=1e-14)
        np.testing.assert_array_equal(head.transitions + tail.transitions, whole.transitions)
        np.testing.assert_array_equal(tail.inits, np.zeros(3))
        np.testing.assert_array_equal(head.inits, whole.inits)

    def test_empty_dataset_gives_zero_counts(self):
        mdp = random_mdp(3, 2, 0.8, seed=2)
        c = DatasetSampler(mdp, behavior_distribution(mdp)).count(0, 0, seed=0)[0]
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
            count_columns(data, 3, 2)
