import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prorl.classes import PolicyClass, witness_class
from prorl import classes
from prorl.datasets import DatasetSampler, law_counts
from prorl.extraction import (
    bc_objective_matrix,
    clone_policy,
    extract_policy,
)
from prorl.mdp import (
    Policy,
    build_counterexample,
    exact_occupancy,
    random_mdp,
    uniform_policy,
)
from prorl.objective import weighted_l2
from prorl.oracle import solve_regularized
from prorl.regularizers import Regularizer

from oracles import deterministic_policy

nonneg_w = arrays(
    np.float64,
    (3, 2),
    elements=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)


class TestExtractPolicy:
    def test_unit_weights_recover_behavior(self):
        pi_d = Policy(np.array([[0.3, 0.7], [0.9, 0.1]]))
        out = extract_policy(np.ones((2, 2)), pi_d)
        np.testing.assert_allclose(out.probs, pi_d.probs, atol=1e-15)

    def test_zero_weights_fall_back_to_uniform(self):
        pi_d = uniform_policy(3, 4)
        out = extract_policy(np.zeros((3, 4)), pi_d)
        np.testing.assert_array_equal(out.probs, np.full((3, 4), 0.25))

    def test_uniform_rows_at_and_below_the_mass_threshold(self):
        # state 0 carries weighted mass 1e-12 (uniform row), state 1 twice that
        pi_d = uniform_policy(2, 2)
        out = extract_policy(np.array([[2e-12, 0.0], [4e-12, 0.0]]), pi_d)
        np.testing.assert_array_equal(out.probs, [[0.5, 0.5], [1.0, 0.0]])

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            extract_policy(np.array([[-1.0, 1.0]]), uniform_policy(1, 2))

    @given(nonneg_w)
    def test_rows_always_stochastic(self, w):
        out = extract_policy(w, uniform_policy(3, 2))
        np.testing.assert_allclose(out.probs.sum(axis=1), 1.0, atol=1e-12)

    @given(nonneg_w, st.floats(min_value=1e-3, max_value=1e3))
    def test_scale_invariance(self, w, c):
        pi_d = Policy(np.array([[0.2, 0.8], [0.5, 0.5], [0.75, 0.25]]))
        a = extract_policy(w, pi_d)
        b = extract_policy(c * w, pi_d)
        np.testing.assert_allclose(a.probs, b.probs, atol=1e-9)

    def test_oracle_weight_recovers_oracle_policy(self):
        # with the data generated by pi_d itself, reweighting the exact
        # solver's w* must reproduce its policy wherever d* has mass
        mdp = random_mdp(5, 3, 0.85, seed=6)
        pi_d = uniform_policy(5, 3)
        dd = exact_occupancy(mdp, pi_d).mass
        sol = solve_regularized(mdp, dd, Regularizer(), 0.2)
        out = extract_policy(sol.w_star, pi_d)
        covered = sol.d_star.state_marginal > 1e-10
        np.testing.assert_allclose(out.probs[covered], sol.pi_star.probs[covered], atol=1e-12)

    def test_population_distance_chain(self):
        # E_{d*}||pi* - pi_hat||_1 <= 2 ||w_hat - w*||_{2,dD} for any
        # nonnegative w_hat when the data comes from pi_d
        mdp = random_mdp(4, 2, 0.8, seed=14)
        pi_d = uniform_policy(4, 2)
        dd = exact_occupancy(mdp, pi_d).mass
        sol = solve_regularized(mdp, dd, Regularizer(), 0.25)
        d_state = sol.d_star.state_marginal
        rng = np.random.default_rng(1)
        for _ in range(50):
            w_hat = np.abs(sol.w_star + rng.uniform(0.3, 1.5) * rng.standard_normal((4, 2)))
            pi_hat = extract_policy(w_hat, pi_d)
            lhs = float(d_state @ np.abs(sol.pi_star.probs - pi_hat.probs).sum(axis=1))
            rhs = 2.0 * weighted_l2(w_hat, sol.w_star, dd)
            assert lhs <= rhs + 1e-12


class TestSplitDataset:
    """The bc cut a cloning run takes: ``DatasetSampler.count(n, n0, seed, n1)``."""

    def sampler(self):
        mdp = random_mdp(3, 2, 0.7, seed=0)
        return DatasetSampler(mdp, exact_occupancy(mdp, uniform_policy(3, 2)).mass)

    def test_sizes_add_up(self):
        d1, d2 = self.sampler().count(100, 20, 1, n1=90)
        assert d1.n == 90 and d2.n == 10
        assert d1.n0 == 20 and d2.n0 == 0
        whole = self.sampler().count(100, 20, 1)[0]
        np.testing.assert_array_equal(d1.transitions + d2.transitions, whole.transitions)

    def test_degenerate_splits(self):
        sampler = self.sampler()
        _, d2 = sampler.count(10, 2, 1, n1=10)
        assert d2.n == 0
        d1, _ = sampler.count(10, 2, 1, n1=0)
        assert d1.n == 0
        with pytest.raises(ValueError, match="n1"):
            sampler.count(10, 2, 1, n1=11)

    def test_empty_second_part_fails_cloning(self):
        _, d2 = self.sampler().count(10, 2, 1, n1=10)
        with pytest.raises(ValueError, match="n=0"):
            clone_policy(np.ones((3, 2)), d2, PolicyClass((uniform_policy(3, 2),)))


class TestClonePolicy:
    def make_bc_instance(self, n2=4000, seed=3):
        mdp = random_mdp(4, 2, 0.8, seed=8)
        pi_d = uniform_policy(4, 2)
        dd = exact_occupancy(mdp, pi_d).mass
        sol = solve_regularized(mdp, dd, Regularizer(), 0.3)
        data = DatasetSampler(mdp, dd).count(n2, 0, seed)[0]
        return mdp, dd, sol, data

    def test_singleton_class_returned(self):
        _, _, sol, data = self.make_bc_instance(n2=50)
        pi = sol.pi_star
        out = clone_policy(sol.w_star, data, PolicyClass((pi,)))
        assert out is pi

    def test_zero_weights_give_first_member(self):
        _, _, sol, data = self.make_bc_instance(n2=50)
        members = (deterministic_policy([0, 0, 0, 0], 2), sol.pi_star)
        out = clone_policy(np.zeros((4, 2)), data, members_class := PolicyClass(members))
        assert out is members_class.members[0]

    def test_recovers_target_against_far_policy(self):
        _, _, sol, data = self.make_bc_instance()
        far = Policy(1.0 - sol.pi_star.probs)  # rows flipped, still stochastic
        pc = PolicyClass((far, sol.pi_star))
        out = clone_policy(sol.w_star, data, pc)
        assert out is sol.pi_star

    def test_population_objective_witnesses_distance(self):
        # on an exact-frequency dataset the empirical objective equals the
        # population one, whose inner maximum witnesses E_{d*}||pi - pi*||_1
        # for every class member, provided pi* itself sits in the class
        bundle = build_counterexample(0.5)
        data = law_counts(bundle.mdp, bundle.data_occupancy, 6, 1)
        sol = solve_regularized(bundle.mdp, bundle.data_occupancy.mass, Regularizer(), 0.05)
        far = deterministic_policy([1, 1, 1, 1], 2)
        pc = PolicyClass((far, sol.pi_star))
        scores = bc_objective_matrix(sol.w_star, data, pc).max(axis=1)
        d_state = sol.d_star.state_marginal
        for pi, score in zip(pc.members, scores):
            tv = float(d_state @ np.abs(pi.probs - sol.pi_star.probs).sum(axis=1))
            assert score == pytest.approx(tv, abs=1e-8)
        assert clone_policy(sol.w_star, data, pc) is sol.pi_star

    def test_default_witness_tables_are_built_once_per_class(self, monkeypatch):
        _, _, sol, data = self.make_bc_instance(n2=200)
        pc = PolicyClass((sol.pi_star, uniform_policy(4, 2)))
        built = []
        monkeypatch.setattr(classes, "witness_class",
                            lambda policies: built.append(policies) or witness_class(policies))
        for _ in range(2):  # the second run reads the class's table
            bc_objective_matrix(sol.w_star, data, pc)
        assert built == [pc]
        table = pc.tables
        assert table is pc.tables and not table.flags.writeable
        fresh = np.stack(witness_class(pc))  # (H, S, A)
        assert table.shape == (len(pc), 4 * 2, len(fresh))
        # each entry h^pi(s) - h(s, a), bit for bit, with h^pi the per-policy einsum
        for diffs, pi in zip(table, pc.members):
            h_pi = np.einsum("hsa,sa->hs", fresh, pi.probs)
            for s in range(4):
                for a in range(2):
                    assert diffs[2 * s + a].tobytes() == (h_pi[:, s] - fresh[:, s, a]).tobytes()


class CGathers(np.ndarray):
    """Difference tables whose gathers give each policy's (H, m) slice C-ordered, as another
    numpy's might."""

    def take(self, indices, axis=None, out=None, mode="raise"):
        out = np.asarray(self).take(indices, axis=axis)  # (P, m, H)
        return np.ascontiguousarray(out.transpose(0, 2, 1)).transpose(0, 2, 1)


class TestCloningLayout:
    """The cloning product's bytes hang on the values alone, not on the gather's layout."""

    def assert_product_matches(self, monkeypatch, gather, data, pc, witnesses, w_hat):
        h_stack = np.stack(witnesses)
        h_pis = np.stack([np.einsum("hsa,sa->hs", h_stack, pi.probs) for pi in pc.members])
        table = classes._witness_tables(h_stack, pc.members)
        # the class's table, built on first read, holds the random witnesses
        monkeypatch.setattr(classes, "_witness_tables", lambda h, members: (
            table.view(CGathers) if gather == "c_ordered" else table))
        n_sa = data.transitions.sum(axis=2)
        pos = n_sa > 0
        cells, weights = np.nonzero(pos)[0], n_sa[pos] * w_hat[pos]
        want = np.stack([np.asfortranarray(h_pi[:, cells] - h_stack[:, pos]) @ weights
                         for h_pi in h_pis]) / data.n
        got = bc_objective_matrix(w_hat, data, pc)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("gather", ["numpy", "c_ordered"])
    @pytest.mark.parametrize("seed", range(12))
    def test_product_runs_on_the_fortran_ordered_difference(self, gather, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        num_states, num_actions = int(rng.integers(2, 30)), int(rng.integers(1, 5))
        num_witnesses = (3, 1, 2, 3, 5, 23)[seed % 6]
        mdp = random_mdp(num_states, num_actions, 0.9, seed=seed)
        dd = rng.dirichlet(np.full(num_states * num_actions, 0.5)).reshape(mdp.reward.shape)
        data = DatasetSampler(mdp, dd).count(int(rng.integers(50, 5000)), 1, seed)[0]
        pc = PolicyClass(tuple(Policy(rng.dirichlet(np.ones(num_actions), size=num_states))
                               for _ in range(int(rng.integers(1, 4)))))
        witnesses = [rng.uniform(-1.0, 1.0, mdp.reward.shape) for _ in range(num_witnesses)]
        w_hat = rng.uniform(0.0, 3.0, mdp.reward.shape)
        self.assert_product_matches(monkeypatch, gather, data, pc, witnesses, w_hat)

    @pytest.mark.parametrize("gather", ["numpy", "c_ordered"])
    @pytest.mark.parametrize(
        "num_states, num_actions, num_policies, num_witnesses, covered",
        [(4, 3, 1, 5, "some"), (4, 3, 3, 1, "some"), (1, 1, 1, 1, "all"), (6, 3, 2, 4, "one"),
         (30, 3, 3, 6, "one"), (6, 1, 3, 5, "some"), (5, 3, 4, 23, "all"), (30, 4, 5, 9, "all"),
         (30, 2, 2, 7, "some")],
        ids=["one_policy", "one_witness", "one_of_everything", "one_covered_cell",
             "one_covered_cell_s30", "one_action", "every_cell", "every_cell_s30", "s30"],
    )
    def test_edge_shapes(self, gather, num_states, num_actions, num_policies, num_witnesses,
                         covered, monkeypatch):
        rng = np.random.default_rng(100 * num_states + 10 * num_actions + num_witnesses)
        mdp = random_mdp(num_states, num_actions, 0.9, seed=num_states)
        shape, cells = mdp.reward.shape, num_states * num_actions
        if covered == "one":
            dd = np.eye(1, cells, int(rng.integers(cells)))
        elif covered == "all":
            dd = np.full(cells, 1.0 / cells)
        else:  # about half the cells, the first always
            dd = rng.uniform(0.1, 1.0, cells) * (rng.random(cells) < 0.5)
            dd[0] = 1.0
        data = law_counts(mdp, (dd / dd.sum()).reshape(shape), 1000, 1)
        assert (data.transitions.sum(axis=2) > 0).sum() == {"one": 1, "all": cells}.get(
            covered, np.count_nonzero(dd))
        pc = PolicyClass(tuple(Policy(rng.dirichlet(np.ones(num_actions), size=num_states))
                               for _ in range(num_policies)))
        witnesses = [rng.uniform(-1.0, 1.0, shape) for _ in range(num_witnesses)]
        self.assert_product_matches(monkeypatch, gather, data, pc, witnesses,
                                    rng.uniform(0.0, 3.0, shape))
