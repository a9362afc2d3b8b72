import numpy as np
import pytest

from prorl.classes import (
    PolicyClass,
    ValueClass,
    WeightClass,
    build_constrained_classes,
    build_misspecified,
    witness_class,
)
from prorl.mdp import (
    Policy,
    exact_occupancy,
    random_mdp,
    uniform_policy,
)
from prorl.objective import approximation_errors
from prorl.oracle import solve_regularized
from prorl.regularizers import Regularizer

from oracles import deterministic_policy, make_value_class


@pytest.fixture(scope="module")
def solved():
    mdp = random_mdp(4, 2, 0.8, seed=11)
    dd = exact_occupancy(mdp, uniform_policy(4, 2)).mass
    reg = Regularizer(m_f=1.0)
    sol = solve_regularized(mdp, dd, reg, 0.3)
    return mdp, dd, reg, sol


class TestValueClass:
    def test_box_enforced(self):
        with pytest.raises(ValueError, match="member 1"):
            ValueClass((np.zeros(2), np.array([0.0, 5.0])), b_v=2.0, lower=-2.0)

    def test_clip_mode_records(self):
        vc = make_value_class([np.zeros(2), np.array([0.0, 5.0])], b_v=2.0, on_violation="clip")
        assert vc.clipped == (1,)
        np.testing.assert_array_equal(vc.members[1], [0.0, 2.0])

    def test_reject_mode_raises(self):
        with pytest.raises(ValueError, match="box"):
            make_value_class([np.array([3.0])], b_v=1.0)

    def test_nonneg_variant(self):
        with pytest.raises(ValueError, match="box"):
            make_value_class([np.array([-0.5])], b_v=1.0, lower=0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ValueClass((), b_v=1.0, lower=-1.0)

    def test_nan_box_rejected(self):
        for b_v, lower in ((float("nan"), -1.0), (1.0, float("nan"))):
            with pytest.raises(ValueError, match="value box"):
                ValueClass((np.zeros(2),), b_v=b_v, lower=lower)

    def test_config_round_trip(self):
        vc = make_value_class([np.array([0.5, -0.5]), np.array([1.0, 0.0])], b_v=1.0)
        back = ValueClass.from_config(vc.to_config())
        assert back.b_v == vc.b_v and back.lower == vc.lower
        for a, b in zip(back.members, vc.members):
            np.testing.assert_array_equal(a, b)


class TestWeightClass:
    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError, match="box"):
            WeightClass((np.array([[-0.1, 0.5]]),), b_w=1.0)

    def test_nan_bound_rejected(self):
        with pytest.raises(ValueError, match="b_w must be positive"):
            WeightClass((np.ones((1, 2)),), b_w=float("nan"))

    def test_floor_validated(self):
        pi_d = uniform_policy(1, 2)
        ok = np.array([[1.0, 1.0]])
        WeightClass((ok,), b_w=2.0, floor=(0.5, pi_d))
        bad = np.array([[0.2, 0.2]])
        with pytest.raises(ValueError, match="floor at state 0"):
            WeightClass((ok, bad), b_w=2.0, floor=(0.5, pi_d))

    def test_config_round_trip_with_floor(self):
        pi_d = uniform_policy(1, 2)
        wc = WeightClass((np.array([[1.0, 2.0]]),), b_w=2.0, floor=(0.5, pi_d))
        back = WeightClass.from_config(wc.to_config())
        assert back.floor[0] == 0.5
        np.testing.assert_array_equal(back.floor[1].probs, pi_d.probs)
        np.testing.assert_array_equal(back.members[0], wc.members[0])


def realizable_classes(solved, num_distractors, seed):
    """Realizable classes: the misspecified ones at perturbation 0, as the pipeline builds them."""
    mdp, dd, reg, sol = solved
    return build_misspecified(sol, 0.0, mdp, dd, reg=reg, gamma=0.8,
                              num_distractors=num_distractors, seed=seed)[:2]


class TestBuildRealizable:
    def test_zero_distractors_is_singleton(self, solved):
        sol = solved[3]
        vc, wc = realizable_classes(solved, 0, seed=0)
        assert len(vc) == 1 and len(wc) == 1
        np.testing.assert_array_equal(vc.members[0], sol.v_star)
        np.testing.assert_array_equal(wc.members[0], sol.w_star)

    def test_every_member_in_bounds(self, solved):
        vc, wc = realizable_classes(solved, 50, seed=3)
        assert len(vc) == 51 and len(wc) == 51
        assert vc.clipped == () and wc.clipped == ()
        for v in vc.members:
            assert np.abs(v).max() <= vc.b_v + 1e-12
        for w in wc.members:
            assert w.min() >= 0.0 and w.max() <= wc.b_w + 1e-12

    def test_bounds_cover_anchor(self, solved):
        sol = solved[3]
        vc, wc = realizable_classes(solved, 0, seed=0)
        assert wc.b_w >= max(1.0, sol.w_star.max())
        assert vc.b_v >= np.abs(sol.v_star).max()

    def test_seed_reproducibility(self, solved):
        a = realizable_classes(solved, 8, seed=7)
        b = realizable_classes(solved, 8, seed=7)
        for x, y in zip(a[0].members, b[0].members):
            assert x.tobytes() == y.tobytes()
        for x, y in zip(a[1].members, b[1].members):
            assert x.tobytes() == y.tobytes()
        c = realizable_classes(solved, 8, seed=8)
        assert any(x.tobytes() != y.tobytes() for x, y in zip(a[0].members, c[0].members))

    def test_negative_num_distractors_rejected(self, solved):
        # every builder draws its distractors through one routine, which checks the count
        mdp, dd, reg, sol = solved
        with pytest.raises(ValueError, match="num_distractors must be nonnegative"):
            build_misspecified(sol, 0.0, mdp, dd, reg=reg, gamma=0.8, num_distractors=-1)
        with pytest.raises(ValueError, match="num_distractors must be nonnegative"):
            build_constrained_classes(sol.v_star, sol.w_star, uniform_policy(4, 2), b_w=5.0,
                                      b_wl=0.0, gamma=0.8, num_distractors=-1, seed=0)

    def test_distractors_are_box_draws_value_then_weight(self, solved):
        # the draw order is part of every suite's byte-identical artifacts
        vc, wc = realizable_classes(solved, 5, seed=7)
        rng = np.random.default_rng(7)
        for v, w in zip(vc.members[1:], wc.members[1:]):
            assert v.tobytes() == rng.uniform(-vc.b_v, vc.b_v, size=4).tobytes()
            assert w.tobytes() == rng.uniform(0.0, wc.b_w, size=(4, 2)).tobytes()


class TestBuildConstrained:
    def test_floor_holds_for_all_members(self):
        pi_d = uniform_policy(3, 2)
        w_anchor = np.full((3, 2), 1.0)
        v_anchor = np.full(3, 0.5)
        vc, wc = build_constrained_classes(
            v_anchor, w_anchor, pi_d, b_w=3.0, b_wl=0.6, gamma=0.5,
            num_distractors=40, seed=9,
        )
        assert vc.lower == 0.0 and vc.b_v == 2.0 and vc.clipped == ()
        assert wc.clipped  # some draws fall under the floor at this level
        for k, w in enumerate(wc.members):
            low = (pi_d.probs * w).sum(axis=1).min()
            assert low >= 0.6 - 1e-9
            if k in wc.clipped:  # blended exactly up to the floor
                assert low == pytest.approx(0.6, abs=1e-12)

    def test_anchor_must_satisfy_floor(self):
        pi_d = uniform_policy(2, 2)
        with pytest.raises(ValueError, match="anchor"):
            build_constrained_classes(
                np.zeros(2), np.full((2, 2), 0.1), pi_d, b_w=2.0, b_wl=0.5,
                gamma=0.5, num_distractors=0, seed=0,
            )


class TestBuildMisspecified:
    def test_zero_perturbation_is_realizable(self, solved):
        mdp, dd, reg, sol = solved
        vc, wc, eps_rv, eps_rw = build_misspecified(sol, 0.0, mdp, dd, reg=reg, gamma=0.8)
        assert eps_rv == 0.0 and eps_rw == 0.0
        np.testing.assert_array_equal(vc.members[0], sol.v_star)

    def test_constant_shift_value_error(self, solved):
        # the shifted value member costs exactly 3c: the three weighting
        # laws are probability measures, so each contributes c
        mdp, dd, reg, sol = solved
        c = 0.17
        _, _, eps_rv, _ = build_misspecified(sol, c, mdp, dd, reg=reg, gamma=0.8)
        assert eps_rv == pytest.approx(3 * c, abs=1e-12)

    def test_reported_errors_match_enumeration(self, solved):
        mdp, dd, reg, sol = solved
        vc, wc, eps_rv, eps_rw = build_misspecified(
            sol, 0.05, mdp, dd, reg=reg, gamma=0.8, num_distractors=6, seed=4
        )
        check_rv, check_rw = approximation_errors(
            mdp, dd, sol.v_star, sol.w_star, vc.members, wc.members
        )
        assert eps_rv == check_rv and eps_rw == check_rw

    def test_negative_perturbation_rejected(self, solved):
        mdp, dd, reg, sol = solved
        with pytest.raises(ValueError, match="nonnegative"):
            build_misspecified(sol, -0.1, mdp, dd, reg=reg, gamma=0.8)

    def test_nan_perturbation_rejected(self, solved):
        mdp, dd, reg, sol = solved
        with pytest.raises(ValueError, match="perturbation must be nonnegative"):
            build_misspecified(sol, float("nan"), mdp, dd, reg=reg, gamma=0.8)


class TestWitnessClass:
    def test_identical_pair_gives_all_plus_one(self):
        pi = uniform_policy(2, 3)
        hs = witness_class(PolicyClass((pi,)))
        assert len(hs) == 1
        np.testing.assert_array_equal(hs[0], np.ones((2, 3)))

    def test_single_state_disagreement_pattern(self):
        a = deterministic_policy([0, 0], 2)
        b = deterministic_policy([1, 0], 2)
        hs = witness_class(PolicyClass((a, b)))
        h_ab = next(
            h for h in hs if h[0, 0] == 1.0 and h[0, 1] == -1.0
        )
        np.testing.assert_array_equal(h_ab[1], [1.0, 1.0])
        h_ba = next(h for h in hs if h[0, 0] == -1.0)
        np.testing.assert_array_equal(h_ba[0], [-1.0, 1.0])

    def test_size_bound_and_dedup(self):
        rng = np.random.default_rng(0)
        members = tuple(
            Policy(rng.dirichlet(np.ones(3), size=4)) for _ in range(5)
        )
        hs = witness_class(PolicyClass(members))
        assert len(hs) <= 25
        assert len({h.tobytes() for h in hs}) == len(hs)

    def test_distance_identity_on_random_triples(self):
        # E_{s~d}[E_pi h - E_pi' h] must equal E_{s~d}||pi - pi'||_1 when h
        # is the witness of (pi, pi'); ties contribute zero either way
        rng = np.random.default_rng(42)
        for trial in range(100):
            s, a = int(rng.integers(2, 6)), int(rng.integers(2, 5))
            pi = Policy(rng.dirichlet(np.ones(a), size=s))
            pi_prime = Policy(rng.dirichlet(np.ones(a), size=s))
            if trial % 10 == 0:
                pi_prime = pi  # force ties
            d = rng.dirichlet(np.ones(s))
            h = np.where(pi.probs >= pi_prime.probs, 1.0, -1.0)
            lhs = float(d @ ((pi.probs - pi_prime.probs) * h).sum(axis=1))
            rhs = float(d @ np.abs(pi.probs - pi_prime.probs).sum(axis=1))
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_witnesses_match_module_construction(self):
        rng = np.random.default_rng(7)
        members = tuple(Policy(rng.dirichlet(np.ones(2), size=3)) for _ in range(3))
        hs = witness_class(PolicyClass(members))
        expected = set()
        for p in members:
            for q in members:
                expected.add(np.where(p.probs >= q.probs, 1.0, -1.0).tobytes())
        assert {h.tobytes() for h in hs} == expected
