import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize._highspy import _core as highspy

from prorl import oracle, suites
from prorl.bounds import recommended_alpha
from prorl.datasets import DatasetSampler, law_counts
from prorl.mdp import (
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
from prorl.objective import approximation_errors, residual_ev, weighted_l2
from prorl.oracle import (
    FlowInfeasibleError,
    SolverConvergenceError,
    capped_unregularized_value,
    min_f_divergence_weight,
    solve_regularized,
    solve_unregularized,
    strong_concentrability_check,
)
from prorl.pipelines import resolve_mdp
from prorl.regularizers import Regularizer
from prorl.suites import run_experiment_suite, stability_fixture

from oracles import (
    covered_flow_feasible,
    covered_lp_optimum,
    deriv,
    deterministic_policy,
    deterministic_policy_marginals,
    f_divergence,
    reference_newton,
)


def uniform_behavior(mdp):
    return exact_occupancy(mdp, uniform_policy(mdp.num_states, mdp.num_actions)).mass


def bandit_mdp(num_actions=2, reward=None, gamma=0.5):
    """Single absorbing state; rewards per action."""
    r = np.full((1, num_actions), 0.5) if reward is None else np.asarray(reward, dtype=float)
    t = np.ones((1, num_actions, 1))
    return TabularMdp(1, num_actions, t, r.reshape(1, num_actions), gamma, np.array([1.0]))


def sparse_random_mdp(seed, num_states, num_actions, gamma, sparse=True):
    """Random MDP; with sparse=True about two thirds of the transition entries are zero."""
    rng = np.random.default_rng(seed)
    shape = (num_states, num_actions, num_states)
    transition = rng.dirichlet(np.ones(num_states), size=shape[:2])
    if sparse:
        transition[rng.random(shape) < 0.65] = 0.0
        keep = rng.integers(num_states, size=shape[:2])
        transition[np.arange(num_states)[:, None], np.arange(num_actions), keep] += 0.1
        transition /= transition.sum(axis=2, keepdims=True)
    reward = rng.uniform(0.0, 1.0, size=shape[:2])
    init = rng.dirichlet(np.ones(num_states))
    return TabularMdp(num_states, num_actions, transition, reward, gamma, init)


small_mdps = st.builds(
    sparse_random_mdp,
    seed=st.integers(0, 10**6),
    num_states=st.integers(2, 7),
    num_actions=st.integers(1, 4),
    gamma=st.sampled_from([0.5, 0.9, 0.99]),
    sparse=st.booleans(),
)


class TestSolveRegularized:
    def test_symmetric_bandit_keeps_data_weights(self):
        # equal rewards and uniform data: nothing to move, w* is identically 1
        mdp = bandit_mdp()
        dd = np.array([[0.5, 0.5]])
        for alpha in (0.05, 0.5, 2.0):
            sol = solve_regularized(mdp, dd, Regularizer(), alpha)
            np.testing.assert_allclose(sol.w_star, 1.0, atol=1e-9)
            np.testing.assert_allclose(sol.d_star.mass, dd, atol=1e-9)

    def test_counterexample_never_sends_mass_right(self):
        bundle = build_counterexample(0.5)
        sol = solve_regularized(bundle.mdp, bundle.data_occupancy, Regularizer(), 0.1)
        assert sol.d_star.mass[bundle.A, bundle.RIGHT] <= 1e-10
        assert sol.pi_star.probs[bundle.A, bundle.LEFT] == pytest.approx(1.0, abs=1e-9)
        assert sol.d_star.state_marginal[bundle.C] == 0.0

    @pytest.mark.parametrize("alpha", [0.05, 0.5])
    def test_two_paths_agree(self, alpha):
        mdp = random_mdp(5, 3, 0.9, seed=21)
        dd = uniform_behavior(mdp)
        reg = Regularizer(m_f=1.0)
        a = solve_regularized(mdp, dd, reg, alpha, method="saddle")
        b = solve_regularized(mdp, dd, reg, alpha, method="qp")
        assert np.abs(a.w_star - b.w_star).max() < 1e-7
        assert np.abs(a.d_star.mass - b.d_star.mass).max() < 1e-7

    def test_certificate_fields(self):
        # the certificate is the larger of the clip-form deviation of w* from
        # the stationarity form at v* and the flow violation of d* = d^D w*
        mdp = random_mdp(4, 2, 0.8, seed=3)
        dd = uniform_behavior(mdp)
        reg = Regularizer(m_f=2.0)
        sol = solve_regularized(mdp, dd, reg, 0.3)
        w_form = np.clip(reg.deriv_inverse(residual_ev(mdp, sol.v_star) / 0.3), 0.0, None)
        clip_dev = float(np.abs(sol.w_star - w_form).max())
        assert sol.kkt_residual == pytest.approx(
            max(clip_dev, flow_residual(mdp, sol.d_star)), rel=0.0, abs=1e-15
        )
        assert sol.kkt_residual < 1e-8
        np.testing.assert_allclose(sol.d_star.mass, sol.w_star * dd, atol=1e-14)

    def test_stationarity_on_interior_cells(self):
        mdp = random_mdp(6, 2, 0.9, seed=13)
        dd = uniform_behavior(mdp)
        reg = Regularizer(m_f=1.3)
        alpha = 0.4
        sol = solve_regularized(mdp, dd, reg, alpha)
        e = residual_ev(mdp, sol.v_star)
        interior = sol.w_star > 1e-9
        np.testing.assert_allclose(
            e[interior], alpha * deriv(reg, sol.w_star[interior]), atol=1e-8
        )

    def test_value_norm_bound(self):
        # sup-norm of the dual value stays within (alpha B_f' + 1)/(1 - gamma)
        for seed in range(6):
            mdp = random_mdp(5, 3, 0.85, seed=seed)
            dd = uniform_behavior(mdp)
            reg = Regularizer(m_f=1.0)
            for alpha in (0.1, 1.0):
                sol = solve_regularized(mdp, dd, reg, alpha)
                b_fp = reg.bounds(sol.w_star.max())[1]
                assert np.abs(sol.v_star).max() <= (alpha * b_fp + 1) / (1 - mdp.gamma) + 1e-8

    def test_regularization_cost_bounded(self):
        # J(pi*_0) - J(pi*_alpha) <= alpha * B_f0 whenever d*_0 is covered
        for seed in range(5):
            mdp = random_mdp(5, 2, 0.8, seed=seed + 30)
            dd = uniform_behavior(mdp)
            reg = Regularizer(m_f=1.0)
            unreg = solve_unregularized(mdp)
            assert dd.min() > 0.0  # so d*_0 is covered and its ratio finite
            b_f0 = reg.bounds((unreg.d_star.mass / dd).max())[0]
            j0 = policy_return(mdp, unreg.pi_star)
            for alpha in (0.05, 0.3):
                sol = solve_regularized(mdp, dd, reg, alpha)
                j_alpha = policy_return(mdp, sol.pi_star)
                assert j0 - j_alpha <= alpha * b_f0 + 1e-9

    def test_cap_respected(self):
        mdp = random_mdp(4, 2, 0.8, seed=17)
        dd = uniform_behavior(mdp)
        sol = solve_regularized(mdp, dd, Regularizer(), 0.2, cap=1.2)
        assert sol.w_star.max() <= 1.2 + 1e-10
        assert sol.cap == 1.2

    def test_infeasible_support_names_state(self):
        # drop the absorbing state from the counterexample's data coverage:
        # every occupancy needs mass there, so the polytope is empty
        bundle = build_counterexample(0.5)
        dd = bundle.data_occupancy.mass.copy()
        dd[bundle.T, :] = 0.0
        dd = dd / dd.sum()
        with pytest.raises(FlowInfeasibleError) as err:
            solve_regularized(bundle.mdp, dd, Regularizer(), 0.1)
        assert err.value.state == bundle.T

    def test_bad_arguments(self):
        mdp = bandit_mdp()
        dd = np.array([[0.5, 0.5]])
        with pytest.raises(ValueError, match="alpha"):
            solve_regularized(mdp, dd, Regularizer(), 0.0)
        with pytest.raises(ValueError, match="cap"):
            solve_regularized(mdp, dd, Regularizer(), 0.1, cap=-1.0)
        with pytest.raises(ValueError, match="method"):
            solve_regularized(mdp, dd, Regularizer(), 0.1, method="simplex")

    def test_deterministic_output(self):
        mdp = random_mdp(5, 2, 0.9, seed=5)
        dd = uniform_behavior(mdp)
        a = solve_regularized(mdp, dd, Regularizer(), 0.25)
        b = solve_regularized(mdp, dd, Regularizer(), 0.25)
        np.testing.assert_array_equal(a.w_star, b.w_star)
        np.testing.assert_array_equal(a.v_star, b.v_star)


def hard_instance(rng):
    """One draw from the hard family: sparse support, caps, small alpha, gamma to 0.95.

    Dirichlet(0.4) transitions; a behavior policy with about 35 % of its cells
    zeroed (one action per state always kept); data whose state marginal mixes
    the behavior occupancy with a random one, so capped instances can be
    infeasible. Returns (mdp, data mass, alpha, cap).
    """
    s = int(rng.integers(3, 11))
    a = int(rng.integers(2, 5))
    gamma = float(rng.uniform(0.5, 0.95))
    alpha = float(10.0 ** rng.uniform(-3.0, 0.0))
    cap = (None, 1.5, 3.0)[int(rng.integers(3))]
    transition = rng.dirichlet(np.full(s, 0.4), size=(s, a))
    reward = rng.uniform(0.0, 1.0, size=(s, a))
    init = rng.dirichlet(np.ones(s))
    probs = rng.dirichlet(np.ones(a), size=s)
    probs[rng.random((s, a)) < 0.35] = 0.0
    probs[np.arange(s), rng.integers(a, size=s)] += 1e-3
    probs /= probs.sum(axis=1, keepdims=True)
    mdp = TabularMdp(s, a, transition, reward, gamma, init)
    p_pi = np.einsum("sa,sat->st", probs, transition)
    d_state = np.linalg.solve(np.eye(s) - gamma * p_pi.T, (1.0 - gamma) * init)
    mass = (0.6 * d_state + 0.4 * rng.dirichlet(np.ones(s)))[:, None] * probs
    return mdp, mass / mass.sum(), alpha, cap


def low_alpha_instance(k):
    """Draw k of the low-alpha family: hard_instance(default_rng(k)) with alpha
    drawn next from the same generator, log-uniform on [1e-5, 1e-2], below the
    hard family's range. Returns (mdp, data mass, alpha, cap).
    """
    rng = np.random.default_rng(k)
    mdp, dd, _, cap = hard_instance(rng)
    return mdp, dd, float(10.0 ** rng.uniform(-5.0, -2.0)), cap


def newton_stall_instance():
    """Low-alpha draw 63, a capped instance (S 6, A 3, cap 1.5) at alpha ~5.4e-5.

    Newton runs out of steps here (and at alpha 10 % either side), from the
    least-squares start as from v = 0; the "qp" path solves it.
    """
    return low_alpha_instance(63)


def rate_unregularized_instance(n=1000):
    """The rate_unregularized suite's instance at the alpha of sample size n.

    Mixing MDP (8 states, 3 actions, gamma 0.8) with uniform behavior data;
    Newton solves it on its own. Returns (mdp, data mass, alpha).
    """
    mdp = resolve_mdp(
        {"kind": "mixing", "num_states": 8, "num_actions": 3, "gamma": 0.8, "seed": 5,
         "mixing": 0.5}
    )
    dd = uniform_behavior(mdp)
    b_w0 = float((solve_unregularized(mdp).d_star.mass / dd).max())
    alpha = recommended_alpha(float(n) ** -0.25, Regularizer().eval(b_w0))
    return mdp, dd, alpha


def with_feasibility(draws):
    """Pair each (mdp, data mass, alpha, cap) draw with its covered-flow feasibility."""
    return [(draw, covered_flow_feasible(draw[0], draw[1], draw[3])) for draw in draws]


def hard_family(seed):
    """The 48 draws of hard_instance from default_rng(seed), with their feasibility."""
    rng = np.random.default_rng(seed)
    return with_feasibility([hard_instance(rng) for _ in range(48)])


class TestHardInstances:
    # seed 3's draw 28 (S 7, A 4, alpha 5.6e-3, cap 1.5) once stalled the
    # "qp" cross-check; low-alpha draws 6 and 96 once stalled both paths
    @pytest.mark.parametrize(
        "family",
        [
            pytest.param(lambda: hard_family(0), id="hard_seed0"),
            pytest.param(lambda: hard_family(3), id="hard_seed3"),
            pytest.param(
                lambda: with_feasibility([low_alpha_instance(k) for k in range(200)]),
                id="low_alpha",
            ),
        ],
    )
    def test_default_path_solves_every_feasible_instance(self, family):
        reg = Regularizer()
        feasible = infeasible = 0
        for (mdp, dd, alpha, cap), is_feasible in family():
            if not is_feasible:
                infeasible += 1
                with pytest.raises(FlowInfeasibleError):
                    solve_regularized(mdp, dd, reg, alpha, cap=cap)
                continue
            feasible += 1
            sol = solve_regularized(mdp, dd, reg, alpha, cap=cap)
            ref = solve_regularized(mdp, dd, reg, alpha, cap=cap, method="qp")
            assert sol.kkt_residual <= 1e-8
            assert np.abs(sol.w_star - ref.w_star).max() <= 1e-7
        assert feasible > 0 and infeasible > 0

    def test_cross_check_instances_stay_on_newton(self):
        # the 200 instances of acceptance 03: the default path must not fall
        # back there, or the cross-check would compare "qp" with itself
        rng = np.random.default_rng(2024)
        for k in range(100):
            s = int(rng.integers(2, 9))
            a = int(rng.integers(2, 4))
            gamma = float(rng.uniform(0.5, 0.9))
            mdp = random_mdp(s, a, gamma, seed=1000 + k)
            dd = uniform_behavior(mdp)
            for alpha in (0.05, 0.5):
                assert solve_regularized(mdp, dd, Regularizer(), alpha).method == "saddle"

    def test_newton_stall_falls_back_to_qp(self):
        mdp, dd, alpha, cap = newton_stall_instance()
        sol = solve_regularized(mdp, dd, Regularizer(), alpha, cap=cap)
        assert sol.method == "qp"
        assert sol.kkt_residual <= 1e-8
        assert sol.w_star.max() <= cap + 1e-10

    def test_newton_stall_hands_over_before_max_iter(self, monkeypatch):
        # |Phi| finds no new low for _STALL_STEPS steps in a row, long before step 200
        steps, newton_fn = [], oracle._newton

        def newton(*args, **kwargs):
            v, w, iterations = newton_fn(*args, **kwargs)
            steps.append(iterations)
            return v, w, iterations

        monkeypatch.setattr(oracle, "_newton", newton)
        mdp, dd, alpha, cap = newton_stall_instance()
        assert solve_regularized(mdp, dd, Regularizer(), alpha, cap=cap).method == "qp"
        assert oracle._STALL_STEPS < steps[0] < 100

    def test_both_paths_stalled_raise(self, monkeypatch):
        monkeypatch.setattr(oracle, "_highs_qp", failed_highs_qp)
        mdp, dd, alpha, cap = newton_stall_instance()
        with pytest.raises(SolverConvergenceError) as err:
            solve_regularized(mdp, dd, Regularizer(), alpha, cap=cap)
        assert "saddle path stalled" in str(err.value)
        assert "qp path stalled" in str(err.value)


def test_newton_iterates_match_the_frozen_loop():
    # bit for bit, on feasible and infeasible hard draws (every other one at
    # m_f 1.5, so a reordered e / alpha / m_f shows), low-alpha draws and the
    # stall instance: a rounding change in _newton fails here, not as drift
    rng = np.random.default_rng(0)
    draws = [hard_instance(rng) for _ in range(48)]
    draws += [low_alpha_instance(k) for k in range(40)] + [newton_stall_instance()]
    tol = 1e-12 * 0.1  # solve_regularized's Newton tolerance
    for k, (mdp, dd, alpha, cap) in enumerate(draws):
        reg = Regularizer(m_f=1.5 if k < 48 and k % 2 else 1.0)
        sup = oracle._build_support(mdp, dd, cap)
        v, w, its = oracle._newton(sup, reg, alpha)
        v_ref, w_ref, its_ref = reference_newton(
            sup.b_mat, sup.weights, sup.rewards, (1.0 - mdp.gamma) * mdp.init_dist, reg,
            alpha, sup.cap, tol, oracle._STALL_STEPS,
        )
        assert (v.tobytes(), w.tobytes(), its) == (v_ref.tobytes(), w_ref.tobytes(), its_ref)


def zero_start_newton(sup, reg, alpha):
    """The frozen Newton loop on a support from v = 0, the start before the least-squares one."""
    return reference_newton(sup.b_mat, sup.weights, sup.rewards, sup.flow_rhs, reg, alpha, sup.cap,
                            oracle._NEWTON_TOL, oracle._STALL_STEPS, v0=np.zeros(sup.num_states))


def test_least_squares_start_takes_fewer_steps_than_zero():
    # from v = 0 every covered cell of a low-alpha draw sits at a bound, so
    # Newton's first steps are ridge-only; the d^D-weighted Bellman solution
    # at w = 1 starts it past that plateau
    ours = zero = 0
    for (mdp, dd, alpha, cap), is_feasible in hard_family(0):
        if not is_feasible:
            continue
        sup = oracle._build_support(mdp, dd, cap)
        ours += oracle._newton(sup, Regularizer(), alpha)[2]
        zero += zero_start_newton(sup, Regularizer(), alpha)[2]
    assert ours < zero


def test_data_weights_that_are_optimal_take_no_step():
    # equal rewards and uniform data: w = 1 solves the problem, and the
    # least-squares start is its dual, so Newton starts at the solution
    mdp = bandit_mdp()
    sup = oracle._build_support(mdp, np.array([[0.5, 0.5]]))
    for alpha in (0.05, 0.5, 2.0):
        _, w, iterations = oracle._newton(sup, Regularizer(), alpha)
        assert iterations == 0
        np.testing.assert_allclose(w, 1.0, rtol=0.0, atol=1e-15)


def test_singular_start_begins_at_zero():
    # state 1 is uncovered, has no initial mass and no covered cell reaches
    # it: B^T D B has a zero row and column, so Newton starts from v = 0
    transition = np.zeros((2, 2, 2))
    transition[0, :, 0] = transition[1, :, 0] = 1.0
    mdp = TabularMdp(2, 2, transition, np.array([[1.0, 0.2], [0.5, 0.5]]), 0.8,
                     np.array([1.0, 0.0]))
    dd = np.array([[0.5, 0.5], [0.0, 0.0]])
    sup = oracle._build_support(mdp, dd)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve((sup.b_mat.T * sup.weights) @ sup.b_mat, np.ones(2))
    reg, alpha = Regularizer(), 0.01
    v, w, its = oracle._newton(sup, reg, alpha)
    v_ref, w_ref, its_ref = zero_start_newton(sup, reg, alpha)
    assert (v.tobytes(), w.tobytes(), its) == (v_ref.tobytes(), w_ref.tobytes(), its_ref)
    sol = solve_regularized(mdp, dd, reg, alpha)
    assert sol.method == "saddle" and sol.kkt_residual <= 1e-8
    assert sol.v_star[1] == 0.0


def failed_highs_qp(q_diag, lin, a_mat, b_vec, upper):
    """Stand-in for a HiGHS QP solve that fails: the zero point and kSolveError."""
    status = highspy.HighsModelStatus.kSolveError
    return np.zeros_like(q_diag), np.zeros(a_mat.shape[0]), status, 0


class TestHighsQp:
    def test_closed_form_with_one_bound_active(self):
        # min (x1^2 + x2^2)/2 - 3 x1  s.t.  x1 + x2 = 1, 0 <= x <= (0.6, 5):
        # x1 presses on its upper bound, x2 = 0.4 is free, and q x2 - 0 + nu = 0
        # gives nu = -0.4
        x, nu, status, _ = oracle._highs_qp(
            np.ones(2), np.array([3.0, 0.0]), np.ones((1, 2)), np.ones(1), np.array([0.6, 5.0])
        )
        assert status == highspy.HighsModelStatus.kOptimal
        np.testing.assert_allclose(x, [0.6, 0.4], rtol=0.0, atol=1e-10)
        assert nu[0] < 0.0


@pytest.fixture
def solver_log(monkeypatch):
    """Record, in order, each phase-1 LP call ("lp") and each HiGHS QP solve ("qp")."""
    log = []

    def check(*args):
        log.append("lp")
        return check_flow_feasible(*args)

    def qp(*args):
        log.append("qp")
        return highs_qp(*args)

    check_flow_feasible, highs_qp = oracle._check_flow_feasible, oracle._highs_qp
    monkeypatch.setattr(oracle, "_check_flow_feasible", check)
    monkeypatch.setattr(oracle, "_highs_qp", qp)
    return log


class TestPhase1OnFailure:
    """The phase-1 LP runs only when no certified point shows the polytope non-empty."""

    def test_feasible_default_solves_skip_the_lp(self, solver_log):
        mdp, dd, alpha = rate_unregularized_instance()
        assert solve_regularized(mdp, dd, Regularizer(), alpha).kkt_residual <= 1e-8
        feasible = 0
        for (mdp, dd, alpha, cap), is_feasible in hard_family(0):
            if is_feasible:
                feasible += 1
                sol = solve_regularized(mdp, dd, Regularizer(), alpha, cap=cap)
                assert sol.method == "saddle" and sol.kkt_residual <= 1e-8
        assert feasible > 0
        assert solver_log == []

    def test_lp_oracles_skip_the_phase1_lp(self, solver_log):
        bundle = build_counterexample(0.5)
        capped_unregularized_value(bundle.mdp, bundle.data_occupancy, cap=6.0)
        fx = stability_fixture()
        min_f_divergence_weight(fx["mdp"], fx["dd"], fx["reg"])
        assert "lp" not in solver_log

    def test_one_lp_before_qp(self, solver_log):
        mdp, dd, alpha = rate_unregularized_instance()
        sol = solve_regularized(mdp, dd, Regularizer(), alpha, method="qp")
        assert sol.method == "qp" and solver_log == ["lp", "qp"]
        solver_log.clear()
        mdp, dd, alpha, cap = newton_stall_instance()
        sol = solve_regularized(mdp, dd, Regularizer(), alpha, cap=cap)
        assert sol.method == "qp" and solver_log == ["lp", "qp"]

    def test_infeasible_draws_raise_the_lp_error(self, solver_log):
        infeasible = 0
        for (mdp, dd, alpha, cap), is_feasible in hard_family(0):
            if is_feasible:
                continue
            infeasible += 1
            solver_log.clear()
            with pytest.raises(FlowInfeasibleError) as err:
                solve_regularized(mdp, dd, Regularizer(), alpha, cap=cap)
            assert solver_log == ["lp"]
            with pytest.raises(FlowInfeasibleError) as direct:
                oracle._check_flow_feasible(oracle._build_support(mdp, dd, cap))
            assert (err.value.state, err.value.violation) == (
                direct.value.state, direct.value.violation
            )
        assert infeasible > 0

    def test_newton_ends_early_on_empty_polytopes(self, monkeypatch):
        steps = []

        def newton(*args, **kwargs):
            v, w, iterations = newton_fn(*args, **kwargs)
            steps.append(iterations)
            return v, w, iterations

        newton_fn = oracle._newton
        monkeypatch.setattr(oracle, "_newton", newton)
        for (mdp, dd, alpha, cap), is_feasible in hard_family(0):
            if not is_feasible:
                with pytest.raises(FlowInfeasibleError):
                    solve_regularized(mdp, dd, Regularizer(), alpha, cap=cap)
        assert steps and max(steps) < 200

    def test_loose_tol_cannot_hide_an_empty_polytope(self, solver_log, monkeypatch):
        # a cap just below the counterexample's threshold 3 leaves the
        # polytope empty by 2.5e-7; Newton then meets a KKT tolerance of 1e-3,
        # but its pair fails the 1e-9 L1 gate, so the LP runs and names the state
        monkeypatch.setattr(oracle, "_KKT_TOL", 1e-3)
        bundle = build_counterexample(0.5)
        with pytest.raises(FlowInfeasibleError) as err:
            solve_regularized(
                bundle.mdp, bundle.data_occupancy, Regularizer(), 0.1, cap=3.0 * (1 - 1e-6)
            )
        assert err.value.state == bundle.C and solver_log == ["lp"]


class TestSolveUnregularized:
    def test_counterexample_values_and_ties(self):
        bundle = build_counterexample(0.5, instance=2)
        v, pi, d = solve_unregularized(bundle.mdp)
        np.testing.assert_allclose(v, [0.5, 1.0, 1.0, 0.0], atol=1e-12)
        # both actions at B are optimal; the tie goes to the lowest index
        assert pi.probs[bundle.B, 0] == 1.0
        # instance 2 rewards the right action at C
        assert pi.probs[bundle.C, 1] == 1.0
        assert d.mass[bundle.A, bundle.LEFT] == pytest.approx(0.5, abs=1e-12)

    def test_bellman_certificate(self):
        mdps = [random_mdp(6, 3, 0.9, seed=seed) for seed in (0, 4, 9)]
        mdps += [random_mdp(8, 3, 0.999, seed=seed) for seed in (0, 4, 9)]
        mdps += [sparse_random_mdp(seed, 9, 3, 0.95) for seed in range(6)]
        for mdp in mdps:
            v, pi, _ = solve_unregularized(mdp)
            e = residual_ev(mdp, v)
            assert e.max() <= 1e-10
            np.testing.assert_allclose(e.max(axis=1), 0.0, atol=1e-10)
            assert np.abs(v).max() <= 1.0 / (1.0 - mdp.gamma) + 1e-12

    @given(mdp=small_mdps)
    def test_matches_best_deterministic_return(self, mdp):
        actions, marginals = deterministic_policy_marginals(mdp)
        returns = (marginals * mdp.reward[np.arange(mdp.num_states), actions]).sum(axis=1)
        j_star = policy_return(mdp, solve_unregularized(mdp).pi_star)
        assert j_star == pytest.approx(returns.max(), rel=1e-12, abs=1e-12)

    def test_beats_random_policies(self):
        mdp = random_mdp(5, 3, 0.85, seed=2)
        _, pi, _ = solve_unregularized(mdp)
        j_star = policy_return(mdp, pi)
        rng = np.random.default_rng(0)
        for _ in range(20):
            probs = rng.dirichlet(np.ones(3), size=5)
            assert policy_return(mdp, Policy(probs)) <= j_star + 1e-10


class TestStrongConcentrability:
    def test_mixing_mdp_holds(self):
        mdp = build_mixing_mdp(4, 2, 0.8, seed=1, mixing=0.6)
        dd = uniform_behavior(mdp)
        d0 = solve_unregularized(mdp).d_star
        res = strong_concentrability_check(mdp, dd, d0.state_marginal)
        assert res.holds
        assert res.b_wu >= 1.0 and 0.0 < res.b_wl <= 1.0 + 1e-12

    @given(mdp=small_mdps)
    def test_upper_bound_covers_every_deterministic_policy(self, mdp):
        dd = uniform_behavior(mdp)
        res = strong_concentrability_check(mdp, dd, dd.sum(axis=1))
        _, marginals = deterministic_policy_marginals(mdp)
        worst = (marginals / dd.sum(axis=1)).max()
        assert res.b_wu == pytest.approx(worst, rel=1e-12)

    def test_zero_coverage_state_fails(self):
        bundle = build_counterexample(0.5)
        d0 = solve_unregularized(bundle.mdp).d_star
        res = strong_concentrability_check(bundle.mdp, bundle.data_occupancy, d0.state_marginal)
        assert not res.holds

    def test_beyond_enumeration_size(self):
        # 3^14 = 4.8M deterministic policies: the check must neither enumerate
        # them nor sample, and must dominate every policy it could have sampled
        mdp = build_mixing_mdp(14, 3, 0.9, seed=3)
        dd = uniform_behavior(mdp)
        d0 = solve_unregularized(mdp).d_star
        tracemalloc.start()
        res = strong_concentrability_check(mdp, dd, d0.state_marginal)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1_000_000
        assert np.isfinite(res.b_wu) and res.holds
        dd_state = dd.sum(axis=1)
        rng = np.random.default_rng(5)
        for acts in rng.integers(0, 3, size=(50, 14)):
            marginal = exact_occupancy(mdp, deterministic_policy(acts, 3)).state_marginal
            assert (marginal / dd_state).max() <= res.b_wu + 1e-12


class TestNonFiniteInputs:
    @pytest.mark.parametrize("alpha", [np.inf, np.nan])
    def test_alpha_is_rejected_by_name(self, no_solver, alpha):
        mdp, dd, _ = rate_unregularized_instance()
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            solve_regularized(mdp, dd, Regularizer(), alpha)

    @pytest.mark.parametrize("cap", [np.inf, np.nan, 0.0])
    def test_cap_is_rejected_by_name(self, no_solver, cap):
        bundle = build_counterexample(0.5)
        mdp, dd = bundle.mdp, bundle.data_occupancy
        with pytest.raises(ValueError, match="cap must be positive and finite"):
            solve_regularized(mdp, dd, Regularizer(), 0.1, cap=cap)
        with pytest.raises(ValueError, match="cap must be positive and finite"):
            capped_unregularized_value(mdp, dd, cap)


# every reader of a data distribution d^D, called on an MDP and a d^D
DD_READERS = {
    "solve_regularized": lambda mdp, dd: solve_regularized(mdp, dd, Regularizer(), 0.1),
    "capped_unregularized_value": lambda mdp, dd: capped_unregularized_value(mdp, dd, 2.0),
    "min_f_divergence_weight": lambda mdp, dd: min_f_divergence_weight(mdp, dd, Regularizer()),
    "strong_concentrability_check": lambda mdp, dd: strong_concentrability_check(
        mdp, dd, np.full(mdp.num_states, 1.0 / mdp.num_states)),
    "law_counts": lambda mdp, dd: law_counts(mdp, dd, 10, 2),
    "DatasetSampler": DatasetSampler,
    "approximation_errors": lambda mdp, dd: approximation_errors(
        mdp, dd, np.zeros(4), np.ones((4, 3)), [np.zeros(4)], [np.ones((4, 3))]),
    "weighted_l2": lambda mdp, dd: weighted_l2(np.ones((4, 3)), np.zeros((4, 3)), dd),
}


@pytest.mark.parametrize("reader", DD_READERS)
@pytest.mark.parametrize("shape", [(4, 2), (3, 3)], ids=["one_action_short", "one_state_short"])
def test_mis_shaped_data_dist_is_rejected(reader, shape):
    # a uniform d^D sums to 1 and is nonnegative: only its shape is wrong
    mdp = random_mdp(4, 3, 0.8, seed=1)
    with pytest.raises(ValueError, match="data distribution shape"):
        DD_READERS[reader](mdp, np.full(shape, 1.0 / np.prod(shape)))


class TestStabilitySweep:
    def test_bandit_face_selection(self, monkeypatch, tmp_path):
        # two equally good actions: the whole sweep sits at the symmetric
        # minimum-divergence optimum, so every alpha shares the same w; the
        # lp_stability suite runs on this bandit in place of its fixture
        mdp = bandit_mdp(reward=[[0.7, 0.7]])
        dd = np.array([[0.25, 0.75]])
        monkeypatch.setattr(suites, "stability_fixture",
                            lambda: {"mdp": mdp, "dd": dd, "reg": Regularizer()})
        summary = run_experiment_suite("lp_stability", str(tmp_path), alpha_grid=[0.2, 0.1, 0.05])
        assert summary["constant_prefix_len"] == 3
        w_min, j_star = min_f_divergence_weight(mdp, dd, Regularizer())
        assert j_star == pytest.approx(0.7 * 1.0, abs=1e-9)
        assert summary["min_divergence_value"] == j_star
        # the suite's limit weight, that of the smallest alpha, against w_min
        assert summary["limit_matches_min_divergence_err"] <= 1e-6


class TestMinFDivergence:
    def test_unique_optimum_recovered(self):
        # distinct rewards: the optimal face is a single point
        mdp = bandit_mdp(reward=[[0.9, 0.1]])
        dd = np.array([[0.5, 0.5]])
        w, j_star = min_f_divergence_weight(mdp, dd, Regularizer())
        assert j_star == pytest.approx(0.9, abs=1e-9)
        np.testing.assert_allclose(w, [[2.0, 0.0]], atol=1e-7)

    def test_beats_the_greedy_optimum_on_its_face(self):
        # action 2 duplicates action 0, so the optimal face holds more than
        # the greedy policy-iteration optimum, which never uses action 2
        reg = Regularizer()
        for seed in range(4):
            base = random_mdp(4, 2, 0.8, seed=seed)
            mdp = TabularMdp(
                4, 3, base.transition[:, [0, 1, 0]], base.reward[:, [0, 1, 0]], 0.8,
                base.init_dist,
            )
            dd = uniform_behavior(mdp)
            w, j_star = min_f_divergence_weight(mdp, dd, reg)
            unreg = solve_unregularized(mdp)
            assert j_star == pytest.approx(policy_return(mdp, unreg.pi_star), abs=1e-9)
            assert f_divergence(reg, w * dd, dd) <= f_divergence(reg, unreg.d_star, dd) + 1e-9

    def test_unverified_iterate_raises(self, monkeypatch):
        # the face QP's point is returned only with HiGHS's optimal status
        monkeypatch.setattr(oracle, "_highs_qp", failed_highs_qp)
        fx = stability_fixture()
        with pytest.raises(SolverConvergenceError, match="HiGHS status kSolveError"):
            min_f_divergence_weight(fx["mdp"], fx["dd"], fx["reg"])

    def test_hard_draws_reach_the_face(self):
        reg = Regularizer()
        for k in range(60):
            mdp, dd, _, _ = hard_instance(np.random.default_rng(k))
            w, j_star = min_f_divergence_weight(mdp, dd, reg)
            j_lp, d_lp = covered_lp_optimum(mdp, dd)
            d = w * dd
            assert max(flow_residual(mdp, d), abs(float((mdp.reward * d).sum()) - j_star)) <= 1e-8
            assert j_star == pytest.approx(j_lp, abs=1e-9)
            assert f_divergence(reg, d, dd) <= f_divergence(reg, d_lp, dd) + 1e-9

    def test_symmetric_face_picks_data_proportions(self):
        mdp = bandit_mdp(reward=[[0.4, 0.4]])
        dd = np.array([[0.5, 0.5]])
        w, _ = min_f_divergence_weight(mdp, dd, Regularizer())
        np.testing.assert_allclose(w, [[1.0, 1.0]], atol=1e-7)


class TestCappedValue:
    def test_counterexample_values(self):
        bundle = build_counterexample(0.5)
        j_wide, d = capped_unregularized_value(bundle.mdp, bundle.data_occupancy, cap=6.0)
        assert j_wide == pytest.approx(0.25, abs=1e-9)  # gamma (1 - gamma)
        assert flow_residual(bundle.mdp, d) < 1e-8
        # routing any mass right strands it at the uncovered state, so state A
        # needs weight 3 on the left cell; below that the polytope is empty
        j_at_three, _ = capped_unregularized_value(bundle.mdp, bundle.data_occupancy, cap=3.0)
        assert j_at_three == pytest.approx(j_wide, abs=1e-8)
        with pytest.raises(FlowInfeasibleError):
            capped_unregularized_value(bundle.mdp, bundle.data_occupancy, cap=1.5)

    def test_cap_binds_monotonically(self):
        mdp = random_mdp(4, 2, 0.85, seed=8)
        dd = uniform_behavior(mdp)
        vals = [capped_unregularized_value(mdp, dd, cap)[0] for cap in (1.0, 2.0, 8.0)]
        assert vals[0] <= vals[1] + 1e-12 <= vals[2] + 2e-12
