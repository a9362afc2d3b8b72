"""Exact solutions of the regularized occupancy problem, plus diagnostics.

The regularized problem (for a data distribution d^D with support cells c):

    max_d  r.d - alpha * sum_c d^D_c f(d_c / d^D_c)
    s.t.   flow constraints  B^T d = (1-gamma) mu0,   0 <= d_c <= cap * d^D_c

two independent solution paths are provided:

  "saddle"  damped semismooth Newton on the dual, started from the data's own
            occupancy: the d^D-weighted least-squares v with w = 1. The
            weight is always the clipped stationarity form of the dual
            variable, so the returned pair is machine-accurate on both the
            flow constraints and the stationarity conditions. When Newton
            stalls above the KKT tolerance, the "qp" path solves the same
            support instead, and the solution records which path produced it.

  "qp"      the primal quadratic program by HiGHS's QP solver, with an
            active-set polish of its point; shares no iteration logic with
            Newton, so method="qp" is the independent cross-check of the
            default path.

Certificate first, feasibility check on failure: a Newton pair that meets
the KKT tolerance and violates the flow constraints by at most 1e-9 in L1
already shows the covered flow polytope is non-empty, since it is a point of
the phase-1 LP with objective below that LP's 1e-9 emptiness threshold, so
it is returned without the LP. In every other case (a Newton stall, a
certified pair above the 1e-9 gate, or method="qp") the phase-1 LP runs
once, before the QP, and raises FlowInfeasibleError naming the most violated
state when the polytope is empty. The LP-based functions below solve their
own LP first and run the phase-1 LP only when that LP returns no such point.
On an empty polytope Newton stops early, at a dual floor. When no path
reaches the tolerance, SolverConvergenceError names every path tried with its
residual.

The unregularized optimum and the coverage bound B_wu share one routine,
Howard policy iteration batched over reward tables.

scipy's HiGHS (``linprog`` and the private ``_highspy._core``) is imported by
the functions that call it, so a run that never needs an LP or a QP never
loads ``scipy.optimize``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .mdp import Occupancy, Policy, TabularMdp, data_dist_mass, exact_occupancy
from .regularizers import Regularizer

_KKT_TOL = 1e-8  # joint KKT residual a returned solution must meet
_NEWTON_TOL = 1e-12 * 0.1  # |Phi| Newton aims for, so a met certificate is machine-accurate
_NEWTON_MAX_STEPS = 200
_PHASE1_TOL = 1e-9  # phase-1 objective (L1 flow violation) above which the polytope is empty
_MAX_SWEEPS = 1000  # random MDPs up to 14 states and gamma 0.999 settle within 6 sweeps
# Newton steps in a row without a new lowest |Phi| before it hands over to the qp path:
# solved oracle_stream pool instances go at most 6 such steps, and on the low-alpha
# stress draws where Newton stalls the exit fires after 32 to 140 steps, not 200
_STALL_STEPS = 30
_POLISH_BAND = 1e-7  # a QP point within this of a box bound is polished as active there


class FlowInfeasibleError(ValueError):
    """The flow polytope restricted to the data support is empty."""

    def __init__(self, state: int, violation: float):
        self.state = state
        self.violation = violation
        super().__init__(
            f"no occupancy supported on the data distribution satisfies the flow "
            f"constraints; worst violation {violation:.3e} at state {state}"
        )


class SolverConvergenceError(RuntimeError):
    pass


@dataclass(frozen=True, eq=False)
class _Support:
    """The covered flow polytope B^T d = (1-gamma) mu0, 0 <= d <= cap d^D, on d^D's cells."""

    states: np.ndarray  # (m,) cell states
    actions: np.ndarray  # (m,) cell actions
    weights: np.ndarray  # (m,) d^D mass per cell
    b_mat: np.ndarray  # (m, S): row_c = 1_{s_c} - gamma P(s_c, a_c, .)
    rewards: np.ndarray  # (m,)
    cap: float  # weight bound B_w: the given cap, or the wide box 10 / min d^D
    upper: np.ndarray  # (m,) cap * d^D, the box on d
    flow_rhs: np.ndarray  # (S,) (1-gamma) mu0
    num_states: int
    num_actions: int

    @property
    def num_cells(self) -> int:
        return self.states.shape[0]

    def expand(self, cell_values: np.ndarray) -> np.ndarray:
        """Scatter per-cell values back to a dense (S, A) matrix."""
        out = np.zeros((self.num_states, self.num_actions))
        out[self.states, self.actions] = cell_values
        return out


def _build_support(mdp: TabularMdp, data_dist, cap: Optional[float] = None) -> _Support:
    """The covered flow polytope of a checked d^D; with no cap, the box is the wide 10 / min d^D."""
    if cap is not None and not 0.0 < cap < np.inf:
        raise ValueError(f"cap must be positive and finite when given, got {cap}")
    data_mass = data_dist_mass(mdp, data_dist)
    states, actions = np.nonzero(data_mass > 0.0)
    weights = data_mass[states, actions]
    cap = cap if cap is not None else 10.0 / weights.min()
    b_mat = np.zeros((states.shape[0], mdp.num_states))
    b_mat[np.arange(states.shape[0]), states] = 1.0
    b_mat -= mdp.gamma * mdp.transition[states, actions]
    return _Support(
        states=states,
        actions=actions,
        weights=weights,
        b_mat=b_mat,
        rewards=mdp.reward[states, actions],
        cap=cap,
        upper=cap * weights,
        flow_rhs=(1.0 - mdp.gamma) * mdp.init_dist,
        num_states=mdp.num_states,
        num_actions=mdp.num_actions,
    )


@dataclass(frozen=True, eq=False)
class RegularizedSolution:
    """Saddle point of the regularized problem with its optimality certificate."""

    v_star: np.ndarray
    w_star: np.ndarray
    d_star: Occupancy
    pi_star: Policy
    alpha: float
    kkt_residual: float
    cap: Optional[float]
    method: str
    iterations: int


class UnregularizedSolution(NamedTuple):
    v_star: np.ndarray
    pi_star: Policy
    d_star: Occupancy


@dataclass(frozen=True)
class StrongConcentrability:
    b_wu: float
    b_wl: float
    holds: bool


def _check_flow_feasible(sup: _Support) -> None:
    """Phase-1 linear program; raises FlowInfeasibleError when empty."""
    from scipy.optimize import linprog

    m, s = sup.num_cells, sup.num_states
    # variables: [d (m), slack+ (S), slack- (S)]
    c = np.concatenate([np.zeros(m), np.ones(2 * s)])
    a_eq = np.hstack([sup.b_mat.T, np.eye(s), -np.eye(s)])
    bounds = [(0.0, float(u)) for u in sup.upper] + [(0.0, None)] * (2 * s)
    res = linprog(c, A_eq=a_eq, b_eq=sup.flow_rhs, bounds=bounds, method="highs")
    if not res.success:
        raise SolverConvergenceError(f"phase-1 feasibility LP failed: {res.message}")
    if res.fun > _PHASE1_TOL:
        slack = res.x[m : m + s] + res.x[m + s :]
        state = int(np.argmax(slack))
        raise FlowInfeasibleError(state, float(slack[state]))


def _certifies_feasible(sup: _Support, d_cells: np.ndarray) -> bool:
    """True when d_cells, inside the LP's box, violates the flow constraints by <= 1e-9 in L1.

    Such a point has phase-1 objective <= _PHASE1_TOL, so _check_flow_feasible
    could not raise on its polytope and need not run.
    """
    flow = sup.b_mat.T @ d_cells - sup.flow_rhs
    return float(np.abs(flow).sum()) <= _PHASE1_TOL


def _clip_form(reg: Regularizer, alpha: float, e: np.ndarray, cap_eff: float) -> np.ndarray:
    """w(e) = clip((f')^{-1}(e / alpha), 0, cap_eff) by min/max, which skip np.clip's Python
    wrapper and give its bits, except +0.0 where np.clip keeps a -0.0 input."""
    return np.minimum(np.maximum(reg.deriv_inverse(e / alpha), 0.0), cap_eff)


def _kkt_residuals(sup: _Support, reg: Regularizer, alpha: float, v, w_cells) -> tuple[float, float]:
    """(clip-form deviation, flow violation) for a candidate pair."""
    e = sup.rewards - sup.b_mat @ v
    w_form = _clip_form(reg, alpha, e, sup.cap)
    clip_dev = float(np.abs(w_cells - w_form).max()) if sup.num_cells else 0.0
    flow = sup.b_mat.T @ (sup.weights * w_cells) - sup.flow_rhs
    return clip_dev, float(np.abs(flow).max())


def _newton(sup, reg, alpha):
    """Damped semismooth Newton on the dual, started from the data's own occupancy.

    The dual g(v) = (1-gamma) mu0.v + sum_c d^D_c max_{0<=w<=cap} (e_c w - alpha f(w)),
    e = r - B v, is convex with the piecewise-linear gradient -Phi(v), where
    Phi(v) = B^T(d^D w(v)) - (1-gamma) mu0.

    The start is the v at which w = 1, the primal d = d^D, is stationary in the
    d^D-weighted least-squares sense: (B^T D B) v = B^T D (r - alpha f'(1)), a
    Bellman equation on the behavior data (LSTD, Bradtke & Barto 1996). A
    covered cell at every state makes B^T D B nonsingular; where it is singular
    (a state that no covered cell reaches) the start is v = 0. From v = 0 a
    low-alpha instance has every covered cell at a bound, where H is zero and
    the first steps are ridge-only.

    Each step solves (H + ridge |Phi| I) s = Phi, with H the generalized Hessian over the
    interior cells and the ridge added on its diagonal; the ridge keeps the
    system definite where H is singular and vanishes at the solution. The
    ridge factor shrinks after a full step and grows after a shortened one
    (Levenberg-Marquardt), so long linear stretches of g take few steps. The
    step is halved until g falls by more than rounding and enough (Armijo) or,
    with g flat to rounding, until |Phi| falls; g never rises, so the
    iteration cannot cycle, and Phi is formed only where g did not rise. Stops
    at |Phi| <= ``_NEWTON_TOL``, when no step length improves (the residual stopped
    improving), after ``_STALL_STEPS`` steps in a row that find no |Phi| below
    the lowest so far, after ``_NEWTON_MAX_STEPS`` steps, or when g falls below min(r) - alpha
    f(cap): a point d of the polytope has sum(d) = 1 and d <= cap d^D, and f
    increases on [0, cap], so weak duality puts g above that on a non-empty one.
    """
    b_mat, b_t, weights, rewards = sup.b_mat, sup.b_mat.T, sup.weights, sup.rewards
    mu_term, cap_eff = sup.flow_rhs, sup.cap
    scale = alpha * reg.m_f

    def at(v):
        e = rewards - b_mat @ v
        w = _clip_form(reg, alpha, e, cap_eff)
        return e, w, float(mu_term @ v + weights @ (e * w - alpha * reg.eval(w)))

    floor = rewards.min() - alpha * reg.eval(cap_eff)
    try:  # the d^D-weighted Bellman solution at w = 1, where e = alpha f'(1) = scale
        v = np.linalg.solve((b_t * weights) @ b_mat, b_t @ (weights * (rewards - scale)))
    except np.linalg.LinAlgError:  # a state that no covered cell reaches
        v = np.zeros(sup.num_states)
    e, w, g = at(v)
    phi = b_t @ (weights * w) - mu_term
    norm = float(np.abs(phi).max())
    ridge = 1.0
    iterations = stalled = 0
    best = norm
    while (norm > _NEWTON_TOL and iterations < _NEWTON_MAX_STEPS and stalled < _STALL_STEPS
           and g >= floor - 1e-9 * (1.0 + abs(floor))):
        iterations += 1
        interior = (e > 0.0) & (e < scale * cap_eff)
        hess = (b_t * (weights * interior)) @ b_mat / scale
        hess.ravel()[:: sup.num_states + 1] += ridge * norm
        try:
            step = np.linalg.solve(hess, phi)
        except np.linalg.LinAlgError:
            break
        slope = float(-phi @ step)
        roundoff = 1e-12 * (1.0 + abs(g))
        t = 1.0
        for _ in range(40):
            v_try = v + t * step
            e_try, w_try, g_try = at(v_try)
            if g_try <= g + roundoff:
                phi_try = b_t @ (weights * w_try) - mu_term
                norm_try = float(np.abs(phi_try).max())
                if (g_try < g - roundoff and g_try <= g + 1e-4 * t * slope
                        or norm_try < norm * (1.0 - 1e-4 * t)):
                    break
            t *= 0.5
        else:
            break  # the residual stopped improving along this direction
        ridge = max(ridge / 4.0, 1e-8) if t == 1.0 else min(ridge * 4.0, 1e8)
        v, e, w, g, phi, norm = v_try, e_try, w_try, g_try, phi_try, norm_try
        best, stalled = (norm, 0) if norm < best else (best, stalled + 1)
    return v, w, iterations


def _highs_qp(q_diag, lin, a_mat, b_vec, upper):
    """min 1/2 x^T diag(q) x - lin^T x  s.t.  a_mat x = b_vec, 0 <= x <= upper, by HiGHS.

    Returns (x clipped to the box, multipliers nu with q x - lin + a_mat^T nu
    = 0 on the free variables, model status, QP iterations).
    """
    from scipy.optimize._highspy import _core as highspy

    s, m = a_mat.shape
    model = highspy.HighsModel()
    lp = model.lp_
    lp.num_col_, lp.num_row_ = m, s
    lp.col_cost_ = -lin
    lp.col_lower_ = np.zeros(m)
    lp.col_upper_ = upper
    lp.row_lower_ = lp.row_upper_ = b_vec
    cols = lp.a_matrix_  # the dense a_mat, column by column
    cols.format_ = highspy.MatrixFormat.kColwise
    cols.num_col_, cols.num_row_ = m, s
    cols.start_ = np.arange(0, m * s + 1, s)
    cols.index_ = np.tile(np.arange(s), m)
    cols.value_ = a_mat.T.ravel()
    hess = model.hessian_
    hess.dim_ = m  # diagonal, so already in HiGHS's default triangular format
    hess.start_ = np.arange(m + 1)
    hess.index_ = np.arange(m)
    hess.value_ = q_diag
    solver = highspy._Highs()
    solver.setOptionValue("output_flag", False)
    solver.setOptionValue("primal_feasibility_tolerance", 1e-10)
    solver.setOptionValue("dual_feasibility_tolerance", 1e-10)
    solver.passModel(model)
    solver.run()
    sol = solver.getSolution()
    x = np.clip(np.asarray(sol.col_value), 0.0, upper)
    iterations = solver.getInfo().qp_iteration_count
    return x, -np.asarray(sol.row_dual), solver.getModelStatus(), iterations


def _active_set_polish(q_diag, lin, a_mat, b_vec, upper, x):
    """Re-solve the equality-constrained QP with the near-active box rows fixed.

    Returns (x_polished, nu) or None when the guessed active set turns out to
    be inconsistent (wrong signs or out-of-bound free variables).
    """
    m = q_diag.shape[0]
    s = a_mat.shape[0]
    at_lo = x <= _POLISH_BAND
    at_hi = np.isfinite(upper) & (x >= upper - _POLISH_BAND)
    free = ~(at_lo | at_hi)
    x_fix = np.where(at_hi, upper, 0.0)
    n_free = int(free.sum())
    kkt = np.zeros((n_free + s, n_free + s))
    kkt[:n_free, :n_free] = np.diag(q_diag[free])
    kkt[:n_free, n_free:] = a_mat[:, free].T
    kkt[n_free:, :n_free] = a_mat[:, free]
    rhs = np.concatenate([lin[free], b_vec - a_mat[:, ~free] @ x_fix[~free]])
    sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    x_new = x_fix.copy()
    x_new[free] = sol[:n_free]
    nu = sol[n_free:]
    # verify the guess: free vars inside the box, fixed vars with valid signs
    if n_free and (x_new[free].min() < -1e-8 or np.any(x_new[free] > upper[free] + 1e-8)):
        return None
    grad = q_diag * x_new - lin + a_mat.T @ nu
    if np.any(grad[at_lo] < -1e-7) or np.any(grad[at_hi] > 1e-7):
        return None
    resid = np.abs(a_mat @ x_new - b_vec).max() if s else 0.0
    if resid > 1e-8:
        return None
    return np.clip(x_new, 0.0, upper), nu


def _qp_path(sup, reg, alpha):
    """The primal QP in d by HiGHS, then an active-set polish of its point.

    HiGHS alone leaves KKT residuals of 1e-8 to 1e-5. Its status is ignored:
    the caller gates on the KKT residual.
    """
    q_diag = alpha * reg.m_f / sup.weights
    qp_args = (q_diag, sup.rewards, sup.b_mat.T, sup.flow_rhs, sup.upper)
    x, nu, _, iterations = _highs_qp(*qp_args)
    polished = _active_set_polish(*qp_args, x)
    d_cells, v = polished if polished is not None else (x, nu)
    return v, d_cells / sup.weights, iterations


def solve_regularized(
    mdp: TabularMdp,
    data_dist,
    reg: Regularizer,
    alpha: float,
    cap: Optional[float] = None,
    method: str = "saddle",
) -> RegularizedSolution:
    """Solve the alpha-regularized occupancy problem over the data support.

    Parameters
    ----------
    cap : explicit weight bound B_w, or None for the uncapped problem (a wide
        box ten times the largest feasible ratio is used internally and must
        be inactive at the solution).
    method : "saddle" (default): damped Newton on the dual from the
        d^D-weighted least-squares v (see ``_newton``), and
        the "qp" path on the same support when Newton stalls above the KKT
        tolerance. "qp": the primal QP by HiGHS with an active-set polish
        only; it shares no iteration logic with Newton and serves as the
        independent cross-check.

    A returned pair meets ``_KKT_TOL`` = 1e-8 on the joint KKT residual
    (clip-form deviation and flow violation); the certificate is usually far
    tighter. The solution's ``method`` is the path that produced it ("saddle"
    or "qp"; a "saddle" request that fell back reads "qp") and ``iterations``
    counts the iterations of every path tried. Raises SolverConvergenceError
    naming each path and its residual when none reaches the tolerance.

    Certificate first: a Newton pair that meets the tolerance and whose flow
    violation is at most 1e-9 in L1 proves the covered flow polytope
    non-empty and is returned without the phase-1 LP. Otherwise the LP runs
    once, before the "qp" path (always, for method="qp"), and raises
    FlowInfeasibleError naming the most violated state when the polytope is
    empty. An infeasible input thus pays for Newton, which ends early on an
    empty polytope, before the error.
    """
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}; use solve_unregularized")
    if method not in ("saddle", "qp"):
        raise ValueError(f"unknown method {method!r}, expected 'saddle' or 'qp'")
    sup = _build_support(mdp, data_dist, cap)

    iterations = 0
    stalls = []
    for path in ("saddle", "qp") if method == "saddle" else ("qp",):
        if path == "saddle":
            v, w_cells, its = _newton(sup, reg, alpha)
        else:
            # on an empty polytope the LP, not the QP, can name the violated state
            _check_flow_feasible(sup)
            v, w_cells, its = _qp_path(sup, reg, alpha)
        iterations += its
        kkt = max(_kkt_residuals(sup, reg, alpha, v, w_cells))
        if kkt <= _KKT_TOL:
            # Newton's w lies in [0, cap], so d^D w is a point of the LP's box
            if path == "saddle" and not _certifies_feasible(sup, sup.weights * w_cells):
                _check_flow_feasible(sup)
            break
        stalls.append(f"{path} path stalled at KKT residual {kkt:.3e} after {its} iterations")
    else:
        raise SolverConvergenceError("; ".join(stalls) + f" (tol {_KKT_TOL:.1e})")
    if cap is None and w_cells.max() > 0.999 * sup.cap:
        raise SolverConvergenceError(
            "solution pressed against the internal feasibility box; the uncapped "
            "problem looks degenerate"
        )

    d_star = Occupancy(np.maximum(sup.expand(sup.weights * w_cells), 0.0))
    return RegularizedSolution(
        v_star=v,
        w_star=sup.expand(w_cells),
        d_star=d_star,
        pi_star=d_star.conditional_policy(),
        alpha=alpha,
        kkt_residual=kkt,
        cap=cap,
        method=path,
        iterations=iterations,
    )


def _policy_iteration(mdp: TabularMdp, rewards: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal values on one MDP for K reward tables (K, S, A), by Howard policy iteration.

    Each sweep evaluates the K current policies exactly with one batched
    linear solve, then switches an action only where its Q-value beats the
    current action's by more than 1e-12 (1 + |q|), so rounding cannot make
    the policies cycle. Starts from the greedy policy of the immediate reward.
    Returns (v, q) of shapes (K, S) and (K, S, A) for the final policies.
    Raises SolverConvergenceError after _MAX_SWEEPS sweeps.
    """
    states = np.arange(mdp.num_states)
    eye = np.eye(mdp.num_states)
    policy = rewards.argmax(axis=2)  # (K, S)
    for _ in range(_MAX_SWEEPS):
        lhs = eye - mdp.gamma * mdp.transition[states, policy]  # (K, S, S)
        r_pi = np.take_along_axis(rewards, policy[..., None], axis=2)  # (K, S, 1)
        v = np.linalg.solve(lhs, r_pi)[..., 0]
        q = rewards + mdp.gamma * np.einsum("sat,kt->ksa", mdp.transition, v)
        q_pi = np.take_along_axis(q, policy[..., None], axis=2)[..., 0]
        switch = q.max(axis=2) - q_pi > 1e-12 * (1.0 + np.abs(q_pi))
        if not switch.any():
            return v, q
        policy = np.where(switch, q.argmax(axis=2), policy)
    raise SolverConvergenceError(f"policy iteration did not settle in {_MAX_SWEEPS} sweeps")


def solve_unregularized(mdp: TabularMdp) -> UnregularizedSolution:
    """Optimal value function by policy iteration, greedy policy, its occupancy.

    Greedy ties go to the lowest action index.
    """
    v, q = _policy_iteration(mdp, mdp.reward[None])
    greedy = q[0].argmax(axis=1)  # argmax returns the first (lowest) maximizer
    probs = np.zeros((mdp.num_states, mdp.num_actions))
    probs[np.arange(mdp.num_states), greedy] = 1.0
    pi = Policy(probs)
    return UnregularizedSolution(v_star=v[0], pi_star=pi, d_star=exact_occupancy(mdp, pi))


def strong_concentrability_check(mdp: TabularMdp, data_dist, d0_state) -> StrongConcentrability:
    """Two-sided state-marginal ratio bounds against the data distribution.

    B_wu bounds d^pi(s) / d^D(s) over all policies. The largest d^pi(s) is
    (1-gamma) times the optimal mu0-value under the reward 1{x = s}, so one
    batched policy iteration over the S indicator rewards gives B_wu exactly
    (Puterman 1994). B_wl is the realized lower ratio of the target
    occupancy's state marginal d0_state.
    """
    dd_state = data_dist_mass(mdp, data_dist).sum(axis=1)
    if np.any(dd_state <= 0.0):
        return StrongConcentrability(b_wu=float("inf"), b_wl=0.0, holds=False)
    s, a = mdp.num_states, mdp.num_actions
    indicators = np.broadcast_to(np.eye(s)[:, :, None], (s, s, a))  # [k, x, a] = 1{x = k}
    v, _ = _policy_iteration(mdp, indicators)
    best_marginals = (1.0 - mdp.gamma) * (v @ mdp.init_dist)
    b_wu = float((best_marginals / dd_state).max())
    b_wl = float((np.asarray(d0_state, dtype=float) / dd_state).min())
    return StrongConcentrability(b_wu=b_wu, b_wl=b_wl, holds=b_wl > 0.0)


def _support_lp(mdp: TabularMdp, data_dist, cap: Optional[float] = None):
    """max r.d over the covered flow polytope with 0 <= d <= cap d^D, by HiGHS.

    Without a cap the box is the wide 10 / min d^D. Returns (support, HiGHS
    result). The phase-1 LP runs only when this LP returns no point that
    certifies the polytope non-empty, so an empty polytope raises
    FlowInfeasibleError naming its most violated state; any other failure
    raises SolverConvergenceError.
    """
    from scipy.optimize import linprog

    sup = _build_support(mdp, data_dist, cap)
    res = linprog(
        -sup.rewards,
        A_eq=sup.b_mat.T,
        b_eq=sup.flow_rhs,
        bounds=[(0.0, float(u)) for u in sup.upper],
        method="highs",
    )
    if not (res.success and _certifies_feasible(sup, np.clip(res.x, 0.0, sup.upper))):
        _check_flow_feasible(sup)
    if not res.success:
        raise SolverConvergenceError(f"support-restricted LP failed: {res.message}")
    return sup, res


def min_f_divergence_weight(
    mdp: TabularMdp, data_dist, reg: Regularizer
) -> tuple[np.ndarray, float]:
    """The minimum-f-divergence weight among unregularized optima.

    Solves the unregularized LP restricted to the data support for its value,
    then minimizes E_dD[f(d/dD)] over the optimal face. Returns (w, J*).
    The face QP is solved by HiGHS. Raises FlowInfeasibleError when the
    covered flow polytope is empty, and SolverConvergenceError unless HiGHS
    reports an optimum within 1e-8 of the face.
    """
    from scipy.optimize._highspy import _core as highspy

    sup, res = _support_lp(mdp, data_dist)
    j_star = float(-res.fun)
    # optimal face: flow constraints plus the value equality
    a_mat = np.vstack([sup.b_mat.T, sup.rewards[None, :]])
    b_vec = np.concatenate([sup.flow_rhs, [j_star]])
    q_diag = reg.m_f / sup.weights
    d_cells, _, status, _ = _highs_qp(q_diag, np.zeros(sup.num_cells), a_mat, b_vec, sup.upper)
    resid = float(np.abs(a_mat @ d_cells - b_vec).max())
    if status != highspy.HighsModelStatus.kOptimal or resid > 1e-8:
        raise SolverConvergenceError(
            f"minimum-divergence QP unverified: HiGHS status {status.name} with "
            f"flow/value residual {resid:.3e} (needs kOptimal and <= 1.0e-08)"
        )
    return sup.expand(d_cells / sup.weights), j_star


def capped_unregularized_value(mdp: TabularMdp, data_dist, cap: float) -> tuple[float, np.ndarray]:
    """Value of the best occupancy with weights capped at B_w: J(pi*_{0, B_w}).

    Returns (value, occupancy mass). Raises FlowInfeasibleError when even the
    capped polytope is empty.
    """
    sup, res = _support_lp(mdp, data_dist, float(cap))  # None would mean uncapped
    return float(-res.fun), sup.expand(res.x)
