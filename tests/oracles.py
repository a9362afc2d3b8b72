"""Independent reference implementations used only by the tests.

Each routine here recomputes a quantity the package also computes, by a
different route (simulation, power iteration, grid search, brute-force
enumeration). Tests compare package output against these, so none of them may
import package internals beyond the plain data containers. The small helpers
at the end (a regularizer derivative, point-mass policies, policy values and
a validating value-class builder), the JSONL dataset reader, the column-to-count
converter and the column form of the exact-frequency dataset are only ever
called by tests. ``reference_newton`` is the one routine that takes the
package's own route: a frozen copy of its Newton loop, kept to pin the
iterates bit for bit.
"""

import json

import numpy as np

from prorl.classes import ValueClass
from prorl.datasets import CountedDataset, OfflineDataset
from prorl.mdp import Policy


def mc_occupancy(mdp, policy_probs, num_samples, seed, max_horizon=400):
    """Monte-Carlo estimate of the discounted occupancy, with per-cell SEs.

    Draws num_samples independent samples of (s_T, a_T) where T ~ Geom(1-gamma),
    which is exactly one draw from d^pi per sample. Returns (estimate, se)
    arrays of shape (S, A); se uses the binomial formula with a small floor so
    zero-count cells still get a positive band.
    """
    rng = np.random.default_rng(seed)
    s_dim, a_dim = mdp.reward.shape
    horizon = rng.geometric(1.0 - mdp.gamma, size=num_samples) - 1
    horizon = np.minimum(horizon, max_horizon)
    state = rng.choice(s_dim, size=num_samples, p=mdp.init_dist)
    trans_cum = np.cumsum(mdp.transition, axis=2)
    pol_cum = np.cumsum(policy_probs, axis=1)

    action = (rng.random(num_samples)[:, None] < pol_cum[state]).argmax(axis=1)
    for t in range(int(horizon.max())):
        alive = horizon > t
        if not alive.any():
            break
        u = rng.random(alive.sum())
        nxt = (u[:, None] < trans_cum[state[alive], action[alive]]).argmax(axis=1)
        state[alive] = nxt
        action[alive] = (
            rng.random(alive.sum())[:, None] < pol_cum[nxt]
        ).argmax(axis=1)

    counts = np.zeros((s_dim, a_dim))
    np.add.at(counts, (state, action), 1.0)
    est = counts / num_samples
    se = np.sqrt(np.maximum(est * (1.0 - est), 1e-12) / num_samples)
    return est, se


def power_iteration_values(mdp, policy_probs, tol=1e-13, max_iter=100000):
    """Policy evaluation by plain fixed-point iteration of the Bellman operator."""
    r_pi = np.einsum("sa,sa->s", policy_probs, mdp.reward)
    p_pi = np.einsum("sa,sat->st", policy_probs, mdp.transition)
    v = np.zeros(mdp.num_states)
    for _ in range(max_iter):
        v_next = r_pi + mdp.gamma * p_pi @ v
        if np.abs(v_next - v).max() <= tol:
            return v_next
        v = v_next
    raise RuntimeError("power iteration did not converge")


def brute_force_lagrangian(mdp, data_mass, m_f, alpha, v, w):
    """Population objective by explicit summation over every state-action pair.

    Quadratic regularizer f(x) = m_f/2 x^2. Cells without data
    mass contribute nothing (their w is treated as zero).
    """
    total = (1.0 - mdp.gamma) * float(np.dot(mdp.init_dist, v))
    for s in range(mdp.num_states):
        for a in range(mdp.num_actions):
            dd = data_mass[s, a]
            if dd <= 0.0:
                continue
            e = mdp.reward[s, a] - v[s]
            for sp in range(mdp.num_states):
                e += mdp.gamma * mdp.transition[s, a, sp] * v[sp]
            f_w = 0.5 * m_f * w[s, a] ** 2
            total += dd * (-alpha * f_w + w[s, a] * e)
    return total


def grid_sup_bounds(m_f, b_w, num_points=10000):
    """Sup of |f| and |f'| over [0, B_w] by dense grid evaluation."""
    xs = np.linspace(0.0, b_w, num_points)
    f_vals = 0.5 * m_f * xs**2
    fp_vals = m_f * xs
    return float(np.abs(f_vals).max()), float(np.abs(fp_vals).max())


def double_loop_saddle(l_matrix):
    """Max-min over a payoff matrix L[w_index, v_index] by explicit loops.

    Ties broken toward the lowest index on both levels, matching the
    documented solver behavior. Returns (w_index, v_index, value).
    """
    best_w, best_val = None, None
    inner = []
    for i in range(l_matrix.shape[0]):
        lo, lo_j = None, None
        for j in range(l_matrix.shape[1]):
            if lo is None or l_matrix[i, j] < lo:
                lo, lo_j = l_matrix[i, j], j
        inner.append((lo, lo_j))
        if best_val is None or lo > best_val:
            best_val, best_w = lo, i
    return best_w, inner[best_w][1], best_val


def deterministic_policy_marginals(mdp):
    """Every deterministic policy with its discounted state marginal, by direct solve.

    Returns (actions, marginals), both of shape (|A|^|S|, S): row k of
    actions is the action policy k takes in each state, row k of marginals
    its d^pi(s). Memory grows as |A|^|S| S^2, so keep |A|^|S| small.
    """
    s_dim, a_dim = mdp.reward.shape
    actions = np.indices((a_dim,) * s_dim).reshape(s_dim, -1).T
    p_pi = mdp.transition[np.arange(s_dim), actions]  # (K, S, S)
    lhs = np.eye(s_dim) - mdp.gamma * np.swapaxes(p_pi, 1, 2)
    rhs = np.broadcast_to((1.0 - mdp.gamma) * mdp.init_dist, actions.shape)
    return actions, np.linalg.solve(lhs, rhs[..., None])[..., 0]


class AbsoluteContinuityError(ValueError):
    """Raised when a candidate occupancy puts mass where the data has none."""

    def __init__(self, state, action, mass):
        self.state = state
        self.action = action
        self.mass = mass
        super().__init__(
            f"occupancy carries mass {mass:.3e} at state-action ({state}, {action}) "
            "where the data distribution is zero"
        )


def f_divergence(reg, d, data_mass):
    """E_{d^D}[ f(d / d^D) ] over the support of the data distribution.

    Raises AbsoluteContinuityError (naming the first offending pair) if d puts
    more than 1e-12 mass on a zero-data cell.
    """
    d = np.asarray(getattr(d, "mass", d), dtype=float)
    dd = np.asarray(getattr(data_mass, "mass", data_mass), dtype=float)
    off_support = (dd <= 0.0) & (np.abs(d) > 1e-12)
    if off_support.any():
        s, a = np.argwhere(off_support)[0]
        raise AbsoluteContinuityError(int(s), int(a), float(d[s, a]))
    pos = dd > 0.0
    return float(np.sum(dd[pos] * reg.eval(d[pos] / dd[pos])))


def _covered_lp(mdp, data_mass, cap, cost):
    """min cost.d over occupancies supported on the data within d <= cap * d^D.

    One HiGHS LP over all S*A cells (uncovered cells pinned to zero),
    independent of the package's LPs on the support.
    """
    from scipy.optimize import linprog

    s_dim, a_dim = mdp.reward.shape
    flow = np.kron(np.eye(s_dim), np.ones(a_dim)) - mdp.gamma * mdp.transition.reshape(
        s_dim * a_dim, s_dim
    ).T
    bounds = [
        (0.0, 0.0) if m <= 0.0 else (0.0, None if cap is None else cap * m)
        for m in np.asarray(data_mass).ravel()
    ]
    res = linprog(
        cost,
        A_eq=flow,
        b_eq=(1.0 - mdp.gamma) * mdp.init_dist,
        bounds=bounds,
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return res


def covered_flow_feasible(mdp, data_mass, cap=None):
    """Is some occupancy supported on the data within d <= cap * d^D?"""
    return _covered_lp(mdp, data_mass, cap, np.zeros(mdp.reward.size)).status == 0


def covered_lp_optimum(mdp, data_mass):
    """(J*, optimal vertex occupancy) of the unregularized LP over the data support."""
    res = _covered_lp(mdp, data_mass, None, -mdp.reward.ravel())
    assert res.status == 0, res.message
    return float(-res.fun), res.x.reshape(mdp.reward.shape)


def reference_newton(b_mat, weights, rewards, mu_term, reg, alpha, cap_eff, tol,
                     stall_steps, max_iter=200, v0=None):
    """A frozen copy of the oracle's damped Newton loop on the dual, on plain arrays.

    b_mat (m, S), weights (m,) and rewards (m,) are the covered cells' flow
    rows, d^D masses and rewards; mu_term is (1-gamma) mu0. The loop is the
    package's as first written (np.clip, a fresh identity per ridge, Phi at
    every trial point), so a test comparing the two pins every iterate bit for
    bit: any rounding change in the package's loop shows here by name rather
    than as digest drift. v0 = None takes the package's start, the
    d^D-weighted least-squares solution of B v = r - alpha f'(1) (v = 0 where
    B^T D B is singular); any other v0 is the start itself. Returns (v, w,
    iterations).
    """
    scale = alpha * reg.m_f

    def at(v):
        e = rewards - b_mat @ v
        w = np.clip(reg.deriv_inverse(e / alpha), 0.0, cap_eff)
        g = mu_term @ v + weights @ (e * w - alpha * reg.eval(w))
        return e, w, g, b_mat.T @ (weights * w) - mu_term

    floor = rewards.min() - alpha * reg.eval(cap_eff)
    if v0 is not None:
        v = np.asarray(v0, dtype=float)
    else:
        try:
            v = np.linalg.solve((b_mat.T * weights) @ b_mat,
                                b_mat.T @ (weights * (rewards - scale)))
        except np.linalg.LinAlgError:
            v = np.zeros(b_mat.shape[1])
    e, w, g, phi = at(v)
    norm = np.abs(phi).max()
    ridge = 1.0
    iterations = stalled = 0
    best = norm
    while (norm > tol and iterations < max_iter and stalled < stall_steps
           and g >= floor - 1e-9 * (1.0 + abs(floor))):
        iterations += 1
        interior = (e > 0.0) & (e < scale * cap_eff)
        hess = (b_mat.T * (weights * interior)) @ b_mat / scale
        try:
            step = np.linalg.solve(hess + ridge * norm * np.eye(b_mat.shape[1]), phi)
        except np.linalg.LinAlgError:
            break
        slope = -phi @ step
        roundoff = 1e-12 * (1.0 + abs(g))
        t = 1.0
        for _ in range(40):
            v_try = v + t * step
            e_try, w_try, g_try, phi_try = at(v_try)
            norm_try = np.abs(phi_try).max()
            if g_try < g - roundoff and g_try <= g + 1e-4 * t * slope:
                break
            if g_try <= g + roundoff and norm_try < norm * (1.0 - 1e-4 * t):
                break
            t *= 0.5
        else:
            break  # the residual stopped improving along this direction
        ridge = max(ridge / 4.0, 1e-8) if t == 1.0 else min(ridge * 4.0, 1e8)
        v, e, w, g, phi, norm = v_try, e_try, w_try, g_try, phi_try, norm_try
        best, stalled = (norm, 0) if norm < best else (best, stalled + 1)
    return v, w, iterations


def population_lagrangian(mdp, data_dist, reg, alpha, v, w):
    """Exact L_alpha(v, w) under the data distribution."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    dd = np.asarray(getattr(data_dist, "mass", data_dist), dtype=float)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    e = mdp.reward + mdp.gamma * np.einsum("sat,t->sa", mdp.transition, v) - v[:, None]
    pos = dd > 0.0
    init_term = (1.0 - mdp.gamma) * float(mdp.init_dist @ v)
    data_term = float(np.sum(dd[pos] * (-alpha * reg.eval(w[pos]) + w[pos] * e[pos])))
    return init_term + data_term


def sampled_residuals(dataset, v):
    """Per-transition residuals r_i + gamma v(s'_i) - v(s_i)."""
    v = np.asarray(v, dtype=float)
    return dataset.rewards + dataset.gamma * v[dataset.next_states] - v[dataset.states]


def empirical_lagrangian(dataset, reg, alpha, v, w):
    """Sample estimate of L_alpha(v, w) from an offline dataset."""
    if alpha < 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if dataset.n == 0 or dataset.n0 == 0:
        raise ValueError(
            f"empirical objective needs transitions and initial states, "
            f"got n={dataset.n}, n0={dataset.n0}"
        )
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    w_i = w[dataset.states, dataset.actions]
    e_i = sampled_residuals(dataset, v)
    init_term = (1.0 - dataset.gamma) * float(np.mean(v[dataset.init_states]))
    data_term = float(np.mean(-alpha * reg.eval(w_i) + w_i * e_i))
    return init_term + data_term


def bc_objective(w_hat, data, policies, witnesses):
    """Cloning objective [policy, witness], averaged over the transitions one by one."""
    w_hat = np.asarray(w_hat, dtype=float)
    weights = w_hat[data.states, data.actions]  # (n,)
    h_stack = np.stack(witnesses)  # (H, S, A)
    h_at_sa = h_stack[:, data.states, data.actions]  # (H, n)
    out = np.empty((len(policies.members), len(witnesses)))
    for i, pi in enumerate(policies.members):
        h_pi = np.einsum("hsa,sa->hs", h_stack, pi.probs)  # (H, S)
        diffs = h_pi[:, data.states] - h_at_sa  # (H, n)
        out[i] = (diffs * weights[None, :]).mean(axis=1)
    return out


def column_slice(data, start, stop, keep_inits=True):
    """Transitions [start, stop) of a column dataset, with or without its initial states.

    The reference for the parts ``DatasetSampler.count`` cuts at n1 without columns.
    """
    cut = slice(start, stop)
    return OfflineDataset(data.states[cut], data.actions[cut], data.rewards[cut],
                          data.next_states[cut], data.init_states if keep_inits else [],
                          data.gamma)


def count_columns(data, num_states, num_actions):
    """A column dataset's counts N(s,a,s'), R(s,a), N0(s), by ordered bincount: what the
    estimator reads.

    Raises ValueError when a column lies outside [0, num_states) or [0,
    num_actions), where s * A + a would alias.
    """
    for name in ("states", "actions", "next_states", "init_states"):
        col, bound = getattr(data, name), num_actions if name == "actions" else num_states
        if col.size and (col.min() < 0 or col.max() >= bound):
            raise ValueError(f"{name} must lie in [0, {bound}), got {col.min()}..{col.max()}")
    shape, cells = (num_states, num_actions), data.states * num_actions + data.actions
    return CountedDataset(
        data.n, data.n0, data.gamma,
        np.bincount(cells * num_states + data.next_states,
                    minlength=num_states * num_states * num_actions).reshape(*shape, num_states),
        np.bincount(cells, weights=data.rewards, minlength=num_states * num_actions).reshape(shape),
        np.bincount(data.init_states, minlength=num_states))


def exact_frequency_columns(mdp, data_dist, repeats=1):
    """Columns, sorted by cell, whose law is the population's: cell (s, a) repeated
    k(s, a) = repeats * d^D(s, a) / min d^D times, then max(1, repeats) initial states.

    Such a finite sample exists only when every covered transition row and mu0
    are deterministic and d^D is commensurable; this assumes both.
    """
    dd = np.asarray(getattr(data_dist, "mass", data_dist), dtype=float)
    k = np.round(dd / dd[dd > 0.0].min()).astype(int).ravel() * repeats
    cells = np.repeat(np.arange(k.size), k)
    states, actions = np.divmod(cells, mdp.num_actions)
    next_states = mdp.transition.reshape(k.size, -1).argmax(axis=1)[cells]
    return OfflineDataset(states, actions, mdp.reward.ravel()[cells], next_states,
                          np.full(max(1, repeats), int(mdp.init_dist.argmax())), mdp.gamma)


def load_dataset(transitions_path, inits_path, gamma):
    """Read back the JSONL transitions and initial states ``OfflineDataset.save`` writes."""
    with open(transitions_path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    with open(inits_path) as fh:
        inits = [int(line) for line in fh if line.strip()]
    return OfflineDataset(
        states=[row["s"] for row in rows],
        actions=[row["a"] for row in rows],
        rewards=[row["r"] for row in rows],
        next_states=[row["sp"] for row in rows],
        init_states=inits,
        gamma=gamma,
    )


def searchsorted_dataset(mdp, data_mass, n, n0, seed):
    """(states, actions, next_states, init_states) by plain inverse-CDF search.

    Cells and initial states by ``np.searchsorted`` on the cumulative sums
    (last entry forced to 1.0), next states by comparing each draw against
    its whole cumulative transition row. It takes the same three draws from
    the same stream, in the same order, as ``DatasetSampler.draw``; the two
    differ only on a draw at or above a cumulative sum that rounds below 1
    (about 1e-16 of the mass), which this maps past the support.
    """
    rng = np.random.default_rng(seed)
    flat_cum = np.cumsum(np.asarray(data_mass, dtype=float).ravel())
    flat_cum[-1] = 1.0
    cells = np.searchsorted(flat_cum, rng.random(n), side="right")
    states, actions = np.unravel_index(cells, (mdp.num_states, mdp.num_actions))
    trans_cum = np.cumsum(mdp.transition, axis=2)
    next_states = (rng.random(n)[:, None] < trans_cum[states, actions]).argmax(axis=1)
    init_cum = np.cumsum(mdp.init_dist)
    init_cum[-1] = 1.0
    init_states = np.searchsorted(init_cum, rng.random(n0), side="right")
    return states, actions, next_states, init_states


def deriv(reg, x):
    """f'(x) = m_f * x for the quadratic regularizer."""
    return reg.m_f * np.asarray(x, dtype=float)


def deterministic_policy(actions, num_actions):
    """Point-mass policy taking actions[s] in state s."""
    actions = np.asarray(actions, dtype=int)
    probs = np.zeros((actions.shape[0], num_actions))
    probs[np.arange(actions.shape[0]), actions] = 1.0
    return Policy(probs)


def policy_values(mdp, policy):
    """State values V and action values Q of a policy, by direct solve.

    V solves (I - gamma P_pi) V = r_pi; Q = r + gamma P V.
    """
    p_pi = np.einsum("sa,sat->st", policy.probs, mdp.transition)
    r_pi = np.einsum("sa,sa->s", policy.probs, mdp.reward)
    v = np.linalg.solve(np.eye(mdp.num_states) - mdp.gamma * p_pi, r_pi)
    q = mdp.reward + mdp.gamma * np.einsum("sat,t->sa", mdp.transition, v)
    return v, q


def make_value_class(members, b_v, lower=None, on_violation="reject", box_tol=1e-9):
    """Validate members against the box, clipping when asked.

    on_violation="reject" raises on the first out-of-box member;
    "clip" projects offenders into the box and records their indices.
    """
    if on_violation not in ("reject", "clip"):
        raise ValueError("on_violation must be 'reject' or 'clip'")
    lo = -b_v if lower is None else lower
    kept, clipped = [], []
    for i, raw in enumerate(members):
        v = np.asarray(raw, dtype=float)
        inside = v.min() >= lo - box_tol and v.max() <= b_v + box_tol
        if not inside:
            if on_violation == "reject":
                raise ValueError(f"member {i} leaves the box [{lo}, {b_v}]")
            v = np.clip(v, lo, b_v)
            clipped.append(i)
        kept.append(v)
    return ValueClass(tuple(kept), float(b_v), float(lo), tuple(clipped))
