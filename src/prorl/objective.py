"""The regularized linear-programming Lagrangian, population and empirical.

For a value candidate v and weight candidate w the objective is

    L_alpha(v, w) = (1-gamma) E_mu0[v]
                    + E_dD[ -alpha f(w) + w * e_v ]

with Bellman residual e_v(s,a) = r(s,a) + gamma E_{s'}[v(s')] - v(s). The
empirical version replaces the two expectations with sample means over the
initial-state draws and the transition tuples. Both means are linear in the
empirical law, so they are computed exactly as count-weighted sums over the
covered cells: transition counts N(s,a,s'), reward sums R(s,a) and initial-state
counts N0(s) of a `CountedDataset`, the estimator's only dataset type. The
population objective is the same sum at the law's own counts, N = d^D P,
R = d^D r and N0 = mu0 at n = n0 = 1. Cells without data mass are excluded
everywhere; candidate weights are zero there.
"""

from __future__ import annotations

import numpy as np

from .datasets import CountedDataset, law_counts
from .mdp import TabularMdp, _mass_of, data_dist_mass
from .regularizers import Regularizer


def residual_ev(mdp: TabularMdp, v: np.ndarray) -> np.ndarray:
    """Population Bellman residual matrix e_v(s, a), shape (S, A)."""
    v = np.asarray(v, dtype=float)
    return mdp.reward + mdp.gamma * np.einsum("sat,t->sa", mdp.transition, v) - v[:, None]


def empirical_lagrangian_members(
    dataset: CountedDataset,
    reg: Regularizer,
    alpha: float,
    v_members,
    w_members,
) -> np.ndarray:
    """Payoff matrix L_hat[w_index, v_index] over finite candidate classes.

    Summed over covered cells (N(s,a) > 0) from the dataset's counts: init term
    (1-gamma) V N0 / n0, f term -alpha sum N(s,a) f(w) / n, and coupling
    W_cells (R + gamma N(s,a,.) v - N(s,a) v(s))^T / n. Past one pass over the
    data the cost is O(|W| S A + |V| S^2 A), whatever n is.
    """
    if dataset.n == 0 or dataset.n0 == 0:
        raise ValueError(f"empirical objective needs n, n0 > 0, got n={dataset.n}, n0={dataset.n0}")
    v_stack, w_stack = np.asarray(v_members, dtype=float), np.asarray(w_members, dtype=float)
    num_states, num_actions = w_stack.shape[1:]
    if v_stack.shape[1] != num_states:
        raise ValueError(f"value members have length {v_stack.shape[1]}, expected {num_states}")
    n_sa = dataset.checked(num_states, num_actions).transitions.sum(axis=2)
    pos = n_sa > 0
    n_cells = n_sa[pos]
    w_cells = w_stack[:, pos]  # (n_w, m)
    # (n_v, m): summed residuals r + gamma v(s') - v(s) per covered cell
    e_cells = (
        dataset.rewards[pos][None, :]
        + dataset.gamma * (v_stack @ dataset.transitions[pos].T)
        - v_stack[:, np.nonzero(pos)[0]] * n_cells[None, :]
    )
    init_terms = (1.0 - dataset.gamma) * (v_stack @ dataset.inits) / dataset.n0
    f_terms = -alpha * (reg.eval(w_cells) @ n_cells) / dataset.n
    coupling = w_cells @ e_cells.T / dataset.n
    return init_terms[None, :] + f_terms[:, None] + coupling


def population_lagrangian_members(
    mdp: TabularMdp,
    data_dist,
    reg: Regularizer,
    alpha: float,
    v_members,
    w_members,
) -> np.ndarray:
    """Population payoff matrix L[w_index, v_index]: the empirical one at the law's own counts."""
    return empirical_lagrangian_members(law_counts(mdp, data_dist, 1, 1), reg, alpha,
                                        v_members, w_members)


def weighted_l2(w_a: np.ndarray, w_b: np.ndarray, data_dist) -> float:
    """||w_a - w_b||_{2, d^D} = sqrt( E_dD[(w_a - w_b)^2] ), support cells only."""
    dd = _mass_of(data_dist)
    if not dd.shape == np.shape(w_a) == np.shape(w_b):
        raise ValueError(f"data distribution shape {dd.shape} does not match the weights' "
                         f"{np.shape(w_a)} and {np.shape(w_b)}")
    pos = dd > 0.0
    diff = np.asarray(w_a, dtype=float)[pos] - np.asarray(w_b, dtype=float)[pos]
    return float(np.sqrt(np.sum(dd[pos] * diff**2)))


def approximation_errors(
    mdp: TabularMdp,
    data_dist,
    v_star: np.ndarray,
    w_star: np.ndarray,
    v_members,
    w_members,
) -> tuple[float, float]:
    """Best-in-class approximation errors (eps_rv, eps_rw) for misspecified classes.

    eps_rv weighs value deviations under three laws: the initial distribution,
    the data state marginal, and the data's one-step pushforward. eps_rw is
    the d^D-weighted L1 distance to the target weight.
    """
    dd = data_dist_mass(mdp, data_dist)
    dd_state = dd.sum(axis=1)
    push = np.einsum("sa,sat->t", dd, mdp.transition)
    v_star = np.asarray(v_star, dtype=float)
    w_star = np.asarray(w_star, dtype=float)
    eps_rv = min(
        float(
            mdp.init_dist @ np.abs(v - v_star)
            + dd_state @ np.abs(v - v_star)
            + push @ np.abs(v - v_star)
        )
        for v in (np.asarray(v, dtype=float) for v in v_members)
    )
    eps_rw = min(
        float(np.sum(dd * np.abs(np.asarray(w, dtype=float) - w_star)))
        for w in w_members
    )
    return eps_rv, eps_rw
