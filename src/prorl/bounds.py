"""Closed-form constants and finite-class performance bounds.

Everything here is a direct formula evaluation: the high-probability
deviation envelope for the empirical objective over finite classes, the
resulting performance-gap bound, its error-robust extension, the behavior
cloning sample term, and the alpha selection rules. No universal constants are
estimated or fabricated; what is reported is exactly what is computable.
"""

from __future__ import annotations

import math


def value_bound(alpha: float, b_fprime: float, gamma: float) -> float:
    """Bound on ||v*_alpha||_inf: (alpha * B_f' + 1) / (1 - gamma)."""
    return (alpha * b_fprime + 1.0) / (1.0 - gamma)


def residual_bound(b_v: float, gamma: float) -> float:
    """Bound on |e_v|: (1 + gamma) * B_v + 1 for ||v||_inf <= B_v."""
    return (1.0 + gamma) * b_v + 1.0


def stat_error(
    n: int,
    n0: int,
    alpha: float,
    b_w: float,
    b_f: float,
    b_v: float,
    b_e: float,
    sizes: tuple[int, int],
    delta: float,
    gamma: float,
) -> float:
    """Deviation envelope for |L_hat - L| over |V| x |W| candidate pairs.

    (1-gamma) B_v sqrt(2 log(4|V|/delta) / n0)
      + (alpha B_f + B_w B_e) sqrt(2 log(4|V||W|/delta) / n),

    which holds simultaneously for every pair with probability 1 - delta.
    """
    if n < 1 or n0 < 1:
        raise ValueError(f"need n, n0 >= 1, got n={n}, n0={n0}")
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if alpha < 0.0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    num_v, num_w = sizes
    if num_v < 1 or num_w < 1:
        raise ValueError("class sizes must be at least 1")
    init_term = (1.0 - gamma) * b_v * math.sqrt(2.0 * math.log(4.0 * num_v / delta) / n0)
    data_term = (alpha * b_f + b_w * b_e) * math.sqrt(
        2.0 * math.log(4.0 * num_v * num_w / delta) / n
    )
    return init_term + data_term


def performance_gap_bound(eps_stat: float, alpha: float, m_f: float, gamma: float) -> float:
    """Gap bound (4 / (1-gamma)) * sqrt(eps_stat / (alpha * m_f))."""
    if alpha <= 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if m_f <= 0.0:
        raise ValueError(f"m_f must be positive, got {m_f}")
    if eps_stat < 0.0:
        raise ValueError(f"eps_stat must be nonnegative, got {eps_stat}")
    return 4.0 / (1.0 - gamma) * math.sqrt(eps_stat / (alpha * m_f))


def optimization_approximation_slack(
    eps_opt: float, eps_app: float, alpha: float, m_f: float, gamma: float
) -> float:
    """Extra gap term (2/(1-gamma)) sqrt(2 (eps_opt + eps_app) / (alpha m_f))."""
    if alpha <= 0.0 or m_f <= 0.0:
        raise ValueError("alpha and m_f must be positive")
    return 2.0 / (1.0 - gamma) * math.sqrt(2.0 * (eps_opt + eps_app) / (alpha * m_f))


def robust_gap_bound(
    eps_stat: float,
    eps_opt: float,
    eps_app: float,
    alpha: float,
    m_f: float,
    gamma: float,
) -> float:
    """Gap bound tolerating optimization slack and class misspecification."""
    return performance_gap_bound(eps_stat, alpha, m_f, gamma) + optimization_approximation_slack(
        eps_opt, eps_app, alpha, m_f, gamma
    )


def approximation_error_combination(
    eps_rv: float,
    eps_rw: float,
    b_w: float,
    b_e: float,
    b_fprime: float,
    alpha: float,
) -> float:
    """eps_app = (B_w + 1) eps_rv + (B_e + alpha B_f') eps_rw."""
    return (b_w + 1.0) * eps_rv + (b_e + alpha * b_fprime) * eps_rw


def bc_sample_term(b_w: float, num_policies: int, delta: float, n2: int) -> float:
    """Cloning deviation term 4 B_w sqrt(6 log(4 |Pi| / delta) / n2)."""
    if n2 <= 0:
        raise ValueError("n2 must be positive")
    return 4.0 * b_w * math.sqrt(6.0 * math.log(4.0 * num_policies / delta) / n2)


def recommended_alpha(eps: float, b_f0: float) -> float:
    """Regularization weight eps / (2 B_f0) for target accuracy eps against the
    unregularized optimum."""
    if eps <= 0.0 or b_f0 <= 0.0:
        raise ValueError("eps and b_f0 must be positive")
    return eps / (2.0 * b_f0)


def unregularized_competition_slack(alpha: float, b_f0: float) -> float:
    """Value sacrificed by regularizing: J(pi*_0) - J(pi*_alpha) <= alpha * B_f0."""
    return alpha * b_f0
