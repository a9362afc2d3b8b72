"""Max-min estimation over finite classes.

The estimator reads the empirical objective over every (weight, value)
pair from one payoff matrix (``objective.empirical_lagrangian_members``):
each weight candidate is scored by its worst-case value candidate, and
the best-scoring weight wins. Enumeration keeps the optimization error
exactly zero in the default mode; the inexact mode instead samples
uniformly among pairs within declared slacks, which is how optimization
error enters the robustness experiments. Either way the estimate is a pair
of member indices into the classes the payoff matrix was built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class SaddleSolution:
    """Selected pair of member indices with its realized slacks.

    eps_ov bounds how far value member v_index sits above the best response
    to weight member w_index; eps_ow bounds how far w_index's worst case sits
    below the max-min value. Exact mode reports both as 0.0.
    """

    w_index: int
    v_index: int
    eps_ov: float
    eps_ow: float


def _inner_minima(l_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-weight worst-case values and the minimizing value indices."""
    v_idx = l_matrix.argmin(axis=1)  # argmin takes the first (lowest) index
    return l_matrix[np.arange(l_matrix.shape[0]), v_idx], v_idx


def solve_exact(l_matrix: np.ndarray, w_order: Optional[Sequence[int]] = None) -> SaddleSolution:
    """Enumerate all pairs; ties at both levels go to the first index.

    l_matrix[i, j] is the empirical objective at weight member i and value
    member j. w_order optionally reorders the outer tie-break: among
    weights whose worst-case values tie, the one listed earliest wins.
    Indices in the returned solution always refer to the original class
    order.
    """
    inner, v_indices = _inner_minima(l_matrix)
    num_weights = l_matrix.shape[0]
    order = np.arange(num_weights) if w_order is None else np.asarray(w_order, dtype=int)
    if sorted(order.tolist()) != list(range(num_weights)):
        raise ValueError("w_order must be a permutation of the weight indices")
    w_pos = order[inner[order].argmax()]
    return SaddleSolution(int(w_pos), int(v_indices[w_pos]), 0.0, 0.0)


def solve_inexact(l_matrix: np.ndarray, eps_ov: float, eps_ow: float, seed: int) -> SaddleSolution:
    """Pick uniformly among pairs within the declared optimization slacks.

    A pair (v, w) qualifies when v is an eps_ov-approximate best response
    to w and w's worst case sits within eps_ow of the max-min value. The
    exact solution always qualifies, so the pool is never empty. Achieved
    slacks of the selected pair are reported (they are at most the
    requested ones). l_matrix is laid out as in ``solve_exact``.
    """
    if not (eps_ov >= 0 and eps_ow >= 0):  # NaN fails
        raise ValueError("slacks must be nonnegative")
    inner, _ = _inner_minima(l_matrix)
    maxmin = inner.max()
    w_ok = maxmin - inner <= eps_ow
    pair_ok = w_ok[:, None] & (l_matrix - inner[:, None] <= eps_ov)
    pool = np.argwhere(pair_ok)
    rng = np.random.default_rng(seed)
    w_pos, v_pos = pool[rng.integers(len(pool))]
    return SaddleSolution(int(w_pos), int(v_pos), float(l_matrix[w_pos, v_pos] - inner[w_pos]),
                          float(maxmin - inner[w_pos]))
