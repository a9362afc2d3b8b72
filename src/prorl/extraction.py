"""Policy extraction from estimated weights.

Two routes: direct reweighting of a known behavior policy, and a
behavior-cloning stage for when the behavior policy is unknown. The
cloning stage fits a policy from a finite class by minimizing the worst
witnessed disagreement with the weighted data, which needs no density
estimate of the behavior policy.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from .classes import PolicyClass, witness_class
from .datasets import CountedDataset
from .mdp import Policy


_ZERO_MASS = 1e-12  # a state whose weighted behavior mass is at most this gets a uniform row


def extract_policy(w, pi_d: Policy) -> Policy:
    """Reweight the behavior policy: pi(a|s) proportional to w(s,a) pi_d(a|s).

    States whose normalizer is at most 1e-12 get a uniform row, so every
    row sums to one.
    """
    w = np.asarray(w, dtype=float)
    if w.min() < 0:
        raise ValueError("weights must be nonnegative")
    raw = w * pi_d.probs
    mass = raw.sum(axis=1)
    probs = np.empty_like(raw)
    ok = mass > _ZERO_MASS
    probs[ok] = raw[ok] / mass[ok, None]
    probs[~ok] = 1.0 / w.shape[1]
    return Policy(probs)


def bc_objective_matrix(
    w_hat,
    data: CountedDataset,
    policies: PolicyClass,
    witnesses: Optional[Sequence[np.ndarray]] = None,
) -> np.ndarray:
    """Empirical cloning objective for every (policy, witness) pair.

    Entry [i, j] averages w_hat(s, a) * (h_j^{pi_i}(s) - h_j(s, a)) over the
    dataset transitions, where h^pi(s) is the policy's expected witness
    value at s, as a sum over covered cells weighted by the counts N(s, a).
    The witness set defaults to the policy class's own, memoized by content
    with every policy's h^pi, so a run contracts nothing.
    """
    if data.n == 0:
        raise ValueError("cloning needs a nonempty dataset (n=0)")
    w_hat = np.asarray(w_hat, dtype=float)
    if witnesses is None:
        probs = np.stack([pi.probs for pi in policies.members])
        h_stack, h_pis = _witnesses_of(probs.shape, probs.tobytes())
    else:
        h_stack, h_pis = _tables(np.stack(tuple(witnesses)), policies.members)
    n_sa = data.checked(*w_hat.shape).transitions.sum(axis=2)
    pos = n_sa > 0
    cell_states = np.nonzero(pos)[0]
    weights = n_sa[pos] * w_hat[pos]  # (m,)
    h_cells = h_stack[:, pos]  # (H, m)
    # one product per policy: a matmul batched over the policies rounds otherwise, and one
    # layout, so the product's summation order does not hang on what the gather returns
    return np.stack([np.asfortranarray(h_pi[:, cell_states] - h_cells) @ weights
                     for h_pi in h_pis]) / data.n


def _tables(h_stack: np.ndarray, members) -> tuple:
    """Witnesses (H, S, A) and each policy's h^pi(s) = sum_a pi(a|s) h(s, a), (P, H, S)."""
    return h_stack, np.stack([np.einsum("hsa,sa->hs", h_stack, pi.probs) for pi in members])


@functools.lru_cache(maxsize=4)
def _witnesses_of(shape: tuple, probs: bytes) -> tuple:
    """``_tables`` of the policies stacked in probs and their witness_class, read-only."""
    members = tuple(map(Policy, np.frombuffer(probs).reshape(shape)))
    out = _tables(np.stack(witness_class(PolicyClass(members))), members)
    for array in out:
        array.flags.writeable = False
    return out


def clone_policy(
    w_hat,
    data: CountedDataset,
    policies: PolicyClass,
    witnesses: Optional[Sequence[np.ndarray]] = None,
) -> Policy:
    """Pick the class policy with the smallest worst-case witnessed disagreement.

    Exact enumeration over the policy class and the witness set; the inner
    maximum runs over witnesses, the outer minimum over policies, and ties
    go to the lowest index at both levels.
    """
    scores = bc_objective_matrix(w_hat, data, policies, witnesses).max(axis=1)
    return policies.members[int(scores.argmin())]
