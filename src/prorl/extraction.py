"""Policy extraction from estimated weights.

Two routes: direct reweighting of a known behavior policy, and a
behavior-cloning stage for when the behavior policy is unknown. The
cloning stage fits a policy from a finite class by minimizing the worst
witnessed disagreement with the weighted data, which needs no density
estimate of the behavior policy.
"""

from __future__ import annotations

import numpy as np

from .classes import PolicyClass
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


def bc_objective_matrix(w_hat, data: CountedDataset, policies: PolicyClass) -> np.ndarray:
    """Empirical cloning objective for every (policy, witness) pair.

    Entry [i, j] averages w_hat(s, a) * (h_j^{pi_i}(s) - h_j(s, a)) over the
    dataset transitions, where h^pi(s) is the policy's expected witness
    value at s, as a sum over covered cells weighted by the counts N(s, a).
    The witnesses are the policy class's own, whose differences the class
    keeps as one table, so a run gathers its covered cells and takes one
    stacked product.
    """
    if data.n == 0:
        raise ValueError("cloning needs a nonempty dataset (n=0)")
    w_hat = np.asarray(w_hat, dtype=float)
    n_sa = data.checked(*w_hat.shape).transitions.sum(axis=2)
    pos = n_sa > 0
    # each policy's (H, m) slice Fortran-ordered, whatever layout the gather returns: a
    # product's summation order hangs on its operand's layout
    diffs = np.ascontiguousarray(policies.tables.take(np.flatnonzero(pos), axis=1))
    return diffs.transpose(0, 2, 1) @ (n_sa[pos] * w_hat[pos]) / data.n


def clone_policy(w_hat, data: CountedDataset, policies: PolicyClass) -> Policy:
    """Pick the class policy with the smallest worst-case witnessed disagreement.

    Exact enumeration over the policy class and the witness set; the inner
    maximum runs over witnesses, the outer minimum over policies, and ties
    go to the lowest index at both levels.
    """
    scores = bc_objective_matrix(w_hat, data, policies).max(axis=1)
    return policies.members[int(scores.argmin())]
