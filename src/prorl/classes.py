"""Finite candidate classes for values, weights, and policies.

The estimator searches over explicit finite collections: a ValueClass of
state vectors, a WeightClass of nonnegative (s, a) matrices, and a
PolicyClass for the cloning stage. Builders here inject a known-good
anchor pair (taken from the exact solver) and surround it with seeded
distractors drawn uniformly over the bound box.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import value_bound
from .mdp import Policy, _read_only
from .objective import approximation_errors
from .oracle import RegularizedSolution
from .regularizers import Regularizer

_BOX_TOL = 1e-9


def _stack(self) -> np.ndarray:
    """The members stacked along a new first axis, read-only: what the payoff kernels take."""
    return _read_only(np.stack(self.members))


@dataclass(frozen=True)
class ValueClass:
    """Finite set of candidate state-value vectors inside a box.

    Every member satisfies lower <= v <= b_v entrywise (default box is
    [-b_v, b_v], so ||v||_inf <= b_v). `clipped` records which member
    indices were modified by the factory to land inside the box.
    """

    members: tuple
    b_v: float
    lower: float
    clipped: tuple = ()
    stack = functools.cached_property(_stack)

    def __post_init__(self):
        if not self.members:
            raise ValueError("value class needs at least one member")
        if not (self.b_v > 0 and self.lower < self.b_v):  # NaN fails
            raise ValueError("value box must have lower < b_v with b_v > 0")
        for i, v in enumerate(self.members):
            if v.ndim != 1:
                raise ValueError(f"member {i} is not a state vector")
            if v.min() < self.lower - _BOX_TOL or v.max() > self.b_v + _BOX_TOL:
                raise ValueError(f"member {i} leaves the box [{self.lower}, {self.b_v}]")

    def __len__(self):
        return len(self.members)

    def to_config(self) -> dict:
        return {
            "members": [v.tolist() for v in self.members],
            "b_v": self.b_v,
            "lower": self.lower,
            "clipped": list(self.clipped),
        }

    @classmethod
    def from_config(cls, cfg: dict) -> "ValueClass":
        return cls(
            members=tuple(np.asarray(v, dtype=float) for v in cfg["members"]),
            b_v=float(cfg["b_v"]),
            lower=float(cfg["lower"]),
            clipped=tuple(cfg.get("clipped", ())),
        )


@dataclass(frozen=True)
class WeightClass:
    """Finite set of candidate weight matrices inside [0, b_w].

    When `floor` is set to (b_wl, pi_d), every member additionally keeps
    sum_a pi_d(a|s) w(s, a) >= b_wl at every state (the lower coverage
    constraint used by the capped variant).
    """

    members: tuple
    b_w: float
    floor: Optional[tuple] = None
    clipped: tuple = ()
    stack = functools.cached_property(_stack)

    def __post_init__(self):
        if not self.members:
            raise ValueError("weight class needs at least one member")
        if not self.b_w > 0:  # NaN fails
            raise ValueError("b_w must be positive")
        for i, w in enumerate(self.members):
            if w.ndim != 2:
                raise ValueError(f"member {i} is not an (s, a) matrix")
            if w.min() < -_BOX_TOL or w.max() > self.b_w + _BOX_TOL:
                raise ValueError(f"member {i} leaves the box [0, {self.b_w}]")
        if self.floor is not None:
            b_wl, pi_d = self.floor
            if b_wl < 0:
                raise ValueError("floor level must be nonnegative")
            for i, w in enumerate(self.members):
                mix = (pi_d.probs * w).sum(axis=1)
                if mix.min() < b_wl - 1e-8:
                    raise ValueError(
                        f"member {i} breaks the coverage floor at state {int(mix.argmin())}"
                    )

    def __len__(self):
        return len(self.members)

    def to_config(self) -> dict:
        cfg = {
            "members": [w.tolist() for w in self.members],
            "b_w": self.b_w,
            "clipped": list(self.clipped),
        }
        if self.floor is not None:
            cfg["floor"] = {"b_wl": self.floor[0], "pi_d": self.floor[1].probs.tolist()}
        return cfg

    @classmethod
    def from_config(cls, cfg: dict) -> "WeightClass":
        floor = None
        if cfg.get("floor") is not None:
            floor = (
                float(cfg["floor"]["b_wl"]),
                Policy(np.asarray(cfg["floor"]["pi_d"], dtype=float)),
            )
        return cls(
            members=tuple(np.asarray(w, dtype=float) for w in cfg["members"]),
            b_w=float(cfg["b_w"]),
            floor=floor,
            clipped=tuple(cfg.get("clipped", ())),
        )


def _witness_tables(h_stack: np.ndarray, members) -> np.ndarray:
    """Read-only h^pi(s) - h(s, a), h^pi(s) = sum_a pi(a|s) h(s, a), laid out (P, S*A, H): the
    covered cells' rows, transposed, are each policy's Fortran-ordered (H, m) product operand."""
    diff = np.stack([np.einsum("hsa,sa->hs", h_stack, pi.probs)[:, :, None] - h_stack
                     for pi in members])  # (P, H, S, A)
    return _read_only(np.ascontiguousarray(diff.reshape(*diff.shape[:2], -1).transpose(0, 2, 1)))


@dataclass(frozen=True)
class PolicyClass:
    """Finite set of policies the cloning stage fits over.

    `tables` holds h^pi(s) - h(s, a) for every member, witness of the class's own set and
    cell, P*H*S*A floats: built on first read, so a cloning run contracts nothing.
    """

    members: tuple
    tables = functools.cached_property(
        lambda self: _witness_tables(np.stack(witness_class(self)), self.members))

    def __post_init__(self):
        if not self.members:
            raise ValueError("policy class needs at least one member")

    def __len__(self):
        return len(self.members)


def _box_draws(seed: int, num: int, v_box: tuple, b_w: float, shape: tuple) -> tuple[list, list]:
    """num uniform draws of an (S,) value in v_box and an (S, A) weight in [0, b_w].

    One seeded stream, value then weight per draw, so every builder's
    distractors depend only on (seed, boxes, shape).
    """
    if num < 0:
        raise ValueError("num_distractors must be nonnegative")
    rng = np.random.default_rng(seed)
    v_draws, w_draws = [], []
    for _ in range(num):
        v_draws.append(rng.uniform(*v_box, size=shape[:1]))
        w_draws.append(rng.uniform(0.0, b_w, size=shape))
    return v_draws, w_draws


def build_constrained_classes(
    v_anchor: np.ndarray,
    w_anchor: np.ndarray,
    pi_d: Policy,
    b_w: float,
    b_wl: float,
    gamma: float,
    num_distractors: int,
    seed: int,
) -> tuple[ValueClass, WeightClass]:
    """Classes for the capped variant: value box [0, 1/(1-gamma)], floored weights.

    Box distractors that land under the coverage floor are blended toward
    the anchor just enough to restore it (the floor is linear in the blend,
    and the box is convex, so the blend stays valid); blended draws are
    recorded in the weight class's `clipped`.
    """
    anchor_mix = (pi_d.probs * w_anchor).sum(axis=1)
    if anchor_mix.min() < b_wl - 1e-10:
        raise ValueError("anchor weight breaks the requested coverage floor")
    b_v = 1.0 / (1.0 - gamma)
    v_draws, w_draws = _box_draws(seed, num_distractors, (0.0, b_v), b_w, w_anchor.shape)
    w_members, w_clipped = [np.asarray(w_anchor, dtype=float)], []
    for k, w in enumerate(w_draws):
        mix = (pi_d.probs * w).sum(axis=1)
        if mix.min() < b_wl:
            # blend w <- t w + (1-t) anchor with the largest feasible t
            t = 1.0
            for s in np.flatnonzero(mix < b_wl):
                denom = anchor_mix[s] - mix[s]
                if denom > 1e-15:
                    t = min(t, (anchor_mix[s] - b_wl) / denom)
            t = max(t, 0.0)
            w = t * w + (1.0 - t) * w_anchor
            w_clipped.append(k + 1)
        w_members.append(w)
    vc = ValueClass((np.asarray(v_anchor, dtype=float), *v_draws), b_v, 0.0)
    wc = WeightClass(tuple(w_members), float(b_w), (float(b_wl), pi_d), tuple(w_clipped))
    return vc, wc


def build_misspecified(
    solution: RegularizedSolution,
    perturbation: float,
    mdp,
    data_dist,
    reg: Regularizer,
    gamma: float,
    num_distractors: int = 0,
    seed: int = 0,
) -> tuple[ValueClass, WeightClass, float, float]:
    """Classes whose best members sit a controlled distance off the exact pair.

    The anchor members are the exact pair shifted by the perturbation
    constant (values shifted everywhere, weights shifted up on every cell),
    so at perturbation 0 they are the realizable classes, with errors
    exactly 0.0. Box distractors pad the classes; the realized best-in-class
    errors are recomputed by enumeration and returned alongside the classes.
    """
    if not perturbation >= 0:  # NaN fails
        raise ValueError("perturbation must be nonnegative")
    v_star, w_star = solution.v_star, solution.w_star
    b_w = max(1.0, float(w_star.max())) + perturbation
    b_v = value_bound(solution.alpha, reg.bounds(b_w)[1], gamma) + perturbation
    v_draws, w_draws = _box_draws(seed, num_distractors, (-b_v, b_v), b_w, w_star.shape)
    v_members = [v_star + perturbation, *v_draws]
    w_members = [w_star + perturbation, *w_draws]
    eps_rv, eps_rw = approximation_errors(mdp, data_dist, v_star, w_star, v_members, w_members)
    vc = ValueClass(tuple(v_members), b_v, -b_v)
    wc = WeightClass(tuple(w_members), b_w)
    return vc, wc, eps_rv, eps_rw


def witness_class(policies: PolicyClass) -> tuple:
    """Sign witnesses h for every ordered policy pair, deduplicated.

    h(s, a) is +1 where pi(a|s) > pi'(a|s), -1 where it is smaller, and +1
    on ties (ties contribute nothing to the witnessed distance, so any
    value attains the max; +1 keeps the set deterministic). At most
    |Pi|^2 distinct matrices come back, in first-seen order.
    """
    members = policies.members
    seen = {}
    for pi in members:
        for pi_prime in members:
            h = np.where(pi.probs >= pi_prime.probs, 1.0, -1.0)
            key = h.tobytes()
            if key not in seen:
                seen[key] = h
    return tuple(seen.values())
