"""Offline transition datasets: generation, validation, JSONL serialization.

A dataset is n i.i.d. transitions (s, a, r, s') with (s, a) ~ d^D and
s' ~ P(.|s, a), plus n0 i.i.d. initial states ~ mu0. Sampling is an exact
inverse CDF (a guide table, Chen & Asau 1974, equal to ``searchsorted``)
over three draws from one PCG64 stream, so a (config, seed) pair pins the
dataset bytes exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .mdp import Occupancy, TabularMdp


class DatasetCounts(NamedTuple):
    """Counts N(s,a,s') (S, A, S), reward sums R(s,a) (S, A), initial counts N0(s) (S,)."""

    transitions: np.ndarray
    rewards: np.ndarray
    inits: np.ndarray


@dataclass(frozen=True, eq=False)
class OfflineDataset:
    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    init_states: np.ndarray
    gamma: float
    generating_dd: Optional[Occupancy] = None

    def __post_init__(self):
        for name in ("states", "actions", "rewards", "next_states", "init_states"):
            dtype = float if name == "rewards" else int
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = self.states.shape[0]
        for name in ("actions", "rewards", "next_states"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} length does not match states length {n}")
        if self.generating_dd is not None and n > 0:
            dd = self.generating_dd.mass  # checked on cell counts: S*A compares, not n gathers
            cells = self.states * dd.shape[1] + self.actions
            bad = np.flatnonzero((np.bincount(cells, minlength=dd.size)[: dd.size] > 0)
                                 & (dd.ravel() <= 0.0))
            if bad.size:
                t = int(np.argmax(np.isin(cells, bad)))  # the first such transition
                raise ValueError(f"transition {t} drawn at a zero-probability cell "
                                 f"({self.states[t]}, {self.actions[t]})")

    @property
    def n(self) -> int:
        return int(self.states.shape[0])

    @property
    def n0(self) -> int:
        return int(self.init_states.shape[0])

    def counts(self, num_states: int, num_actions: int) -> DatasetCounts:
        """The empirical law as counts, one bincount per array, derived on every call.

        Raises ValueError when a state, next state or initial state lies outside
        [0, num_states), or an action outside [0, num_actions): the flat cell
        index s * A + a would alias.
        """
        for name in ("states", "actions", "next_states", "init_states"):
            col, bound = getattr(self, name), num_actions if name == "actions" else num_states
            if col.size and (col.min() < 0 or col.max() >= bound):
                raise ValueError(f"{name} must lie in [0, {bound}), got {col.min()}..{col.max()}")
        cells = self.states * num_actions + self.actions
        size = num_states * num_actions
        transitions = np.bincount(cells * num_states + self.next_states, minlength=size * num_states)
        rewards = np.bincount(cells, weights=self.rewards, minlength=size)
        return DatasetCounts(
            transitions.reshape(num_states, num_actions, num_states),
            rewards.reshape(num_states, num_actions),
            np.bincount(self.init_states, minlength=num_states),
        )

    def take(self, start: int, stop: int, keep_inits: bool = True) -> "OfflineDataset":
        """Transitions[start:stop], with or without the initial-state samples."""
        inits = self.init_states if keep_inits else np.empty(0, dtype=int)
        return OfflineDataset(
            states=self.states[start:stop],
            actions=self.actions[start:stop],
            rewards=self.rewards[start:stop],
            next_states=self.next_states[start:stop],
            init_states=inits,
            gamma=self.gamma,
            generating_dd=self.generating_dd,
        )

    def save(self, transitions_path: str, inits_path: str) -> None:
        with open(transitions_path, "w") as fh:
            for s, a, r, sp in zip(self.states, self.actions, self.rewards, self.next_states):
                fh.write(json.dumps({"s": int(s), "a": int(a), "r": float(r), "sp": int(sp)}))
                fh.write("\n")
        with open(inits_path, "w") as fh:
            for s0 in self.init_states:
                fh.write(f"{int(s0)}\n")

    @staticmethod
    def load(transitions_path: str, inits_path: str, gamma: float) -> "OfflineDataset":
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


_GUIDE_BUCKETS = 1024  # K, a power of two, so u * K and b / K are exact


def _cumulative(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, 1.0 from each row's last positive entry on."""
    cum = np.minimum(np.cumsum(probs, axis=-1), 1.0)
    last = probs.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0.0, axis=-1)
    cum[np.arange(probs.shape[-1]) >= last[..., None]] = 1.0
    return cum


def _inverse_cdf(cum: np.ndarray, draws: np.ndarray, rows=None) -> np.ndarray:
    """``searchsorted(cum[row], u, side="right")`` for each draw u in [0, 1), by guide table.

    Rows lie along cum's last axis (one row if rows is None), nondecreasing in
    [0, 1]. guide[r, b] counts row r's entries <= b / K: a draw in bucket
    floor(u K) reads its index there, or steps through the bucket if it holds one.
    """
    k = _GUIDE_BUCKETS
    cum = cum.reshape(-1, cum.shape[-1])
    num_rows, width = cum.shape
    # guide[r] holds j on [ceil(cum_{j-1} K), ceil(cum_j K)), rows of K + 1 end to end
    edges = np.zeros((num_rows, width + 2), dtype=np.intp)
    edges[:, 1:-1] = np.ceil(cum * k)
    edges[:, -1] = k + 1
    guide = np.repeat(np.tile(np.arange(width + 1), num_rows), np.diff(edges).ravel())
    # floor(u K) by a ufunc cast: astype(np.intp) takes about ten times as long
    at = np.multiply(draws, k, out=np.empty(draws.shape, np.intp), casting="unsafe")
    at += 0 if rows is None else rows * (k + 1)
    out, upper = guide[at], guide[1:][at]
    todo = np.flatnonzero(upper != out)
    u, r, idx, stop = draws[todo], at[todo] // (k + 1), out[todo], upper[todo]
    for _ in range(int((stop - idx).max(initial=0))):
        idx += (idx < stop) & (cum[r, np.minimum(idx, width - 1)] <= u)
    out[todo] = idx
    return out


def generate_dataset(
    mdp: TabularMdp,
    data_dist,
    n: int,
    n0: int,
    seed,
) -> OfflineDataset:
    """Sample an offline dataset of n transitions and n0 initial states.

    data_dist is a distribution over state-action pairs (Occupancy or (S, A)
    array summing to one). Cells are drawn by inverse CDF over the flattened
    pairs, next states by inverse CDF over the matching transition row, and
    rewards are read off the MDP's reward table.
    """
    dd = data_dist.mass if isinstance(data_dist, Occupancy) else np.asarray(data_dist, dtype=float)
    if dd.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError(f"data distribution shape {dd.shape} does not match the MDP")
    total = dd.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"data distribution must sum to 1, got {total}")
    if n < 0 or n0 < 0:
        raise ValueError("sample counts must be nonnegative")

    rng = np.random.default_rng(seed)
    cells = _inverse_cdf(_cumulative(dd.ravel()), rng.random(n))
    next_states = _inverse_cdf(_cumulative(mdp.transition), rng.random(n), cells)
    init_states = _inverse_cdf(_cumulative(mdp.init_dist), rng.random(n0))
    states, actions = np.indices(dd.shape).reshape(2, -1).take(cells, axis=1)

    return OfflineDataset(
        states=states,
        actions=actions,
        rewards=mdp.reward.ravel()[cells],
        next_states=next_states,
        init_states=init_states,
        gamma=mdp.gamma,
        generating_dd=Occupancy(dd),
    )


def exact_frequency_dataset(mdp: TabularMdp, data_dist, repeats: int = 1) -> OfflineDataset:
    """Deterministic dataset whose empirical frequencies equal data_dist exactly.

    Requires every covered cell's probability to be an integer multiple of the
    smallest covered probability, and a deterministic transition row at every
    covered cell (otherwise no finite sample reproduces the population law).
    Initial states require a deterministic mu0. Used for the infinite-data
    counterexample runs.
    """
    dd = data_dist.mass if isinstance(data_dist, Occupancy) else np.asarray(data_dist, dtype=float)
    pos = dd > 0.0
    base = dd[pos].min()
    counts = dd / base
    if not np.allclose(counts[pos], np.round(counts[pos]), atol=1e-9):
        raise ValueError("data distribution is not commensurable; no exact dataset exists")
    counts = np.round(counts).astype(int) * repeats
    states, actions, next_states = [], [], []
    for s in range(mdp.num_states):
        for a in range(mdp.num_actions):
            if counts[s, a] == 0:
                continue
            row = mdp.transition[s, a]
            if row.max() < 1.0 - 1e-12:
                raise ValueError(f"transition at ({s}, {a}) is stochastic; cannot be exact")
            sp = int(row.argmax())
            states += [s] * counts[s, a]
            actions += [a] * counts[s, a]
            next_states += [sp] * counts[s, a]
    if mdp.init_dist.max() < 1.0 - 1e-12:
        raise ValueError("initial distribution is stochastic; cannot be exact")
    init_states = np.full(max(1, repeats), int(mdp.init_dist.argmax()))
    states = np.array(states, dtype=int)
    actions = np.array(actions, dtype=int)
    return OfflineDataset(
        states=states,
        actions=actions,
        rewards=mdp.reward[states, actions],
        next_states=np.array(next_states, dtype=int),
        init_states=init_states,
        gamma=mdp.gamma,
        generating_dd=Occupancy(dd),
    )
