"""Offline transition datasets: generation, validation, JSONL serialization.

A dataset is n i.i.d. transitions (s, a, r, s') with (s, a) ~ d^D and
s' ~ P(.|s, a), plus n0 i.i.d. initial states ~ mu0. A ``DatasetSampler``
builds exact inverse-CDF tables (guide tables, Chen & Asau 1974, equal to
``searchsorted``) once and draws each dataset from one PCG64 stream, so a
(config, seed) pair pins the dataset bytes; its counts bin its cell ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
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
    """Transition columns and initial states; ``_cells`` holds a sampled dataset's
    flat cell ids s * A + a (None for hand-built and loaded datasets, which are
    checked column by column instead)."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    init_states: np.ndarray
    gamma: float
    generating_dd: Optional[Occupancy] = None
    _cells: Optional[np.ndarray] = None
    _counts: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("states", "actions", "rewards", "next_states", "init_states"):
            dtype = float if name == "rewards" else int
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
        n = self.states.shape[0]
        for name in ("actions", "rewards", "next_states"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} length does not match states length {n}")
        if self.generating_dd is not None and n > 0 and self._cells is None:
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
        """The empirical law as counts, read-only, computed once per shape.

        Raises ValueError when a column lies outside [0, num_states) or [0,
        num_actions), where s * A + a would alias; a sampled dataset's cell
        ids are checked by the length of their bincount alone.
        """
        shape = (num_states, num_actions)
        if self._counts is not None and self._counts[0] == shape:
            return self._counts[1]
        cells, size = self._cells, num_states * num_actions
        if cells is None or self.generating_dd.mass.shape != shape:
            for name in ("states", "actions", "next_states", "init_states"):
                col, bound = getattr(self, name), num_actions if name == "actions" else num_states
                if col.size and (col.min() < 0 or col.max() >= bound):
                    raise ValueError(f"{name} must lie in [0, {bound}), got {col.min()}..{col.max()}")
            cells = self.states * num_actions + self.actions
        transitions = np.bincount(cells * num_states + self.next_states, minlength=size * num_states)
        inits = np.bincount(self.init_states, minlength=num_states)
        if transitions.size > size * num_states or inits.size > num_states:
            raise ValueError(f"sampled transitions lie outside the {shape} tables")
        out = DatasetCounts(transitions.reshape(*shape, num_states), np.bincount(
            cells, weights=self.rewards, minlength=size).reshape(shape), inits)
        for array in out:
            array.flags.writeable = False
        object.__setattr__(self, "_counts", (shape, out))
        return out

    def take(self, start: int, stop: int, keep_inits: bool = True) -> "OfflineDataset":
        """Transitions[start:stop], with or without the initial-state samples."""
        cut = slice(start, stop)
        inits = self.init_states if keep_inits else np.empty(0, dtype=int)
        return OfflineDataset(self.states[cut], self.actions[cut], self.rewards[cut],
                              self.next_states[cut], inits, self.gamma, self.generating_dd,
                              _cells=None if self._cells is None else self._cells[cut])

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


class _GuideTable:
    """``searchsorted(cum[row], u, side="right")`` for draws u in [0, 1), by guide table.

    Rows lie along cum's last axis, nondecreasing and ending at 1. packed[r, b]
    counts row r's entries <= b / K, a draw's index in bucket b = floor(u K),
    or its complement (< 0) where the bucket holds an entry and draws step on.
    """

    def __init__(self, cum: np.ndarray):
        k = _GUIDE_BUCKETS
        self.cum = cum.reshape(-1, cum.shape[-1])
        num_rows, width = self.cum.shape
        # row r holds j on [ceil(cum_{j-1} K), ceil(cum_j K)), rows of K end to end
        edges = np.zeros((num_rows, width + 2), dtype=np.intp)
        edges[:, 1:-1] = np.ceil(self.cum * k)
        edges[:, -1] = k
        self.packed = np.repeat(np.tile(np.arange(width + 1), num_rows), np.diff(edges).ravel())
        # entry j lies in bucket ceil(cum_j K) - 1
        at = (edges[:, 1:-1] + np.arange(num_rows)[:, None] * k - 1)[edges[:, 1:-1] > 0]
        self.packed[at] = ~self.packed[at]

    def lookup(self, draws: np.ndarray, rows=None) -> np.ndarray:
        """The index of each draw in its row (row 0 if rows is None)."""
        k = _GUIDE_BUCKETS
        # floor(u K) by a ufunc cast: astype(np.intp) takes about ten times as long
        at = np.multiply(draws, k, out=np.empty(draws.shape, np.intp), casting="unsafe")
        if rows is not None:
            at += rows * k
        out = self.packed.take(at)
        todo = np.flatnonzero(out < 0)
        r, u, idx = at[todo] // k, draws[todo], ~out[todo]
        # cum[r, -1] = 1 > u stops every draw by the row's last entry
        while (step := self.cum[r, idx] <= u).any():
            idx += step
        out[todo] = idx
        return out


class DatasetSampler:
    """Inverse-CDF tables of one MDP and data distribution d^D ((S, A), summing to
    one), built once: cells over d^D, next states over P(.|s, a), initial states
    over mu0; rewards are read off the MDP."""

    def __init__(self, mdp: TabularMdp, data_dist):
        dd = data_dist.mass if isinstance(data_dist, Occupancy) else np.asarray(data_dist, dtype=float)
        if dd.shape != (mdp.num_states, mdp.num_actions):
            raise ValueError(f"data distribution shape {dd.shape} does not match the MDP")
        total = dd.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"data distribution must sum to 1, got {total}")
        self.gamma, self.generating_dd = mdp.gamma, Occupancy(dd)
        self.cells = _GuideTable(_cumulative(dd.ravel()))
        self.next_states = _GuideTable(_cumulative(mdp.transition))
        self.init_states = _GuideTable(_cumulative(mdp.init_dist))
        self.state_action = np.indices(dd.shape).reshape(2, -1)
        self.reward = mdp.reward.ravel()

    def draw(self, n: int, n0: int, seed) -> OfflineDataset:
        """n transitions and n0 initial states from three draws of one PCG64 stream."""
        if n < 0 or n0 < 0:
            raise ValueError("sample counts must be nonnegative")
        rng = np.random.default_rng(seed)
        cells = self.cells.lookup(rng.random(n))
        next_states = self.next_states.lookup(rng.random(n), cells)
        init_states = self.init_states.lookup(rng.random(n0))
        states, actions = self.state_action.take(cells, axis=1)
        return OfflineDataset(states, actions, self.reward.take(cells), next_states, init_states,
                              self.gamma, self.generating_dd, _cells=cells)


def generate_dataset(mdp: TabularMdp, data_dist, n: int, n0: int, seed) -> OfflineDataset:
    """n transitions and n0 initial states; build a ``DatasetSampler`` once to draw many."""
    return DatasetSampler(mdp, data_dist).draw(n, n0, seed)


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
