"""Offline transition datasets: generation, validation, JSONL serialization.

A dataset is n i.i.d. transitions (s, a, r, s') with (s, a) ~ d^D and
s' ~ P(.|s, a), plus n0 i.i.d. initial states ~ mu0. A ``DatasetSampler``
builds exact inverse-CDF tables (guide tables, Chen & Asau 1974, equal to
``searchsorted``) once and draws each dataset from one PCG64 stream, so a
(config, seed) pair pins the dataset bytes. It draws block by block and
bins the blocks into a ``CountedDataset``, the counts the estimator reads, or
joins them into an ``OfflineDataset``'s per-transition columns, which
``gen-data`` writes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .mdp import Occupancy, TabularMdp, _mass_of


class CountedDataset(NamedTuple):
    """A dataset as its counts alone, read-only: what the estimator reads.

    n transitions and n0 initial states as counts N(s,a,s') (S, A, S), reward
    sums R(s,a) (S, A) and initial counts N0(s) (S,).
    """

    n: int
    n0: int
    gamma: float
    transitions: np.ndarray
    rewards: np.ndarray
    inits: np.ndarray

    def checked(self, num_states: int, num_actions: int) -> CountedDataset:
        """These counts; ValueError when they were drawn at another (S, A)."""
        if self.rewards.shape != (num_states, num_actions):
            raise ValueError(f"counts of shape {self.rewards.shape} asked for as "
                             f"{(num_states, num_actions)}")
        return self


def _read_only(counted: CountedDataset) -> CountedDataset:
    for array in counted[3:]:
        array.flags.writeable = False
    return counted


@dataclass(frozen=True, eq=False)
class OfflineDataset:
    """Transition columns and initial states, as ``gen-data`` writes them."""

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

    def save(self, transitions_path: str, inits_path: str) -> None:
        with open(transitions_path, "w") as fh:
            for s, a, r, sp in zip(self.states, self.actions, self.rewards, self.next_states):
                fh.write(json.dumps({"s": int(s), "a": int(a), "r": float(r), "sp": int(sp)}))
                fh.write("\n")
        with open(inits_path, "w") as fh:
            for s0 in self.init_states:
                fh.write(f"{int(s0)}\n")


_GUIDE_BUCKETS = 1024  # K, a power of two, so u * K and b / K are exact
_BLOCK = 16384  # draws per block: 128 KiB temporaries, not n long; smaller blocks cost more calls


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
        for array in (self.cum, self.packed):  # a sampler is built once and draws many
            array.flags.writeable = False

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


class _Uniforms:
    """Draws [offset, offset + size) of default_rng(seed)'s PCG64 stream, by advancing it."""

    def __init__(self, seed):
        self.rng, self.at = np.random.default_rng(seed), 0

    def read(self, offset: int, size: int) -> np.ndarray:
        self.rng.bit_generator.advance((offset - self.at) % (1 << 128))
        self.at = offset + size
        return self.rng.random(size)


def _tally(out: np.ndarray, ids: np.ndarray) -> None:
    """Add the bincount of ids to out, whose bins must cover every id."""
    counts = np.bincount(ids)
    if counts.size > out.size:
        raise ValueError(f"sampled draws lie outside the tables: bin {counts.size - 1} of "
                         f"{out.size}")
    out[: counts.size] += counts


class DatasetSampler:
    """Inverse-CDF tables of one MDP and data distribution d^D ((S, A), summing to
    one), built once: cells over d^D, next states over P(.|s, a), initial states
    over mu0; rewards are read off the MDP."""

    def __init__(self, mdp: TabularMdp, data_dist):
        dd = _mass_of(data_dist)
        if dd.shape != (mdp.num_states, mdp.num_actions):
            raise ValueError(f"data distribution shape {dd.shape} does not match the MDP")
        total = dd.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"data distribution must sum to 1, got {total}")
        self.gamma, self.generating_dd = mdp.gamma, Occupancy(dd)
        self.cells = _GuideTable(_cumulative(dd.ravel()))
        self.next_states = _GuideTable(_cumulative(mdp.transition))
        self.init_states = _GuideTable(_cumulative(mdp.init_dist))
        self.reward = mdp.reward

    def _transitions(self, uniforms: _Uniforms, n: int, start: int, stop: int):
        """(cells s * A + a, next states) of transitions [start, stop), block by block.

        Cells read draws [0, n) of the stream, next states [n, 2n) and initial
        states [2n, 2n + n0): rng.random(n) twice, then rng.random(n0).
        """
        for lo in range(start, stop, _BLOCK):
            size = min(_BLOCK, stop - lo)
            cells = self.cells.lookup(uniforms.read(lo, size))
            yield cells, self.next_states.lookup(uniforms.read(n + lo, size), cells)

    def _inits(self, uniforms: _Uniforms, n: int, n0: int):
        """Initial states, block by block."""
        return (self.init_states.lookup(uniforms.read(2 * n + lo, min(_BLOCK, n0 - lo)))
                for lo in range(0, n0, _BLOCK))

    def count(self, n: int, n0: int, seed, n1: Optional[int] = None) -> tuple:
        """The counts of ``draw(n, n0, seed)``, binned block by block.

        Returns (fit, held) ``CountedDataset``s: transitions [0, n1) with all n0
        initial states, and transitions [n1, n) with none; n1 defaults to n.
        """
        n1 = n if n1 is None else n1
        if n < 0 or n0 < 0 or not 0 <= n1 <= n:
            raise ValueError(f"sample counts must be nonnegative and n1 must lie in [0, {n}]")
        uniforms, shape, parts = _Uniforms(seed), self.reward.shape, []
        for start, stop, num_inits in ((0, n1, n0), (n1, n, 0)):
            transitions, rewards = np.zeros((*shape, shape[0]), np.intp), np.zeros(shape)
            inits = np.zeros(shape[0], np.intp)
            for cells, next_states in self._transitions(uniforms, n, start, stop):
                _tally(transitions.reshape(-1), cells * shape[0] + next_states)
                # in draw order, as the ordered bincount of the columns adds
                np.add.at(rewards.reshape(-1), cells, self.reward.take(cells))
            for init_states in self._inits(uniforms, n, num_inits):
                _tally(inits, init_states)
            parts.append(_read_only(CountedDataset(stop - start, num_inits, self.gamma,
                                                   transitions, rewards, inits)))
        return tuple(parts)

    def draw(self, n: int, n0: int, seed) -> OfflineDataset:
        """n transitions and n0 initial states as columns: the blocks ``count`` bins."""
        if n < 0 or n0 < 0:
            raise ValueError("sample counts must be nonnegative")
        uniforms, empty = _Uniforms(seed), np.empty(0, np.intp)
        cells, next_states = map(np.concatenate, zip((empty, empty),
                                                     *self._transitions(uniforms, n, 0, n)))
        init_states = np.concatenate([empty, *self._inits(uniforms, n, n0)])
        states, actions = np.divmod(cells, self.reward.shape[1])
        return OfflineDataset(states, actions, self.reward.take(cells), next_states, init_states,
                              self.gamma, self.generating_dd)


def generate_dataset(mdp: TabularMdp, data_dist, n: int, n0: int, seed) -> OfflineDataset:
    """n transitions and n0 initial states; build a ``DatasetSampler`` once to draw many."""
    return DatasetSampler(mdp, data_dist).draw(n, n0, seed)


def exact_frequency_dataset(mdp: TabularMdp, data_dist, repeats: int = 1) -> CountedDataset:
    """Deterministic counts whose empirical frequencies equal data_dist exactly.

    Requires every covered cell's probability to be an integer multiple of the
    smallest covered probability, and a deterministic transition row at every
    covered cell (otherwise no finite sample reproduces the population law).
    Initial states require a deterministic mu0. Cell (s, a) holds k(s, a) =
    repeats * d^D(s, a) / min d^D transitions, all to its one next state, with
    reward sum k(s, a) r(s, a); the initial state holds max(1, repeats). Used for
    the infinite-data counterexample runs.
    """
    dd = _mass_of(data_dist)
    pos = dd > 0.0
    ratios = dd / dd[pos].min()
    if not np.allclose(ratios[pos], np.round(ratios[pos]), atol=1e-9):
        raise ValueError("data distribution is not commensurable; no exact dataset exists")
    k = np.round(ratios).astype(np.intp) * repeats
    rows = mdp.transition.reshape(k.size, -1)
    stochastic = np.flatnonzero((k.ravel() > 0) & (rows.max(axis=1) < 1.0 - 1e-12))
    if stochastic.size:
        raise ValueError(f"transition at {divmod(int(stochastic[0]), mdp.num_actions)} is "
                         f"stochastic; cannot be exact")
    if mdp.init_dist.max() < 1.0 - 1e-12:
        raise ValueError("initial distribution is stochastic; cannot be exact")
    transitions = np.zeros(rows.shape, np.intp)
    transitions[np.arange(k.size), rows.argmax(axis=1)] = k.ravel()
    inits = np.zeros(mdp.num_states, np.intp)
    inits[mdp.init_dist.argmax()] = max(1, repeats)
    return _read_only(CountedDataset(int(k.sum()), int(inits.sum()), mdp.gamma,
                                     transitions.reshape(*k.shape, -1), k * mdp.reward, inits))
