"""Offline transition datasets: generation, validation, JSONL serialization.

A dataset is n i.i.d. transitions (s, a, r, s') with (s, a) ~ d^D and
s' ~ P(.|s, a), plus n0 i.i.d. initial states ~ mu0. A ``DatasetSampler``
builds exact inverse-CDF tables (guide tables, Chen & Asau 1974, equal to
``searchsorted``) once and draws each dataset from one PCG64 stream's raw
words, so a (config, seed) pair pins the dataset bytes. It draws block by
block and bins the blocks into a ``CountedDataset``, the counts the estimator
reads, with reward sums R = N r, or joins them into an ``OfflineDataset``'s
per-transition columns, which ``gen-data`` writes. It keeps its latest counts,
so runs that fit the same data one after another bin it once. ``law_counts``
gives the counts of the population law itself, the data of exact-frequency runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .mdp import Occupancy, TabularMdp, _mass_of, _read_only


class CountedDataset(NamedTuple):
    """A dataset as its counts alone, read-only: what the estimator reads.

    n transitions and n0 initial states as counts N(s,a,s') (S, A, S), reward
    sums R(s,a) (S, A), N(s,a) r(s,a) when sampled, and initial counts N0(s) (S,):
    integers when sampled, real when ``law_counts`` takes them from the population law.
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

    Rows lie along cum's last axis, nondecreasing and ending at 1. A draw is a PCG64 word,
    u = (word >> 11) 2^-53; packed[r, b] counts row r's entries <= b / K, its index in bucket
    b = floor(u K) = word >> 54, or its complement (< 0) where draws form u and step on.
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
        _read_only(self)  # a sampler is built once and draws many

    def lookup(self, words: np.ndarray, rows=None) -> np.ndarray:
        """The index of each draw (a uint64 word) in its row (row 0 if rows is None)."""
        k = _GUIDE_BUCKETS
        at = (words >> 54).view(np.intp)  # floor(u K), below 2^10, so the view is exact
        if rows is not None:
            at += rows * k
        out = self.packed.take(at)
        todo = np.flatnonzero(out < 0)
        r, u, idx = at[todo] // k, (words[todo] >> 11) * 2.0**-53, ~out[todo]
        # cum[r, -1] = 1 > u stops every draw by the row's last entry
        while (step := self.cum[r, idx] <= u).any():
            idx += step
        out[todo] = idx
        return out


class _Uniforms:
    """Raw words [offset, offset + size) of default_rng(seed)'s PCG64 stream, by advancing it."""

    def __init__(self, seed):
        self.bits, self.at = np.random.default_rng(seed).bit_generator, 0

    def read(self, offset: int, size: int) -> np.ndarray:
        self.bits.advance((offset - self.at) % (1 << 128))
        self.at = offset + size
        return self.bits.random_raw(size)


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
        self._no_transitions = np.broadcast_to(np.intp(0), (*dd.shape, len(dd)))  # no memory
        self._last = (None, None)  # (n, n0, seed, n1) of the latest count, and its result

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
        With int sizes and seed the result is kept until the next count, and
        a call with the same (n, n0, seed, n1) returns it again: the same
        read-only counts, binned once.
        """
        n1 = n if n1 is None else n1
        key, (last_key, last) = (n, n0, seed, n1), self._last  # one read: the pair stays whole
        if not all(type(v) is int for v in key):
            key = None  # a seed sequence or generator, or sizes that are numpy ints: not kept
        elif key == last_key:
            return last
        if n < 0 or n0 < 0 or not 0 <= n1 <= n:
            raise ValueError(f"sample counts must be nonnegative and n1 must lie in [0, {n}]")
        uniforms, shape, parts = _Uniforms(seed), self._no_transitions.shape, []
        for start, stop, num_inits in ((0, n1, n0), (n1, n, 0)):
            transitions = np.zeros(shape, np.intp) if stop > start else self._no_transitions
            for cells, next_states in self._transitions(uniforms, n, start, stop):
                _tally(transitions.reshape(-1), cells * shape[0] + next_states)
            inits = np.zeros(shape[0], np.intp)
            for init_states in self._inits(uniforms, n, num_inits):
                _tally(inits, init_states)
            # R = N(s,a) r(s,a), one rounding a cell; an empty part (n1 = n) sums no zeros
            rewards = transitions.sum(axis=2) * self.reward if stop > start else np.zeros(shape[:2])
            parts.append(CountedDataset(stop - start, num_inits, self.gamma,
                                        transitions, rewards, inits))
        parts = _read_only(tuple(parts))
        self._last = (key, parts)
        return parts

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


def law_counts(mdp: TabularMdp, data_dist, n: int, n0: int) -> CountedDataset:
    """The counts whose empirical law is exactly the population's, read-only:
    N = n d^D(s,a) P(s'|s,a), R = n d^D(s,a) r(s,a) and N0 = n0 mu0, real-valued.
    At n = n0 = 1 the empirical objective they feed is the population objective."""
    dd = _mass_of(data_dist)
    return _read_only(CountedDataset(n, n0, mdp.gamma, n * dd[:, :, None] * mdp.transition,
                                     n * dd * mdp.reward, n0 * mdp.init_dist))
