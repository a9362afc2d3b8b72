"""Offline transition datasets: generation, validation, JSONL serialization.

A dataset is n i.i.d. transitions (s, a, r, s') with (s, a) ~ d^D and
s' ~ P(.|s, a), plus n0 i.i.d. initial states ~ mu0. A ``DatasetSampler``
builds exact inverse-CDF tables (guide tables, Chen & Asau 1974, equal to
``searchsorted``) once and draws each dataset from one PCG64 stream's raw
words, so a (config, seed) pair pins the dataset bytes. A table answers flat
tally ids, so a next-state lookup is the bin of N(s,a,s') itself. It draws
block by block and bins the blocks into a ``CountedDataset``, the counts the
estimator reads, with reward sums R = N r, or joins them into an
``OfflineDataset``'s per-transition columns, which ``gen-data`` writes. Cells
read the stream's first n draws, so at one seed every size's cells are a
prefix of the largest's: ``count_sizes`` bins a list of sizes in one pass
that reads and looks up each cell draw once, and reads the next-state words
that several sizes draw once a block. It keeps its latest pass's counts, so a
sweep that counts a seed's sizes before its runs bins each dataset once.
``law_counts`` gives the counts of the population law, for exact-frequency runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .mdp import Occupancy, TabularMdp, _read_only, data_dist_mass


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


_ROW_BUCKETS = 1024  # K of the next-state table, one row a cell: b / K and u * K are exact
_ONE_ROW_BUCKETS = 8192  # the one-row cell and initial-state tables: 2^13 buckets, 64 KiB each
_BLOCK = 16384  # draws per block: 128 KiB temporaries, not n long; smaller blocks cost more calls
_MERGED = 2  # one read serves overlapping next-state windows of a block, up to _MERGED blocks long


def _cumulative(probs: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, 1.0 from each row's last positive entry on."""
    cum = np.minimum(np.cumsum(probs, axis=-1), 1.0)
    last = probs.shape[-1] - 1 - np.argmax(probs[..., ::-1] > 0.0, axis=-1)
    cum[np.arange(probs.shape[-1]) >= last[..., None]] = 1.0
    return cum


class _GuideTable:
    """``r * width + searchsorted(cum[r], u, side="right")`` for draws u in [0, 1) in row r.

    Rows lie along cum's last axis, nondecreasing and ending at 1; a lookup returns these flat
    ids, so a next-state lookup is N's own bin. A draw is a PCG64 word, u = (word >> 11) 2^-53.
    With K buckets a row, packed[r K + b] is the flat id of row r's entries <= b / K, the answer
    of every draw in bucket b = floor(u K), the word's top log2 K bits; or its complement (< 0)
    where draws form u and step on through the flat cum, as few do at large K.
    """

    def __init__(self, cum: np.ndarray, buckets: int):
        self.shift = np.uint64(65 - buckets.bit_length())  # buckets is a power of two
        rows = cum.reshape(-1, cum.shape[-1])
        (num_rows, width), ends = rows.shape, np.ceil(rows * buckets).astype(np.intp)
        # row r holds j on [ceil(cum_{j-1} K), ceil(cum_j K)), rows of K end to end
        ids = np.arange(num_rows)[:, None] * width + np.arange(width + 1)
        self.packed = np.repeat(ids.ravel(), np.diff(ends, prepend=0, append=buckets).ravel())
        # entry j lies in bucket ceil(cum_j K) - 1
        at = (ends + np.arange(num_rows)[:, None] * buckets - 1)[ends > 0]
        self.packed[at] = ~self.packed[at]
        self.cum = rows.ravel()
        _read_only(self)  # a sampler is built once and draws many

    def lookup(self, words: np.ndarray, offsets=None) -> np.ndarray:
        """The flat id of each draw (a uint64 word), in row offsets / K (row 0 if None)."""
        at = (words >> self.shift).view(np.intp)  # floor(u K), below K, so the view is exact
        if offsets is not None:
            at += offsets
        out = self.packed.take(at)
        todo = np.flatnonzero(out < 0)
        u, idx = (words[todo] >> 11) * 2.0**-53, ~out[todo]
        # cum = 1 > u at each row's last entry stops every draw inside its row
        while (step := self.cum[idx] <= u).any():
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
    if (counts := np.bincount(ids)).size > out.size:
        raise ValueError(f"sampled draws lie outside the tables: bin {counts.size - 1} of "
                         f"{out.size}")
    out[: counts.size] += counts


class DatasetSampler:
    """Inverse-CDF tables of one MDP and data distribution d^D ((S, A), summing to
    one), built once: cells over d^D, next states over P(.|s, a), initial states
    over mu0; rewards are read off the MDP."""

    def __init__(self, mdp: TabularMdp, data_dist):
        dd = data_dist_mass(mdp, data_dist)
        self.gamma, self.generating_dd = mdp.gamma, Occupancy(dd)
        self.cells = _GuideTable(_cumulative(dd.ravel()), _ONE_ROW_BUCKETS)
        self.next_states = _GuideTable(_cumulative(mdp.transition), _ROW_BUCKETS)
        self.init_states = _GuideTable(_cumulative(mdp.init_dist), _ONE_ROW_BUCKETS)
        self.reward = mdp.reward
        self._no_transitions = np.broadcast_to(np.intp(0), (*dd.shape, len(dd)))  # no memory
        self._kept = {}  # (n, n0, seed, n1) -> (fit, held), of the latest pass that binned

    def _transitions(self, uniforms: _Uniforms, n: int):
        """(cells s * A + a, next states) of transitions [0, n), block by block. Cells read
        draws [0, n) of the stream, next states [n, 2n) and initial states [2n, 2n + n0):
        rng.random(n) twice, then rng.random(n0)."""
        for lo in range(0, n, _BLOCK):
            size = min(_BLOCK, n - lo)
            cells = self.cells.lookup(uniforms.read(lo, size))
            ids = self.next_states.lookup(uniforms.read(n + lo, size), cells * _ROW_BUCKETS)
            yield cells, ids - cells * len(self.reward)

    def _inits(self, uniforms: _Uniforms, n: int, n0: int):
        """Initial states, block by block."""
        return (self.init_states.lookup(uniforms.read(2 * n + lo, min(_BLOCK, n0 - lo)))
                for lo in range(0, n0, _BLOCK))

    def count(self, n: int, n0: int, seed, n1: Optional[int] = None) -> tuple:
        """The counts of ``draw(n, n0, seed)``: ``count_sizes`` of the one size (n, n0, n1).

        Returns (fit, held) ``CountedDataset``s: transitions [0, n1) with all n0
        initial states, and transitions [n1, n) with none; n1 defaults to n.
        """
        return self.count_sizes([(n, n0, n if n1 is None else n1)], seed)[0]

    def count_sizes(self, sizes, seed) -> list:
        """``count(n, n0, seed, n1)`` for each (n, n0, n1) of sizes, in one pass over the stream.

        Every size's cells read a prefix of the stream, so each block of cell
        draws is read and looked up once, for all sizes; each size whose n
        reaches the block then bins its next states, words [n + lo, n + lo + m),
        into its fit part (below n1) and held part, sizes whose windows overlap
        or touch sharing one read (two blocks at most) of no word they skip.
        Each size bins its initial states. With int sizes and seed the counts
        of the latest pass that binned anything are kept, keyed by (n, n0, seed,
        n1), and a later call for a kept size returns its read-only counts
        again. Temporaries span one or two blocks; nothing is kept per transition.
        """
        sizes = [tuple(size) for size in sizes]
        for n, n0, n1 in sizes:
            if n < 0 or n0 < 0 or not 0 <= n1 <= n:
                raise ValueError(f"sample counts must be nonnegative and n1 must lie in [0, {n}]")
        kept = self._kept  # one read: a pass rebinds it whole
        keys = {size: (size[0], size[1], seed, size[2]) for size in sizes  # kept: int keys only,
                if all(type(v) is int for v in (*size, seed))}  # no seed sequence or numpy int
        counted = {size: kept[key] for size, key in keys.items() if key in kept}
        todo = [size for size in dict.fromkeys(sizes) if size not in counted]
        if todo:  # a pass that bins nothing keeps what it found
            counted.update(self._count_pass(todo, seed))
            self._kept = {key: counted[size] for size, key in keys.items()}
        return [counted[size] for size in sizes]

    def _count_pass(self, sizes, seed) -> dict:
        """{(n, n0, n1): (fit, held)} of distinct sizes at seed, binned in one pass."""
        uniforms, shape = _Uniforms(seed), self._no_transitions.shape
        counts = {(n, n0, n1): [np.zeros(shape, np.intp) if part else None for part in (n1, n - n1)]
                  for n, n0, n1 in sizes}
        top, by_n = max(n for n, _, _ in sizes), sorted(counts.items())
        for lo in range(0, top, _BLOCK):
            offsets = self.cells.lookup(uniforms.read(lo, min(_BLOCK, top - lo))) * _ROW_BUCKETS
            reads = []  # [start, stop, windows]; by n, a window starts and stops past the last
            # each size past lo reads its own next states, [n + lo, n + lo + m)
            for start, m, n1, parts in ((n + lo, min(_BLOCK, n - lo), n1, parts)
                                        for (n, _, n1), parts in by_n if n > lo):
                if not reads or start > reads[-1][1] or start + m > reads[-1][0] + _MERGED * _BLOCK:
                    reads.append([start, start, []])  # apart from the read before, or too long
                reads[-1][1] = start + m
                reads[-1][2].append((start, m, n1, parts))
            for first, stop, windows in reads:
                words = uniforms.read(first, stop - first)
                for start, m, n1, parts in windows:
                    ids = self.next_states.lookup(words[start - first:][:m], offsets[:m])
                    cut = min(max(n1 - lo, 0), m)  # a block may straddle the cut at n1
                    for part, chunk in zip(parts, (ids[:cut], ids[cut:])):
                        if chunk.size:
                            _tally(part.reshape(-1), chunk)
        counted = {}
        for (n, n0, n1), (fit, held) in counts.items():
            inits = np.zeros(shape[0], np.intp)
            for init_states in self._inits(uniforms, n, n0):
                _tally(inits, init_states)
            counted[n, n0, n1] = _read_only((self._part(fit, n1, n0, inits),
                                             self._part(held, n - n1, 0, np.zeros_like(inits))))
        return counted

    def _part(self, transitions, n: int, n0: int, inits) -> CountedDataset:
        """n binned transitions (None when n = 0) with reward sums R = N(s,a) r(s,a), one
        rounding a cell; an empty part holds the shared zero view and sums no zeros."""
        if transitions is None:
            transitions, rewards = self._no_transitions, np.zeros(self.reward.shape)
        else:
            rewards = transitions.sum(axis=2) * self.reward
        return CountedDataset(n, n0, self.gamma, transitions, rewards, inits)

    def draw(self, n: int, n0: int, seed) -> OfflineDataset:
        """n transitions and n0 initial states as columns: the blocks ``count`` bins."""
        if n < 0 or n0 < 0:
            raise ValueError("sample counts must be nonnegative")
        uniforms, empty = _Uniforms(seed), np.empty(0, np.intp)
        cells, next_states = map(np.concatenate, zip((empty, empty),
                                                     *self._transitions(uniforms, n)))
        init_states = np.concatenate([empty, *self._inits(uniforms, n, n0)])
        states, actions = np.divmod(cells, self.reward.shape[1])
        return OfflineDataset(states, actions, self.reward.take(cells), next_states, init_states,
                              self.gamma, self.generating_dd)


def law_counts(mdp: TabularMdp, data_dist, n: int, n0: int) -> CountedDataset:
    """The counts whose empirical law is exactly the population's, read-only:
    N = n d^D(s,a) P(s'|s,a), R = n d^D(s,a) r(s,a) and N0 = n0 mu0, real-valued.
    At n = n0 = 1 the empirical objective they feed is the population objective."""
    dd = data_dist_mass(mdp, data_dist)
    return _read_only(CountedDataset(n, n0, mdp.gamma, n * dd[:, :, None] * mdp.transition,
                                     n * dd * mdp.reward, n0 * mdp.init_dist))
