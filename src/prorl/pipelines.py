"""End-to-end estimation pipeline driven by JSON-friendly configs.

``prepare`` does what a run's seed, sizes and weight order do not change:
resolve the MDP and data distribution, solve the instance exactly for
reference quantities, build candidate classes around the exact pair, their
population payoff matrix, the policy class a cloning run fits over and the
sampler's tables, once per process, keeping the most recently used
instances, read-only, for later calls. ``memoized`` keeps other seed-free
values (the suites' fixtures and reference solves) in the same registry.
``run_pro_rl`` does the rest at one seed and size: count the offline dataset
(the estimator reads counts only, never per-transition columns; an
exact-frequency run reads the law's own counts at its n and n0), build the
empirical payoff matrix and run the max-min estimator on it. The estimate is
a weight-class member, so the run reads its scores (the extracted policy's
return and distance, the weight error) by member index from the instance,
which scores a member on its first pick. A config with a ``bc`` block also
holds out part of its sampled dataset and clones a policy from it. Each
expensive step runs once per instance, and one payoff matrix per run serves
both the saddle solver and the evaluation. Every random choice is keyed by
seeds carried in the config, so a config fully determines the report.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pickle
import re
import sys
from collections import OrderedDict
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from .bounds import bc_sample_term, performance_gap_bound, residual_bound, stat_error
from .classes import (
    PolicyClass,
    ValueClass,
    WeightClass,
    build_constrained_classes,
    build_misspecified,
)
from .datasets import DatasetSampler, law_counts
from .extraction import clone_policy, extract_policy
from .mdp import (
    Occupancy,
    Policy,
    TabularMdp,
    _read_only,
    build_counterexample,
    build_mixing_mdp,
    data_dist_mass,
    exact_occupancy,
    policy_return,
    random_mdp,
    uniform_policy,
)
from .objective import (
    empirical_lagrangian_members,
    population_lagrangian_members,
    weighted_l2,
)
from .oracle import (
    capped_unregularized_value,
    solve_regularized,
    solve_unregularized,
)
from .regularizers import Regularizer
from .saddle import solve_exact, solve_inexact

PIPELINE_STAGES = (
    "config",
    "mdp",
    "data_dist",
    "oracle",
    "classes",
    "dataset",
    "saddle",
    "extraction",
    "evaluation",
)

_NEEDED = object()  # the default of a key that its kind cannot do without
_KIND = (None, "a kind the block lists", None)  # tested by the kind lookup, which picks the keys


def _real(value) -> bool:
    """A float, or an int that float() reads: not a bool, nor an int beyond float range."""
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)
                                        and abs(value) <= sys.float_info.max)


def _integer(least: int, seed: bool = False) -> tuple:
    """The test and spelling of an integer key; a bool is not read as one, although it is an int.
    A size is below 2**63, np.intp's bound, as it sizes arrays and counting loops; a seed is not."""
    top, bound = (np.inf, "") if seed else (np.iinfo(np.intp).max, " and below 2**63")
    return (lambda v: type(v) is int and least <= v <= top), f"an integer >= {least}{bound}"


_SIZE, _SEED = (*_integer(1), _NEEDED), (*_integer(0, seed=True), _NEEDED)
_NONNEGATIVE = (lambda v: _real(v) and 0 <= v < np.inf), "nonnegative and finite"
_SLACK = (lambda v: _real(v) and v >= 0, "nonnegative", _NEEDED)
_MDP = {"kind": _KIND, "num_states": _SIZE, "num_actions": _SIZE,
        "gamma": (lambda v: _real(v) and 0 <= v < 1, "in [0, 1)", _NEEDED)}
_DRAWN = {"kind": _KIND, "num_distractors": (*_integer(0), 8),
          "seed": (*_integer(0, seed=True), 0)}
# block -> kind -> key -> (test, spelling, default): every key a config reads, the values it
# takes and the value it reads when the key is left out (_NEEDED: the kind needs the key). A
# test of None marks a key its reader checks: the kind, and the arrays and class tables. Block
# "" is the config's own fields; a block of one kind may leave its kind out.
_BLOCK_KEYS = {
    "": {None: {"n": _SIZE, "n0": _SIZE, "seed": _SEED, "alpha": (*_NONNEGATIVE, _NEEDED),
                "delta": (lambda v: _real(v) and 0 < v < 1, "in (0, 1)", 0.1)}},
    "mdp": {
        "random": {**_MDP, "seed": _SEED},
        "mixing": {**_MDP, "seed": _SEED,
                   "mixing": (lambda v: _real(v) and 0 < v <= 1, "in (0, 1]", 0.5)},
        "counterexample": {"kind": _KIND,
                           "gamma": (lambda v: _real(v) and 0 < v < 1, "in (0, 1)", _NEEDED),
                           "instance": (lambda v: type(v) is int and v in (1, 2), "1 or 2", 1)},
        "inline": {**_MDP,  # the keys TabularMdp.to_dict writes
                   "transition": (None, "an (S, A, S) array of distributions over S", _NEEDED),
                   "reward": (None, "an (S, A) array in [0, 1]", _NEEDED),
                   "init_dist": (None, "a distribution over S", _NEEDED)},
    },
    "data_dist": {
        "uniform_policy": {"kind": _KIND},
        "policy": {"kind": _KIND, "probs": (None, "an (S, A) behavior policy", _NEEDED)},
        "explicit": {"kind": _KIND, "mass": (None, "an (S, A) distribution", _NEEDED)},
    },
    "reg": {"quadratic": {"kind": _KIND, "m_f": (lambda v: _real(v) and 0 < v < np.inf,
                                                 "positive and finite", Regularizer.m_f)}},
    "variant": {
        "plain": {"kind": _KIND},
        "inexact": {"kind": _KIND, "eps_ov": _SLACK, "eps_ow": _SLACK},  # inf: any pair
        "capped": {"kind": _KIND,  # w d^D sums to 1, so a cap below 1 admits no occupancy
                   "cap": (lambda v: _real(v) and 1 <= v < np.inf, "at least 1 and finite",
                           _NEEDED)},
        "alpha_zero": {"kind": _KIND},
    },
    "classes": {
        "realizable": _DRAWN,
        "misspecified": {**_DRAWN, "num_distractors": (*_integer(0), 0),
                         "perturbation": (*_NONNEGATIVE, _NEEDED)},
        "constrained": _DRAWN,
        "explicit": {"kind": _KIND,
                     "value_class": (None, "a ValueClass.to_config table", _NEEDED),
                     "weight_class": (None, "a WeightClass.to_config table", _NEEDED)},
    },
    "dataset": {"sampled": {"kind": _KIND}, "exact_frequency": {"kind": _KIND}},
    "bc": {"target_plus_mixes": {
        "kind": _KIND,
        "n1": (*_integer(1), lambda n: round(0.9 * n)),  # a share of the run's n
        "mix_grid": (lambda v: isinstance(v, (list, tuple))
                     and all(_real(u) and 0 <= u <= 1 for u in v),
                     "a list of numbers in [0, 1]", [0.25, 0.5, 1.0]),
        "directions": (lambda v: isinstance(v, (list, tuple)) and all(
            isinstance(d, str) and re.fullmatch(r"uniform|complement|roll-?\d+", d) for d in v),
                       "a list of 'uniform', 'complement' and 'rollK' for integers K", ["uniform"]),
    }},
}
_MOST_ENTRIES = 2**31  # of a run's two largest arrays: the S*A*S counts and |V|*|W| payoffs
_RUN_FIELDS = {"n": 1, "n0": 1, "seed": 0, "w_order": None}  # per run; Instance.config holds these


class PipelineError(RuntimeError):
    """Failure wrapper that names the pipeline stage it came from."""

    def __init__(self, stage: str, message: str):
        if stage not in PIPELINE_STAGES:
            raise ValueError(f"unknown stage {stage!r}")
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


def _kind_of(block: str, spec: dict):
    """spec's kind: a block of one kind may leave it out."""
    kinds = _BLOCK_KEYS[block]
    return spec.get("kind", next(iter(kinds)) if len(kinds) == 1 else None)


def _read(block: str, spec: dict, key: str, *args):
    """spec[key], or the key's default in ``_BLOCK_KEYS`` (a function's value at args)."""
    if key in spec:
        return spec[key]
    default = _BLOCK_KEYS[block][_kind_of(block, spec)][key][2]
    return default(*args) if callable(default) else default


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one estimation run.

    mdp / data_dist / reg / classes / variant / dataset are small dicts with
    a "kind" discriminator; bc, when present, configures the cloning stage.
    ``_BLOCK_KEYS`` lists each key every kind reads, with the values it takes
    and its default. The config hash keys report rows.
    """

    mdp: dict
    data_dist: dict
    reg: dict
    alpha: float
    n: int
    n0: int
    seed: int
    classes: dict
    variant: dict = field(default_factory=lambda: {"kind": "plain"})
    dataset: dict = field(default_factory=lambda: {"kind": "sampled"})
    delta: float = _read("", {}, "delta")  # 0.1, as _BLOCK_KEYS declares
    bc: Optional[dict] = None
    w_order: Optional[tuple] = None

    def __post_init__(self):
        for block, kinds in _BLOCK_KEYS.items():
            spec = getattr(self, block) if block else self.__dict__
            if spec is None:  # no bc block
                continue
            if not isinstance(spec, dict):
                raise PipelineError("config", f"the {block} block must be a dict, not {spec!r}")
            kind = _kind_of(block, spec)
            if not isinstance(kind, str | None) or kind not in kinds:
                raise PipelineError("config", f"unknown {block} kind {kind!r}")
            keys = kinds[kind]
            unread = spec.keys() - keys if block else ()
            if unread:
                raise PipelineError("config", f"{block} kind {kind!r} does not read "
                                              f"{sorted(unread)}; accepted keys: {list(keys)}")
            missing = [k for k, (*_, default) in keys.items()
                       if default is _NEEDED and k not in spec]
            if missing:
                raise PipelineError("config", f"{block} kind {kind!r} needs {missing}")
            for key, (test, spelling, _) in keys.items():
                if key in spec and test is not None and not test(spec[key]):
                    raise PipelineError("config", f"{block} {key}".lstrip()
                                        + f" must be {spelling}, got {spec[key]!r}")
        variant_kind, class_kind = self.variant["kind"], self.classes["kind"]
        if (self.alpha == 0) != (variant_kind == "alpha_zero"):
            raise PipelineError("config", "alpha=0 exactly when the variant kind is 'alpha_zero'")
        if variant_kind == "alpha_zero" and class_kind not in ("constrained", "explicit"):
            raise PipelineError("config", "the alpha=0 variant needs floor/box constrained classes "
                                          "(kind 'constrained' or 'explicit' with a floor)")
        if variant_kind == "capped" and self.data_dist["kind"] not in ("uniform_policy", "policy"):
            raise PipelineError("config", "the capped variant needs behavior-policy data")
        if self.bc is not None and self.dataset["kind"] == "exact_frequency":
            raise PipelineError("config", "the bc cut needs a sampled dataset: exact-frequency "
                                          "counts have no draw order to cut")
        if self.bc is not None and not (n1 := _read("bc", self.bc, "n1", self.n)) < self.n:
            raise PipelineError("config", f"bc n1 must be below n, or the cloning split is empty, "
                                          f"got n1 = {n1} at n = {self.n}")
        drawn = "num_distractors" in _BLOCK_KEYS["classes"][class_kind]  # |V| = |W| = it + 1
        for what, entries in (
                ("mdp num_states**2 * num_actions, the entries of the counts N(s,a,s')",
                 self.mdp.get("num_states", 1) ** 2 * self.mdp.get("num_actions", 1)),
                ("classes (num_distractors + 1)**2, the entries of the payoff matrix",
                 (_read("classes", self.classes, "num_distractors") + 1) ** 2 if drawn else 1)):
            if entries > _MOST_ENTRIES:
                raise PipelineError("config", f"{what}, must be at most 2**31, got {entries}")

    def to_dict(self) -> dict:
        """The fields by name, leaving out bc and w_order when they are None."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        """The config a JSON object writes: a number is read as its field's type where that
        is exact (alpha 1 as 1.0, n 1500.0 as 1500), and an empty w_order as None."""
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise PipelineError("config", f"unknown config keys {sorted(unknown)}")
        for f in fields(cls):
            if f.name not in payload and f.default is MISSING and f.default_factory is MISSING:
                raise PipelineError("config", f"missing config key {f.name!r}")

        def read(f, v):
            if f.type == "float" and type(v) is int and _real(v):
                return float(v)
            if f.type == "int" and type(v) is float and v.is_integer():
                return int(v)
            return tuple(v or ()) or None if f.name == "w_order" else v

        return cls(**{f.name: read(f, payload[f.name]) for f in fields(cls) if f.name in payload})

    @classmethod
    def from_json(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    @property
    def config_hash(self) -> str:
        return hashlib.sha256(_canonical_json(self.to_dict()).encode()).hexdigest()[:12]


_SHARED_FIELDS = tuple(f.name for f in fields(ExperimentConfig) if f.name not in _RUN_FIELDS)


def resolve_mdp(spec: dict) -> TabularMdp:
    """Instantiate the MDP named by a config dict."""
    kind = spec.get("kind")
    if kind == "random":
        return random_mdp(spec["num_states"], spec["num_actions"], spec["gamma"], seed=spec["seed"])
    if kind == "mixing":
        return build_mixing_mdp(spec["num_states"], spec["num_actions"], spec["gamma"],
                                seed=spec["seed"], mixing=_read("mdp", spec, "mixing"))
    if kind == "counterexample":
        return build_counterexample(spec["gamma"], _read("mdp", spec, "instance")).mdp
    if kind == "inline":  # TabularMdp.from_dict reads every key but the kind
        return TabularMdp.from_dict(spec)
    raise PipelineError("mdp", f"unknown mdp kind {kind!r}")


def resolve_data_dist(mdp: TabularMdp, spec: dict) -> tuple[np.ndarray, Policy]:
    """Data distribution mass and the behavior policy it defines.

    For explicit masses the behavior policy is the conditional action
    distribution with a uniform fallback on zero-mass states.
    """
    kind = spec.get("kind")
    if kind == "uniform_policy":
        pi_d = uniform_policy(mdp.num_states, mdp.num_actions)
        return exact_occupancy(mdp, pi_d).mass, pi_d
    if kind == "policy":
        pi_d = Policy(np.asarray(spec["probs"], dtype=float))
        return exact_occupancy(mdp, pi_d).mass, pi_d
    if kind == "explicit":
        try:
            mass = data_dist_mass(mdp, spec["mass"])
        except ValueError as err:
            raise PipelineError("data_dist", f"explicit mass: {err}") from None
        return mass, Occupancy(mass).conditional_policy()
    raise PipelineError("data_dist", f"unknown data_dist kind {kind!r}")


def _alpha_zero_anchor(unreg, dd: np.ndarray) -> Optional[np.ndarray]:
    """Exact ratio d*_0 / d^D, or None where the optimum leaves the support."""
    if np.any((dd <= 0) & (unreg.d_star.mass > 1e-12)):
        return None
    w0 = np.zeros_like(dd)
    pos = dd > 0
    w0[pos] = unreg.d_star.mass[pos] / dd[pos]
    return w0


def _resolve_references(mdp, dd, reg, alpha, variant, classes_kind):
    """The exact solution the classes anchor on, and an ``Instance``'s reference fields."""
    unreg = solve_unregularized(mdp)
    j_zero = float(mdp.reward.flatten() @ unreg.d_star.mass.flatten())
    kind = variant["kind"]
    if kind == "alpha_zero":
        w_ref = _alpha_zero_anchor(unreg, dd)
        if w_ref is None and classes_kind != "explicit":
            raise PipelineError(
                "oracle",
                "the optimal occupancy leaves the data support, so no ratio "
                "anchor exists; provide explicit classes",
            )
        exact, sol, j_alpha, j_ref = unreg, None, None, j_zero
    else:
        cap = variant["cap"] if kind == "capped" else None
        exact = sol = solve_regularized(mdp, dd, reg, alpha, cap=cap)
        w_ref, j_alpha = sol.w_star, float(mdp.reward.flatten() @ sol.d_star.mass.flatten())
        j_ref = j_alpha
        if kind == "capped":  # memoized: the suite reads its occupancy back
            j_ref = memoized("capped_unregularized_value", capped_unregularized_value,
                             mdp, dd, cap)[0]
    return exact, dict(
        w_ref=w_ref,
        pi_ref=exact.pi_star,
        d_ref_state=exact.d_star.state_marginal,
        j_ref=j_ref,
        j_star_alpha=j_alpha,
        j_star_zero=j_zero,
        kkt_residual=0.0 if sol is None else sol.kkt_residual,
    )


def _build_classes(cfg: ExperimentConfig, mdp, dd, reg, exact, w_ref):
    """The value and weight classes with their approximation errors eps_rv, eps_rw."""
    spec = cfg.classes
    kind = spec["kind"]
    if kind == "explicit":
        vc = ValueClass.from_config(spec["value_class"])
        wc = WeightClass.from_config(spec["weight_class"])
        if cfg.variant["kind"] == "alpha_zero" and wc.floor is None:
            raise PipelineError("classes", "alpha=0 explicit classes need a floor")
        return vc, wc, 0.0, 0.0
    drawn = {key: _read("classes", spec, key) for key in ("num_distractors", "seed")}
    if kind == "constrained":
        anchor_w, anchor_v = w_ref, exact.v_star
        if cfg.variant["kind"] == "alpha_zero":
            anchor_v = np.clip(anchor_v, 0.0, 1.0 / (1.0 - mdp.gamma))
        pi_d = Occupancy(dd).conditional_policy()
        b_w = (float(cfg.variant["cap"]) if cfg.variant["kind"] == "capped"
               else max(1.0, float(anchor_w.max())))
        b_wl = float((pi_d.probs * anchor_w).sum(axis=1).min())
        return (*build_constrained_classes(anchor_v, anchor_w, pi_d, b_w=b_w, b_wl=b_wl,
                                           gamma=mdp.gamma, **drawn), 0.0, 0.0)
    # realizable classes are the misspecified ones at perturbation 0, errors exactly 0.0
    return build_misspecified(exact, 0.0 if kind == "realizable" else spec["perturbation"], mdp,
                              dd, reg=reg, gamma=mdp.gamma, **drawn)


@dataclass(frozen=True, eq=False)
class Instance:
    """What the runs of one config share at every seed, n, n0 and w_order; built by ``prepare``,
    whose registry hands it to every later call in the process, so its arrays are read-only.

    config has n, n0, seed and w_order set to ``_RUN_FIELDS``; config_json is
    its canonical JSON cut around the n, n0 and seed values. pop is the classes'
    population payoff matrix, policies the class a run clones over (None
    without bc) and dataset the sampler a sampled run counts through (None for
    exact-frequency data). The reference fields are the
    exact quantities a run is scored against; each weight member is scored
    against them once, on its first pick.
    """

    config: ExperimentConfig
    config_json: tuple
    mdp: TabularMdp
    dd: np.ndarray
    pi_d: Policy
    reg: Regularizer
    vc: ValueClass
    wc: WeightClass
    eps_rv: float
    eps_rw: float
    pop: np.ndarray
    policies: Optional[PolicyClass]
    dataset: Optional[DatasetSampler]
    w_ref: np.ndarray  # target weight the class anchors on
    pi_ref: Policy
    d_ref_state: np.ndarray  # state marginal weighting the policy distance
    j_ref: float  # return the estimator competes with
    j_star_alpha: Optional[float]  # None at alpha = 0
    j_star_zero: float
    kkt_residual: float

    def __post_init__(self):  # the JSON before n, most of it, is hashed once
        object.__setattr__(self, "_head", hashlib.sha256(self.config_json[0].encode()))
        object.__setattr__(self, "_scores", {})  # weight member index -> member_scores

    def member_scores(self, index: int) -> tuple:
        """(j_hat, pi_l1, w_dev, w_max) of weight member index, scored on its first pick."""
        if index not in self._scores:
            w = self.wc.members[index]
            pi = extract_policy(w, self.pi_d)
            self._scores[index] = (policy_return(self.mdp, pi), _policy_l1(self, pi),
                                   weighted_l2(w, self.w_ref, self.dd), float(np.asarray(w).max()))
        return self._scores[index]

    def serves(self, cfg: ExperimentConfig) -> bool:
        """Whether cfg differs from the instance's config at most in n, n0, seed and w_order.

        Each other field is the same object, as along a sweep, or pickles to the
        same bytes: equal values of another type differ (8 == 8.0, but they hash apart).
        """
        return all(a is b or pickle.dumps(a) == pickle.dumps(b)
                   for a, b in ((getattr(cfg, name), getattr(self.config, name))
                                for name in _SHARED_FIELDS))

    def config_hash(self, cfg: ExperimentConfig) -> str:
        """cfg.config_hash, with cfg's n, n0 and seed spliced into config_json and its
        w_order, the last key, appended unless None."""
        text = "".join(str(v) + piece
                       for v, piece in zip((cfg.n, cfg.n0, cfg.seed), self.config_json[1:]))
        if cfg.w_order is not None:
            text = text[:-1] + ',"w_order":' + _canonical_json(cfg.w_order) + "}"
        digest = self._head.copy()
        digest.update(text.encode())
        return digest.hexdigest()[:12]


def _json_pieces(config: ExperimentConfig) -> tuple:
    """The canonical JSON of config, cut around its n, n0 and seed values (keys sort)."""
    payload = config.to_dict()
    part = lambda lo, hi: _canonical_json({k: v for k, v in payload.items() if lo < k < hi})[1:-1]
    return ("{" + part("", "n") + ',"n":', ',"n0":', "," + part("n0", "seed") + ',"seed":',
            "," + part("seed", "~") + "}")


# `pro-rl experiment --suite all` fills 34 entries, 1.2 MiB of arrays: 15 instances, the
# 6 samplers they share and 13 other memoized values (fixtures and reference solves)
_REGISTRY_SIZE = 48
_registry: "OrderedDict[bytes, object]" = OrderedDict()  # least recently used first
_MISSING = object()


def memoized(name: str, fn, *args):
    """fn(*args), computed once per process: ``prepare``'s instances and other seed-free work.

    Kept in one registry under the pickle of (name, args); a hit becomes the most
    recently used entry, and past ``_REGISTRY_SIZE`` the least recently used goes.
    Every caller gets the same result, so every array of it is read-only and no
    caller may change it. fn must be a pure function of args, and name must tell
    it apart from every other fn.
    """
    key = pickle.dumps((name, args))
    value = _registry.pop(key, _MISSING)  # each step is one dict call: a race at worst builds twice
    if value is _MISSING:
        value = _read_only(fn(*args))
    _registry[key] = value
    if len(_registry) > _REGISTRY_SIZE:
        _registry.popitem(last=False)
    return value


def prepare(cfg: ExperimentConfig) -> Instance:
    """Everything in a run of cfg that its seed, n, n0 and w_order do not change.

    Built once per process: an earlier call's instance is returned when its
    config, but for those run fields, pickles to the same bytes as cfg's. So
    equal values of another type do not share one (8 == 8.0, but they hash
    apart, and a run's hash splices in the instance's JSON); the pickle costs
    a small fraction of that JSON. The ``_REGISTRY_SIZE`` most recently used
    instances and ``memoized`` values are kept, and their arrays are read-only.
    When no ratio anchor exists at alpha=0 and the config supplies explicit
    classes, the target weight is weight-class member 0.
    """
    shared = object.__new__(ExperimentConfig)  # unchecked: its n is no run's size
    shared.__dict__.update(cfg.__dict__, **_RUN_FIELDS)
    return memoized("prepare", _build, shared)


def _build(cfg: ExperimentConfig) -> Instance:
    """``prepare``'s instance, built anew from a config whose run fields are ``_RUN_FIELDS``."""
    with _staged("mdp"):
        mdp = resolve_mdp(cfg.mdp)
    with _staged("data_dist"):
        dd, pi_d = resolve_data_dist(mdp, cfg.data_dist)
    reg = Regularizer(m_f=float(_read("reg", cfg.reg, "m_f")))
    with _staged("oracle"):
        exact, refs = _resolve_references(mdp, dd, reg, cfg.alpha, cfg.variant,
                                          cfg.classes["kind"])
    with _staged("classes"):
        vc, wc, eps_rv, eps_rw = _build_classes(cfg, mdp, dd, reg, exact, refs["w_ref"])
        if refs["w_ref"] is None:
            refs["w_ref"] = wc.members[0]
        policies = None
        if cfg.bc is not None:
            policies = _resolve_policy_class(cfg.bc, refs["pi_ref"], mdp.num_actions)
    with _staged("evaluation"):
        pop = population_lagrangian_members(mdp, dd, reg, cfg.alpha, vc.stack, wc.stack)
    with _staged("dataset"):  # one sampler per (MDP, d^D): instances apart in classes share it
        dataset = (memoized("DatasetSampler", DatasetSampler, mdp, dd)
                   if cfg.dataset["kind"] == "sampled" else None)
    return Instance(cfg, _json_pieces(cfg), mdp, dd, pi_d, reg,
                    vc, wc, eps_rv, eps_rw, pop, policies, dataset, **refs)


@dataclass(frozen=True)
class RunReport:
    """Everything a single run produced, in closed form where possible."""

    config_hash: str
    seed: int
    variant: str
    alpha: float
    n: int
    n0: int
    n2: Optional[int]
    j_hat: float
    j_star_alpha: Optional[float]  # None at alpha = 0: an empty cell
    j_star_zero: float
    j_ref: float
    gap_ref: float
    pi_l1: float
    pi_l1_bc: Optional[float]
    w_dev: float
    eps_hat: float
    eps_stat: float
    rhs_perf_bound: Optional[float]  # None at alpha = 0, where the gap bound is vacuous
    rhs_realized: Optional[float]
    rhs_capped: Optional[float]
    bc_sample_term: Optional[float]
    eps_rv: float
    eps_rw: float
    eps_ov: float
    eps_ow: float
    w_index: int
    v_index: int
    w_max: float
    b_v: float
    b_w: float
    kkt_residual: float

    def to_row(self) -> tuple:
        return tuple(getattr(self, name) for name in CSV_HEADER)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_HEADER}


CSV_HEADER = tuple(f.name for f in fields(RunReport))


def _policy_l1(inst: Instance, pi: Policy) -> float:
    return float(inst.d_ref_state @ np.abs(inst.pi_ref.probs - pi.probs).sum(axis=1))


def _evaluate(cfg, inst: Instance, emp, sol_hat, scores, fit, held, pi_bar):
    """Score the run in closed form; emp is the payoff matrix the saddle built from fit,
    scores the picked member's, pi_bar the policy cloned from held (None without bc)."""
    mdp, reg = inst.mdp, inst.reg
    n2 = None if held is None else held.n
    j_hat, pi_l1, w_dev, w_max = scores
    eps_hat = float(np.abs(emp - inst.pop).max())
    b_w, b_v = inst.wc.b_w, inst.vc.b_v
    eps_stat = stat_error(fit.n, fit.n0, cfg.alpha, b_w, reg.bounds(b_w)[0], b_v,
                          residual_bound(b_v, mdp.gamma), (len(inst.vc), len(inst.wc)),
                          cfg.delta, gamma=mdp.gamma)
    rhs_perf_bound = rhs_realized = None
    if cfg.alpha > 0:
        rhs_perf_bound = performance_gap_bound(eps_stat, cfg.alpha, reg.m_f, mdp.gamma)
        rhs_realized = performance_gap_bound(eps_hat, cfg.alpha, reg.m_f, mdp.gamma)
    rhs_capped = (2.0 * cfg.alpha * reg.bounds(b_w)[0] + rhs_realized
                  if cfg.variant["kind"] == "capped" else None)
    return RunReport(
        config_hash=inst.config_hash(cfg),
        seed=cfg.seed,
        variant=cfg.variant["kind"],
        alpha=cfg.alpha,
        n=fit.n + (n2 or 0),
        n0=fit.n0,
        n2=n2,
        j_hat=j_hat,
        j_star_alpha=inst.j_star_alpha,
        j_star_zero=inst.j_star_zero,
        j_ref=inst.j_ref,
        gap_ref=inst.j_ref - j_hat,
        pi_l1=pi_l1,
        pi_l1_bc=None if held is None else _policy_l1(inst, pi_bar),
        w_dev=w_dev,
        eps_hat=eps_hat,
        eps_stat=eps_stat,
        rhs_perf_bound=rhs_perf_bound,
        rhs_realized=rhs_realized,
        rhs_capped=rhs_capped,
        bc_sample_term=None if held is None else bc_sample_term(b_w, len(inst.policies),
                                                                cfg.delta, n2),
        eps_rv=inst.eps_rv,
        eps_rw=inst.eps_rw,
        eps_ov=sol_hat.eps_ov,
        eps_ow=sol_hat.eps_ow,
        w_index=sol_hat.w_index,
        v_index=sol_hat.v_index,
        w_max=w_max,
        b_v=b_v,
        b_w=b_w,
        kkt_residual=inst.kkt_residual,
    )


@contextlib.contextmanager
def _staged(stage):
    """Run a block as one pipeline stage: re-raise anything as a PipelineError."""
    try:
        yield
    except PipelineError:
        raise
    except BaseException as exc:
        raise PipelineError(stage, str(exc)) from exc


def sample_sizes(cfg: ExperimentConfig) -> tuple:
    """(n, n0, n1) of the dataset a sampled run of cfg counts: it fits transitions [0, n1)
    with every initial state and clones from [n1, n); n1 = n without a bc block."""
    return cfg.n, cfg.n0, cfg.n if cfg.bc is None else _read("bc", cfg.bc, "n1", cfg.n)


def run_pro_rl(cfg: ExperimentConfig, instance: Optional[Instance] = None) -> RunReport:
    """Run the estimator once, end to end, and score it.

    instance is ``prepare`` of a config that differs from cfg at most in
    its seed, n, n0 and w_order; without one the run takes ``prepare(cfg)``,
    which the process builds once and keeps (bounded) for later runs. With cfg.bc set, the
    sampled dataset splits into a fitting part and a cloning part: the estimator
    runs on the first, the witnessed-disagreement cloner on the second, and
    the report carries both the direct-extraction distance and the cloned
    one, so paired comparisons need a single run.
    """
    inst = instance or prepare(cfg)
    if not inst.serves(cfg):
        raise PipelineError("config", "the instance's config differs in more than seed, n and n0")
    vc, wc = inst.vc, inst.wc
    with _staged("dataset"):
        if inst.dataset is None:  # exact frequencies: the population law at n and n0
            fit, held = law_counts(inst.mdp, inst.dd, cfg.n, cfg.n0), None
        else:  # counts only: no per-transition array
            n, n0, n1 = sample_sizes(cfg)
            fit, held = inst.dataset.count(n, n0, cfg.seed, n1)
            held = None if cfg.bc is None else held
    with _staged("saddle"):
        emp = empirical_lagrangian_members(fit, inst.reg, cfg.alpha, vc.stack, wc.stack)
        if cfg.variant["kind"] == "inexact":
            sol_hat = solve_inexact(emp, eps_ov=cfg.variant["eps_ov"],
                                    eps_ow=cfg.variant["eps_ow"], seed=cfg.seed + 1)
        else:
            sol_hat = solve_exact(emp, w_order=cfg.w_order)
    with _staged("extraction"):
        scores = inst.member_scores(sol_hat.w_index)
        pi_bar = (None if held is None
                  else clone_policy(wc.members[sol_hat.w_index], held, inst.policies))
    with _staged("evaluation"):
        return _evaluate(cfg, inst, emp, sol_hat, scores, fit, held, pi_bar)


def _resolve_policy_class(spec: dict, pi_ref: Policy, num_actions: int) -> PolicyClass:
    mixes = _read("bc", spec, "mix_grid")
    members = [pi_ref]
    for name in _read("bc", spec, "directions"):
        toward = _mix_direction(name, pi_ref, num_actions)
        for u in mixes:
            members.append(Policy((1.0 - u) * pi_ref.probs + u * toward))
    return PolicyClass(tuple(members))


def _mix_direction(name: str, pi_ref: Policy, num_actions: int) -> np.ndarray:
    """Target distribution for one family of mixtures away from pi_ref.

    "uniform" heads toward the uniform policy, "rollK" cyclically shifts
    the reference probabilities by K action slots, and "complement"
    reweights toward the actions the reference avoids.
    """
    if name == "uniform":
        return np.full_like(pi_ref.probs, 1.0 / num_actions)
    if name == "complement":
        raw = 1.0 - pi_ref.probs
        return raw / raw.sum(axis=1, keepdims=True)
    return np.roll(pi_ref.probs, int(name[4:]), axis=1)


def run_pro_rl_bc(cfg: ExperimentConfig, instance: Optional[Instance] = None) -> RunReport:
    """``run_pro_rl`` for configs that must clone: cfg.bc is required."""
    if cfg.bc is None:
        raise PipelineError("config", "bc settings are required for the cloning pipeline")
    return run_pro_rl(cfg, instance)
