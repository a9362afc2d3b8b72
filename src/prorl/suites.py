"""Preconfigured experiment suites.

Each suite freezes one small MDP fixture, runs a grid of estimation configs,
and writes its artifacts into an output directory:

  rows.csv      one line per run, deterministically sorted, floats via repr
  summary.json  aggregate statistics recomputed from the rows
  plot.svg      a chart, for the suites with a trend worth looking at
  meta.json     invocation record and timestamp (the only file with a clock)

The base seed only shifts the per-run dataset seeds. Fixture construction
uses its own fixed generators, so two invocations with the same seed
reproduce rows.csv and summary.json byte for byte. A suite computes what no
seed changes once per process: its grid points' instances through
``prepare``, which also hold the capped reference and every weight member's
return, and its fixture and the other seed-free references (the b_w0 solve,
the stability sweep and its limit, the coverage check) through ``memoized``,
in the same registry. A later call writes its artifacts and runs its seeds,
nothing else.
"""

import csv
from datetime import datetime, timezone
import inspect
import json
import logging
import math
import os

import numpy as np

from .bounds import (
    approximation_error_combination,
    recommended_alpha,
    residual_bound,
    robust_gap_bound,
    unregularized_competition_slack,
)
from .classes import ValueClass, WeightClass
from .mdp import (
    Occupancy,
    Policy,
    TabularMdp,
    build_counterexample,
    exact_occupancy,
    policy_return,
    random_mdp,
    uniform_policy,
)
from .oracle import (
    capped_unregularized_value,
    lp_stability_sweep,
    min_f_divergence_weight,
    solve_regularized,
    solve_unregularized,
    strong_concentrability_check,
)
from .pipelines import (
    CSV_HEADER,
    ExperimentConfig,
    PipelineError,
    memoized,
    prepare,
    resolve_data_dist,
    resolve_mdp,
    run_pro_rl,
    run_pro_rl_bc,
)
from .regularizers import Regularizer
from .svgplot import fit_loglog, line_plot

_log = logging.getLogger(__name__)

STABILITY_HEADER = ("alpha", "v_gap", "kkt_residual", "w_min", "w_max", "in_prefix")


def _write_rows(path: str, header, rows) -> None:
    """The header, then one line per row: None as empty, floats via repr.

    Rows hold no bool or float32, which csv spells unlike ``repr(float(x))``,
    and no cell that csv would quote."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _plain(obj):
    """json.dump's hook for numpy scalars and arrays: their plain-Python value."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_plain)
        fh.write("\n")


def _report_sort_key(report):
    n2 = report.n2 if report.n2 is not None else -1
    return (report.alpha, report.n, n2, report.seed, report.variant, report.config_hash)


def _fit_plot(out_dir: str, xs, series, slope_label: str, **labels):
    """Fit the first series log-log and, when a fit exists, plot every series.

    series holds (label, ys) pairs over the shared xs; labels are the title
    and axis labels. Returns the fit summary, or None when fewer than two
    points of the first series are positive (and then writes no plot).
    """
    pairs = [(x, y) for x, y in zip(xs, series[0][1]) if y > 0]
    if len(pairs) < 2:
        return None
    fit = fit_loglog([p[0] for p in pairs], [p[1] for p in pairs])
    line_plot(
        os.path.join(out_dir, "plot.svg"),
        [{"label": label, "xs": xs, "ys": ys} for label, ys in series],
        loglog=True,
        annotation=f"{slope_label} {fit['slope']:.3f}",
        **labels,
    )
    return {**fit, "slope_ci": list(fit["slope_ci"])}


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def counterexample_fixture(gamma: float = 0.5, instance: int = 1) -> dict:
    """Config pieces for the identifiability counterexample at one instance.

    The single value member is the optimal value function; the two weight
    members tie exactly under the population objective. The weight floor is
    level zero so the alpha=0 variant accepts the class.
    """
    bundle = build_counterexample(gamma, instance)
    pi_d = Policy(np.full((bundle.mdp.num_states, bundle.mdp.num_actions), 0.5))
    vc = ValueClass(members=(bundle.v_star_unreg,), b_v=1.0, lower=0.0)
    wc = WeightClass(
        members=(bundle.w_left, bundle.w_right),
        b_w=float(max(bundle.w_left.max(), bundle.w_right.max())),
        floor=(0.0, pi_d),
    )
    return {
        "mdp": {"kind": "counterexample", "gamma": gamma, "instance": instance},
        "data_dist": {"kind": "explicit", "mass": bundle.data_occupancy.mass.tolist()},
        "reg": Regularizer().to_config(),
        "classes": {
            "kind": "explicit",
            "value_class": vc.to_config(),
            "weight_class": wc.to_config(),
        },
    }


def rate_regularized_fixture() -> dict:
    """Ten-state fixture whose weight class is a ladder of occupancy blends.

    Five support-preserving exponential tilts of the regularized target
    policy give flow-consistent far members; blending each toward the target
    at six depths yields thirty members whose population margins shrink
    quadratically with the blend depth, which is what lets the empirical
    argmax drift at small n and settle as n grows.
    """
    mdp = random_mdp(10, 3, 0.8, seed=7)
    pi_d = uniform_policy(10, 3)
    dd = exact_occupancy(mdp, pi_d).mass
    reg = Regularizer()
    alpha = 0.3
    sol = solve_regularized(mdp, dd, reg, alpha)

    rng = np.random.default_rng(1234)
    far_members = []
    for _ in range(5):
        tilt = sol.pi_star.probs * np.exp(0.8 * rng.standard_normal((10, 3)))
        pi_k = Policy(tilt / tilt.sum(axis=1, keepdims=True))
        far_members.append(exact_occupancy(mdp, pi_k).mass / dd)
    rungs = (0.003, 0.006, 0.012, 0.0225, 0.045, 0.09)
    w_members = [sol.w_star]
    for w_far in far_members:
        for t in rungs:
            w_members.append((1.0 - t) * sol.w_star + t * w_far)
    b_w = 1.05 * max(float(w.max()) for w in w_members)
    wc = WeightClass(members=tuple(w_members), b_w=b_w)

    rng_v = np.random.default_rng(77)
    v_members = [sol.v_star]
    for _ in range(30):
        v_members.append(np.clip(sol.v_star + 0.3 * rng_v.standard_normal(10), 0.0, 5.0))
    vc = ValueClass(members=tuple(v_members), b_v=5.0, lower=0.0)

    return {
        "mdp": {"kind": "random", "num_states": 10, "num_actions": 3, "gamma": 0.8, "seed": 7},
        "data_dist": {"kind": "uniform_policy"},
        "reg": reg.to_config(),
        "alpha": alpha,
        "classes": {
            "kind": "explicit",
            "value_class": vc.to_config(),
            "weight_class": wc.to_config(),
        },
    }


def ring_fixture() -> dict:
    """Layered-bandit ring where every policy shares one state marginal.

    Transition rows ignore the action, so the two-sided marginal ratio check
    holds with both constants equal to one under the uniform behavior policy.
    Each non-anchor weight member swaps one state onto a deviating action
    whose reward is depressed by exactly target / d(s); picking member k
    therefore costs exactly targets[k-1] in return.
    """
    num_states, num_actions, gamma = 8, 3, 0.8
    rng = np.random.default_rng(42)
    rows = 0.4 * rng.dirichlet(2.0 * np.ones(num_states), size=num_states)
    for s in range(num_states):
        rows[s, (s + 1) % num_states] += 0.6
    transition = np.repeat(rows[:, None, :], num_actions, axis=1)
    init = np.full(num_states, 1.0 / num_states)
    d_state = np.linalg.solve(
        np.eye(num_states) - gamma * rows.T, (1.0 - gamma) * init
    )
    targets = np.logspace(-3.0, -1.0, 16)
    reward = np.full((num_states, num_actions), 0.9)
    cells = [(k % num_states, 1 + k // num_states) for k in range(len(targets))]
    for k, (s, a) in enumerate(cells):
        reward[s, a] = 0.9 - targets[k] / d_state[s]
    mdp = TabularMdp(num_states, num_actions, transition, reward, gamma, init)

    pi_d = uniform_policy(num_states, num_actions)
    w_star = np.zeros((num_states, num_actions))
    w_star[:, 0] = float(num_actions)
    w_members = [w_star]
    for s, a in cells:
        w_k = w_star.copy()
        w_k[s, 0] = 0.0
        w_k[s, a] = float(num_actions)
        w_members.append(w_k)
    wc = WeightClass(members=tuple(w_members), b_w=float(num_actions), floor=(1.0, pi_d))

    v_exact = np.full(num_states, 0.9 / (1.0 - gamma))
    rng_v = np.random.default_rng(99)
    v_members = [v_exact]
    for _ in range(6):
        v_members.append(np.clip(v_exact + rng_v.standard_normal(num_states), 0.0, 5.0))
    vc = ValueClass(members=tuple(v_members), b_v=5.0, lower=0.0)

    return {
        "mdp": {"kind": "inline", **mdp.to_dict()},
        "data_dist": {"kind": "uniform_policy"},
        "reg": Regularizer().to_config(),
        "classes": {
            "kind": "explicit",
            "value_class": vc.to_config(),
            "weight_class": wc.to_config(),
        },
        "targets": targets.tolist(),
    }


def stability_fixture() -> dict:
    """Three-state chain with a non-unique unregularized optimum.

    Both rewarding actions at the start state reach absorbing states of
    equal value, so the optimal face is a segment. The third action also
    lands in a visited state, which keeps every dual coordinate pinned by
    complementarity and the value gap exactly linear in alpha on the
    constant-prefix range.
    """
    transition = np.zeros((3, 3, 3))
    transition[0, 0, 1] = 1.0
    transition[0, 1, 2] = 1.0
    transition[0, 2, 1] = 1.0
    transition[1, :, 1] = 1.0
    transition[2, :, 2] = 1.0
    reward = np.array([[0.5, 0.5, 0.2], [0.9, 0.9, 0.9], [0.9, 0.9, 0.9]])
    init = np.array([1.0, 0.0, 0.0])
    mdp = TabularMdp(3, 3, transition, reward, 0.6, init)
    pi_d = Policy(
        np.array([[0.5, 0.2, 0.3], [1 / 3, 1 / 3, 1 / 3], [1 / 3, 1 / 3, 1 / 3]])
    )
    dd = exact_occupancy(mdp, pi_d).mass
    return {"mdp": mdp, "pi_d": pi_d, "dd": dd, "reg": Regularizer()}


def capped_fixture() -> dict:
    """Four-state MDP whose best action is invisible to the data.

    The behavior policy never plays action 0 at the start state, so the
    best achievable competitor under a weight cap routes through the two
    covered arms; the capped oracle return is the reference the estimator
    is scored against.
    """
    transition = np.zeros((4, 3, 4))
    transition[0, 0, 3] = 1.0
    transition[0, 1, 1] = 0.25
    transition[0, 1, 2] = 0.75
    transition[0, 2, 1] = 0.05
    transition[0, 2, 2] = 0.95
    for s in (1, 2, 3):
        transition[s, :, s] = 1.0
    reward = np.array(
        [[0.0, 0.0, 0.0], [0.6, 0.6, 0.6], [0.4, 0.4, 0.4], [1.0, 1.0, 1.0]]
    )
    init = np.array([1.0, 0.0, 0.0, 0.0])
    mdp = TabularMdp(4, 3, transition, reward, 0.7, init)
    pi_d_probs = [
        [0.0, 0.4, 0.6],
        [1 / 3, 1 / 3, 1 / 3],
        [1 / 3, 1 / 3, 1 / 3],
        [1 / 3, 1 / 3, 1 / 3],
    ]
    return {
        "mdp": {"kind": "inline", **mdp.to_dict()},
        "data_dist": {"kind": "policy", "probs": pi_d_probs},
        "reg": Regularizer().to_config(),
        "cap": 2.0,
    }


def bc_fixture(n1: int = 60000) -> dict:
    """Fixture for paired direct-extraction versus cloned-policy runs."""
    return {
        "mdp": {"kind": "random", "num_states": 5, "num_actions": 3, "gamma": 0.8, "seed": 11},
        "data_dist": {"kind": "uniform_policy"},
        "reg": Regularizer().to_config(),
        "alpha": 0.3,
        "classes": {"kind": "realizable", "num_distractors": 8, "seed": 0},
        "bc": {
            "n1": n1,
            "kind": "target_plus_mixes",
            "mix_grid": np.logspace(-3.0, -0.5, 10).tolist(),
            "directions": ["uniform", "roll1", "roll2", "complement"],
        },
    }


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _sweep(out_dir: str, seed: int, num_seeds: int, base: dict, points: dict):
    """Run every grid point at num_seeds dataset seeds and write rows.csv.

    Point ``label`` runs ``ExperimentConfig(**base, **points[label],
    seed=seed + s)`` for each s < num_seeds, a bc config through
    ``run_pro_rl_bc``, on ``prepare`` of its first config, so points that
    differ only in n, n0 and w_order share one instance. The runs go seed
    by seed, each seed's in ascending label order: points on one (MDP, d^D)
    and the same n, n0 and seed then count one dataset, which their shared
    sampler keeps between them. Rows are sorted before they are written, so
    neither this order nor that of a grid in the overrides reaches the
    artifacts. Returns {label: reports}, labels ascending and reports in seed
    order, and {label: instance}, for the suites' seed-free references.

    Both drivers are read as module globals on every run, so a harness that
    rebinds them in this module sees each run.
    """
    cfgs = {label: [ExperimentConfig(**base, **points[label], seed=seed + s)
                    for s in range(num_seeds)] for label in sorted(points)}
    instances = {label: prepare(runs[0]) for label, runs in cfgs.items()}
    batches = {label: [] for label in cfgs}
    for s in range(num_seeds):
        for label, runs in cfgs.items():
            drive = run_pro_rl if runs[s].bc is None else run_pro_rl_bc
            batches[label].append(drive(runs[s], instances[label]))
    ordered = sorted((r for batch in batches.values() for r in batch), key=_report_sort_key)
    _write_rows(os.path.join(out_dir, "rows.csv"), CSV_HEADER, [r.to_row() for r in ordered])
    return batches, instances


def _b_w0(mdp_cfg: dict) -> float:
    """Largest ratio d*_0 / d^D on the MDP mdp_cfg names, under uniform-policy data."""
    mdp = resolve_mdp(mdp_cfg)
    dd, _ = resolve_data_dist(mdp, {"kind": "uniform_policy"})
    return float((solve_unregularized(mdp).d_star.mass / dd).max())


def _sizes(grid, n0=lambda n: n) -> dict:
    """Grid points that set the sample size n and its initial-state count n0."""
    return {int(n): {"n": int(n), "n0": n0(int(n))} for n in grid}


def _suite_counterexample(out_dir: str, seed: int, gamma: float = 0.5) -> dict:
    fixtures = {i: memoized("counterexample_fixture", counterexample_fixture, gamma, i)
                for i in (1, 2)}
    orders = {"adversarial": (1, 0), "friendly": None}
    base = {"alpha": 0.0, "n": 6, "n0": 1, "variant": {"kind": "alpha_zero"},
            "dataset": {"kind": "exact_frequency"}}
    points = {
        (instance, label): {"w_order": order,
                            **{k: fx[k] for k in ("mdp", "data_dist", "reg", "classes")}}
        for instance, fx in fixtures.items()
        for label, order in orders.items()
    }
    batches, instances = _sweep(out_dir, seed, 1, base, points)

    per_instance = {}
    for instance in fixtures:
        inst = instances[instance, "friendly"]  # both orders share it: w_order is a run field
        tie_gap = float(abs(inst.pop[0, 0] - inst.pop[1, 0]))
        j_star = inst.j_star_zero
        regret_right = j_star - inst.member_scores(1)[0]  # weight member 1 is w_right

        gaps = {label: batches[instance, label][0].gap_ref for label in orders}
        per_instance[f"instance_{instance}"] = {
            "population_tie_gap": tie_gap,
            "oracle_right_policy_regret": regret_right,
            "gap_adversarial": gaps["adversarial"],
            "gap_friendly": gaps["friendly"],
            "j_star_zero": j_star,
        }
        _log.info(f"[counterexample] instance {instance}: tie gap {tie_gap:.2e}, "
                  f"adversarial gap {gaps['adversarial']:.4f}")

    worst_gap = max(v["gap_adversarial"] for v in per_instance.values())
    worst_regret = max(v["oracle_right_policy_regret"] for v in per_instance.values())
    return {
        "gamma": gamma,
        "instances": per_instance,
        "max_population_tie_gap": max(v["population_tie_gap"] for v in per_instance.values()),
        "worst_instance_gap": worst_gap,
        "gap_over_regret_ratio": worst_gap / worst_regret if worst_regret > 0 else float("nan"),
        "friendly_gap_max": max(v["gap_friendly"] for v in per_instance.values()),
    }


def _suite_rate_regularized(
    out_dir: str,
    seed: int,
    n_grid=(100, 1000, 10000, 100000),
    num_seeds: int = 20,
) -> dict:
    fx = memoized("rate_regularized_fixture", rate_regularized_fixture)
    base = {k: fx[k] for k in ("mdp", "data_dist", "reg", "alpha", "classes")}
    batches, _ = _sweep(out_dir, seed, num_seeds, base, _sizes(n_grid))
    per_n = {}
    for n, batch in batches.items():
        devs = [r.w_dev for r in batch]
        per_n[str(n)] = {
            "w_dev_median": float(np.median(devs)),
            "w_dev_mean": float(np.mean(devs)),
            "exact_picks": sum(1 for r in batch if r.w_index == 0),
        }
        _log.info(f"[rate_regularized] n={n}: median dev {np.median(devs):.5f}")

    ns = list(batches)
    medians = [per_n[str(n)]["w_dev_median"] for n in ns]
    means = [per_n[str(n)]["w_dev_mean"] for n in ns]
    fit = _fit_plot(
        out_dir,
        ns,
        [("median weight error", medians), ("mean weight error", means)],
        "median slope",
        title="weight estimation error vs sample size",
        xlabel="n",
        ylabel="||w_hat - w*||_{2,dD}",
    )
    return {
        "alpha": fx["alpha"],
        "n_grid": ns,
        "num_seeds": num_seeds,
        "per_n": per_n,
        "medians": medians,
        "median_fit": fit,
        "medians_monotone": all(a >= b - 1e-12 for a, b in zip(medians, medians[1:])),
    }


def _suite_rate_unregularized(
    out_dir: str,
    seed: int,
    n_grid=(1000, 10000, 100000),
    num_seeds: int = 10,
) -> dict:
    mdp_cfg = {
        "kind": "mixing",
        "num_states": 8,
        "num_actions": 3,
        "gamma": 0.8,
        "seed": 5,
        "mixing": 0.5,
    }
    b_w0 = memoized("_b_w0", _b_w0, mdp_cfg)  # it picks alpha, before any instance exists
    reg = Regularizer()
    b_f0 = float(reg.eval(b_w0))

    points = _sizes(n_grid)
    for n, point in points.items():
        point["alpha"] = recommended_alpha(float(n) ** -0.25, b_f0)
    base = {"mdp": mdp_cfg, "data_dist": {"kind": "uniform_policy"}, "reg": reg.to_config(),
            "classes": {"kind": "realizable", "num_distractors": 8, "seed": 0}}
    batches, _ = _sweep(out_dir, seed, num_seeds, base, points)
    per_n = {}
    for n, batch in batches.items():
        alpha = points[n]["alpha"]
        gaps = [r.j_star_zero - r.j_hat for r in batch]
        budgets = [
            unregularized_competition_slack(r.alpha, b_f0) + r.rhs_realized for r in batch
        ]
        ok = sum(1 for g, b in zip(gaps, budgets) if g <= b + 1e-12)
        per_n[str(n)] = {
            "alpha": alpha,
            "gap_zero_mean": float(np.mean(gaps)),
            "gap_zero_median": float(np.median(gaps)),
            "budget_mean": float(np.mean(budgets)),
            "envelope_ok": ok,
            "positive_gaps": sum(1 for g in gaps if g > 0),
        }
        _log.info(f"[rate_unregularized] n={n}: alpha {alpha:.5f}, "
                  f"envelope {ok}/{len(batch)}")

    ns = list(batches)
    budget_means = [per_n[str(n)]["budget_mean"] for n in ns]
    line_plot(
        os.path.join(out_dir, "plot.svg"),
        [
            {"label": "competition budget (mean)", "xs": ns, "ys": budget_means},
            {
                "label": "gap to unregularized optimum (mean)",
                "xs": ns,
                "ys": [per_n[str(n)]["gap_zero_mean"] for n in ns],
            },
        ],
        title="competing with the unregularized optimum",
        xlabel="n",
        ylabel="return gap",
        loglog=True,
        annotation=f"b_f0 {b_f0:.3f}",
    )
    envelope = sum(per_n[str(n)]["envelope_ok"] for n in ns)
    return {
        "b_w0": b_w0,
        "b_f0": b_f0,
        "n_grid": ns,
        "num_seeds": num_seeds,
        "per_n": per_n,
        "envelope_fraction": envelope / (len(ns) * num_seeds),
        "budgets_decreasing": all(a > b for a, b in zip(budget_means, budget_means[1:])),
    }


def _suite_lp_stability(
    out_dir: str,
    seed: int,
    alpha_grid=(0.2, 0.1, 0.05, 0.02, 0.01, 0.005),
) -> dict:
    fx = memoized("stability_fixture", stability_fixture)
    problem = (fx["mdp"], fx["dd"], fx["reg"])
    sweep = memoized("lp_stability_sweep", lp_stability_sweep, *problem, alpha_grid)
    w_limit, j_div = memoized("min_f_divergence_weight", min_f_divergence_weight, *problem)
    limit_err = float(np.abs(sweep.limit_w - w_limit).max())

    total = len(sweep.rows)
    rows = []
    for i, row in enumerate(sweep.rows):
        rows.append(
            (
                row.alpha,
                row.v_gap,
                row.kkt_residual,
                float(row.w_star.min()),
                float(row.w_star.max()),
                1 if i >= total - sweep.constant_prefix_len else 0,
            )
        )
    _write_rows(os.path.join(out_dir, "rows.csv"), STABILITY_HEADER, rows)

    alphas = [row.alpha for row in sweep.rows]
    gaps = [row.v_gap for row in sweep.rows]
    fitted = [sweep.v_gap_slope * a + sweep.v_gap_intercept for a in alphas]
    line_plot(
        os.path.join(out_dir, "plot.svg"),
        [
            {"label": "value gap", "xs": alphas, "ys": gaps},
            {"label": "prefix line fit", "xs": alphas, "ys": fitted},
        ],
        title="value drift along the regularization path",
        xlabel="alpha",
        ylabel="||v*_alpha - v*_0||_{2,dD}",
        loglog=False,
        annotation=f"slope {sweep.v_gap_slope:.4f}, r2 {sweep.v_gap_r2:.5f}",
    )
    _log.info(f"[lp_stability] prefix {sweep.constant_prefix_len}/{total}, "
              f"limit err {limit_err:.2e}, r2 {sweep.v_gap_r2:.5f}")
    return {
        "alpha_grid": list(alpha_grid),
        "constant_prefix_len": sweep.constant_prefix_len,
        "limit_matches_min_divergence_err": limit_err,
        "min_divergence_value": float(j_div),
        "v_gap_slope": sweep.v_gap_slope,
        "v_gap_intercept": sweep.v_gap_intercept,
        "v_gap_r2": sweep.v_gap_r2,
        "max_kkt_residual": max(row.kkt_residual for row in sweep.rows),
    }


def _capped_policy_return(mdp: TabularMdp, dd: np.ndarray, cap: float) -> float:
    """policy_return of the policy that the capped LP's optimal occupancy defines."""
    _, mass = memoized("capped_unregularized_value", capped_unregularized_value, mdp, dd, cap)
    return policy_return(mdp, Occupancy(mass).conditional_policy())


def _suite_constrained_coverage(
    out_dir: str,
    seed: int,
    num_seeds: int = 20,
    n: int = 4000,
) -> dict:
    fx = memoized("capped_fixture", capped_fixture)
    base = {
        "mdp": fx["mdp"],
        "data_dist": fx["data_dist"],
        "reg": fx["reg"],
        "alpha": 0.1,
        "classes": {"kind": "constrained", "num_distractors": 8, "seed": 0},
        "variant": {"kind": "capped", "cap": fx["cap"]},
    }
    points = _sizes((n,), lambda n: max(n // 10, 10))
    batches, instances = _sweep(out_dir, seed, num_seeds, base, points)
    (reports,), (inst,) = batches.values(), instances.values()
    j_cap = inst.j_ref  # the capped LP value, solved once by prepare
    # the LP value against the exact return of the policy its occupancy defines
    ref_err = abs(memoized("_capped_policy_return", _capped_policy_return,
                           inst.mdp, inst.dd, fx["cap"]) - j_cap)

    envelope_ok = sum(1 for r in reports if r.gap_ref <= r.rhs_capped + 1e-12)
    cap_ok = sum(1 for r in reports if r.w_max <= r.b_w + 1e-9)
    _log.info(f"[constrained_coverage] envelope {envelope_ok}/{len(reports)}, "
              f"cap respected {cap_ok}/{len(reports)}")
    return {
        "cap": fx["cap"],
        "n": int(n),
        "num_seeds": num_seeds,
        "j_capped_reference": float(j_cap),
        "j_unregularized": inst.j_star_zero,
        "reference_consistency_err": float(ref_err),
        "envelope_fraction": envelope_ok / len(reports),
        "cap_respected_fraction": cap_ok / len(reports),
        "gap_mean": float(np.mean([r.gap_ref for r in reports])),
        "rhs_capped_mean": float(np.mean([r.rhs_capped for r in reports])),
    }


def _suite_alpha_zero_strong(
    out_dir: str,
    seed: int,
    n_grid=(100, 1000, 10000, 100000),
    num_seeds: int = 20,
) -> dict:
    fx = memoized("ring_fixture", ring_fixture)
    base = {k: fx[k] for k in ("mdp", "data_dist", "reg", "classes")}
    base.update(alpha=0.0, variant={"kind": "alpha_zero"})
    points = _sizes(n_grid, lambda n: max(n // 10, 10))
    batches, instances = _sweep(out_dir, seed, num_seeds, base, points)
    inst = next(iter(instances.values()))  # the grid varies only n
    strong = memoized("strong_concentrability_check", strong_concentrability_check,
                      inst.mdp, inst.dd, inst.d_ref_state)
    per_n = {}
    for n, batch in batches.items():
        gaps = [r.gap_ref for r in batch]
        per_n[str(n)] = {
            "gap_mean": float(np.mean(gaps)),
            "gap_median": float(np.median(gaps)),
            "exact_picks": sum(1 for r in batch if r.w_index == 0),
        }
        _log.info(f"[alpha_zero_strong] n={n}: mean gap {np.mean(gaps):.6f}")

    ns = list(batches)
    means = [per_n[str(n)]["gap_mean"] for n in ns]
    fit = _fit_plot(
        out_dir,
        ns,
        [("mean return gap", means)],
        "slope",
        title="return gap vs sample size under two-sided coverage",
        xlabel="n",
        ylabel="J(pi*) - J(pi_hat)",
    )
    return {
        "n_grid": ns,
        "num_seeds": num_seeds,
        "strong_concentrability": {
            "b_wu": strong.b_wu,
            "b_wl": strong.b_wl,
            "holds": bool(strong.holds),
        },
        "per_n": per_n,
        "means": means,
        "mean_fit": fit,
    }


def _suite_bc_scaling(
    out_dir: str,
    seed: int,
    n2_grid=(500, 1000, 2000, 4000, 8000),
    num_seeds: int = 20,
    n1: int = 60000,
) -> dict:
    fx = memoized("bc_fixture", bc_fixture, n1)
    factor = 1.5
    base = {k: fx[k] for k in ("mdp", "data_dist", "reg", "alpha", "classes", "bc")}
    base["n0"] = 2000
    batches, _ = _sweep(
        out_dir, seed, num_seeds, base, {int(n2): {"n": n1 + int(n2)} for n2 in n2_grid}
    )
    per_n2 = {}
    for n2, batch in batches.items():
        ok = sum(r.pi_l1_bc <= r.pi_l1 + factor * r.bc_sample_term + 1e-12 for r in batch)
        per_n2[str(n2)] = {
            "pi_l1_bc_mean": float(np.mean([r.pi_l1_bc for r in batch])),
            "pi_l1_mean": float(np.mean([r.pi_l1 for r in batch])),
            "bc_sample_term_mean": float(np.mean([r.bc_sample_term for r in batch])),
            "envelope_ok": ok,
            "saddle_misses": sum(1 for r in batch if r.w_index != 0),
        }
        _log.info(f"[bc_scaling] n2={n2}: mean cloned distance "
                  f"{per_n2[str(n2)]['pi_l1_bc_mean']:.5f}, "
                  f"envelope {ok}/{len(batch)}")

    n2s = list(batches)
    means = [per_n2[str(x)]["pi_l1_bc_mean"] for x in n2s]
    direct = [per_n2[str(x)]["pi_l1_mean"] + factor * per_n2[str(x)]["bc_sample_term_mean"]
              for x in n2s]
    fit = _fit_plot(
        out_dir,
        n2s,
        [("cloned policy distance (mean)", means), ("direct distance + sample term", direct)],
        "slope",
        title="cloning error vs held-out sample size",
        xlabel="n2",
        ylabel="E_{d*}||pi* - pi||_1",
    )
    return {
        "n1": n1,
        "n2_grid": n2s,
        "num_seeds": num_seeds,
        "envelope_factor": factor,
        "per_n2": per_n2,
        "means": means,
        "mean_fit": fit,
        "min_envelope_ok": min(per_n2[str(x)]["envelope_ok"] for x in n2s),
    }


def _suite_robustness(
    out_dir: str,
    seed: int,
    perturbations=(0.0, 0.05, 0.1),
    oracle_errors=(0.0, 0.02),
    num_seeds: int = 5,
) -> dict:
    gamma = 0.8
    alpha = 0.3
    reg = Regularizer()
    base = {
        "mdp": {"kind": "random", "num_states": 6, "num_actions": 3, "gamma": gamma, "seed": 3},
        "data_dist": {"kind": "uniform_policy"},
        "reg": reg.to_config(),
        "alpha": alpha,
        "n": 5000,
        "n0": 5000,
    }
    points = {
        (pert, eps_o): {
            "classes": {"kind": "misspecified", "perturbation": pert, "num_distractors": 6,
                        "seed": 1},
            "variant": ({"kind": "inexact", "eps_ov": eps_o, "eps_ow": eps_o} if eps_o
                        else {"kind": "plain"}),
        }
        for pert in perturbations
        for eps_o in oracle_errors
    }
    batches, _ = _sweep(out_dir, seed, num_seeds, base, points)

    cells = {}
    worst_ratio = 0.0
    for (pert, eps_o), batch in batches.items():
        cell_chain = cell_robust = 0
        for r in batch:
            lhs_mid = r.pi_l1 / (1.0 - gamma)
            cell_chain += (
                r.gap_ref <= lhs_mid + 1e-9
                and lhs_mid <= 2.0 * r.w_dev / (1.0 - gamma) + 1e-9
            )
            b_e = residual_bound(r.b_v, gamma)
            eps_app = approximation_error_combination(
                r.eps_rv, r.eps_rw, r.b_w, b_e, reg.m_f * r.b_w, alpha
            )
            bound = robust_gap_bound(
                r.eps_hat, r.eps_ov + r.eps_ow, eps_app, alpha, reg.m_f, gamma
            )
            cell_robust += r.gap_ref <= bound + 1e-9
            if bound > 0:
                worst_ratio = max(worst_ratio, r.gap_ref / bound)
        cells[f"pert_{pert}_eps_{eps_o}"] = {
            "chain_ok": cell_chain,
            "robust_ok": cell_robust,
            "gap_mean": float(np.mean([r.gap_ref for r in batch])),
            "eps_rv": batch[0].eps_rv,
            "eps_rw": batch[0].eps_rw,
        }
        _log.info(f"[robustness] pert={pert} eps={eps_o}: chain {cell_chain}/"
                  f"{len(batch)}, robust {cell_robust}/{len(batch)}")

    total = len(points) * num_seeds
    return {
        "alpha": alpha,
        "perturbations": list(perturbations),
        "oracle_errors": list(oracle_errors),
        "num_seeds": num_seeds,
        "cells": cells,
        "chain_fraction": sum(c["chain_ok"] for c in cells.values()) / total,
        "robust_fraction": sum(c["robust_ok"] for c in cells.values()) / total,
        "worst_gap_over_bound": worst_ratio,
    }


_SUITE_FUNCS = {
    "counterexample": _suite_counterexample,
    "rate_regularized": _suite_rate_regularized,
    "rate_unregularized": _suite_rate_unregularized,
    "lp_stability": _suite_lp_stability,
    "constrained_coverage": _suite_constrained_coverage,
    "alpha_zero_strong": _suite_alpha_zero_strong,
    "bc_scaling": _suite_bc_scaling,
    "robustness": _suite_robustness,
}
SUITE_NAMES = tuple(_SUITE_FUNCS)


def _override_problem(key: str, value, default):
    """Why value cannot replace a suite setting's default, or None if it can.

    A count (int default) takes an integer >= 1 and a float default a finite
    number. A list takes a non-empty list of distinct finite numbers: whole
    where the default's are, positive for ``*_grid`` keys, else nonnegative.
    """
    def number(x):
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)

    if isinstance(default, tuple):
        grid, whole = key.endswith("_grid"), isinstance(default[0], int)
        ok = isinstance(value, (list, tuple)) and len(value) > 0 and all(
            number(x) and (x > 0 or x == 0 and not grid) and (x == int(x) or not whole)
            for x in value
        ) and len(set(value)) == len(value)
        kind = f"{'positive' if grid else 'nonnegative'}{' whole' if whole else ''}"
        return None if ok else f"must be a non-empty list of distinct {kind} numbers"
    if isinstance(default, int):
        ok = number(value) and isinstance(value, int) and value >= 1
        return None if ok else "must be an integer >= 1"
    return None if number(value) else "must be a finite number"


def run_experiment_suite(name: str, out_dir: str, seed: int = 0, **overrides) -> dict:
    """Run one named suite and write its artifacts under out_dir.

    Overrides replace the suite function's keyword defaults, so tests can
    shrink grids; each is checked before anything is written. Returns the
    summary dict that also lands in summary.json.
    """
    if name not in _SUITE_FUNCS:
        raise PipelineError("config", f"unknown suite {name!r}, expected one of {SUITE_NAMES}")
    func = _SUITE_FUNCS[name]
    defaults = {
        key: p.default
        for key, p in inspect.signature(func).parameters.items()
        if p.default is not inspect.Parameter.empty
    }
    for key, value in overrides.items():
        why = _override_problem(key, value, defaults[key]) if key in defaults else "is unknown"
        if why is not None:
            accepted = ", ".join(f"{k}={v!r}" for k, v in defaults.items())
            raise PipelineError("config", f"suite {name!r}: override {key}={value!r} {why}; "
                                          f"accepted keys: {accepted}")
    os.makedirs(out_dir, exist_ok=True)
    summary = {"suite": name, **func(out_dir, seed, **overrides)}
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    meta = {
        "suite": name,
        "base_seed": seed,
        "overrides": overrides,
        "written_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }
    _write_json(os.path.join(out_dir, "meta.json"), meta)
    return summary
