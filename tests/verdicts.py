"""The seed-dependent acceptance verdicts, one row each: the only spelling
of their pass conditions, read by ``test_acceptance.py`` at base seed 0 and
by ``benchmarks/power.py`` at many base seeds.

A row's ``run(base_seed, out_dir)`` returns a summary: a suite's at its
default grid, or that of a loop over seeds ``base_seed``, ``base_seed + 1``,
...; ``judge(summary)`` returns ``(passed, detail)``, the detail being the
text of its ``[acceptance NN]`` line; ``budget`` is its Tier-1 wall limit
in seconds; ``tracked`` labels and reads the one number ``power.py``
averages. A window may tighten but never widen; ``test_verdicts.py`` pins
each at its edges.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from prorl.classes import build_misspecified
from prorl.datasets import DatasetSampler
from prorl.extraction import extract_policy
from prorl.mdp import Policy, build_counterexample
from prorl.objective import empirical_lagrangian_members
from prorl.oracle import solve_regularized
from prorl.pipelines import ExperimentConfig, run_pro_rl
from prorl.regularizers import Regularizer
from prorl.saddle import solve_exact
from prorl.suites import run_experiment_suite


@dataclass(frozen=True)
class Verdict:
    number: int
    name: str
    run: Callable[[int, str], dict]
    judge: Callable[[dict], tuple]
    budget: float
    tracked: tuple | None = None  # (label, summary -> float)


def _suite(name):
    return lambda seed, out_dir: run_experiment_suite(name, str(out_dir), seed=seed)


def _slope(fit_key):
    return "slope", lambda summary: summary[fit_key]["slope"]


def committed_left_seeds(seed, out_dir=None):
    """Per counterexample instance, dataset seeds seed .. seed + 19 whose fit
    commits to LEFT, and the regularized optimum's largest uncovered mass."""
    reg, alpha = Regularizer(), 0.1
    mass_max, successes = 0.0, []
    for instance in (1, 2):
        bundle = build_counterexample(0.5, instance)
        dd = bundle.data_occupancy.mass
        sol = solve_regularized(bundle.mdp, dd, reg, alpha)
        mass_max = max(mass_max, float(sol.d_star.mass[bundle.A, bundle.RIGHT]))
        vc, wc, _, _ = build_misspecified(sol, 0.0, bundle.mdp, dd, reg=reg,  # realizable
                                          gamma=bundle.mdp.gamma, num_distractors=8, seed=0)
        pi_d = Policy(np.full((4, 2), 0.5))
        good, sampler = 0, DatasetSampler(bundle.mdp, dd)
        for s in range(seed, seed + 20):
            data = sampler.count(10000, 10000, s)[0]
            l_matrix = empirical_lagrangian_members(data, reg, alpha, vc.members, wc.members)
            sol_hat = solve_exact(l_matrix)
            pi_hat = extract_policy(wc.members[sol_hat.w_index], pi_d)
            good += bool(pi_hat.probs[bundle.A, bundle.LEFT] > 0.999)
        successes.append(good)
    return {"uncovered_mass": mass_max, "committed_left": successes}


def _judge_02(s):
    ok = s["uncovered_mass"] < 1e-8 and all(g >= 18 for g in s["committed_left"])
    return ok, (f"uncovered mass {s['uncovered_mass']:.1e}, "
                f"committed-left seeds {s['committed_left']}/20")


def _judge_05(s):
    lo, hi = -0.5, -0.15
    slope = s["median_fit"]["slope"]
    ok = lo <= slope <= hi and s["medians_monotone"]
    return ok, f"median slope {slope:.3f} in [{lo}, {hi}], monotone {s['medians_monotone']}"


def envelope_exceedances(seed, out_dir=None):
    """Runs on seeds seed .. seed + 199 where eps_hat exceeds eps_stat, and the
    largest eps_hat / eps_stat among them, which says how far 06 is from failing."""
    violations, runs, max_ratio = 0, 200, 0.0
    for s in range(seed, seed + runs):
        cfg = ExperimentConfig(
            mdp={"kind": "random", "num_states": 5, "num_actions": 3, "gamma": 0.8, "seed": 1},
            data_dist={"kind": "uniform_policy"}, reg=Regularizer().to_config(), alpha=0.3,
            n=2000, n0=2000, seed=s,
            classes={"kind": "realizable", "num_distractors": 6, "seed": 0},
        )
        r = run_pro_rl(cfg)
        violations += r.eps_hat > r.eps_stat
        max_ratio = max(max_ratio, r.eps_hat / r.eps_stat)
    return {"exceedances": violations, "runs": runs, "max_ratio": max_ratio}


def _judge_06(s):
    delta = 0.1
    violations, total = s["exceedances"], s["runs"]
    # the fraction alone: where it passes a binomial p is >= 1/2 (test_verdicts.py)
    ok = violations / total <= delta
    return ok, (f"exceedances {violations}/{total} at delta {delta}, "
                f"largest eps_hat/eps_stat {s['max_ratio']:.3f}")


def _judge_09(s):
    lo, hi = -0.65, -0.35
    slope = s["mean_fit"]["slope"]
    ok = s["min_envelope_ok"] >= 18 and lo <= slope <= hi
    return ok, (f"envelope >= {s['min_envelope_ok']}/20 per grid point, "
                f"slope {slope:.3f} in [{lo}, {hi}]")


def _judge_10(s):
    lo, hi = -0.65, -0.35
    strong = s["strong_concentrability"]
    slope = s["mean_fit"]["slope"]
    ok = strong["holds"] and strong["b_wu"] < float("inf") and lo <= slope <= hi
    return ok, (f"marginal ratios [{strong['b_wl']:.2f}, {strong['b_wu']:.2f}], "
                f"mean-gap slope {slope:.3f} in [{lo}, {hi}]")


def _judge_11(s):
    ok = s["envelope_fraction"] == 1.0 and s["cap_respected_fraction"] == 1.0
    return ok, (f"envelope {s['envelope_fraction']:.0%}, "
                f"weights under cap {s['cap_respected_fraction']:.0%}")


VERDICTS = (
    Verdict(2, "regularization_restores_identifiability", committed_left_seeds, _judge_02, 10.0),
    Verdict(5, "weight_error_shrinks_with_sample_size", _suite("rate_regularized"), _judge_05,
            600.0, _slope("median_fit")),
    Verdict(6, "deviation_envelope_holds_at_declared_confidence", envelope_exceedances, _judge_06,
            300.0, ("largest eps_hat/eps_stat", lambda summary: summary["max_ratio"])),
    Verdict(9, "cloning_error_tracks_heldout_sample_size", _suite("bc_scaling"), _judge_09,
            600.0, _slope("mean_fit")),
    Verdict(10, "return_gap_shrinks_under_two_sided_coverage", _suite("alpha_zero_strong"),
            _judge_10, 600.0, _slope("mean_fit")),
    Verdict(11, "capped_competition_under_partial_coverage", _suite("constrained_coverage"),
            _judge_11, 120.0),
)
