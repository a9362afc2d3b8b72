"""Pass rates of the seed-dependent acceptance checks over many base seeds.

Run from the root of a checkout:

    python benchmarks/power.py --num-seeds 60

The acceptance tests (``tests/test_acceptance.py``) run each suite once, at
base seed 0. This script reruns the suites behind the verdicts that depend on
the sampled data at base seeds 1000 * k, k = 0 .. num_seeds - 1, applies the
same pass conditions (without the wall-time budgets), and prints each
verdict's pass rate, with the mean and standard deviation of its fitted
slope where it has one, and its suite's wall seconds per base seed: at the
first base seed, which prepares the suite's instances, and the mean over the
later ones, which reuse them, so the second is what each added seed costs.
A verdict that passes at seed 0 but on only about half of the seeds sits on
the edge of its window, so any change to a random stream can flip it without
the estimator being wrong.

- 05 weight_error_shrinks_with_sample_size (rate_regularized)
- 09 cloning_error_tracks_heldout_sample_size (bc_scaling)
- 10 return_gap_shrinks_under_two_sided_coverage (alpha_zero_strong)
- 11 capped_competition_under_partial_coverage (constrained_coverage)

The file name does not match ``test_*.py``, so the Tier-1 run never collects
it. Suites run one after another in this process, at their default grids,
and write their artifacts to a temporary directory.
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from prorl.suites import run_experiment_suite  # noqa: E402


def _check_05(s):
    return -0.5 <= s["median_fit"]["slope"] <= -0.15 and s["medians_monotone"]


def _check_09(s):
    return s["min_envelope_ok"] >= 18 and -0.65 <= s["mean_fit"]["slope"] <= -0.35


def _check_10(s):
    strong = s["strong_concentrability"]
    slope_ok = -0.65 <= s["mean_fit"]["slope"] <= -0.35
    return strong["holds"] and strong["b_wu"] < float("inf") and slope_ok


def _check_11(s):
    return s["envelope_fraction"] == 1.0 and s["cap_respected_fraction"] == 1.0


# (verdict number, suite, summary key of the fitted slope or None, pass condition)
CHECKS = (
    (5, "rate_regularized", "median_fit", _check_05),
    (9, "bc_scaling", "mean_fit", _check_09),
    (10, "alpha_zero_strong", "mean_fit", _check_10),
    (11, "constrained_coverage", None, _check_11),
)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--num-seeds", type=int, default=60, help="base seeds 0, 1000, ...")
    args = p.parse_args(argv)

    passes = {number: 0 for number, *_ in CHECKS}
    slopes = {number: [] for number, *_ in CHECKS}
    seconds = {number: [] for number, *_ in CHECKS}
    with tempfile.TemporaryDirectory() as out:
        for k in range(args.num_seeds):
            seed = 1000 * k
            for number, suite, fit_key, check in CHECKS:
                start = time.perf_counter()
                summary = run_experiment_suite(suite, f"{out}/{suite}_{seed}", seed=seed)
                seconds[number].append(time.perf_counter() - start)
                passes[number] += bool(check(summary))
                if fit_key is not None:
                    slopes[number].append(summary[fit_key]["slope"])
            print(f"seed {seed}: " + ", ".join(f"{n:02d} {passes[n]}/{k + 1}" for n in passes),
                  flush=True)

    for number, suite, _, _ in CHECKS:
        line = f"acceptance {number:02d} ({suite}): passes {passes[number]}/{args.num_seeds}"
        if slopes[number]:
            mean = statistics.fmean(slopes[number])
            sd = statistics.stdev(slopes[number]) if len(slopes[number]) > 1 else 0.0
            line += f", slope mean {mean:.3f} sd {sd:.3f}"
        first, *later = seconds[number]
        line += f", {first:.3f} s at the first base seed"
        if later:
            line += f", {statistics.fmean(later):.3f} s per later one"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
