"""Pass rates of the seed-dependent acceptance checks over many base seeds.

Run from the root of a checkout:

    python benchmarks/power.py --num-seeds 60

The acceptance tests (``tests/test_acceptance.py``) run each verdict once,
at base seed 0. This script reruns the six verdicts that depend on the
sampled data, the rows of ``tests/verdicts.py``, at base seeds 1000 * k,
k = 0 .. num_seeds - 1, judges each with the row's own pass condition
(without the wall-time budget), and prints each verdict's pass rate, with
the mean and standard deviation of the number it tracks (a fitted slope, or
06's largest eps_hat/eps_stat, its distance from failing), and its wall
seconds per base seed: at the first base seed, which prepares its
instances, and the mean over the later ones, which reuse them, so the
second is what each added seed costs. A verdict that passes at seed 0 but
on only about half of the seeds sits on the edge of its window, so any
change to a random stream can flip it without the estimator being wrong.

The file name does not match ``test_*.py``, so the Tier-1 run never collects
it. Verdicts run one after another in this process, suites at their default
grids, writing their artifacts to a temporary directory.
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from verdicts import VERDICTS  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--num-seeds", type=int, default=60, help="base seeds 0, 1000, ...")
    args = p.parse_args(argv)

    passes = {row.number: 0 for row in VERDICTS}
    tracked = {row.number: [] for row in VERDICTS}
    seconds = {row.number: [] for row in VERDICTS}
    with tempfile.TemporaryDirectory() as out:
        for k in range(args.num_seeds):
            seed = 1000 * k
            for row in VERDICTS:
                start = time.perf_counter()
                summary = row.run(seed, f"{out}/{row.number:02d}_{seed}")
                seconds[row.number].append(time.perf_counter() - start)
                passes[row.number] += bool(row.judge(summary)[0])
                if row.tracked is not None:
                    tracked[row.number].append(row.tracked[1](summary))
            print(f"seed {seed}: " + ", ".join(f"{n:02d} {passes[n]}/{k + 1}" for n in passes),
                  flush=True)

    for row in VERDICTS:
        number = row.number
        line = f"acceptance {number:02d} ({row.name}): passes {passes[number]}/{args.num_seeds}"
        if tracked[number]:
            mean = statistics.fmean(tracked[number])
            sd = statistics.stdev(tracked[number]) if len(tracked[number]) > 1 else 0.0
            line += f", {row.tracked[0]} mean {mean:.3f} sd {sd:.3f}"
        first, *later = seconds[number]
        line += f", {first:.3f} s at the first base seed"
        if later:
            line += f", {statistics.fmean(later):.3f} s per later one"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
