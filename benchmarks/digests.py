"""SHA-256 digests of every suite's artifacts at the default grids.

Run from the root of a checkout:

    python benchmarks/digests.py --seed 0

Runs all eight suites one after another in this process, at base seed
``--seed`` and their default grids, into a temporary directory, and prints
one JSON line mapping ``<suite>/rows.csv`` and ``<suite>/summary.json`` to
the sha256 of the file's bytes, and ``<suite>/rows.csv:<column>`` to the
sha256 of that column's cells, sorted, so a change names the columns it
moved and a reordering of rows alone moves none. It then runs them all again in the same
process, where every instance comes from the process's registry of prepared
instances, and exits with status 1, naming the artifacts, if a warm digest
differs from the cold one. rows.csv and summary.json are
byte-deterministic for a given seed on one host, so running this at two
commits shows whether a change moved any artifact byte. The last bits of
BLAS results can differ between hosts, so compare digests taken on the
same machine.

The file name does not match ``test_*.py``, so the Tier-1 run never
collects it.
"""

import argparse
import csv
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from prorl.suites import SUITE_NAMES, run_experiment_suite  # noqa: E402

ARTIFACTS = ("rows.csv", "summary.json")


def digests(seed: int) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in SUITE_NAMES:
            run_experiment_suite(name, str(Path(tmp) / name), seed=seed)
            for artifact in ARTIFACTS:
                data = (Path(tmp) / name / artifact).read_bytes()
                out[f"{name}/{artifact}"] = hashlib.sha256(data).hexdigest()
            with open(Path(tmp) / name / "rows.csv", newline="") as fh:
                header, *rows = csv.reader(fh)
            for column, cells in zip(header, zip(*rows)):
                text = "\n".join(sorted(cells)).encode()
                out[f"{name}/rows.csv:{column}"] = hashlib.sha256(text).hexdigest()
    return out


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0, help="base seed of every suite")
    args = parser.parse_args(argv)
    cold = digests(args.seed)
    print(json.dumps(cold, sort_keys=True))
    moved = sorted(key for key, digest in digests(args.seed).items() if cold[key] != digest)
    if moved:
        sys.exit(f"warm runs changed {len(moved)} artifacts: {', '.join(moved)}")


if __name__ == "__main__":
    main()
