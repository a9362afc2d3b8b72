"""prorl benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reg_suite --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the workload repeats whole batches (at least its minimum
number) while the next one is expected to end within ``--seconds``, and the
last line of standard output is a JSON object with the end-to-end metrics.
Times are scaled to a reference host speed by ``hostspeed``. With
``--trace 1`` it runs batch 0 untraced, under the outside-in tracer, and
untraced again, checks that all three produced the same bytes, and reports
the per-layer metrics. Both modes check every output and write a run record
(machine, seed, operation counts, tail percentile, checks) under
``.perfbench_out/`` in the checkout; the traced mode also writes its spans.

The benchmark imports ``prorl`` from ``src/`` of the checkout it sits in and
exits with code 2 when there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("unreg_suite", "reg_suite", "mixed_suites", "oracle_stream")
SETUP_REPEATS = 5  # set-ups per run: this process plus fresh interpreters


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print it (used for repeated set-ups)")
    return p.parse_args(argv)


def _setup(name: str, seed: int):
    """Import the program and generate batch 0's inputs.

    Returns (workload, state, seconds), the seconds scaled to the reference
    host speed by a probe taken right after.
    """
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name]
    state = wl.setup(seed)
    elapsed = time.perf_counter() - t0
    import hostspeed

    return wl, state, elapsed * hostspeed.speed_factors()["mixed"]


def _setup_in_fresh_interpreter(name: str, seed: int) -> float:
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--seed", str(seed), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile.

    A Beta-weighted mean of all order statistics. The suites' latencies come
    in clusters, one per grid point, and a single order statistic at a
    cluster edge jumps between clusters from run to run; this estimate moves
    smoothly instead.
    """
    import numpy
    from scipy.special import betainc

    x = numpy.sort(numpy.asarray(values, dtype=float))
    n = x.size
    p = q / 100.0
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), numpy.arange(n + 1) / n)
    return float(numpy.dot(numpy.diff(edges), x))


def _blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None  # checkouts without git metadata
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.isfile(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def _machine() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    if os.path.isfile("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def _baseline_digest(workload: str, seed: int):
    with open(os.path.join(HERE, "baseline.json"), encoding="utf-8") as fh:
        return json.load(fh).get("artifacts", {}).get(workload, {}).get(str(seed))


def run_timed(wl, state, seconds: float, out_dir: str):
    import hostspeed

    batches = []
    start = time.perf_counter()
    while True:
        batch_dir = os.path.join(out_dir, f"batch{len(batches)}")
        batches.append(wl.run_batch(state, len(batches), batch_dir,
                                    probe=hostspeed.speed_factors))
        shutil.rmtree(batch_dir, ignore_errors=True)
        elapsed = time.perf_counter() - start
        if len(batches) >= wl.min_batches and elapsed + batches[-1].raw_wall_s > seconds:
            return batches


def end_to_end(wl, batches, setup_s: float) -> dict:
    ms = [m for b in batches for m in b.ms]
    attempted = sum(b.attempted for b in batches)
    default_failed = sum(b.default_failed for b in batches)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(b.wall_s for b in batches), "s"),
        "op_ms_p50": (quantile(ms, 50), "ms"),
        "op_ms_tail": (quantile(ms, wl.tail_percentile), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - default_failed / attempted, "frac"),
    }


def run_traced(wl, state, out_dir: str):
    import workloads
    from tracer import Tracer

    counters = workloads.Counters()
    tracer = Tracer(hooks=counters.hooks)
    batches = []
    # Untraced, traced, untraced on the same inputs: the overhead compares the
    # traced batch with the mean of its neighbours, so drift cancels.
    for tag in ("untraced-a", "traced", "untraced-b"):
        batch_dir = os.path.join(out_dir, tag)
        if tag == "traced":
            with tracer:
                batches.append(wl.run_batch(state, 0, batch_dir, tracer))
        else:
            batches.append(wl.run_batch(state, 0, batch_dir))
        shutil.rmtree(batch_dir, ignore_errors=True)
    tracer.write_jsonl(os.path.join(out_dir, "spans.jsonl"))
    plain_s = (batches[0].wall_s + batches[2].wall_s) / 2.0
    metrics = workloads.layer_metrics(tracer.totals(), counters)
    metrics["trace.overhead_frac"] = (batches[1].wall_s / plain_s - 1.0, "frac")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    return batches, metrics


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "prorl", "__init__.py")):
        print(f"perfbench: no prorl package under {SRC}; run it from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        print(repr(_setup(args.workload, args.seed)[2]))
        return 0

    wl, state, first_setup = _setup(args.workload, args.seed)
    setups = [first_setup] + [
        _setup_in_fresh_interpreter(args.workload, args.seed)
        for _ in range(SETUP_REPEATS - 1)
    ]
    out_dir = os.path.join(ROOT, ".perfbench_out",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    if args.trace:
        batches, metrics = run_traced(wl, state, out_dir)
        same_bytes = len({b.digest for b in batches}) == 1
        checks = {"traced_output_identical": same_bytes}
    else:
        batches = run_timed(wl, state, args.seconds, out_dir)
        metrics = end_to_end(wl, batches, statistics.median(setups))
        baseline = _baseline_digest(args.workload, args.seed)
        checks = {"artifacts_match_baseline": None if baseline is None
                  else batches[0].digest == baseline}
        same_bytes = True
    attempted = sum(b.attempted for b in batches)
    failed = sum(b.failed for b in batches)
    default_failed = sum(b.default_failed for b in batches)
    correct = failed == 0 and same_bytes

    ops = sum(len(b.ms) for b in batches)
    record = {
        "workload": wl.name,
        "why": wl.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": _machine(),
        "batches": len(batches),
        "ops_per_batch": wl.ops_per_batch,
        "ops": ops,
        "op_ms_tail_percentile": wl.tail_percentile,
        "setup_samples_s": setups,
        "batch_wall_s": [b.wall_s for b in batches],
        "batch_raw_wall_s": [b.raw_wall_s for b in batches],
        "batch_digests": [b.digest for b in batches],
        "op_ms": [b.ms for b in batches],
        "attempted": attempted,
        "failed": failed,
        "fail_frac": default_failed / attempted,
        "checks": checks,
        "notes": [n for b in batches for n in b.notes],
        "reported": [b.reported for b in batches],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(out_dir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")

    print(f"{wl.name}  seed {args.seed}  trace {args.trace}  {len(batches)} batch(es), "
          f"{ops} ops  ({wl.why})")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "op_ms_tail":
            extra = f"  (p{wl.tail_percentile} of {ops} ops)"
        print(f"  {name:<48} {value:>16.6g} {unit}{extra}")
    print(f"  fail_frac {default_failed}/{attempted} = {default_failed / attempted:.4g}; "
          f"unverified {failed}; checks {checks}")
    for note in record["notes"]:
        print(f"  ! {note}")
    print(f"  record: {os.path.relpath(os.path.join(out_dir, 'record.json'), ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
