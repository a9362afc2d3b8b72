"""Command line front end.

Subcommands cover the full workflow: build an MDP, sample a dataset,
inspect exact solutions, run a single estimation config, run the cloning
variant, execute a named experiment suite, and summarize result CSVs.
"""

import argparse
import csv
import functools
import json
import logging
import os
import sys

import numpy as np

from .datasets import DatasetSampler
from .mdp import load_mdp, save_mdp
from .oracle import solve_regularized, solve_unregularized
from .pipelines import (ExperimentConfig, PipelineError, run_pro_rl, run_pro_rl_bc,
                        resolve_data_dist, resolve_mdp)
from .regularizers import Regularizer
from .suites import SUITE_NAMES, _write_json, run_experiment_suite
from .svgplot import fit_loglog


def _data_dist(mdp, policy_path) -> np.ndarray:
    """d^D of the behavior policy in a JSON file, or of the uniform policy without one."""
    if policy_path is None:
        return resolve_data_dist(mdp, {"kind": "uniform_policy"})[0]
    with open(policy_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    probs = payload["probs"] if isinstance(payload, dict) else payload
    return resolve_data_dist(mdp, {"kind": "policy", "probs": probs})[0]


def _emit_json(payload: dict, out) -> None:
    """Write the payload to out, or print it when out is not given."""
    if out:
        _write_json(out, payload)
        print(f"wrote {out}")
    else:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        print()


def _cmd_gen_mdp(args) -> int:
    spec = {"kind": args.kind, "gamma": args.gamma}
    if args.kind in ("random", "mixing"):
        spec.update(
            num_states=args.num_states,
            num_actions=args.num_actions,
            seed=args.seed,
        )
        if args.kind == "mixing":
            spec["mixing"] = args.mixing
    elif args.kind == "counterexample":
        spec["instance"] = args.instance
    mdp = resolve_mdp(spec)
    save_mdp(mdp, args.out)
    print(f"wrote {args.out}: {mdp.num_states} states, {mdp.num_actions} actions, "
          f"gamma {mdp.gamma}")
    return 0


def _cmd_gen_data(args) -> int:
    mdp = load_mdp(args.mdp)
    data = DatasetSampler(mdp, _data_dist(mdp, args.policy)).draw(args.n, args.n0, args.seed)
    data.save(args.out_transitions, args.out_inits)
    print(f"wrote {data.n} transitions to {args.out_transitions} and "
          f"{data.n0} initial states to {args.out_inits}")
    return 0


def _cmd_oracle(args) -> int:
    mdp = load_mdp(args.mdp)
    dd = _data_dist(mdp, args.policy)
    unreg = solve_unregularized(mdp)
    j_zero = float((unreg.d_star.mass * mdp.reward).sum())
    payload = {
        "gamma": mdp.gamma,
        "j_star_zero": j_zero,
        "v_star_zero": unreg.v_star.tolist(),
        "pi_star_zero": unreg.pi_star.probs.tolist(),
    }
    if args.alpha > 0:
        reg = Regularizer(m_f=args.m_f)
        sol = solve_regularized(mdp, dd, reg, args.alpha, cap=args.cap)
        payload.update(
            alpha=args.alpha,
            j_star_alpha=float((sol.d_star.mass * mdp.reward).sum()),
            v_star_alpha=sol.v_star.tolist(),
            w_star_alpha=sol.w_star.tolist(),
            pi_star_alpha=sol.pi_star.probs.tolist(),
            kkt_residual=sol.kkt_residual,
            oracle_method=sol.method,
            oracle_iterations=sol.iterations,
        )
    _emit_json(payload, args.out)
    return 0


def _run_config(args, runner) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    report = runner(cfg)
    if args.out:
        _emit_json(report.to_dict(), args.out)
    print(f"seed {report.seed}: j_hat {report.j_hat:.6f}, gap {report.gap_ref:.6f}, "
          f"w_dev {report.w_dev:.6f}")
    return 0


def _cmd_solve(args) -> int:
    return _run_config(args, run_pro_rl)


def _cmd_extract_bc(args) -> int:
    return _run_config(args, run_pro_rl_bc)


def _parse_overrides(pairs):
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise SystemExit(f"override {pair!r} is not key=value")
        key, raw = pair.split("=", 1)
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _cmd_experiment(args) -> int:
    overrides = _parse_overrides(args.set)
    # checked before anything is written: no key is a parameter of all eight suites
    if overrides and args.suite == "all":
        raise PipelineError("config", "--set needs a single --suite; no key fits every suite")
    if "seed" in overrides:
        raise PipelineError("config", "set the base seed with --seed, not --set seed=...")
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    for name in names:
        out_dir = os.path.join(args.out, name) if args.suite == "all" else args.out
        summary = run_experiment_suite(name, out_dir, seed=args.seed, **overrides)
        print(f"suite {name}: wrote {out_dir} "
              f"({len(summary)} summary fields)")
    return 0


_REPORT_COLUMNS = ("gap_ref", "pi_l1", "pi_l1_bc", "w_dev", "eps_hat")


def _cmd_report(args) -> int:
    with open(args.rows, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise SystemExit(f"{args.rows} has no data rows")
    groups = {}
    for row in rows:
        key = (row.get("alpha", ""), row.get("n", ""), row.get("n2", ""))
        groups.setdefault(key, []).append(row)
    summary = {"num_rows": len(rows), "groups": {}}
    dev_points = []
    for key in sorted(groups):
        batch = groups[key]
        entry = {"count": len(batch)}
        for col in _REPORT_COLUMNS:
            values = [float(r[col]) for r in batch if r.get(col)]
            if values:
                entry[f"{col}_mean"] = float(np.mean(values))
                entry[f"{col}_median"] = float(np.median(values))
        summary["groups"]["alpha={} n={} n2={}".format(*key)] = entry
        if key[1] and "w_dev_median" in entry and entry["w_dev_median"] > 0:
            dev_points.append((int(key[1]), entry["w_dev_median"]))
    if len({p[0] for p in dev_points}) >= 2:
        xs = [p[0] for p in dev_points]
        ys = [p[1] for p in dev_points]
        fit = fit_loglog(xs, ys)
        summary["w_dev_median_slope"] = fit["slope"]
        summary["w_dev_median_r2"] = fit["r2"]
    _emit_json(summary, args.out)
    return 0


@functools.cache  # built on the first call, not at import; every later main call reuses it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pro-rl",
        description="Primal-dual offline RL on tabular MDPs: oracles, "
        "estimation pipelines, and experiment suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-mdp", help="build an MDP and save it as JSON")
    p.add_argument("--kind", choices=("random", "mixing", "counterexample"), default="random")
    p.add_argument("--num-states", type=int, default=6)
    p.add_argument("--num-actions", type=int, default=3)
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mixing", type=float, default=0.5)
    p.add_argument("--instance", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_mdp)

    p = sub.add_parser("gen-data", help="sample an offline dataset from a saved MDP")
    p.add_argument("--mdp", required=True)
    p.add_argument("--policy", help="behavior policy JSON; uniform when omitted")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--n0", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-transitions", required=True)
    p.add_argument("--out-inits", required=True)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("oracle", help="exact solutions for a saved MDP")
    p.add_argument("--mdp", required=True)
    p.add_argument("--policy", help="behavior policy JSON; uniform when omitted")
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--m-f", type=float, default=1.0)
    p.add_argument("--cap", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("solve", help="run one estimation config")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("extract-bc", help="run one config with held-out cloning")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_extract_bc)

    p = sub.add_parser("experiment", help="run a named experiment suite")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="suite override, value parsed as JSON (repeatable)",
    )
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("report", help="aggregate a rows.csv into summary statistics")
    p.add_argument("--rows", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")  # suite progress
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
