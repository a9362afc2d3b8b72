"""End-to-end acceptance checks.

Each test exercises one published guarantee of the estimator at desk scale
and prints exactly one PASS/FAIL verdict line. The verdict bypasses output
capture so the twelve lines always appear in the run log. Tolerances and
runtime budgets are part of each check. The pass conditions of the six
verdicts that depend on the sampled data (02, 05, 06, 09, 10 and 11) live
in ``verdicts.py``, which ``benchmarks/power.py`` also reads.
"""

import time

import numpy as np
import pytest
from verdicts import VERDICTS

from prorl.bounds import value_bound
from prorl.classes import PolicyClass, witness_class
from prorl.cli import main as cli_main
from prorl.mdp import Policy, exact_occupancy, random_mdp, uniform_policy
from prorl.oracle import solve_regularized
from prorl.pipelines import ExperimentConfig, run_pro_rl
from prorl.regularizers import Regularizer
from prorl.suites import run_experiment_suite


@pytest.fixture
def verdict(capfd):
    def _emit(index: int, name: str, ok: bool, detail: str) -> None:
        line = f"[acceptance {index:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _emit


def _timed_suite(name, out_dir):
    start = time.perf_counter()
    summary = run_experiment_suite(name, str(out_dir))
    return summary, time.perf_counter() - start


def _table_verdict(number, verdict, out_dir):
    """Run a row of ``verdicts.VERDICTS`` at base seed 0 within its budget."""
    row = next(row for row in VERDICTS if row.number == number)
    start = time.perf_counter()
    summary = row.run(0, out_dir)
    elapsed = time.perf_counter() - start
    passed, detail = row.judge(summary)
    verdict(number, row.name, passed and elapsed < row.budget, f"{detail}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def counterexample_run(work):
    return _timed_suite("counterexample", work / "counterexample")


@pytest.fixture(scope="module")
def lp_stability_run(work):
    return _timed_suite("lp_stability", work / "lp_stability")


def test_01_population_tie_and_adversarial_break(counterexample_run, verdict):
    summary, elapsed = counterexample_run
    tie = summary["max_population_tie_gap"]
    regret = max(
        inst["oracle_right_policy_regret"] for inst in summary["instances"].values()
    )
    gap = summary["worst_instance_gap"]
    ok = tie < 1e-12 and gap >= 0.9 * regret and elapsed < 1.0
    verdict(
        1,
        "population_tie_and_adversarial_break",
        ok,
        f"tie {tie:.1e}, gap {gap:.4f} vs 0.9x regret {0.9 * regret:.4f}, {elapsed:.2f}s",
    )


def test_02_regularization_restores_identifiability(verdict, tmp_path):
    _table_verdict(2, verdict, tmp_path)


def test_03_oracle_solver_cross_validation(verdict):
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    reg = Regularizer()
    worst_kkt = 0.0
    worst_disagreement = 0.0
    value_ok = 0
    total = 0
    for k in range(100):
        s = int(rng.integers(2, 9))
        a = int(rng.integers(2, 4))
        gamma = float(rng.uniform(0.5, 0.9))
        mdp = random_mdp(s, a, gamma, seed=1000 + k)
        dd = exact_occupancy(mdp, uniform_policy(s, a)).mass
        for alpha in (0.05, 0.5):
            total += 1
            sol_s = solve_regularized(mdp, dd, reg, alpha, method="saddle")
            sol_q = solve_regularized(mdp, dd, reg, alpha, method="qp")
            worst_kkt = max(worst_kkt, sol_s.kkt_residual, sol_q.kkt_residual)
            worst_disagreement = max(
                worst_disagreement,
                float(np.abs(sol_s.w_star - sol_q.w_star).max()),
                float(np.abs(sol_s.v_star - sol_q.v_star).max()),
            )
            b_fprime = reg.m_f * float(sol_s.w_star.max())
            value_ok += np.abs(sol_s.v_star).max() <= value_bound(
                alpha, b_fprime, gamma
            ) + 1e-9
    elapsed = time.perf_counter() - start
    ok = (
        worst_kkt < 1e-8
        and worst_disagreement < 1e-7
        and value_ok == total
        and elapsed < 300.0
    )
    verdict(
        3,
        "oracle_solver_cross_validation",
        ok,
        f"kkt {worst_kkt:.1e}, path disagreement {worst_disagreement:.1e}, "
        f"value bound {value_ok}/{total}, {elapsed:.1f}s",
    )


def test_04_performance_gap_chain_is_exact(verdict):
    gamma = 0.8
    violations = 0
    for seed in range(10):
        cfg = ExperimentConfig(
            mdp={"kind": "random", "num_states": 6, "num_actions": 3,
                 "gamma": gamma, "seed": 3},
            data_dist={"kind": "uniform_policy"},
            reg=Regularizer().to_config(),
            alpha=0.3,
            n=2000,
            n0=2000,
            seed=seed,
            classes={"kind": "realizable", "num_distractors": 8, "seed": 0},
        )
        r = run_pro_rl(cfg)
        mid = r.pi_l1 / (1.0 - gamma)
        high = 2.0 * r.w_dev / (1.0 - gamma)
        if not (
            r.gap_ref <= mid + 1e-10
            and mid <= high + 1e-10
            and r.gap_ref <= r.rhs_realized + 1e-10
        ):
            violations += 1
    ok = violations == 0
    verdict(
        4,
        "performance_gap_chain_is_exact",
        ok,
        f"chain violations {violations}/10 at tol 1e-10",
    )


def test_05_weight_error_shrinks_with_sample_size(verdict, tmp_path):
    _table_verdict(5, verdict, tmp_path)


def test_06_deviation_envelope_holds_at_declared_confidence(verdict, tmp_path):
    _table_verdict(6, verdict, tmp_path)


def test_07_regularization_path_is_stable(lp_stability_run, verdict):
    summary, elapsed = lp_stability_run
    ok = (
        summary["constant_prefix_len"] >= 3
        and summary["limit_matches_min_divergence_err"] < 1e-6
        and summary["v_gap_r2"] > 0.99
        and elapsed < 120.0
    )
    verdict(
        7,
        "regularization_path_is_stable",
        ok,
        f"prefix {summary['constant_prefix_len']}, "
        f"limit err {summary['limit_matches_min_divergence_err']:.1e}, "
        f"r2 {summary['v_gap_r2']:.6f}, {elapsed:.1f}s",
    )


def test_08_witness_identity_recovers_l1_distance(verdict):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(100):
        s = int(rng.integers(2, 7))
        a = int(rng.integers(2, 5))
        d = rng.dirichlet(np.ones(s))
        p = Policy(rng.dirichlet(np.ones(a), size=s))
        q = Policy(rng.dirichlet(np.ones(a), size=s))
        direct = float(d @ np.abs(p.probs - q.probs).sum(axis=1))
        witnessed = max(
            float((d[:, None] * (p.probs - q.probs) * h).sum())
            for h in witness_class(PolicyClass((p, q)))
        )
        worst = max(worst, abs(witnessed - direct))
    ok = worst < 1e-12
    verdict(
        8,
        "witness_identity_recovers_l1_distance",
        ok,
        f"worst identity error {worst:.1e} over 100 draws",
    )


def test_09_cloning_error_tracks_heldout_sample_size(verdict, tmp_path):
    _table_verdict(9, verdict, tmp_path)


def test_10_return_gap_shrinks_under_two_sided_coverage(verdict, tmp_path):
    _table_verdict(10, verdict, tmp_path)


def test_11_capped_competition_under_partial_coverage(verdict, tmp_path):
    _table_verdict(11, verdict, tmp_path)


def test_12_reruns_are_byte_identical(work, verdict):
    mdp_path = work / "det_mdp.json"
    cli_main([
        "gen-mdp", "--num-states", "5", "--num-actions", "3", "--gamma", "0.8",
        "--seed", "4", "--out", str(mdp_path),
    ])
    blobs = []
    for tag in ("a", "b"):
        t = work / f"det_t_{tag}.jsonl"
        i = work / f"det_i_{tag}.txt"
        cli_main([
            "gen-data", "--mdp", str(mdp_path), "--n", "1000", "--n0", "100",
            "--seed", "11", "--out-transitions", str(t), "--out-inits", str(i),
        ])
        blobs.append(t.read_bytes() + i.read_bytes())
    data_same = blobs[0] == blobs[1]

    kwargs = dict(n_grid=(100, 300), num_seeds=2)
    run_experiment_suite("rate_regularized", str(work / "det_s_a"), **kwargs)
    run_experiment_suite("rate_regularized", str(work / "det_s_b"), **kwargs)
    csv_same = (
        (work / "det_s_a" / "rows.csv").read_bytes()
        == (work / "det_s_b" / "rows.csv").read_bytes()
    )
    summary_same = (
        (work / "det_s_a" / "summary.json").read_bytes()
        == (work / "det_s_b" / "summary.json").read_bytes()
    )
    ok = data_same and csv_same and summary_same
    verdict(
        12,
        "reruns_are_byte_identical",
        ok,
        f"dataset files identical {data_same}, csv identical {csv_same}, "
        f"summary identical {summary_same}",
    )
