"""End-to-end acceptance checks.

Each test exercises one published guarantee of the estimator at desk scale
and prints exactly one PASS/FAIL verdict line. The verdict bypasses output
capture so the twelve lines always appear in the run log. Tolerances and
runtime budgets are part of each check.
"""

import time

import numpy as np
import pytest
from scipy.stats import binomtest

from prorl.bounds import value_bound
from prorl.classes import PolicyClass, build_realizable, witness_class
from prorl.cli import main as cli_main
from prorl.datasets import DatasetSampler
from prorl.extraction import extract_policy
from prorl.mdp import (
    Policy,
    build_counterexample,
    exact_occupancy,
    random_mdp,
    uniform_policy,
)
from prorl.objective import empirical_lagrangian_members
from prorl.oracle import solve_regularized
from prorl.pipelines import ExperimentConfig, run_pro_rl
from prorl.regularizers import Regularizer
from prorl.saddle import solve_exact
from prorl.suites import run_experiment_suite


@pytest.fixture
def verdict(capfd):
    def _emit(index: int, name: str, ok: bool, detail: str) -> None:
        line = f"[acceptance {index:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capfd.disabled():
            print(line, flush=True)
        assert ok, line

    return _emit


def _timed_suite(name, out_dir, **overrides):
    start = time.perf_counter()
    summary = run_experiment_suite(name, str(out_dir), **overrides)
    return summary, time.perf_counter() - start


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def counterexample_run(work):
    return _timed_suite("counterexample", work / "counterexample")


@pytest.fixture(scope="module")
def rate_regularized_run(work):
    return _timed_suite("rate_regularized", work / "rate_regularized")


@pytest.fixture(scope="module")
def lp_stability_run(work):
    return _timed_suite("lp_stability", work / "lp_stability")


@pytest.fixture(scope="module")
def bc_scaling_run(work):
    return _timed_suite("bc_scaling", work / "bc_scaling")


@pytest.fixture(scope="module")
def alpha_zero_run(work):
    return _timed_suite("alpha_zero_strong", work / "alpha_zero_strong")


@pytest.fixture(scope="module")
def constrained_run(work):
    return _timed_suite("constrained_coverage", work / "constrained_coverage")


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


def test_02_regularization_restores_identifiability(verdict):
    start = time.perf_counter()
    reg = Regularizer()
    alpha = 0.1
    mass_max = 0.0
    successes = []
    for instance in (1, 2):
        bundle = build_counterexample(0.5, instance)
        dd = bundle.data_occupancy.mass
        sol = solve_regularized(bundle.mdp, dd, reg, alpha)
        mass_max = max(mass_max, float(sol.d_star.mass[bundle.A, bundle.RIGHT]))
        vc, wc = build_realizable(sol, 8, seed=0, reg=reg, gamma=bundle.mdp.gamma)
        pi_d = Policy(np.full((4, 2), 0.5))
        good, sampler = 0, DatasetSampler(bundle.mdp, dd)
        for seed in range(20):
            data = sampler.count(10000, 10000, seed)[0]
            l_matrix = empirical_lagrangian_members(data, reg, alpha, vc.members, wc.members)
            sol_hat = solve_exact(l_matrix, (vc, wc))
            pi_hat = extract_policy(sol_hat.w_hat, pi_d)
            good += bool(pi_hat.probs[bundle.A, bundle.LEFT] > 0.999)
        successes.append(good)
    elapsed = time.perf_counter() - start
    ok = mass_max < 1e-8 and all(g >= 18 for g in successes) and elapsed < 10.0
    verdict(
        2,
        "regularization_restores_identifiability",
        ok,
        f"uncovered mass {mass_max:.1e}, committed-left seeds {successes}/20, {elapsed:.1f}s",
    )


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


def test_05_weight_error_shrinks_with_sample_size(rate_regularized_run, verdict):
    summary, elapsed = rate_regularized_run
    slope = summary["median_fit"]["slope"]
    ok = (
        -0.5 <= slope <= -0.15
        and summary["medians_monotone"]
        and elapsed < 600.0
    )
    verdict(
        5,
        "weight_error_shrinks_with_sample_size",
        ok,
        f"median slope {slope:.3f} in [-0.5, -0.15], "
        f"monotone {summary['medians_monotone']}, {elapsed:.1f}s",
    )


def test_06_deviation_envelope_holds_at_declared_confidence(verdict):
    start = time.perf_counter()
    violations = 0
    total = 200
    for seed in range(total):
        cfg = ExperimentConfig(
            mdp={"kind": "random", "num_states": 5, "num_actions": 3,
                 "gamma": 0.8, "seed": 1},
            data_dist={"kind": "uniform_policy"},
            reg=Regularizer().to_config(),
            alpha=0.3,
            n=2000,
            n0=2000,
            seed=seed,
            classes={"kind": "realizable", "num_distractors": 6, "seed": 0},
        )
        r = run_pro_rl(cfg)
        violations += r.eps_hat > r.eps_stat
    elapsed = time.perf_counter() - start
    pvalue = binomtest(violations, total, 0.1, alternative="greater").pvalue
    ok = violations / total <= 0.1 and pvalue >= 0.01 and elapsed < 300.0
    verdict(
        6,
        "deviation_envelope_holds_at_declared_confidence",
        ok,
        f"exceedances {violations}/{total} at delta 0.1, "
        f"binomial p {pvalue:.3f}, {elapsed:.1f}s",
    )


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


def test_09_cloning_error_tracks_heldout_sample_size(bc_scaling_run, verdict):
    summary, elapsed = bc_scaling_run
    slope = summary["mean_fit"]["slope"]
    ok = (
        summary["min_envelope_ok"] >= 18
        and -0.65 <= slope <= -0.35
        and elapsed < 600.0
    )
    verdict(
        9,
        "cloning_error_tracks_heldout_sample_size",
        ok,
        f"envelope >= {summary['min_envelope_ok']}/20 per grid point, "
        f"slope {slope:.3f} in [-0.65, -0.35], {elapsed:.1f}s",
    )


def test_10_return_gap_shrinks_under_two_sided_coverage(alpha_zero_run, verdict):
    summary, elapsed = alpha_zero_run
    strong = summary["strong_concentrability"]
    slope = summary["mean_fit"]["slope"]
    ok = (
        strong["holds"]
        and strong["b_wu"] < float("inf")
        and -0.65 <= slope <= -0.35
        and elapsed < 600.0
    )
    verdict(
        10,
        "return_gap_shrinks_under_two_sided_coverage",
        ok,
        f"marginal ratios [{strong['b_wl']:.2f}, {strong['b_wu']:.2f}], "
        f"mean-gap slope {slope:.3f} in [-0.65, -0.35], {elapsed:.1f}s",
    )


def test_11_capped_competition_under_partial_coverage(constrained_run, verdict):
    summary, elapsed = constrained_run
    ok = (
        summary["envelope_fraction"] == 1.0
        and summary["cap_respected_fraction"] == 1.0
        and elapsed < 120.0
    )
    verdict(
        11,
        "capped_competition_under_partial_coverage",
        ok,
        f"envelope {summary['envelope_fraction']:.0%}, "
        f"weights under cap {summary['cap_respected_fraction']:.0%}, {elapsed:.1f}s",
    )


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
