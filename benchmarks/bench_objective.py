"""Micro-benchmarks of dataset generation and the count-based kernels.

Run from the root of a checkout (pytest-benchmark required):

    python -m pytest benchmarks/bench_objective.py --benchmark-only

The file name does not match ``test_*.py``, so the Tier-1 run never collects
it. Each timing is one call:

- a fresh ``DatasetSampler(mdp, d^D).draw`` on the rate_regularized suite's
  fixture (10 states, 3 actions) at n = n0 = 1e3, 1e5 and 1e6: it builds the
  sampler's three guide tables, then takes three draws from one stream and
  three table lookups, so the fixed cost of the tables shows at small n;
- ``DatasetSampler.draw`` through a sampler built outside the timed call,
  at n = n0 = 1e3, 1e5 and 1e6: the same draws and lookups without the
  tables, joined into per-transition columns;
- ``DatasetSampler.count`` through the same prebuilt sampler, as the
  pipeline draws, at n = n0 = 1e3, 1e5 and 1e6: the same draws and lookups,
  binned into counts block by block, so no per-transition array forms; the
  rounds alternate seeds 0 and 1, since a sampler returns its kept counts
  when the same (n, n0, seed, n1) comes again;
- ``DatasetSampler.count`` at the bc_scaling suite's largest point (5
  states, 3 actions, n = 68,000 cut at n1 = 60,000, n0 = 2,000), seeds
  alternating as above: the cloning cut, whose fit and held parts are both
  binned;
- bc_scaling's five sizes at one seed (n = 60,000 + n2 for n2 = 500 ...
  8,000, each cut at n1 = 60,000, n0 = 2,000), seeds alternating as above:
  ``count_sizes`` over all five in one pass, as the suite's sweep counts a
  seed, next to five lone ``count`` calls, which read and look up the shared
  60,000+ cell draws once each; the pass reads the five sizes' overlapping
  next-state windows with one stream read a block;
- rate_regularized's four sizes at one seed (n = n0 = 1e2, 1e3, 1e4 and
  1e5, uncut), seeds alternating as above: ``count_sizes`` over all four in
  one pass, as that suite's sweep counts a seed; their next-state windows
  neither overlap nor touch, so each keeps its own reads;

the kernels below run on counts drawn outside the timed call by
``DatasetSampler.count``, as a run draws them, so each timing is the work
that depends on the class sizes and S, A only, whatever n is:

- ``empirical_lagrangian_members`` on the rate_regularized suite's fixture
  (10 states, 3 actions, 31 value and 31 weight members, each class
  stacked once as the pipeline passes it) at n = 1e4, 1e5 and 1e6;
- ``bc_objective_matrix`` at the bc_scaling suite's size (5 states,
  3 actions, 41 policies and their witness set, largest held-out n2 = 8000),
  and ``clone_policy`` at the same size, as a run clones: past the first
  round the witness set and every policy's contraction h^pi come from the
  policy class's tables, so each timing is one run's share.

and whole runs:

- ``run_pro_rl`` on a prepared rate_regularized instance at n = n0 = 1e3,
  warm, at seeds 0 and 1 in turn: each seed's picked member is scored on
  the first two rounds, so each timing is what a run costs past its
  instance (counts, one payoff matrix, argmax, score lookups, eps_hat);
- the robustness suite at its default grid, warm: its six grid points share
  one MDP, d^D, n and n0, so at each of its 5 seeds the sweep bins the
  dataset once, before the runs, and all six read the counts their shared
  sampler kept.
"""

import itertools
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from prorl.classes import ValueClass, WeightClass  # noqa: E402
from prorl.datasets import DatasetSampler  # noqa: E402
from prorl.extraction import bc_objective_matrix, clone_policy  # noqa: E402
from prorl.objective import empirical_lagrangian_members  # noqa: E402
from prorl.oracle import solve_regularized  # noqa: E402
from prorl.pipelines import (  # noqa: E402
    ExperimentConfig,
    _resolve_policy_class,
    prepare,
    resolve_data_dist,
    resolve_mdp,
    run_pro_rl,
)
from prorl.regularizers import Regularizer  # noqa: E402
from prorl.suites import bc_fixture, rate_regularized_fixture, run_experiment_suite  # noqa: E402


@pytest.mark.parametrize("n", [1_000, 100_000, 1_000_000])
def test_fresh_sampler_rate_regularized(benchmark, n):
    fx = rate_regularized_fixture()
    mdp = resolve_mdp(fx["mdp"])
    dd, _ = resolve_data_dist(mdp, fx["data_dist"])
    data = benchmark(lambda: DatasetSampler(mdp, dd).draw(n, n, 0))
    assert data.n == n and data.n0 == n


@pytest.mark.parametrize("n", [1_000, 100_000, 1_000_000])
def test_prebuilt_sampler_rate_regularized(benchmark, n):
    fx = rate_regularized_fixture()
    mdp = resolve_mdp(fx["mdp"])
    dd, _ = resolve_data_dist(mdp, fx["data_dist"])
    data = benchmark(DatasetSampler(mdp, dd).draw, n, n, 0)
    assert data.n == n and data.n0 == n


@pytest.mark.parametrize("n", [1_000, 100_000, 1_000_000])
def test_counting_draw_rate_regularized(benchmark, n):
    fx = rate_regularized_fixture()
    mdp = resolve_mdp(fx["mdp"])
    dd, _ = resolve_data_dist(mdp, fx["data_dist"])
    sampler, seeds = DatasetSampler(mdp, dd), itertools.cycle((0, 1))
    fit, _ = benchmark(lambda: sampler.count(n, n, next(seeds)))
    assert fit.n == n and fit.inits.sum() == n


def test_counting_draw_bc_cut(benchmark):
    fx = bc_fixture()
    mdp = resolve_mdp(fx["mdp"])
    dd, _ = resolve_data_dist(mdp, fx["data_dist"])
    sampler, seeds = DatasetSampler(mdp, dd), itertools.cycle((0, 1))
    fit, held = benchmark(lambda: sampler.count(68_000, 2_000, next(seeds), n1=fx["bc"]["n1"]))
    assert (fit.n, fit.n0, held.n, held.n0) == (60_000, 2_000, 8_000, 0)


@pytest.mark.parametrize("how", ["one_pass", "lone_counts"])
def test_counting_a_seed_bc_scaling(benchmark, how):
    fx = bc_fixture()
    mdp = resolve_mdp(fx["mdp"])
    dd, _ = resolve_data_dist(mdp, fx["data_dist"])
    sampler, seeds, n1 = DatasetSampler(mdp, dd), itertools.cycle((0, 1)), fx["bc"]["n1"]
    sizes = [(n1 + n2, 2_000, n1) for n2 in (500, 1_000, 2_000, 4_000, 8_000)]

    def lone_counts(sizes, seed):
        return [sampler.count(n, n0, seed, n1) for n, n0, n1 in sizes]

    count = sampler.count_sizes if how == "one_pass" else lone_counts
    parts = benchmark(lambda: count(sizes, next(seeds)))
    assert [(fit.n, held.n) for fit, held in parts] == [(n1, n - n1) for n, _, _ in sizes]


def test_counting_a_seed_rate_regularized(benchmark):
    fx = rate_regularized_fixture()
    mdp = resolve_mdp(fx["mdp"])
    dd, _ = resolve_data_dist(mdp, fx["data_dist"])
    sampler, seeds = DatasetSampler(mdp, dd), itertools.cycle((0, 1))
    sizes = [(n, n, n) for n in (100, 1_000, 10_000, 100_000)]
    parts = benchmark(lambda: sampler.count_sizes(sizes, next(seeds)))
    assert [(fit.n, fit.inits.sum(), held.n) for fit, held in parts] == [
        (n, n0, 0) for n, n0, _ in sizes]


@pytest.mark.parametrize("n", [10_000, 100_000, 1_000_000])
def test_payoff_matrix_rate_regularized(benchmark, n):
    fx = rate_regularized_fixture()
    mdp = resolve_mdp(fx["mdp"])
    dd, _ = resolve_data_dist(mdp, fx["data_dist"])
    reg = Regularizer(m_f=fx["reg"]["m_f"])
    v_members = ValueClass.from_config(fx["classes"]["value_class"]).stack  # as prepare passes them
    w_members = WeightClass.from_config(fx["classes"]["weight_class"]).stack
    data = DatasetSampler(mdp, dd).count(n, n, seed=0)[0]
    out = benchmark(empirical_lagrangian_members, data, reg, fx["alpha"], v_members, w_members)
    assert out.shape == (31, 31)


def test_bc_objective_bc_scaling(benchmark):
    fx = bc_fixture()
    mdp = resolve_mdp(fx["mdp"])
    dd, _ = resolve_data_dist(mdp, fx["data_dist"])
    sol = solve_regularized(mdp, dd, Regularizer(m_f=fx["reg"]["m_f"]), fx["alpha"])
    policies = _resolve_policy_class(fx["bc"], sol.pi_star, mdp.num_actions)
    held = DatasetSampler(mdp, dd).count(8000, 0, seed=0)[0]
    out = benchmark(bc_objective_matrix, sol.w_star, held, policies)
    assert out.shape == (41, len(policies.tables[0]))


def test_clone_policy_bc_scaling(benchmark):
    fx = bc_fixture()
    mdp = resolve_mdp(fx["mdp"])
    dd, _ = resolve_data_dist(mdp, fx["data_dist"])
    sol = solve_regularized(mdp, dd, Regularizer(m_f=fx["reg"]["m_f"]), fx["alpha"])
    policies = _resolve_policy_class(fx["bc"], sol.pi_star, mdp.num_actions)
    held = DatasetSampler(mdp, dd).count(8000, 0, seed=0)[0]
    out = benchmark(clone_policy, sol.w_star, held, policies)
    assert out in policies.members


def test_warm_run_rate_regularized(benchmark):
    fx = rate_regularized_fixture()
    cfg = ExperimentConfig(**{k: fx[k] for k in ("mdp", "data_dist", "reg", "alpha", "classes")},
                           n=1_000, n0=1_000, seed=0)
    inst, seeds = prepare(cfg), itertools.cycle((0, 1))
    report = benchmark(lambda: run_pro_rl(replace(cfg, seed=next(seeds)), inst))
    assert report.n == 1_000


def test_warm_robustness_suite(benchmark, tmp_path):
    run_experiment_suite("robustness", str(tmp_path), seed=0)  # prepares its six instances
    summary = benchmark(run_experiment_suite, "robustness", str(tmp_path), seed=0)
    assert summary["chain_fraction"] == summary["robust_fraction"] == 1.0
