"""Micro-benchmarks of the oracles.

Run from the root of a checkout (pytest-benchmark required):

    python -m pytest benchmarks/bench_oracle.py --benchmark-only

The file name does not match ``test_*.py``, so the Tier-1 run never collects
it. The default regularized path, ``solve_regularized``, on three instances:

- the rate_unregularized suite's instance (mixing MDP, 8 states, 3 actions,
  gamma 0.8, uniform behavior data) at the alpha of its smallest n, which
  Newton solves on its own and certifies without the phase-1 LP;
- the capped hard instance of ``tests/test_oracle.py`` on which Newton
  stalls, so the call pays for Newton, the phase-1 LP and the "qp" path;
- an infeasible capped hard-family draw (8 states, 2 actions, cap 1.5), so
  the call pays for Newton until its dual objective passes the floor of a
  feasible instance, and then the phase-1 LP that raises FlowInfeasibleError;
- a feasible capped hard-family draw at low alpha (7 states, 2 actions,
  gamma 0.567, alpha 1.1e-3, cap 1.5) that Newton solves in 54 damped steps,
  the slowest kind of solve in perfbench's oracle_stream pool (whose
  instances take 5 to 58 steps).

``capped_unregularized_value`` on the constrained_coverage suite's fixture
(4 states, 3 actions, cap 2), whose own LP certifies feasibility.

The policy-iteration paths: ``solve_unregularized`` on the rate_regularized
suite's MDP (10 states, 3 actions, gamma 0.8) and on the same MDP at gamma
0.999; ``strong_concentrability_check`` on the alpha_zero_strong suite's
ring (8 states, 3 actions) and on a mixing MDP with 11 states and 3 actions
(177,147 deterministic policies).
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

from prorl.mdp import Policy, build_mixing_mdp, exact_occupancy, uniform_policy  # noqa: E402
from prorl.oracle import (  # noqa: E402
    FlowInfeasibleError,
    capped_unregularized_value,
    solve_regularized,
    solve_unregularized,
    strong_concentrability_check,
)
from prorl.pipelines import resolve_mdp  # noqa: E402
from prorl.regularizers import Regularizer  # noqa: E402
from prorl.suites import capped_fixture, rate_regularized_fixture, ring_fixture  # noqa: E402
from test_oracle import (  # noqa: E402
    hard_instance,
    newton_stall_instance,
    rate_unregularized_instance,
)


def test_rate_unregularized_instance(benchmark):
    mdp, dd, alpha = rate_unregularized_instance()
    sol = benchmark(solve_regularized, mdp, dd, Regularizer(), alpha)
    assert sol.method == "saddle" and sol.kkt_residual <= 1e-8


def test_newton_stall_falls_back(benchmark):
    mdp, dd, alpha, cap = newton_stall_instance()
    sol = benchmark(solve_regularized, mdp, dd, Regularizer(), alpha, cap=cap)
    assert sol.method == "qp" and sol.kkt_residual <= 1e-8


def test_infeasible_draw_raises(benchmark):
    mdp, dd, alpha, cap = hard_instance(np.random.default_rng(8))

    def solve():
        with pytest.raises(FlowInfeasibleError):
            solve_regularized(mdp, dd, Regularizer(), alpha, cap=cap)

    benchmark(solve)


def test_slow_newton_draw(benchmark):
    rng = np.random.default_rng(0)
    mdp, dd, alpha, cap = [hard_instance(rng) for _ in range(34)][33]
    sol = benchmark(solve_regularized, mdp, dd, Regularizer(), alpha, cap=cap)
    assert sol.method == "saddle" and sol.iterations >= 50


def test_capped_unregularized_value(benchmark):
    fx = capped_fixture()
    mdp = resolve_mdp(fx["mdp"])
    dd = exact_occupancy(mdp, Policy(np.asarray(fx["data_dist"]["probs"]))).mass
    benchmark(capped_unregularized_value, mdp, dd, fx["cap"])


@pytest.mark.parametrize("gamma", [0.8, 0.999])
def test_solve_unregularized(benchmark, gamma):
    # gamma 0.8 is the rate_regularized fixture itself
    spec = {**rate_regularized_fixture()["mdp"], "gamma": gamma}
    benchmark(solve_unregularized, resolve_mdp(spec))


@pytest.mark.parametrize("instance", ["ring", "mixing_11x3"])
def test_strong_concentrability_check(benchmark, instance):
    if instance == "ring":
        mdp = resolve_mdp(ring_fixture()["mdp"])
    else:
        mdp = build_mixing_mdp(11, 3, 0.9, seed=0)
    dd = exact_occupancy(mdp, uniform_policy(mdp.num_states, mdp.num_actions)).mass
    d0_state = solve_unregularized(mdp).d_star.state_marginal
    res = benchmark(strong_concentrability_check, mdp, dd, d0_state)
    assert res.holds
