"""Micro-benchmarks of the default oracle path, ``solve_regularized``.

Run from the root of a checkout (pytest-benchmark required):

    python -m pytest benchmarks/bench_oracle.py --benchmark-only

The file name does not match ``test_*.py``, so the Tier-1 run never collects
it. Two instances:

- the rate_unregularized suite's instance (mixing MDP, 8 states, 3 actions,
  gamma 0.8, uniform behavior data) at the alpha of its smallest n, which
  Newton solves on its own;
- the capped hard instance of ``tests/test_oracle.py`` on which Newton
  stalls, so the call pays for Newton and then the "qp" path.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from prorl.bounds import recommended_alpha  # noqa: E402
from prorl.mdp import exact_occupancy, uniform_policy  # noqa: E402
from prorl.oracle import solve_regularized, solve_unregularized  # noqa: E402
from prorl.pipelines import resolve_mdp  # noqa: E402
from prorl.regularizers import Regularizer  # noqa: E402
from test_oracle import newton_stall_instance  # noqa: E402


def rate_unregularized_instance(n=1000):
    mdp = resolve_mdp(
        {"kind": "mixing", "num_states": 8, "num_actions": 3, "gamma": 0.8, "seed": 5,
         "mixing": 0.5}
    )
    dd = exact_occupancy(mdp, uniform_policy(mdp.num_states, mdp.num_actions)).mass
    b_w0 = float((solve_unregularized(mdp).d_star.mass / dd).max())
    alpha = recommended_alpha("unregularized", float(n) ** -0.25, Regularizer().eval(b_w0))
    return mdp, dd, alpha


def test_rate_unregularized_instance(benchmark):
    mdp, dd, alpha = rate_unregularized_instance()
    sol = benchmark(solve_regularized, mdp, dd, Regularizer(), alpha)
    assert sol.method == "saddle" and sol.kkt_residual <= 1e-8


def test_newton_stall_falls_back(benchmark):
    mdp, dd, alpha, cap = newton_stall_instance()
    sol = benchmark(solve_regularized, mdp, dd, Regularizer(), alpha, cap=cap)
    assert sol.method == "qp" and sol.kkt_residual <= 1e-8
