"""Primal-dual offline RL on tabular MDPs with single-policy concentrability.

Modules
-------
mdp           tabular models, policies, exact occupancies and policy values
regularizers  the quadratic density-ratio regularizer f and its constants
objective     population / empirical Lagrangian and Bellman residuals
oracle        solvers only: exact regularized solutions (Newton, HiGHS QP
              cross-check), the capped and minimum-divergence LPs, and the
              unregularized optimum and coverage bound by policy iteration
classes       finite value / weight / policy classes and witnesses
saddle        max-min estimation over finite classes
extraction    policy extraction and behavior-cloning extraction
bounds        closed-form statistical error and performance-gap bounds
datasets      offline transition datasets and their serialization
pipelines     end-to-end experiment runs
suites        named experiment suites with CSV/SVG artifacts
cli           `pro-rl` command-line entry point
"""

__version__ = "0.1.0"
