"""Tabular MDP primitives: models, policies, occupancies, exact solvers.

Everything downstream (objective, oracle, harness) works against the dense
representations defined here. All solves are direct linear-algebra calls on
|S|-sized systems; no iterative approximation is used for occupancies or
policy values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

_ROW_SUM_TOL = 1e-12


def _read_only(obj):
    """obj, with every array it reaches through tuples, lists, dicts and attributes read-only."""
    stack, seen = [obj], set()
    while stack:
        item = stack.pop()
        if id(item) in seen:
            continue
        seen.add(id(item))
        if isinstance(item, np.ndarray):
            item.flags.writeable = False
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
        elif hasattr(item, "__dict__"):
            stack.extend(vars(item).values())
    return obj


@dataclass(frozen=True, eq=False)
class TabularMdp:
    """A finite discounted MDP (S, A, P, r, gamma, mu0).

    transition has shape (S, A, S) with rows summing to one, reward has shape
    (S, A) with entries in [0, 1], and init_dist is a distribution over
    states. Standard constructors keep init_dist strictly positive; the
    hand-built counterexample is the one place a zero entry is allowed (its
    third state must be unreachable under the data distribution).
    """

    num_states: int
    num_actions: int
    transition: np.ndarray
    reward: np.ndarray
    gamma: float
    init_dist: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "transition", np.asarray(self.transition, dtype=float))
        object.__setattr__(self, "reward", np.asarray(self.reward, dtype=float))
        object.__setattr__(self, "init_dist", np.asarray(self.init_dist, dtype=float))
        s, a = self.num_states, self.num_actions
        if self.transition.shape != (s, a, s):
            raise ValueError(f"transition shape {self.transition.shape} != {(s, a, s)}")
        if self.reward.shape != (s, a):
            raise ValueError(f"reward shape {self.reward.shape} != {(s, a)}")
        if self.init_dist.shape != (s,):
            raise ValueError(f"init_dist shape {self.init_dist.shape} != {(s,)}")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        row_sums = self.transition.sum(axis=2)
        worst = np.abs(row_sums - 1.0).max()
        if worst > _ROW_SUM_TOL:
            bad = np.unravel_index(np.abs(row_sums - 1.0).argmax(), row_sums.shape)
            raise ValueError(
                f"transition rows must sum to 1 (worst deviation {worst:.3e} at "
                f"state {bad[0]}, action {bad[1]})"
            )
        if self.transition.min() < 0.0:
            raise ValueError("transition entries must be nonnegative")
        if self.reward.min() < 0.0 or self.reward.max() > 1.0:
            raise ValueError("rewards must lie in [0, 1]")
        if self.init_dist.min() < 0.0 or abs(self.init_dist.sum() - 1.0) > 1e-9:
            raise ValueError("init_dist must be a distribution over states")

    def to_dict(self) -> dict:
        return {
            "num_states": self.num_states,
            "num_actions": self.num_actions,
            "gamma": self.gamma,
            "transition": self.transition.tolist(),
            "reward": self.reward.tolist(),
            "init_dist": self.init_dist.tolist(),
        }

    @staticmethod
    def from_dict(payload: dict) -> "TabularMdp":
        return TabularMdp(
            num_states=int(payload["num_states"]),
            num_actions=int(payload["num_actions"]),
            transition=np.asarray(payload["transition"], dtype=float),
            reward=np.asarray(payload["reward"], dtype=float),
            gamma=float(payload["gamma"]),
            init_dist=np.asarray(payload["init_dist"], dtype=float),
        )


def save_mdp(mdp: TabularMdp, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(mdp.to_dict(), fh, indent=1)


def load_mdp(path: str) -> TabularMdp:
    with open(path) as fh:
        return TabularMdp.from_dict(json.load(fh))


@dataclass(frozen=True, eq=False)
class Policy:
    """Row-stochastic action distribution, shape (S, A)."""

    probs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))
        if self.probs.ndim != 2:
            raise ValueError("policy probs must be a (S, A) matrix")
        if self.probs.min() < 0.0:
            raise ValueError("policy probabilities must be nonnegative")
        dev = np.abs(self.probs.sum(axis=1) - 1.0).max()
        if dev > _ROW_SUM_TOL:
            raise ValueError(f"policy rows must sum to 1 (worst deviation {dev:.3e})")

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.probs.shape[1]


def uniform_policy(num_states: int, num_actions: int) -> Policy:
    return Policy(np.full((num_states, num_actions), 1.0 / num_actions))


@dataclass(frozen=True, eq=False)
class Occupancy:
    """Nonnegative state-action mass, shape (S, A).

    Valid normalized occupancies sum to one, but products w * d^D used as
    candidate occupancies need not, so no normalization is enforced here.
    """

    mass: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mass", np.asarray(self.mass, dtype=float))
        if self.mass.ndim != 2:
            raise ValueError("occupancy mass must be a (S, A) matrix")
        if not np.all(np.isfinite(self.mass)):
            raise ValueError("occupancy mass must be finite")
        if self.mass.min() < -1e-10:
            raise ValueError(f"occupancy mass must be nonnegative, min {self.mass.min():.3e}")

    @property
    def state_marginal(self) -> np.ndarray:
        return self.mass.sum(axis=1)

    def conditional_policy(self) -> Policy:
        """Action distribution d(a|s); uniform on states with zero mass."""
        marg = self.state_marginal
        num_actions = self.mass.shape[1]
        probs = np.full_like(self.mass, 1.0 / num_actions)
        pos = marg > 0.0
        probs[pos] = self.mass[pos] / marg[pos, None]
        return Policy(probs)


def _mass_of(d) -> np.ndarray:
    return d.mass if isinstance(d, Occupancy) else np.asarray(d, dtype=float)


def data_dist_mass(mdp: TabularMdp, d) -> np.ndarray:
    """d^D's mass, checked: shape (S, A), a sum within 1e-9 of 1, nonnegative; NaN fails."""
    mass = _mass_of(d)
    if mass.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError(f"data distribution shape {mass.shape} does not match the MDP")
    total = mass.sum()
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"data distribution must sum to 1, got {total}")
    if not mass.min() >= 0.0:
        raise ValueError("data distribution must be nonnegative")
    return mass


def policy_transition_matrix(mdp: TabularMdp, policy: Policy) -> np.ndarray:
    """State-to-state transition matrix P_pi[s, s'] under the policy, which must be (S, A)."""
    shape = (mdp.num_states, mdp.num_actions)
    if policy.probs.shape != shape:
        raise ValueError(f"policy shape {policy.probs.shape} does not match the MDP's {shape}")
    return np.einsum("sa,sat->st", policy.probs, mdp.transition)


def exact_occupancy(mdp: TabularMdp, policy: Policy) -> Occupancy:
    """Discounted state-action occupancy of a policy, by direct linear solve.

    Solves the Bellman flow system (I - gamma * P_pi^T) d = (1-gamma) mu0 for
    the state marginal and splits it across actions with the policy. The
    system matrix is an M-matrix for gamma < 1, so the solution is unique.
    """
    p_pi = policy_transition_matrix(mdp, policy)
    lhs = np.eye(mdp.num_states) - mdp.gamma * p_pi.T
    d_state = np.linalg.solve(lhs, (1.0 - mdp.gamma) * mdp.init_dist)
    # Clamp the solver's negative dust so the Occupancy invariant holds exactly.
    d_state = np.maximum(d_state, 0.0)
    return Occupancy(d_state[:, None] * policy.probs)


def flow_residual(mdp: TabularMdp, d) -> float:
    """Max-norm violation of the Bellman flow constraints by a candidate mass.

    residual = max_s | d(s) - (1-gamma) mu0(s) - gamma * sum_{s',a'} P(s|s',a') d(s',a') |
    """
    mass = _mass_of(d)
    inflow = np.einsum("sat,sa->t", mdp.transition, mass)
    lhs = mass.sum(axis=1)
    rhs = (1.0 - mdp.gamma) * mdp.init_dist + mdp.gamma * inflow
    return float(np.abs(lhs - rhs).max())


def policy_return(mdp: TabularMdp, policy: Policy) -> float:
    """Normalized return J(pi) = E_{d^pi}[r] = (1-gamma) E_{mu0}[V^pi], in [0, 1]."""
    d = exact_occupancy(mdp, policy)
    return float(np.sum(d.mass * mdp.reward))


def random_mdp(num_states: int, num_actions: int, gamma: float, seed) -> TabularMdp:
    """Random dense MDP with Dirichlet(0.4) transition rows and uniform [0,1] rewards.

    init_dist is a Dirichlet draw mixed 9:1 with the uniform distribution so
    its entries are bounded away from zero.
    """
    rng = np.random.default_rng(seed)
    transition = rng.dirichlet(np.full(num_states, 0.4), size=(num_states, num_actions))
    reward = rng.uniform(0.0, 1.0, size=(num_states, num_actions))
    init = rng.dirichlet(np.ones(num_states))
    init = 0.9 * init + 0.1 / num_states
    init = init / init.sum()
    return TabularMdp(num_states, num_actions, transition, reward, gamma, init)


def build_mixing_mdp(
    num_states: int,
    num_actions: int,
    gamma: float,
    seed,
    mixing: float = 0.5,
) -> TabularMdp:
    """Random MDP whose every transition row is mixed with the uniform distribution.

    With mixing weight kappa, every state is reached with probability at least
    kappa / num_states in one step from anywhere, which keeps all occupancy
    ratios bounded and makes the strong-concentrability check pass for
    full-support behavior distributions.
    """
    if not (0.0 < mixing <= 1.0):
        raise ValueError("mixing must be in (0, 1]")
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    transition = (1.0 - mixing) * raw + mixing / num_states
    transition = transition / transition.sum(axis=2, keepdims=True)
    reward = rng.uniform(0.0, 1.0, size=(num_states, num_actions))
    init = np.full(num_states, 1.0 / num_states)
    return TabularMdp(num_states, num_actions, transition, reward, gamma, init)


@dataclass(frozen=True, eq=False)
class CounterexampleBundle:
    """Hand-built four-state instance where the data cannot tell two weights apart.

    States: 0=A (initial), 1=B (good arm), 2=C (uncovered arm), 3=T (absorbing).
    Actions: 0=left, 1=right. Left from A reaches B (reward 1 next step);
    right reaches C, where exactly one action pays depending on the instance
    id, but the data distribution never visits C. w_left / w_right are the
    occupancy ratios of the left-committing and right-committing policies;
    both score identically against the optimal value function on the data.
    """

    mdp: TabularMdp
    instance: int
    data_occupancy: Occupancy
    v_star_unreg: np.ndarray
    w_left: np.ndarray
    w_right: np.ndarray

    A, B, C, T = 0, 1, 2, 3
    LEFT, RIGHT = 0, 1


def build_counterexample(gamma: float, instance: int = 1) -> CounterexampleBundle:
    """Discounted version of the classic identifiability failure.

    The data distribution d^D is uniform over the six state-action pairs it
    covers: both actions at A, B, and T, and nothing at C. Any valid occupancy
    therefore has zero mass at C, which forces d(A, right) = 0; yet the
    optimal value function has a zero Bellman residual on every covered pair,
    so the population objective ties the left- and right-committing weights
    exactly. mu0 is a point mass on A (strict positivity is deliberately
    violated; anything else makes the covered flow polytope empty).
    """
    if instance not in (1, 2):
        raise ValueError(f"instance must be 1 or 2, got {instance}")
    if not (0.0 < gamma < 1.0):
        raise ValueError("counterexample needs gamma in (0, 1)")
    s, a = 4, 2
    A, B, C, T = 0, 1, 2, 3
    left, right = 0, 1
    transition = np.zeros((s, a, s))
    transition[A, left, B] = 1.0
    transition[A, right, C] = 1.0
    transition[B, :, T] = 1.0
    transition[C, :, T] = 1.0
    transition[T, :, T] = 1.0
    reward = np.zeros((s, a))
    reward[B, :] = 1.0
    # The rewarding action at C is the only difference between instances.
    reward[C, left if instance == 1 else right] = 1.0
    init = np.zeros(s)
    init[A] = 1.0
    mdp = TabularMdp(s, a, transition, reward, gamma, init)

    data_mass = np.zeros((s, a))
    covered = [(A, left), (A, right), (B, left), (B, right), (T, left), (T, right)]
    for (cs, ca) in covered:
        data_mass[cs, ca] = 1.0 / 6.0
    data_occupancy = Occupancy(data_mass)

    # Optimal values: T pays nothing, B and C both pay 1 once, A discounts it.
    v_star = np.array([gamma, 1.0, 1.0, 0.0])

    # w_left is the true occupancy ratio of "commit left at A, uniform
    # elsewhere". w_right mirrors its A-row onto the right action: it claims
    # the B mass while never funding it, so it is flow-inconsistent, yet the
    # two are indistinguishable on the covered cells.
    probs = np.full((s, a), 0.5)
    probs[A] = [1.0, 0.0]
    d_left = exact_occupancy(mdp, Policy(probs))
    w_left = np.zeros((s, a))
    pos = data_mass > 0.0
    w_left[pos] = d_left.mass[pos] / data_mass[pos]
    w_right = w_left.copy()
    w_right[A, left] = 0.0
    w_right[A, right] = w_left[A, left]

    return CounterexampleBundle(
        mdp=mdp,
        instance=instance,
        data_occupancy=data_occupancy,
        v_star_unreg=v_star,
        w_left=w_left,
        w_right=w_right,
    )
