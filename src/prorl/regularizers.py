"""Density-ratio regularizers: the strongly convex f applied to w = d / d^D.

Only the quadratic f is provided. Its curvature constant m_f is what the
performance bounds divide by, and its derivative inverse is what the oracle
solver inverts, so both are exposed in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Regularizer:
    """f(x) = m_f/2 * x^2, with m_f > 0."""

    m_f: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.m_f < np.inf:
            raise ValueError(
                f"m_f must be positive and finite for strong convexity, got {self.m_f}")

    def eval(self, x):
        """f(x), elementwise on arrays."""
        return 0.5 * self.m_f * np.square(x)

    def deriv_inverse(self, y):
        """(f')^{-1}(y) = y / m_f."""
        return np.asarray(y, dtype=float) / self.m_f

    def bounds(self, b_w: float) -> tuple[float, float]:
        """(B_f, B_fprime): sup of |f| and |f'| over the box [0, B_w]."""
        if b_w < 0.0:
            raise ValueError("weight bound must be nonnegative")
        return 0.5 * self.m_f * b_w**2, self.m_f * b_w

    def to_config(self) -> dict:
        return {"kind": "quadratic", "m_f": self.m_f}
