"""Density-ratio regularizers: the strongly convex f applied to w = d / d^D.

Only the quadratic family is provided. Its curvature constant m_f is what the
performance bounds divide by, and its derivative inverse is what the oracle
solver inverts, so both are exposed in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_KINDS = ("quadratic", "shifted_quadratic")


@dataclass(frozen=True)
class Regularizer:
    """f(x) = m_f/2 * x^2 (+ shift for the shifted kind), with m_f > 0.

    The shift leaves derivatives untouched; it exists so bound computations
    can be exercised with sup|f| != f-range-from-zero.
    """

    kind: str = "quadratic"
    m_f: float = 1.0
    shift: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}, expected one of {_KINDS}")
        if self.m_f <= 0.0:
            raise ValueError(f"m_f must be positive for strong convexity, got {self.m_f}")
        if self.kind == "quadratic" and self.shift != 0.0:
            raise ValueError("plain quadratic takes no shift; use shifted_quadratic")
        if self.shift < 0.0:
            raise ValueError("shift must be nonnegative so f stays nonnegative")

    def eval(self, x):
        """f(x), elementwise on arrays."""
        return 0.5 * self.m_f * np.square(x) + self.shift

    def deriv_inverse(self, y):
        """(f')^{-1}(y) = y / m_f."""
        return np.asarray(y, dtype=float) / self.m_f

    def bounds(self, b_w: float) -> tuple[float, float]:
        """(B_f, B_fprime): sup of |f| and |f'| over the box [0, B_w]."""
        if b_w < 0.0:
            raise ValueError("weight bound must be nonnegative")
        b_f = 0.5 * self.m_f * b_w**2 + self.shift
        b_fprime = self.m_f * b_w
        return b_f, b_fprime

    def to_config(self) -> dict:
        cfg = {"kind": self.kind, "m_f": self.m_f}
        if self.kind == "shifted_quadratic":
            cfg["shift"] = self.shift
        return cfg

    @staticmethod
    def from_config(cfg: dict) -> "Regularizer":
        return Regularizer(
            kind=cfg.get("kind", "quadratic"),
            m_f=float(cfg.get("m_f", 1.0)),
            shift=float(cfg.get("shift", 0.0)),
        )
