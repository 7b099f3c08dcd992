"""Shared tolerance model for every numerical inequality check.

An inequality lhs <= rhs is accepted when

    lhs - rhs <= max(eps_abs, eps_rel * (1 + sum of |term| magnitudes)),

so checks stay meaningful when the participating terms vary over orders of
magnitude along a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Tolerances:
    eps_rel: float = 1e-9
    eps_abs: float = 1e-9

    def __post_init__(self):
        if not (0 < self.eps_rel < math.inf and 0 < self.eps_abs < math.inf):
            raise ValueError("tolerances must be positive and finite")

    def bound(self, *magnitudes):
        """Tolerance for a check whose terms have the given magnitudes.

        Each magnitude is a scalar or an array (arrays broadcast: one
        tolerance per record); the result is a float when every magnitude is
        a scalar.  Non-finite magnitudes (from vacuous records) are skipped.
        The magnitudes are summed in argument order.
        """
        scale = 1.0
        for m in magnitudes:
            a = np.abs(m)
            scale = scale + np.where(np.isfinite(a), a, 0.0)
        out = np.maximum(self.eps_abs, self.eps_rel * scale)
        return float(out) if out.ndim == 0 else out


DEFAULT_TOLERANCES = Tolerances()
