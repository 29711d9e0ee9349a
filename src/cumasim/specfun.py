"""Error type and power of two shared by the numerical modules.

The special functions behind the channel statistics come from
``scipy.special`` and ``math``; this module keeps the validation error
that every module raises and the CLI maps to exit code 2, and the 2^x
that turns rate thresholds into SIR thresholds.
"""

from __future__ import annotations

import math

__all__ = ["DomainError", "exp2"]


class DomainError(ValueError):
    """Argument outside the supported domain of a function."""


def exp2(x: float) -> float:
    """2.0**x, or inf where that overflows (where 2.0**x would raise)."""
    return math.inf if x >= 1024.0 else 2.0**x
