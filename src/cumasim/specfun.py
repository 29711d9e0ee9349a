"""Error type and power of two shared by the numerical modules.

The special functions behind the channel statistics come from
``math`` and two kernels of the package's own: the exact density's
log 1F1 is ``analytic._log_kummer`` and the closed-form rate's e^x E1(x)
is ``approx._exp_e1``; the KS check applies ``math.erf`` elementwise.
No module loads scipy.

This module keeps the validation error that every module raises and the
CLI maps to exit code 2, the one check each of a user count, of a rate
argument and of a residual interference factor, and the 2^x that turns
rate thresholds into SIR thresholds.
"""

from __future__ import annotations

import math
import numbers

__all__ = ["DomainError", "exp2"]


class DomainError(ValueError):
    """Argument outside the supported domain of a function."""


def _check_users(users: int) -> None:
    """Refuse a user count that is not an integer, or that is below 2."""
    if not isinstance(users, numbers.Integral):
        raise DomainError(f"the user count must be an integer, got {users!r}")
    if users < 2:
        raise DomainError(f"need at least 2 users, got {users}")


def _check_rate(name: str, rate: float) -> None:
    """Refuse a rate (bits per channel use) that is negative or not finite."""
    if not 0.0 <= rate < math.inf:
        raise DomainError(f"{name} must be nonnegative and finite, got {rate}")


def _check_delta(name: str, delta: float) -> None:
    """Refuse a residual interference factor outside (0, 1], NaN included."""
    if not 0.0 < delta <= 1.0:
        raise DomainError(f"{name} must lie in (0, 1], got {delta}")


def exp2(x: float) -> float:
    """2.0**x, or inf where that overflows (where 2.0**x would raise)."""
    return math.inf if x >= 1024.0 else 2.0**x
