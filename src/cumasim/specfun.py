"""Error types shared by the numerical modules.

The special functions behind the channel statistics come from
``scipy.special`` and ``math``; this module keeps the two errors that
every module raises and the CLI maps to exit codes.
"""

from __future__ import annotations

__all__ = ["DomainError", "NonConvergenceError"]


class DomainError(ValueError):
    """Argument outside the supported domain of a function."""


class NonConvergenceError(ArithmeticError):
    """A numerical evaluation failed to produce a finite result.

    Carries the offending function name and arguments so failures are
    traceable inside long sweep pipelines.
    """

    def __init__(self, func: str, args: tuple, detail: str = ""):
        self.func = func
        self.args = args
        msg = f"{func}{args} did not converge"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
