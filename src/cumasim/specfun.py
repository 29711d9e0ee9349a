"""Error type shared by the numerical modules.

The special functions behind the channel statistics come from
``scipy.special`` and ``math``; this module keeps the validation error
that every module raises and the CLI maps to exit code 2.
"""

from __future__ import annotations

__all__ = ["DomainError"]


class DomainError(ValueError):
    """Argument outside the supported domain of a function."""
