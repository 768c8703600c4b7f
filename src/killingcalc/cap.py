"""Desk-scale size cap shared by every check family.

The families estimate the size of their largest system from closed forms
and refuse it with ``CapExceeded`` before anything is realized.  This
module holds only the cap, its exception and the common argument check,
so the command line can report a refusal without loading any family.
"""

from __future__ import annotations

__all__ = ["CapExceeded", "DEFAULT_CAP"]

DEFAULT_CAP = 20000


class CapExceeded(ValueError):
    """Requested complex is larger than the configured desk-scale cap."""


def _check_args(n: int, ell: int) -> None:
    if n < 2:
        raise ValueError("base dimension must be at least 2")
    if ell < 1:
        raise ValueError("valence must be at least 1")
