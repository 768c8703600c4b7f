"""Desk-scale size caps of every check family.

Each command sizes its largest system from closed forms and refuses it
with ``CapExceeded`` before anything is realized: ``jobs`` calls a guard
per size as it reads its ranges, and ``range-check`` once per document.
The library functions apply no cap.  This module holds the caps, the
closed forms, their exception and the common argument check, so the
command line can report a refusal without loading any family; the
hook-content dimension is imported only by the guards that form it.
"""

from __future__ import annotations

import operator
from math import comb

__all__ = [
    "CapExceeded",
    "DEFAULT_CAP",
    "KILLING_CAP",
    "KILLING_FIELD_CAP",
    "complex_guard",
    "key_guard",
    "killing_guard",
    "potential_guard",
]

DEFAULT_CAP = 20000

# Limits of the killing family, in place of DEFAULT_CAP.  The
# parallel-section system and the degree-bound kernel are reduced on their
# dominant weight blocks only, so their cost is far below what their column
# counts suggest.  Whole `killing` commands, CPU and peak RSS on a shared
# 2-vCPU host whose speed varied twofold between runs: 0.3-1.7 s and
# 17-25 MB each at n=4, ell=4 (34300 columns), n=5, ell=3 (27440), n=3,
# ell=6 and n=8, ell=2; with both caps lifted, 1.2-2.2 s / 21 MB at n=6,
# ell=3 (98784) and 3.6-6.4 s / 37 MB at n=5, ell=4 (222264).  At n=2
# and large ell the dim check's kernel fields, written at every ordering
# of their keys, cost the most: 2.8-2.9 s / 50 MB at n=2, ell=12 (372736
# field entries, 5.7 of 7.1 s under cProfile) and, caps lifted, 33 s /
# 457 MB at n=2, ell=15 (4456448).
KILLING_CAP = 40000
KILLING_FIELD_CAP = 400000


class CapExceeded(ValueError):
    """A requested size is larger than its family's desk-scale cap."""


def _check_args(n: int, ell: int) -> None:
    """Refuse an n or ell that is not an integer (``TypeError``) or is
    too small (``ValueError``)."""
    if operator.index(n) < 2:
        raise ValueError("base dimension must be at least 2")
    if operator.index(ell) < 1:
        raise ValueError("valence must be at least 1")


def _refuse(size: int, limit: int, what: str) -> None:
    """Raise ``CapExceeded``, "{what}, cap is {limit}", when size > limit."""
    if size > limit:
        raise CapExceeded(f"{what}, cap is {limit}")


def _bundle_dimension(n: int, ell: int) -> int:
    """dim T, the hook-content dimension of (ell, ell) over n + 1."""
    from killingcalc.young import YoungDiagram, gl_dimension

    return gl_dimension(YoungDiagram((ell, ell)), n + 1)


def key_guard(n: int) -> None:
    """Refuse key isomorphisms whose dimension n C(n, 2) exceeds
    ``DEFAULT_CAP``."""
    dim = n * comb(n, 2)
    _refuse(dim, DEFAULT_CAP, f"key isomorphism for n={n} has dimension {dim}")


def complex_guard(n: int, ell: int) -> None:
    """Refuse complexes (flat or Koszul) whose cochains, summed over all
    degrees, exceed ``DEFAULT_CAP``: 2^n dim T.  The component Sym^ell
    bounds the total below by 2^n C(n + ell - 1, ell), which refuses
    large ell before the hook-content product, quadratic in ell, runs."""
    _check_args(n, ell)
    what = f"complex for n={n}, ell={ell} has total dimension"
    bound = (2 ** n) * comb(n + ell - 1, ell)
    _refuse(bound, DEFAULT_CAP, f"{what} at least {bound}")
    total = (2 ** n) * _bundle_dimension(n, ell)
    _refuse(total, DEFAULT_CAP, f"{what} {total}")


def killing_guard(n: int, ell: int) -> int:
    """Refuse a killing-family size whose largest system has more columns
    than ``KILLING_CAP``, or whose kernel fields have more entries than
    ``KILLING_FIELD_CAP``; returns the column count.  The parallel-section
    system has dim T * |monomials(n, ell)| columns and the degree-bound
    kernel C(n + ell - 1, ell) * |monomials(n, ell + 2)|.  The dim check
    writes its dim T kernel fields at every index tuple, at most
    dim T * n^ell entries, which grows past the columns when n is small
    and ell large.  The degree-bound count, binomials only, is tested
    first: the hook-content product runs only on sizes that count admits.
    """
    _check_args(n, ell)
    what = f"killing checks for n={n}, ell={ell}"
    columns = comb(n + ell - 1, ell) * comb(n + ell + 2, n)
    _refuse(columns, KILLING_CAP, f"{what} build a system with {columns} columns")
    dim = _bundle_dimension(n, ell)
    columns = max(columns, dim * comb(n + ell, n))
    _refuse(columns, KILLING_CAP, f"{what} build a system with {columns} columns")
    entries = dim * n ** ell
    _refuse(entries, KILLING_FIELD_CAP, f"{what} write kernel fields with {entries} entries")
    return columns


def potential_guard(n: int, degree: int) -> int:
    """Refuse a potential of the given degree, at most deg omega + 1, with
    more coefficients than ``DEFAULT_CAP``: n * C(n + degree, n), the
    columns of the arity-1 operator at that degree; returns that count."""
    columns = n * comb(n + degree, n)
    _refuse(
        columns, DEFAULT_CAP,
        f"the potential system for n={n}, degree {degree} has {columns} columns",
    )
    return columns
