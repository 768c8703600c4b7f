"""Exact rational scalars.

The scalar type used throughout is ``fractions.Fraction`` from the
standard library: arbitrary-precision, always reduced, hashable.  This
module only adds the serialization conventions (fraction strings such as
``"-3/7"`` or ``"5"``) so that numerators and denominators survive a
round-trip exactly.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = ["Fraction", "format_rational", "parse_rational"]


def format_rational(x: Fraction) -> str:
    return str(Fraction(x))


def parse_rational(s: str) -> Fraction:
    """Parse a fraction string; only integer and p/q forms in ASCII
    digits are accepted."""
    if not isinstance(s, str):
        raise ValueError(f"rational must be given as a string, got {type(s).__name__}")
    t = s.strip()
    body = t[1:] if t[:1] in "+-" else t
    # str.isdigit alone also admits the digits of other scripts
    if not body or not all(part.isascii() and part.isdigit() for part in body.split("/", 1)):
        raise ValueError(f"not a rational literal: {s!r}")
    try:
        return Fraction(t)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None
