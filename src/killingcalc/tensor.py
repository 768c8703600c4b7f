"""Dense-index tensor algebra over the rationals.

A ``Tensor`` is a sparse map from 1-based index tuples (i_1, ..., i_k),
each i_t in 1..n, to nonzero Fractions.  Symmetrization and
antisymmetrization over a set of slots are group averages: with k slots
selected,

    sym  = (1/k!) sum over permutations of the selected slots,
    skew = (1/k!) signed sum over the same permutations,

so both are idempotent projections.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

__all__ = [
    "Tensor",
    "antisymmetrize",
    "perm_sign",
]


def perm_sign(perm) -> int:
    """Sign of a permutation given as a tuple of distinct items."""
    perm = list(perm)
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


class Tensor:
    """Arity-k tensor over an n-dimensional base, sparse on index tuples."""

    __slots__ = ("n", "arity", "entries")

    def __init__(self, n: int, arity: int, entries=None):
        if n < 1 or arity < 0:
            raise ValueError("need n >= 1 and arity >= 0")
        self.n = n
        self.arity = arity
        clean: dict[tuple[int, ...], Fraction] = {}
        for idx, v in (entries or {}).items():
            idx = tuple(idx)
            if len(idx) != arity or (idx and not (1 <= min(idx) and max(idx) <= n)):
                raise ValueError(f"index {idx} invalid for n={n}, arity={arity}")
            if type(v) is not Fraction:
                v = Fraction(v)
            if v:
                clean[idx] = v
        self.entries = clean

    def at(self, *idx) -> Fraction:
        return self.entries.get(tuple(idx), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Tensor)
            and (self.n, self.arity) == (other.n, other.arity)
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("Tensor is not hashable")

    def __repr__(self) -> str:
        return f"Tensor(n={self.n}, arity={self.arity}, nnz={len(self.entries)})"

    def __add__(self, other: "Tensor") -> "Tensor":
        if (self.n, self.arity) != (other.n, other.arity):
            raise ValueError("shape mismatch")
        entries = dict(self.entries)
        for idx, v in other.entries.items():
            w = entries.get(idx, Fraction(0)) + v
            if w:
                entries[idx] = w
            elif idx in entries:
                del entries[idx]
        return Tensor(self.n, self.arity, entries)

    def __sub__(self, other: "Tensor") -> "Tensor":
        return self + other.scale(-1)

    def scale(self, a) -> "Tensor":
        a = Fraction(a)
        if not a:
            return Tensor(self.n, self.arity)
        return Tensor(self.n, self.arity, {k: a * v for k, v in self.entries.items()})


def _check_positions(t: Tensor, positions) -> tuple[int, ...]:
    pos = tuple(positions)
    if len(set(pos)) != len(pos):
        raise ValueError("positions must be distinct")
    if any(not (1 <= p <= t.arity) for p in pos):
        raise ValueError(f"positions {pos} outside 1..{t.arity}")
    return pos


def _permute_average(t: Tensor, positions, signed: bool) -> Tensor:
    pos = _check_positions(t, positions)
    k = len(pos)
    if k <= 1:
        return t
    slots = [p - 1 for p in pos]
    order = Fraction(1)
    for i in range(2, k + 1):
        order *= i
    acc: dict[tuple[int, ...], Fraction] = {}
    for idx, v in t.entries.items():
        selected = [idx[s] for s in slots]
        for perm in permutations(range(k)):
            w = v if not signed else v * perm_sign(perm)
            new = list(idx)
            for slot, src in zip(slots, perm):
                new[slot] = selected[src]
            key = tuple(new)
            u = acc.get(key, Fraction(0)) + w / order
            if u:
                acc[key] = u
            elif key in acc:
                del acc[key]
    return Tensor(t.n, t.arity, acc)


def antisymmetrize(t: Tensor, positions) -> Tensor:
    """Signed average of t over all rearrangements of the given slots."""
    return _permute_average(t, positions, signed=True)
