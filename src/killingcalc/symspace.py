"""Grouped tensor coordinates.

Tensors whose index slots fall into consecutive symmetric or
antisymmetric groups are determined by their values on representative
keys: a nondecreasing index tuple for each symmetric group, a strictly
increasing tuple for each antisymmetric group.  A ``GroupedSpace``
enumerates those keys in a fixed lexicographic order, and the maps in
this module (partial symmetrizations and skew pairs) are written
directly as exact matrices in value coordinates: integer rows over a
closed-form scale (the enlarged group's size for the averages, 2 for a
skew pair).  ``sym_extend_row`` writes one row of a partial
symmetrization, so that a caller can write the rows of one torus weight
alone.

Working in value coordinates keeps every elimination at its natural
size: a symmetry-constrained subspace of (R^n)^{tensor k} is cut out of
a space of dimension like C(n+k-1, k) instead of n^k.  No command
expands them to full index grids; the tests do, as an oracle.

Conventions used throughout:

* a symmetric-group value is the tensor entry at any arrangement of the
  key (they are all equal);
* an antisymmetric-group value is the entry at the increasing
  arrangement, and the entry at a permuted arrangement carries the sign
  of the permutation;
* symmetrization over k slots means the average over all k!
  rearrangements, antisymmetrization the signed average, matching
  ``fields.symmetrize_field`` and ``fields.antisymmetrize_field``.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from typing import NamedTuple

from killingcalc.matrix import ExactMatrix

__all__ = [
    "SYM",
    "ALT",
    "Group",
    "GroupedSpace",
    "sym_extend",
    "sym_extend_row",
    "skew_pair",
]

SYM = "sym"
ALT = "alt"


class Group(NamedTuple("Group", [("kind", str), ("size", int)])):
    __slots__ = ()

    def __new__(cls, kind: str, size: int):
        if kind not in (SYM, ALT):
            raise ValueError(f"unknown group kind {kind!r}")
        if size < 1:
            raise ValueError("group size must be positive")
        return super().__new__(cls, kind, size)


def _group_keys(n: int, g: Group) -> list[tuple[int, ...]]:
    rng = range(1, n + 1)
    if g.kind == SYM:
        return list(combinations_with_replacement(rng, g.size))
    return list(combinations(rng, g.size))


class GroupedSpace:
    """Value-coordinate space for a fixed base dimension and group list."""

    __slots__ = ("n", "groups", "_keys", "_index")

    def __init__(self, n: int, groups):
        if n < 1:
            raise ValueError("base dimension must be positive")
        self.n = n
        self.groups = tuple(groups)
        per_group = [_group_keys(n, g) for g in self.groups]
        self._keys = [tuple(k) for k in product(*per_group)]
        self._index = {k: i for i, k in enumerate(self._keys)}

    @property
    def arity(self) -> int:
        return sum(g.size for g in self.groups)

    @property
    def dim(self) -> int:
        return len(self._keys)

    def keys(self) -> list[tuple[tuple[int, ...], ...]]:
        return self._keys

    def index(self, key) -> int:
        return self._index[tuple(tuple(part) for part in key)]

    def __repr__(self) -> str:
        parts = ", ".join(f"{g.kind}{g.size}" for g in self.groups)
        return f"GroupedSpace(n={self.n}, [{parts}], dim={self.dim})"


def _drop_or_resize(groups, i: int, delta: int) -> tuple[tuple[Group, ...], bool]:
    """Resize group i by delta; returns (new groups, dropped flag)."""
    g = groups[i]
    size = g.size + delta
    out = list(groups)
    if size == 0:
        del out[i]
        return tuple(out), True
    out[i] = Group(g.kind, size)
    return tuple(out), False


def _target_key_parts(key, dropped_at: int | None):
    """Reinsert a placeholder so source-group positions line up."""
    parts = list(key)
    if dropped_at is not None:
        parts.insert(dropped_at, ())
    return parts


def _add(row: dict[int, int], c: int, v: int) -> None:
    """Add v to entry c of an integer row, dropping it when it cancels."""
    w = row.get(c, 0) + v
    if w:
        row[c] = w
    else:
        del row[c]


def sym_extend(space: GroupedSpace, i: int, j: int) -> tuple[ExactMatrix, GroupedSpace]:
    """Symmetrize one index of symmetric group i into symmetric group j.

    The image value at a target key is the average, over the positions t
    of the enlarged group-j key, of the source value with element t moved
    back into group i.  The kernel of this map is the subspace where
    symmetrizing the last group-i index across all of group j vanishes.
    """
    gi, gj = space.groups[i], space.groups[j]
    if gi.kind != SYM or gj.kind != SYM or i == j:
        raise ValueError("sym_extend needs two distinct symmetric groups")
    tgroups, dropped = _drop_or_resize(space.groups, i, -1)
    jj = j if (not dropped or j < i) else j - 1
    tgroups, _ = _drop_or_resize(tgroups, jj, +1)
    target = GroupedSpace(space.n, tgroups)
    data = [
        sym_extend_row(_target_key_parts(tkey, i if dropped else None), i, j, space.index)
        for tkey in target.keys()
    ]
    return ExactMatrix.from_int_rows(space.dim, data, gj.size + 1), target


def sym_extend_row(parts, i: int, j: int, index) -> dict[int, int]:
    """The integer row of ``sym_extend`` at one target key, given as its
    parts in the source's group layout (an empty part where group i was
    dropped): a 1 at the source key with element t of part j moved back
    into part i, for each position t of part j.  ``index`` maps a source
    key, a list of parts, to its column."""
    mj = parts[j]
    row: dict[int, int] = {}
    for t in range(len(mj)):
        src = list(parts)
        src[i] = tuple(sorted(parts[i] + (mj[t],)))
        src[j] = mj[:t] + mj[t + 1 :]
        scol = index(src)
        row[scol] = row.get(scol, 0) + 1
    return row


def skew_pair(space: GroupedSpace, i: int, j: int) -> tuple[ExactMatrix, GroupedSpace]:
    """Antisymmetrize a size-1 group i with one index of symmetric group j."""
    gi, gj = space.groups[i], space.groups[j]
    if gi.size != 1 or gj.kind != SYM or i == j:
        raise ValueError("skew_pair needs a size-1 group and a symmetric group")
    tgroups = list(space.groups)
    tgroups[i] = Group(ALT, 2)
    tg, dropped = _drop_or_resize(tuple(tgroups), j, -1)
    target = GroupedSpace(space.n, tg)
    data: list[dict[int, int]] = []
    for tkey in target.keys():
        parts = _target_key_parts(tkey, j if dropped else None)
        x, y = parts[i]
        mj = parts[j]
        row: dict[int, int] = {}
        for val, other, sign in ((x, y, 1), (y, x, -1)):
            src = list(parts)
            src[i] = (val,)
            src[j] = tuple(sorted(mj + (other,)))
            _add(row, space.index(src), sign)
        data.append(row)
    return ExactMatrix.from_int_rows(space.dim, data, 2), target
