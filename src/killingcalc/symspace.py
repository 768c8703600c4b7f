"""Grouped tensor coordinates.

Tensors whose index slots fall into consecutive symmetric or
antisymmetric groups are determined by their values on representative
keys: a nondecreasing index tuple for each symmetric group, a strictly
increasing tuple for each antisymmetric group.  A ``GroupedSpace``
enumerates those keys in a fixed lexicographic order, and the maps in
this module (partial symmetrizations, skew pairs, index fixing,
single-entry substitutions) are written directly as exact matrices in
value coordinates: integer rows over a closed-form scale (1 for index
fixing and substitutions, the enlarged group's size for the averages,
2 for a skew pair).

Working in value coordinates keeps every elimination at its natural
size: a symmetry-constrained subspace of (R^n)^{tensor k} is cut out of
a space of dimension like C(n+k-1, k) instead of n^k.  Expansion to full
index grids (``embed``) happens only at the Tensor interface boundary.

Conventions used throughout:

* a symmetric-group value is the tensor entry at any arrangement of the
  key (they are all equal);
* an antisymmetric-group value is the entry at the increasing
  arrangement, and the entry at a permuted arrangement carries the sign
  of the permutation;
* symmetrization over k slots means the average over all k!
  rearrangements, antisymmetrization the signed average, matching
  :mod:`killingcalc.tensor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, permutations, product

from killingcalc.matrix import ExactMatrix
from killingcalc.tensor import Tensor, perm_sign

__all__ = [
    "SYM",
    "ALT",
    "Group",
    "GroupedSpace",
    "sym_extend",
    "skew_pair",
    "iota_matrix",
    "replace_matrix",
    "embed",
    "extract",
]

SYM = "sym"
ALT = "alt"


@dataclass(frozen=True)
class Group:
    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in (SYM, ALT):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if self.size < 1:
            raise ValueError("group size must be positive")


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
    data: list[dict[int, int]] = []
    for tkey in target.keys():
        parts = _target_key_parts(tkey, i if dropped else None)
        mj = parts[j]
        row: dict[int, int] = {}
        for t in range(len(mj)):
            x = mj[t]
            src = list(parts)
            src[i] = tuple(sorted(parts[i] + (x,)))
            src[j] = mj[:t] + mj[t + 1 :]
            scol = space.index(src)
            row[scol] = row.get(scol, 0) + 1
        data.append(row)
    return ExactMatrix.from_int_rows(space.dim, data, gj.size + 1), target


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


def iota_matrix(space: GroupedSpace, i: int, x: int) -> tuple[ExactMatrix, GroupedSpace]:
    """Fix the value x into one slot of symmetric group i.

    The resulting tensor's value at a target key is the source value at
    the key with x inserted back into group i.
    """
    if space.groups[i].kind != SYM:
        raise ValueError("iota_matrix needs a symmetric group")
    if not 1 <= x <= space.n:
        raise ValueError(f"index value {x} outside 1..{space.n}")
    tgroups, dropped = _drop_or_resize(space.groups, i, -1)
    target = GroupedSpace(space.n, tgroups)
    data = []
    for tkey in target.keys():
        parts = _target_key_parts(tkey, i if dropped else None)
        src = list(parts)
        src[i] = tuple(sorted(parts[i] + (x,)))
        data.append({space.index(src): 1})
    return ExactMatrix.from_int_rows(space.dim, data), target


def replace_matrix(space: GroupedSpace, s_val: int, r_val: int) -> ExactMatrix:
    """Matrix of the dual action of the elementary matrix E[r_val, s_val].

    On covariant tensors the action of x is (x . T)(..., c, ...) =
    -sum_r x[r][c] T(..., r, ...) summed over slots, so for an elementary
    x the image value at a key is minus the sum, over slots carrying
    s_val, of the source value with that slot set to r_val.
    """
    if s_val == r_val:
        raise ValueError("substitution endpoints must differ")
    data: list[dict[int, int]] = []
    for tkey in space.keys():
        row: dict[int, int] = {}
        for g, part in enumerate(tkey):
            kind = space.groups[g].kind
            for t in range(len(part)):
                if part[t] != s_val:
                    continue
                replaced = part[:t] + (r_val,) + part[t + 1 :]
                if kind == ALT and r_val in part[:t] + part[t + 1 :]:
                    continue
                ordered = tuple(sorted(replaced))
                sign = 1
                if kind == ALT:
                    rank_of = {v: p for p, v in enumerate(ordered)}
                    sign = perm_sign([rank_of[v] for v in replaced])
                src = list(tkey)
                src[g] = ordered
                _add(row, space.index(src), -sign)
        data.append(row)
    return ExactMatrix.from_int_rows(space.dim, data)


def _arrangements(part: tuple[int, ...], kind: str):
    if kind == SYM:
        return [(p, 1) for p in sorted(set(permutations(part)))]
    out = []
    for p in permutations(range(len(part))):
        out.append((tuple(part[q] for q in p), perm_sign(p)))
    return out


def embed(space: GroupedSpace, coords) -> Tensor:
    """Expand value coordinates to the full tensor."""
    if isinstance(coords, dict):
        items = coords.items()
    else:
        items = [(i, v) for i, v in enumerate(coords) if v]
    entries: dict[tuple[int, ...], Fraction] = {}
    keys = space.keys()
    for ki, v in items:
        v = Fraction(v)
        if not v:
            continue
        key = keys[ki]
        pools = [
            _arrangements(part, g.kind) for part, g in zip(key, space.groups)
        ]
        for combo in product(*pools):
            idx = tuple(i for arr, _ in combo for i in arr)
            sign = 1
            for _, s in combo:
                sign *= s
            entries[idx] = v * sign
    return Tensor(space.n, space.arity, entries)


def extract(space: GroupedSpace, t: Tensor) -> list[Fraction]:
    """Read value coordinates off a tensor; rejects wrong symmetry type."""
    if t.n != space.n or t.arity != space.arity:
        raise ValueError("tensor shape does not match the space")
    coords = []
    for key in space.keys():
        idx = tuple(i for part in key for i in part)
        coords.append(t.entries.get(idx, Fraction(0)))
    if embed(space, coords) != t:
        raise ValueError("tensor lacks the required group symmetries")
    return coords
