"""Calculus on tensor fields over flat coordinates, and connection
coefficients at a point.

The fields themselves (``PolyTensorField``, with their JSON form) live in
:mod:`killingcalc.poly`, so ``range-check``, which reads and writes
fields but differentiates none, never compiles this module; the class is
re-exported here.  This module holds the flat derivative, the
(anti)symmetrizers with ``perm_sign``, and the flat delta.  The flat
derivative is refused for rational fields (their entries come from
:mod:`killingcalc.metric`, which this module never imports).

A jet is a plain dict from 1-based index tuples to int or ``Fraction``
values, with the base dimension n passed beside it; a zero value reads
as absent.  Connection coefficients at a point come in two independent
ways from a raw first jet Dg, ``christoffel_closed_form(n, dg)`` and
``christoffel_solve(n, dg)``, both returning such a dict and both
evaluated on the jet brought to integers over the lcm of its
denominators: the closed form
Gamma_abc = (D_a g_bc + D_b g_ac - D_c g_ab)/2, and the solution of the
torsion-free metric-compatibility system.  That system depends on n
alone, so it is reduced once per n, by one ``rref`` of the system beside
the unit columns of its right-hand sides, into a cached integer solution
operator, which each jet is multiplied by.  The two routes are not
merged: the suite's ``christoffel.*.random-jets`` checks and the tests
compare them on every jet they draw.  Only those routes run the matrix
kernel, so they import it where they run.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import lcm
from typing import TYPE_CHECKING

# PolyTensorField lives in poly, so `range-check` compiles none of this
# module.  It is re-exported here because perfbench's tracer target
# `fields.PolyTensorField.__init__` resolves the class through this module.
from killingcalc.poly import PolyScalar, PolyTensorField

if TYPE_CHECKING:  # imported where they run: only the Christoffel routes need them
    from killingcalc.matrix import ExactMatrix

__all__ = [
    "PolyTensorField",
    "perm_sign",
    "delta_field",
    "flat_derivative",
    "christoffel_closed_form",
    "christoffel_solve",
    "christoffel_homogeneous_kernel_dim",
    "symmetrize_field",
    "antisymmetrize_field",
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


def delta_field(n: int) -> PolyTensorField:
    return PolyTensorField(
        n, 2, {(i, i): PolyScalar.const(n, 1) for i in range(1, n + 1)}
    )


def flat_derivative(f: PolyTensorField) -> PolyTensorField:
    """Coordinate derivative, new index first; polynomial fields only."""
    if f.rational:
        raise ValueError(
            "a rational field has no flat derivative: use covariant_derivative"
        )
    return _coordinate_derivative(f)


def _coordinate_derivative(f: PolyTensorField) -> PolyTensorField:
    out = {}
    for idx, s in f.comps.items():
        for a in range(1, f.n + 1):
            d = s.diff(a)
            if not d.is_zero():
                out[(a,) + idx] = d
    return PolyTensorField(f.n, f.arity + 1, out)


def _permuted_combination(f: PolyTensorField, positions, signed: bool) -> PolyTensorField:
    pos = tuple(p - 1 for p in positions)
    if len(set(pos)) != len(pos) or not all(0 <= p < f.arity for p in pos):
        raise ValueError("bad slot positions")
    out: dict = {}
    for perm in permutations(range(len(pos))):
        sign = perm_sign(perm) if signed else 1
        for idx, s in f.comps.items():
            tgt = list(idx)
            for slot, which in zip(pos, perm):
                tgt[slot] = idx[pos[which]]
            tgt = tuple(tgt)
            term = s.scale(sign)
            cur = out.get(tgt)
            out[tgt] = term if cur is None else cur.add(term)
    k = 1
    for i in range(2, len(pos) + 1):
        k *= i
    return PolyTensorField(
        f.n, f.arity, {i: s.scale(Fraction(1, k)) for i, s in out.items()}
    )


def symmetrize_field(f: PolyTensorField, positions) -> PolyTensorField:
    """Average over rearrangements of the given 1-based slots."""
    return _permuted_combination(f, positions, signed=False)


def antisymmetrize_field(f: PolyTensorField, positions) -> PolyTensorField:
    """Signed average over rearrangements of the given 1-based slots."""
    return _permuted_combination(f, positions, signed=True)


@cache
def _jet_indices(n: int, arity: int) -> frozenset:
    """The valid index tuples of a jet: the given arity, entries in 1..n."""
    return frozenset(product(range(1, n + 1), repeat=arity))


def _jet_values(n: int, jet: dict, arity: int) -> dict:
    """The nonzero values of a jet, a dict from index tuples to int or
    ``Fraction`` values; every index tuple must have the arity and
    entries in 1..n, and a zero value reads as absent."""
    if n < 1:
        raise ValueError("need n >= 1")
    valid = _jet_indices(n, arity)
    values = {}
    for idx, v in jet.items():
        if idx not in valid:
            raise ValueError(
                f"jet index {idx} invalid: need arity {arity}, entries in 1..{n}"
            )
        if not isinstance(v, (int, Fraction)):
            raise TypeError(
                f"jet value at {idx} must be an int or Fraction, got {type(v).__name__}"
            )
        if v:
            values[idx] = v
    return values


def _integer_jet(n: int, dg: dict) -> tuple[dict[tuple[int, int, int], int], int]:
    """The derivative jet as integer entries over one positive scale, the
    lcm of its denominators, once its indices and its symmetry in the
    last two slots are checked."""
    dg = _jet_values(n, dg, 3)
    scale = lcm(1, *(v.denominator for v in dg.values()))
    jet = {t: v.numerator * (scale // v.denominator) for t, v in dg.items()}
    for (a, b, c), v in jet.items():
        if jet.get((a, c, b)) != v:
            raise ValueError("jet not symmetric in the last two slots")
    return jet, scale


def christoffel_closed_form(n: int, dg: dict) -> dict:
    """Pointwise (D_a g_bc + D_b g_ac - D_c g_ab)/2 from jet values."""
    jet, scale = _integer_jet(n, dg)
    out = {}
    for a, b, c in product(range(1, n + 1), repeat=3):
        v = jet.get((a, b, c), 0) + jet.get((b, a, c), 0) - jet.get((c, a, b), 0)
        if v:
            out[(a, b, c)] = Fraction(v, 2 * scale)
    return out


@cache
def _slots(n: int):
    """The unknowns Gamma_abc in lexicographic order, and the (a, b, c)
    with b <= c, which index the symmetric-part equations."""
    trip = tuple(product(range(1, n + 1), repeat=3))
    return trip, tuple(t for t in trip if t[1] <= t[2])


@cache
def _christoffel_system(n: int) -> ExactMatrix:
    """Rows: vanishing antisymmetric part, then prescribed symmetric part."""
    from killingcalc.matrix import ExactMatrix

    trip, sym = _slots(n)
    pos = {t: i for i, t in enumerate(trip)}
    rows = [{pos[(a, b, c)]: 1, pos[(b, a, c)]: -1} for a, b, c in trip if a < b]
    for a, b, c in sym:
        row = {pos[(a, b, c)]: 1}
        k = pos[(a, c, b)]
        row[k] = row.get(k, 0) + 1
        rows.append(row)
    return ExactMatrix.from_int_rows(len(trip), rows)


@cache
def _christoffel_solver(n: int) -> ExactMatrix:
    """The solution operator of the coefficient system: the n^3 x
    (symmetric slots) matrix S with Gamma = S Dg, Dg read at the
    symmetric slots in order.

    With the system A / s, one ``rref`` of the integer system [A | s E],
    E the unit columns of the symmetric-part equations, gives [I | S]:
    A is square and invertible, so the pivots are the n^3 unknowns, and
    row p holds S's row p after column n^3, over the reduction's scale.
    The antisymmetric-part equations always have right-hand side 0, so
    S Dg is the solution of the system for the jet Dg itself.
    """
    from killingcalc.matrix import ExactMatrix, rref

    m = _christoffel_system(n)
    n3, nsym = m.cols, len(_slots(n)[1])
    first = m.rows - nsym
    aug = [dict(row) for row in m.data]
    for j in range(nsym):
        aug[first + j][n3 + j] = m.scale
    pivots, red = rref(ExactMatrix.from_int_rows(n3 + nsym, aug))
    if pivots != list(range(n3)):
        raise RuntimeError("coefficient system unexpectedly singular")
    data = [{c - n3: v for c, v in row.items() if c >= n3} for row in red.data]
    return ExactMatrix.from_int_rows(nsym, data, red.scale)


def christoffel_solve(n: int, dg: dict) -> dict:
    """Unique torsion-free metric-compatible coefficients at a point.

    Solves the linear system Gamma_[ab]c = 0, Gamma_a(bc) = Dg_abc / 2 by
    applying its cached solution operator to the jet in integers;
    independent of the closed form.
    """
    jet, scale = _integer_jet(n, dg)
    op = _christoffel_solver(n)
    trip, sym = _slots(n)
    rhs = [jet.get(t, 0) for t in sym]
    den = op.scale * scale
    out = {}
    for t, row in zip(trip, op.data):
        v = sum(x * rhs[j] for j, x in row.items())
        if v:
            out[t] = Fraction(v, den)
    return out


def christoffel_homogeneous_kernel_dim(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    from killingcalc.matrix import kernel_basis

    return len(kernel_basis(_christoffel_system(n)))
