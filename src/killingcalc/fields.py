"""Calculus on tensor fields over flat coordinates, and connection
coefficients at a point.

The fields themselves (``PolyTensorField``, with their JSON form) live in
:mod:`killingcalc.poly`, so ``range-check``, which reads and writes
fields but differentiates none, never compiles this module; the class is
re-exported here.  This module holds the flat derivative, the
(anti)symmetrizers, the flat delta and its Lie derivative.  The flat
derivative is refused for rational fields (their entries come from
:mod:`killingcalc.metric`, which this module never imports).

Connection coefficients at a point come in two independent ways from a
raw first jet Dg, both evaluated on the jet brought to integers over the
lcm of its denominators: the closed form
Gamma_abc = (D_a g_bc + D_b g_ac - D_c g_ab)/2, and the solution of the
torsion-free metric-compatibility system.  That system depends on n
alone, so it is eliminated once per n into a cached integer solution
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
    from killingcalc.tensor import Tensor

__all__ = [
    "PolyTensorField",
    "delta_field",
    "flat_derivative",
    "christoffel_closed_form",
    "christoffel_solve",
    "christoffel_homogeneous_kernel_dim",
    "lie_derivative_delta",
    "symmetrize_field",
    "antisymmetrize_field",
]


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
    from killingcalc.tensor import perm_sign

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


def _integer_jet(dg: Tensor) -> tuple[dict[tuple[int, int, int], int], int]:
    """The derivative jet as integer entries over one positive scale, the
    lcm of its denominators, once its arity and its symmetry in the last
    two slots are checked."""
    if dg.arity != 3:
        raise ValueError("derivative jet must have arity 3")
    scale = lcm(1, *(v.denominator for v in dg.entries.values()))
    jet = {t: v.numerator * (scale // v.denominator) for t, v in dg.entries.items()}
    for (a, b, c), v in jet.items():
        if jet.get((a, c, b)) != v:
            raise ValueError("jet not symmetric in the last two slots")
    return jet, scale


def christoffel_closed_form(dg: Tensor) -> Tensor:
    """Pointwise (D_a g_bc + D_b g_ac - D_c g_ab)/2 from jet values."""
    from killingcalc.tensor import Tensor

    jet, scale = _integer_jet(dg)
    n = dg.n
    out = {}
    for a, b, c in product(range(1, n + 1), repeat=3):
        v = jet.get((a, b, c), 0) + jet.get((b, a, c), 0) - jet.get((c, a, b), 0)
        if v:
            out[(a, b, c)] = Fraction(v, 2 * scale)
    return Tensor(n, 3, out)


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

    Column j is ``solve`` of the system for the right-hand side that is 1
    in the j-th symmetric-part equation and 0 elsewhere.  The solution
    with free variables 0 is linear in the right-hand side, and the
    antisymmetric-part equations always have right-hand side 0, so S Dg
    is the solution ``solve`` gives for the jet Dg itself.
    """
    from killingcalc.matrix import ExactMatrix, solve

    m = _christoffel_system(n)
    trip, sym = _slots(n)
    first = m.rows - len(sym)
    cols = []
    for j in range(len(sym)):
        rhs = [0] * m.rows
        rhs[first + j] = 1
        x = solve(m, rhs)
        if x is None:
            raise RuntimeError("coefficient system unexpectedly inconsistent")
        cols.append(x)
    scale = lcm(1, *(v.denominator for x in cols for v in x))
    data = [
        {j: x[i].numerator * (scale // x[i].denominator) for j, x in enumerate(cols) if x[i]}
        for i in range(len(trip))
    ]
    return ExactMatrix.from_int_rows(len(sym), data, scale)


def christoffel_solve(dg: Tensor) -> Tensor:
    """Unique torsion-free metric-compatible coefficients at a point.

    Solves the linear system Gamma_[ab]c = 0, Gamma_a(bc) = Dg_abc / 2 by
    applying its cached solution operator to the jet in integers;
    independent of the closed form.
    """
    from killingcalc.tensor import Tensor

    jet, scale = _integer_jet(dg)
    n = dg.n
    op = _christoffel_solver(n)
    trip, sym = _slots(n)
    rhs = [jet.get(t, 0) for t in sym]
    den = op.scale * scale
    out = {}
    for t, row in zip(trip, op.data):
        v = sum(x * rhs[j] for j, x in row.items())
        if v:
            out[t] = Fraction(v, den)
    return Tensor(n, 3, out)


def christoffel_homogeneous_kernel_dim(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    from killingcalc.matrix import kernel_basis

    return len(kernel_basis(_christoffel_system(n)))


def lie_derivative_delta(X: PolyTensorField) -> PolyTensorField:
    """Lie derivative of the flat delta along X, term by term.

    Computed as X^a D_a g_bc + g_ac D_b X^a + g_ba D_c X^a with g = delta,
    keeping the (vanishing) transport term explicit.
    """
    if X.arity != 1 or X.rational:
        raise ValueError("expected a polynomial vector field")
    n = X.n
    g = delta_field(n)
    dg = _coordinate_derivative(g)
    dX = _coordinate_derivative(X)
    comps: dict = {}
    for b in range(1, n + 1):
        for c in range(1, n + 1):
            total = PolyScalar.zero(n)
            for a in range(1, n + 1):
                total = total.add(X.at(a).mul(dg.at(a, b, c)))
                total = total.add(g.at(a, c).mul(dX.at(b, a)))
                total = total.add(g.at(b, a).mul(dX.at(c, a)))
            if not total.is_zero():
                comps[(b, c)] = total
    return PolyTensorField(n, 2, comps)
