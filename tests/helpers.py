"""Seeded random generators shared by the test modules.

Every test that uses randomness constructs its own ``random.Random(seed)``
so failures replay exactly; nothing here touches global RNG state.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import lcm

from killingcalc import elim
from killingcalc.fields import PolyTensorField, flat_derivative, symmetrize_field
from killingcalc.kostant import build_V
from killingcalc.matrix import ExactMatrix, IntMatrix, kernel_basis, rank, rref, solve
from killingcalc.poly import PolyScalar, monomials
from killingcalc.prolong import _psubsets, build_T
from killingcalc.symspace import iota_matrix, replace_matrix
from killingcalc.tensor import Tensor


def rand_matrix(rng: random.Random, rows: int, cols: int, density: float = 0.6) -> ExactMatrix:
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randint(-9, 9)
                if v:
                    entries[(r, c)] = Fraction(v)
    return ExactMatrix(rows, cols, entries)


def rand_tensor(rng: random.Random, n: int, arity: int, density: float = 0.5) -> Tensor:
    entries = {}
    for idx in product(range(1, n + 1), repeat=arity):
        if rng.random() < density:
            v = rng.randint(-5, 5)
            if v:
                entries[idx] = Fraction(v)
    return Tensor(n, arity, entries)


def rand_poly(rng: random.Random, n: int, max_degree: int, nterms: int = 4) -> PolyScalar:
    mons = monomials(n, max_degree)
    terms = {}
    for m in rng.sample(mons, min(nterms, len(mons))):
        v = rng.randint(-6, 6)
        if v:
            terms[m] = Fraction(v)
    return PolyScalar(n, terms)


def rand_field(rng: random.Random, n: int, arity: int, max_degree: int) -> PolyTensorField:
    comps = {}
    for idx in product(range(1, n + 1), repeat=arity):
        p = rand_poly(rng, n, max_degree, nterms=3)
        if not p.is_zero():
            comps[idx] = p
    return PolyTensorField(n, arity, comps)


def rand_symmetric_field(rng: random.Random, n: int, arity: int, max_degree: int) -> PolyTensorField:
    f = rand_field(rng, n, arity, max_degree)
    if arity >= 2:
        f = symmetrize_field(f, range(1, arity + 1))
    return f


def field_obstruction(omega: PolyTensorField) -> PolyTensorField:
    """Reference obstruction N of a 2-tensor field by full-index field
    calculus: the second-derivative field, then the four terms of
    N_abcd = d_a d_c w_bd - d_b d_c w_ad - d_a d_d w_bc + d_b d_d w_ac
    at every (a, b, c, d)."""
    dd = flat_derivative(flat_derivative(omega))
    n = omega.n
    comps = {}
    for a, b, c, d in product(range(1, n + 1), repeat=4):
        v = (
            dd.at(a, c, b, d)
            .sub(dd.at(b, c, a, d))
            .sub(dd.at(a, d, b, c))
            .add(dd.at(b, d, a, c))
        )
        if not v.is_zero():
            comps[(a, b, c, d)] = v
    return PolyTensorField(n, 4, comps)


# Every (shape, n, presentation) the test suite realizes.
REALIZED_SHAPES = [
    ((1,), 2, "row"), ((1,), 3, "row"), ((1,), 4, "row"),
    ((2,), 2, "row"), ((2,), 3, "row"), ((2,), 4, "row"),
    ((3,), 2, "row"), ((3,), 3, "row"), ((3,), 4, "row"),
    ((1, 1), 2, "column-skew"), ((1, 1), 3, "column-skew"),
    ((1, 1, 1), 3, "column-skew"),
    ((2, 2), 2, "column-skew"), ((2, 2), 3, "column-skew"),
] + [
    (shape, n, "symmetric-pair")
    for shape, ns in [
        ((1, 1), (2, 3, 4, 5)), ((2, 1), (2, 3, 4)), ((2, 2), (2, 3, 4, 5)),
        ((3, 1), (2, 3, 4)), ((3, 2), (2, 3, 4)), ((3, 3), (2, 3, 4, 5)),
    ]
    for n in ns
]
REALIZED_IDS = [f"{''.join(map(str, s))}-n{n}-{kind}" for s, n, kind in REALIZED_SHAPES]


def whole_rref(m: ExactMatrix):
    """Reference reduction: ``elim.rref_int`` on the entire matrix at once,
    never split into blocks.  Returns (pivots, reduced matrix)."""
    rows = [dict() for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    int_rows = []
    for row in rows:
        mult = lcm(*(v.denominator for v in row.values())) if row else 1
        int_rows.append({c: int(v * mult) for c, v in row.items()})
    pivots, red = elim.rref_int(int_rows, m.cols)
    entries = {
        (i, c): Fraction(v, row[p])
        for i, (p, row) in enumerate(zip(pivots, red))
        for c, v in row.items()
    }
    return pivots, ExactMatrix(len(pivots), m.cols, entries)


def whole_kernel(m: ExactMatrix):
    """Kernel basis read off ``whole_rref``: for each free column f, the
    vector with 1 at f and the negated reduced column f at the pivots."""
    pivots, red = whole_rref(m)
    out = []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        vec = {p: -red.entries[(i, f)] for i, p in enumerate(pivots) if (i, f) in red.entries}
        vec[f] = Fraction(1)
        out.append(vec)
    return out


def whole_solve(m: ExactMatrix, b):
    """Free-variables-zero solution of m x = b from ``whole_rref`` of [m | b]."""
    aug = m.hstack(ExactMatrix(m.rows, 1, {(r, 0): v for r, v in enumerate(b) if v}))
    pivots, red = whole_rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = red.at(i, m.cols)
    return x


def assert_matches_whole(m: ExactMatrix, rhs=None) -> None:
    """rank, rref, kernel_basis and solve of m equal the whole-matrix
    reduction.  Solves for rhs, or by default for the image of the
    all-ones vector (consistent) and for e_0 and e_last (often not)."""
    pivots, red = whole_rref(m)
    assert rank(m) == len(pivots), m
    assert rref(m) == (pivots, red), m
    ker = kernel_basis(m)
    assert ker == whole_kernel(m), m
    assert all(list(v) == sorted(v) for v in ker), m
    if rhs is None:
        image = m.apply({c: Fraction(1) for c in range(m.cols)})
        rhs = [[image.get(r, Fraction(0)) for r in range(m.rows)]]
        for r in {0, m.rows - 1} if m.rows else ():
            rhs.append([Fraction(int(i == r)) for i in range(m.rows)])
    for b in rhs:
        assert solve(m, b) == whole_solve(m, b), m


def as_exact(m: IntMatrix) -> ExactMatrix:
    """The rational matrix an ``IntMatrix`` stands for, rows / scale."""
    entries = {
        (r, c): Fraction(v, m.scale) for r, row in enumerate(m.data) for c, v in row.items()
    }
    return ExactMatrix(m.rows, m.cols, entries)


def oracle_partial(n: int, ell: int, p: int) -> ExactMatrix:
    """Reference flat differential over ``Fraction``: the iota coefficient
    matrices read off the realized component bases, each entry placed
    with its wedge sign (-1)^{#{s in S : s > a}}."""
    space = build_T(n, ell)
    dims = space.component_dims
    total = space.total_dim
    offsets = [sum(dims[:k]) for k in range(len(dims))]
    coeffs = {}
    for k in range(1, ell + 1):
        upper, lower = space.components[k], space.components[k - 1]
        for a in range(1, n + 1):
            mapped = iota_matrix(upper.space, 0, a)[0] * upper.coord_basis
            cols = [lower.coords(y) for y in mapped.columns()]
            coeffs[(k, a)] = ExactMatrix.from_columns(cols, lower.dim)
    source, target = _psubsets(n, p), _psubsets(n, p + 1)
    target_pos = {s: i for i, s in enumerate(target)}
    entries = {}
    for si, s in enumerate(source):
        for a in range(1, n + 1):
            if a in s:
                continue
            sign = (-1) ** sum(1 for x in s if x > a)
            row0 = target_pos[tuple(sorted(s + (a,)))] * total
            for k in range(1, ell + 1):
                for (r, c), v in coeffs[(k, a)].entries.items():
                    entries[(row0 + offsets[k - 1] + r, si * total + offsets[k] + c)] = sign * v
    return ExactMatrix(len(target) * total, len(source) * total, entries)


def oracle_koszul(n: int, ell: int, p: int) -> ExactMatrix:
    """Reference Koszul differential over ``Fraction``: the action of x_i
    read off the realized module basis, each entry placed with its wedge
    sign (-1)^{#{s in S : s < i}}."""
    basis = build_V(n, ell).basis
    dim = basis.dim
    actions = []
    for i in range(1, n + 1):
        mapped = replace_matrix(basis.space, 1, i + 1) * basis.coord_basis
        cols = [basis.coords(y) for y in mapped.columns()]
        actions.append(ExactMatrix.from_columns(cols, dim))
    source, target = _psubsets(n, p), _psubsets(n, p + 1)
    target_pos = {s: i for i, s in enumerate(target)}
    entries = {}
    for si, s in enumerate(source):
        for i in range(1, n + 1):
            if i in s:
                continue
            sign = (-1) ** sum(1 for x in s if x < i)
            row0 = target_pos[tuple(sorted(s + (i,)))] * dim
            for (r, c), v in actions[i - 1].entries.items():
                entries[(row0 + r, si * dim + c)] = sign * v
    return ExactMatrix(len(target) * dim, len(source) * dim, entries)
