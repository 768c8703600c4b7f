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
from killingcalc.killing import killing_operator
from killingcalc.kostant import build_V
from killingcalc.matrix import ExactMatrix, kernel_basis, over_common_scale, rank, rref, solve
from killingcalc.poly import PolyScalar, monomials
from killingcalc.prolong import _psubsets, build_T
from killingcalc.symspace import iota_matrix, replace_matrix
from killingcalc.tensor import Tensor


def entries(m: ExactMatrix) -> dict[tuple[int, int], Fraction]:
    """The nonzero entries of m, (row, col) -> ``Fraction``."""
    return {
        (r, c): Fraction(v, m.scale) for r, row in enumerate(m.data) for c, v in row.items()
    }


def at(m: ExactMatrix, r: int, c: int) -> Fraction:
    return Fraction(m.data[r].get(c, 0), m.scale)


def dense(m: ExactMatrix) -> list[list[Fraction]]:
    return [[at(m, r, c) for c in range(m.cols)] for r in range(m.rows)]


def from_rows(data) -> ExactMatrix:
    """The matrix of a list of equally long rows of values."""
    data = [list(row) for row in data]
    cols = len(data[0]) if data else 0
    if any(len(row) != cols for row in data):
        raise ValueError("ragged rows")
    return ExactMatrix(
        len(data), cols, {(r, c): v for r, row in enumerate(data) for c, v in enumerate(row)}
    )


def scaled(m: ExactMatrix, f) -> ExactMatrix:
    """f times m, through the checking constructor."""
    return ExactMatrix(m.rows, m.cols, {k: f * v for k, v in entries(m).items()})


def apply(m: ExactMatrix, vec: dict[int, Fraction]) -> dict[int, Fraction]:
    """m times a sparse column vector, as a sparse column."""
    out = {}
    for r, row in enumerate(m.data):
        v = sum(x * vec.get(c, 0) for c, x in row.items())
        if v:
            out[r] = Fraction(v) / m.scale
    return out


def hstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """[a | b], over the common scale of a and b."""
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    a, b = over_common_scale([a, b])
    data = [{**x, **{c + a.cols: v for c, v in y.items()}} for x, y in zip(a.data, b.data)]
    return ExactMatrix.from_int_rows(a.cols + b.cols, data, a.scale)


def submatrix(m: ExactMatrix, row_indices, col_indices) -> ExactMatrix:
    """The rows and columns of m at the given indices, in that order, over
    m's scale."""
    cmap = {c: j for j, c in enumerate(col_indices)}
    data = [{cmap[c]: v for c, v in m.data[r].items() if c in cmap} for r in row_indices]
    return ExactMatrix.from_int_rows(len(cmap), data, m.scale)


def cochain_weights(n: int, bases, first: int = 1) -> list[list[tuple[int, ...]]]:
    """Torus weight of every cochain index of the forms on R^n with values
    in the concatenated ``bases``, laid out as by ``build_partial``: the
    indicator of the p-subset plus the count of each index value
    first..first + n - 1 over every row of the column's support, which
    must agree."""
    module = []
    for basis in bases:
        keys = basis.space.keys()
        for col in basis.columns:
            seen = {
                tuple(sum(part.count(v) for part in keys[r]) for v in range(first, first + n))
                for r in col
            }
            assert len(seen) == 1, seen
            module.append(seen.pop())
    out = []
    for p in range(n + 1):
        degree = []
        for s in _psubsets(n, p):
            for w in module:
                degree.append(tuple(x + (i + 1 in s) for i, x in enumerate(w)))
        out.append(degree)
    return out


def rand_matrix(rng: random.Random, rows: int, cols: int, density: float = 0.6) -> ExactMatrix:
    values = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                v = rng.randint(-9, 9)
                if v:
                    values[(r, c)] = Fraction(v)
    return ExactMatrix(rows, cols, values)


def rand_tensor(rng: random.Random, n: int, arity: int, density: float = 0.5) -> Tensor:
    values = {}
    for idx in product(range(1, n + 1), repeat=arity):
        if rng.random() < density:
            v = rng.randint(-5, 5)
            if v:
                values[idx] = Fraction(v)
    return Tensor(n, arity, values)


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
    pivots, red = elim.rref_int(m.data, m.cols)
    reduced = {
        (i, c): Fraction(v, row[p])
        for i, (p, row) in enumerate(zip(pivots, red))
        for c, v in row.items()
    }
    return pivots, ExactMatrix(len(pivots), m.cols, reduced)


def whole_kernel(m: ExactMatrix):
    """Kernel basis read off ``whole_rref``: for each free column f, the
    vector with 1 at f and the negated reduced column f at the pivots."""
    pivots, red = whole_rref(m)
    red = entries(red)
    out = []
    for f in sorted(set(range(m.cols)) - set(pivots)):
        vec = {p: -red[(i, f)] for i, p in enumerate(pivots) if (i, f) in red}
        vec[f] = Fraction(1)
        out.append(vec)
    return out


def whole_solve(m: ExactMatrix, b):
    """Free-variables-zero solution of m x = b from ``whole_rref`` of [m | b]."""
    aug = hstack(m, ExactMatrix(m.rows, 1, {(r, 0): v for r, v in enumerate(b) if v}))
    pivots, red = whole_rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    for i, p in enumerate(pivots):
        x[p] = at(red, i, m.cols)
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
        image = apply(m, {c: Fraction(1) for c in range(m.cols)})
        rhs = [[image.get(r, Fraction(0)) for r in range(m.rows)]]
        for r in {0, m.rows - 1} if m.rows else ():
            rhs.append([Fraction(int(i == r)) for i in range(m.rows)])
    for b in rhs:
        assert solve(m, b) == whole_solve(m, b), m


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
    out = {}
    for si, s in enumerate(source):
        for a in range(1, n + 1):
            if a in s:
                continue
            sign = (-1) ** sum(1 for x in s if x > a)
            row0 = target_pos[tuple(sorted(s + (a,)))] * total
            for k in range(1, ell + 1):
                for (r, c), v in entries(coeffs[(k, a)]).items():
                    out[(row0 + offsets[k - 1] + r, si * total + offsets[k] + c)] = sign * v
    return ExactMatrix(len(target) * total, len(source) * total, out)


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
    out = {}
    for si, s in enumerate(source):
        for i in range(1, n + 1):
            if i in s:
                continue
            sign = (-1) ** sum(1 for x in s if x < i)
            row0 = target_pos[tuple(sorted(s + (i,)))] * dim
            for (r, c), v in entries(actions[i - 1]).items():
                out[(row0 + r, si * dim + c)] = sign * v
    return ExactMatrix(len(target) * dim, len(source) * dim, out)


def ambient_parallel_system(n: int, ell: int, max_degree: int):
    """Reference flat-connection system on ambient index tuples: column
    (k, j, m) is basis tensor j of component k, scaled by the lcm of its
    denominators, times x^m; an entry v at idx gives v * m_a at row
    (k, (a,) + idx, m - e_a) for each direction a with m_a > 0 (the
    derivative) and -v at row (k - 1, idx, m) when k >= 1 (the iota term
    of the previous component).  Returns a dict from row label
    (component, index tuple, monomial) to the row {column: int}, and the
    column count."""
    pro = build_T(n, ell)
    mons = monomials(n, max_degree)
    lowers = [
        [(a, e, m[: a - 1] + (e - 1,) + m[a:]) for a, e in enumerate(m, 1) if e]
        for m in mons
    ]
    rows: dict = {}
    col = 0
    for k, comp in enumerate(pro.components):
        for j in range(comp.dim):
            entries = comp.tensor(j).entries
            scale = lcm(*(v.denominator for v in entries.values()))
            base = [(idx, v.numerator * (scale // v.denominator)) for idx, v in entries.items()]
            for m, lower in zip(mons, lowers):
                for idx, v in base:
                    for a, e, low in lower:
                        rows.setdefault((k, (a,) + idx, low), {})[col] = v * e
                    if k:
                        rows.setdefault((k - 1, idx, m), {})[col] = -v
                col += 1
    return rows, col


def is_potential_by_field_calculus(x: PolyTensorField, omega: PolyTensorField) -> bool:
    """Reference potential certificate: sym d x == omega, with sym d built
    by ``killing_operator`` through ``flat_derivative`` and
    ``symmetrize_field``."""
    return killing_operator(x) == omega
