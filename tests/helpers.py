"""Seeded random generators shared by the test modules.

Every test that uses randomness constructs its own ``random.Random(seed)``
so failures replay exactly; nothing here touches global RNG state.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import comb, lcm

from killingcalc import elim, fields, kostant, prolong
from killingcalc.chain import ChainComplex
from killingcalc.fields import PolyTensorField, flat_derivative, symmetrize_field
from killingcalc.killing import killing_kernel_vectors, killing_operator, symmetric_coordinates
from killingcalc.kostant import build_V, koszul_differential
from killingcalc.matrix import (
    ExactMatrix, integer_rank, kernel_basis, over_common_scale, rank, rref, solve,
)
from killingcalc.metric import RatScalar
from killingcalc.poly import PolyScalar, monomials
from killingcalc.potential import _obstruction_terms, _require_symmetric
from killingcalc.prolong import _psubsets, build_partial, build_T
from killingcalc.symspace import (
    ALT,
    SYM,
    Group,
    GroupedSpace,
    _add,
    _drop_or_resize,
    _target_key_parts,
    sym_extend,
)
from killingcalc.tensor import Tensor, _permute_average, perm_sign
from killingcalc.young import SubspaceBasis, YoungDiagram, realize_irreducible


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


def obstruction_matrix_all_rows(n: int, max_degree: int) -> ExactMatrix:
    """``killing._obstruction_matrix`` as it was before it wrote each
    repeated row once: a row for every (a, b, c, d) in lexicographic
    order, then the monomials of degree <= max(max_degree - 2, 0)."""
    mons = monomials(n, max(max_degree - 2, 0))
    mpos = {m: i for i, m in enumerate(mons)}
    data: list[dict[int, int]] = [{} for _ in range((n ** 4) * len(mons))]
    col = 0
    for (i, j), mono in symmetric_coordinates(n, 2, max_degree):
        acc: dict = {}
        for u, v in {(i, j), (j, i)}:
            for (a, b, c, d), lower, coef in _obstruction_terms(u, v, mono):
                idx = (((a - 1) * n + b - 1) * n + c - 1) * n + d - 1
                r = idx * len(mons) + mpos[lower]
                acc[r] = acc.get(r, 0) + coef
        for r, value in acc.items():
            if value:
                data[r][col] = value
        col += 1
    return ExactMatrix.from_int_rows(col, data)


# Every (shape, n) the test suite realizes, with the presentation its
# row count picks.
REALIZED_SHAPES = [
    ((1,), 2, "row"), ((1,), 3, "row"), ((1,), 4, "row"),
    ((2,), 2, "row"), ((2,), 3, "row"), ((2,), 4, "row"),
    ((3,), 2, "row"), ((3,), 3, "row"), ((3,), 4, "row"),
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


def presentation(d: YoungDiagram, n: int):
    """(space, constraints) of the shape's presentation on all weights: a
    single symmetric group for one row, and for two rows (a, b) the groups
    Sym^b and Sym^a with the ``sym_extend`` constraints, or None when
    there are none."""
    if len(d.rows) == 1:
        return GroupedSpace(n, [Group(SYM, d.rows[0])]), None
    a, b = d.rows
    space = GroupedSpace(n, [Group(SYM, b), Group(SYM, a)])
    return space, sym_extend(space, 0, 1)[0]


def weight_keys_by_combinations(sizes: tuple[int, ...], w: tuple[int, ...]) -> list:
    """Reference ``young._weight_keys``: the sub-multisets of size
    sizes[0] of w's full key, by ``combinations``, de-duplicated and
    sorted, each with the rest of the key as its second group."""
    full = tuple(v for v, c in enumerate(w, 1) for _ in range(c))
    if len(sizes) == 1:
        return [(full,)] if len(full) == sizes[0] else []
    keys = []
    for first in sorted(set(combinations(full, sizes[0]))):
        rest = list(full)
        for v in first:
            rest.remove(v)
        keys.append((first, tuple(rest)))
    return keys


def whole_realization(d: YoungDiagram, n: int) -> SubspaceBasis:
    """Reference realization: the canonical kernel basis of the whole
    constraint matrix, reduced on all weights at once."""
    space, constraints = presentation(d, n)
    if constraints is None:
        return SubspaceBasis(space, ExactMatrix.identity(space.dim))
    return SubspaceBasis(space, ExactMatrix.from_columns(kernel_basis(constraints), constraints.cols))


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
    basis = realize_irreducible(YoungDiagram((ell, ell)), n + 1)
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


def coordinate_rows(forms, mons):
    """Reference flat connection on component coordinates, on all weights
    at once and row by row: the system ``tractor._parallel_blocks`` writes
    by column, for every weight, not only the dominant ones, with column
    (t, m) at t * |mons| + the position of m in mons.  Yields (row label
    (a, r, m), row {column: int}), zero rows left out; of the one-entry
    rows that say a column vanishes, only the first is written, which
    leaves the rank as it is."""
    per = len(mons)
    mpos = {m: i for i, m in enumerate(mons)}
    vanishing = set()
    for a, iota in enumerate(forms.columns, 1):
        # A_a by rows: r -> {t: A_a[r, t]}
        by_row: dict = {}
        for t, col in iota.items():
            for r, v in col.items():
                by_row.setdefault(r, {})[t] = v
        for r in range(forms.dim):
            entries = by_row.get(r, {})
            for i, m in enumerate(mons):
                row = {t * per + i: -v for t, v in entries.items()}
                # the derivative of column (r, m + e_a) lands here
                e = m[a - 1] + 1
                j = mpos.get(m[: a - 1] + (e,) + m[a:])
                if j is not None:
                    row[r * per + j] = forms.scale * e
                if len(row) == 1:
                    (c,) = row
                    if c in vanishing:
                        continue
                    vanishing.add(c)
                if row:
                    yield (a, r, m), row


def whole_parallel_dimension(n: int, ell: int, max_degree: int) -> int:
    """Reference count of parallel sections: the columns minus the rank of
    ``coordinate_rows`` on every weight of ``flat_forms(n, ell)``."""
    forms = prolong.flat_forms(n, ell)
    mons = monomials(n, max_degree)
    ncols = forms.dim * len(mons)
    return ncols - integer_rank((row for _, row in coordinate_rows(forms, mons)), ncols)


def whole_degree_bound(n: int, ell: int) -> tuple[int, bool]:
    """Reference degree-bound check on the whole operator matrices: (the
    kernel dimension at max_degree ell + 2, whether the kernels at ell and
    ell + 2 span one subspace of the ell + 2 coordinates)."""
    tight = killing_kernel_vectors(n, ell, ell)
    slack = killing_kernel_vectors(n, ell, ell + 2)
    pos = {c: i for i, c in enumerate(symmetric_coordinates(n, ell, ell + 2))}
    relabel = [pos[c] for c in symmetric_coordinates(n, ell, ell)]
    va = [{relabel[i]: v for i, v in vec.items()} for vec in tight]
    spans = [
        rref(ExactMatrix.from_columns(vecs, len(pos)).transpose()) for vecs in (va, slack)
    ]
    return len(slack), spans[0] == spans[1]


def is_potential_by_field_calculus(x: PolyTensorField, omega: PolyTensorField) -> bool:
    """Reference potential certificate: sym d x == omega, with sym d built
    by ``killing_operator`` through ``flat_derivative`` and
    ``symmetrize_field``."""
    return killing_operator(x) == omega


def full_complex(n: int, ell: int) -> ChainComplex:
    """The whole flat complex on all weights, from ``build_partial``."""
    total = build_T(n, ell).total_dim
    spaces = tuple(comb(n, p) * total for p in range(n + 1))
    return ChainComplex(spaces, tuple(build_partial(n, ell, p) for p in range(n)))


def clear_cohomology_memos() -> None:
    """Forget the per-process cohomology tables of both families, so the
    next call ranks the dominant blocks again (under a spy or a fault)."""
    prolong._cohomology_by_grade.cache_clear()
    kostant.lie_algebra_cohomology.cache_clear()


def koszul_complex(n: int, ell: int) -> ChainComplex:
    """The whole Koszul complex on all weights, from ``koszul_differential``."""
    dim = build_V(n, ell).dim
    spaces = tuple(comb(n, p) * dim for p in range(n + 1))
    return ChainComplex(spaces, tuple(koszul_differential(n, ell, p) for p in range(n)))


def higher_killing_operator(sigma: PolyTensorField) -> PolyTensorField:
    """Reference symmetrized gradient of any valence by field calculus:
    the full symmetrization of the coordinate derivative of a symmetric
    field."""
    if sigma.arity < 1:
        raise ValueError("expected arity >= 1")
    _require_symmetric(sigma)
    return symmetrize_field(flat_derivative(sigma), range(1, sigma.arity + 2))


def flat_component_derivative(parts) -> list[PolyTensorField]:
    """Reference flat connection on a section given as one field per
    component: differentiate each component and subtract the next one,
    whose leading index is the direction."""
    out = []
    for k, f in enumerate(parts):
        d = flat_derivative(f)
        if k + 1 < len(parts):
            d = d.sub(parts[k + 1])
        out.append(d)
    return out


def rat_quotient(num: PolyScalar, den: PolyScalar) -> RatScalar:
    """num / den with den kept as one denominator atom, not factored."""
    return RatScalar(num).div(RatScalar(den))


def evaluate(f: PolyTensorField, point) -> Tensor:
    """The tensor of f's values at a point."""
    return Tensor(f.n, f.arity, {idx: s.eval(point) for idx, s in f.comps.items()})


def symmetrize(t: Tensor, positions) -> Tensor:
    """Average of t over all rearrangements of the given slots."""
    return _permute_average(t, positions, signed=False)


def christoffel_by_elimination(dg: Tensor) -> Tensor:
    """Connection coefficients of one jet by eliminating the
    compatibility system with that jet's own right-hand side: zeros for
    the antisymmetric-part rows, then Dg_abc for each b <= c."""
    n = dg.n
    m = fields._christoffel_system(n)
    trip = list(product(range(1, n + 1), repeat=3))
    b = [Fraction(0)] * (n * n * (n - 1) // 2)
    b += [dg.at(a, bb, c) for a, bb, c in trip if bb <= c]
    x = solve(m, b)
    assert x is not None
    return Tensor(n, 3, {t: x[i] for i, t in enumerate(trip) if x[i]})
