"""Seeded random generators and reference oracles shared by the test
modules.

Every test that uses randomness constructs its own ``random.Random(seed)``
so failures replay exactly; nothing here touches global RNG state.

The oracles include code that no command runs, kept here to check the
library against: the first-row Gauss-Jordan kernel ``first_row_rref_int``,
grouped tensor coordinates (``GroupedSpace``, ``sym_extend``,
``skew_pair``) with the whole-space injectivity system
(``whole_space_injectivity``), the whole-basis realization
(``SubspaceBasis``, ``whole_basis``, ``build_T``, ``embed``/``extract``),
the covector connection of one section (``killing_lift``,
``tractor_derivative``) with the Lie derivative of the flat delta
(``lie_derivative_delta``), and the factored-atom rational functions
(``FactoredRatScalar``) with the curvature computed in them
(``factored_riemann``).
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, gcd, lcm
from typing import NamedTuple

from killingcalc import elim, fields, kostant, prolong, young
from killingcalc.cap import _check_args
from killingcalc.chain import ChainComplex
from killingcalc.fields import (
    PolyTensorField, _coordinate_derivative, antisymmetrize_field, delta_field, flat_derivative,
    perm_sign, symmetrize_field,
)
from killingcalc.killing import killing_kernel_vectors, killing_operator, symmetric_coordinates
from killingcalc.kostant import build_V, koszul_differential
from killingcalc.matrix import ExactMatrix, integer_rank, kernel_basis, rank, rref, solve
from killingcalc.metric import MetricField, RatScalar, covariant_derivative
from killingcalc.poly import PolyScalar, monomials
from killingcalc.potential import _obstruction_terms, _require_symmetric
from killingcalc.prolong import _component_shapes, _psubsets, build_partial
from killingcalc.tractor import TractorSection, _derive_pair
from killingcalc.young import (
    YoungDiagram, gl_dimension, ordered_columns, realize_irreducible, sym_extend_row,
    weight_multiplicities,
)


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


def over_common_scale(matrices) -> list[ExactMatrix]:
    """The matrices, equal as rational matrices, over one shared scale:
    the lcm of their scales."""
    matrices = list(matrices)
    scale = lcm(1, *(m.scale for m in matrices))
    out = []
    for m in matrices:
        f = scale // m.scale
        data = m.data if f == 1 else [{c: v * f for c, v in row.items()} for row in m.data]
        out.append(ExactMatrix.from_int_rows(m.cols, data, scale))
    return out


def vstack(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """a above b, over the common scale of a and b."""
    if a.cols != b.cols:
        raise ValueError("column count mismatch")
    a, b = over_common_scale([a, b])
    return ExactMatrix.from_int_rows(a.cols, a.data + b.data, a.scale)


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


def rand_tensor(rng: random.Random, n: int, arity: int, density: float = 0.5) -> dict:
    """A random full-index tensor: a dict from index tuples in 1..n to
    nonzero ``Fraction`` values."""
    values = {}
    for idx in product(range(1, n + 1), repeat=arity):
        if rng.random() < density:
            v = rng.randint(-5, 5)
            if v:
                values[idx] = Fraction(v)
    return values


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


def kernel_fractions(kernel) -> list[dict[int, Fraction]]:
    """The vectors {slot: ``Fraction``} of the (integer column, scale)
    pairs of ``matrix.kernel_basis``."""
    return [{r: Fraction(v, s) for r, v in col.items()} for col, s in kernel]


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
    assert kernel_fractions(ker) == whole_kernel(m), m
    assert all(list(col) == sorted(col) for col, _ in ker), m
    assert all(gcd(*col.values()) == 1 and col[max(col)] == s for col, s in ker), m
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
    kernel = kernel_fractions(kernel_basis(constraints))
    return SubspaceBasis(space, ExactMatrix.from_columns(kernel, constraints.cols))


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
    basis = whole_basis(YoungDiagram((ell, ell)), n + 1)
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
            entries = comp.tensor(j)
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
    """num / den over the monic form of den, which is not factored."""
    return RatScalar(num).div(RatScalar(den))


# Rational functions over a factored denominator, the oracle that
# ``RatScalar``'s single-denominator arithmetic is checked against.

def _atom_key(p: PolyScalar):
    return tuple(sorted(p.terms.items()))


def _normalize_atom(p: PolyScalar) -> tuple[PolyScalar, Fraction]:
    """Scale to coprime integer coefficients with positive leading one.

    Returns the atom and the factor r with input = r * atom.
    """
    if p.is_zero():
        raise ZeroDivisionError("denominator is the zero polynomial")
    den_lcm = 1
    for c in p.terms.values():
        den_lcm = den_lcm * c.denominator // gcd(den_lcm, c.denominator)
    num_gcd = 0
    for c in p.terms.values():
        num_gcd = gcd(num_gcd, abs(c.numerator * (den_lcm // c.denominator)))
    r = Fraction(num_gcd, den_lcm)
    if p.leading()[1] < 0:
        r = -r
    return p.scale(1 / r), r


class FactoredRatScalar:
    """Exact rational function with a factored denominator: the numerator
    over a product of content-normalized polynomial atoms with powers,
    equal by cross multiplication.  The rational functions of
    :mod:`killingcalc.metric` are checked against it."""

    __slots__ = ("num", "factors")

    def __init__(self, num: PolyScalar, factors=()):
        if not isinstance(num, PolyScalar):
            raise TypeError("numerator must be a polynomial")
        flist = []
        for f, k in factors:
            if not isinstance(f, PolyScalar) or f.n != num.n:
                raise ValueError("factor from a different ring")
            k = operator.index(k)
            if k < 0:
                raise ValueError("factor powers must be nonnegative")
            if k:
                flist.append((f, k))
        self.num = num
        self.factors = tuple(
            sorted(flist, key=lambda fk: _atom_key(fk[0]))
        )
        self._cancel()

    def _cancel(self) -> None:
        if self.num.is_zero():
            self.factors = ()
            return
        out = []
        num = self.num
        for f, k in self.factors:
            while k > 0:
                q = num.exact_div(f)
                if q is None:
                    break
                num, k = q, k - 1
            if k:
                out.append((f, k))
        self.num = num
        self.factors = tuple(out)

    def _with_num(self, num: PolyScalar) -> "FactoredRatScalar":
        """num over this denominator, for num a constant multiple of this
        numerator.  No factor left here divides this numerator, so none
        divides a nonzero multiple of it either, and ``_cancel`` would
        find nothing to divide."""
        out = object.__new__(FactoredRatScalar)
        out.num = num
        out.factors = self.factors if not num.is_zero() else ()
        return out

    @property
    def n(self) -> int:
        return self.num.n

    @property
    def den(self) -> PolyScalar:
        out = PolyScalar.const(self.num.n, 1)
        for f, k in self.factors:
            for _ in range(k):
                out = out.mul(f)
        return out

    @classmethod
    def const(cls, n: int, c) -> "FactoredRatScalar":
        return cls(PolyScalar.const(n, c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def _merged_factors(self, other: "FactoredRatScalar"):
        """Common denominator: per-atom max power and the two multipliers,
        None where a multiplier is the constant 1."""
        mine = {_atom_key(f): (f, k) for f, k in self.factors}
        theirs = {_atom_key(f): (f, k) for f, k in other.factors}
        union = []
        lift_a = lift_b = None
        for key in sorted(set(mine) | set(theirs)):
            f, ka = mine.get(key, (None, 0))
            fb, kb = theirs.get(key, (None, 0))
            f = f if f is not None else fb
            k = max(ka, kb)
            union.append((f, k))
            for _ in range(k - ka):
                lift_a = f if lift_a is None else lift_a.mul(f)
            for _ in range(k - kb):
                lift_b = f if lift_b is None else lift_b.mul(f)
        return union, lift_a, lift_b

    def add(self, other: "FactoredRatScalar") -> "FactoredRatScalar":
        other = _as_factored(other, self.n)
        union, la, lb = self._merged_factors(other)
        a = self.num if la is None else self.num.mul(la)
        b = other.num if lb is None else other.num.mul(lb)
        return FactoredRatScalar(a.add(b), union)

    def neg(self) -> "FactoredRatScalar":
        return self._with_num(self.num.neg())

    def sub(self, other: "FactoredRatScalar") -> "FactoredRatScalar":
        return self.add(_as_factored(other, self.n).neg())

    def scale(self, c) -> "FactoredRatScalar":
        return self._with_num(self.num.scale(c))

    def mul(self, other: "FactoredRatScalar") -> "FactoredRatScalar":
        other = _as_factored(other, self.n)
        merged: dict = {}
        for f, k in list(self.factors) + list(other.factors):
            key = _atom_key(f)
            f0, k0 = merged.get(key, (f, 0))
            merged[key] = (f0, k0 + k)
        return FactoredRatScalar(self.num.mul(other.num), list(merged.values()))

    def div(self, other: "FactoredRatScalar") -> "FactoredRatScalar":
        other = _as_factored(other, self.n)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        atom, r = _normalize_atom(other.num)
        flipped_num = PolyScalar.const(self.n, 1 / r)
        for f, k in other.factors:
            for _ in range(k):
                flipped_num = flipped_num.mul(f)
        flipped = FactoredRatScalar(
            flipped_num, [(atom, 1)] if atom.degree() > 0 else []
        )
        if atom.degree() == 0:
            flipped = FactoredRatScalar(
                flipped.num.scale(Fraction(1, atom.terms[(0,) * self.n]))
            )
        return self.mul(flipped)

    def diff(self, i: int) -> "FactoredRatScalar":
        p = self.num
        if not self.factors:
            return FactoredRatScalar(p.diff(i))
        prod_atoms = PolyScalar.const(self.n, 1)
        for f, _ in self.factors:
            prod_atoms = prod_atoms.mul(f)
        out = p.diff(i).mul(prod_atoms)
        for idx, (f, k) in enumerate(self.factors):
            rest = PolyScalar.const(self.n, 1)
            for jdx, (g, _) in enumerate(self.factors):
                if jdx != idx:
                    rest = rest.mul(g)
            out = out.sub(p.mul(f.diff(i)).mul(rest).scale(k))
        return FactoredRatScalar(out, [(f, k + 1) for f, k in self.factors])

    def eval(self, point) -> Fraction:
        den = Fraction(1)
        for f, k in self.factors:
            v = f.eval(point)
            if v == 0:
                raise ZeroDivisionError("denominator vanishes at the point")
            den *= v ** k
        return self.num.eval(point) / den

    def __eq__(self, other) -> bool:
        if isinstance(other, PolyScalar):
            other = FactoredRatScalar(other)
        if not isinstance(other, FactoredRatScalar):
            return NotImplemented
        return self.num.mul(other.den) == other.num.mul(self.den)

    __hash__ = None

    def __repr__(self) -> str:
        if not self.factors:
            return repr(self.num)
        fac = " * ".join(
            f"({f!r})" + (f"^{k}" if k > 1 else "") for f, k in self.factors
        )
        return f"({self.num!r}) / ({fac})"


def _as_factored(v, n: int) -> FactoredRatScalar:
    if isinstance(v, FactoredRatScalar):
        return v
    if isinstance(v, PolyScalar):
        return FactoredRatScalar(v)
    return FactoredRatScalar(PolyScalar.const(n, v))


def factored(r) -> FactoredRatScalar:
    """A PolyScalar or RatScalar as the oracle's rational function."""
    if isinstance(r, PolyScalar):
        return FactoredRatScalar(r)
    return FactoredRatScalar(r.num, [(r.den, r.k)])


def factored_riemann(g: MetricField) -> dict:
    """R_ab{}^c{}_d of g, (a, b, c, d) -> the oracle's rational function,
    from g's entries by Gauss-Jordan inversion and the closed-form
    connection coefficients, in the oracle's arithmetic."""
    n, ix = g.n, range(1, g.n + 1)
    zero, one = (FactoredRatScalar(PolyScalar.const(n, c)) for c in (0, 1))
    m = [
        [factored(g.field.at(i, j)) for j in ix] + [one if i == j else zero for j in ix]
        for i in ix
    ]
    for col in range(n):
        piv = next(r for r in range(col, n) if not m[r][col].is_zero())
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v.div(m[col][col]) for v in m[col]]
        for r in range(n):
            if r != col and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [v.sub(f.mul(w)) for v, w in zip(m[r], m[col])]
    inv = {(i, j): m[i - 1][n + j - 1] for i, j in product(ix, repeat=2)}

    def dg(c, a, b):
        return factored(g.field.at(a, b)).diff(c)

    low = {
        (a, b, c): dg(a, b, c).add(dg(b, a, c)).sub(dg(c, a, b)).scale(Fraction(1, 2))
        for a, b, c in product(ix, repeat=3)
    }
    up = {}
    for a, b, c in product(ix, repeat=3):
        up[(a, b, c)] = zero
        for d in ix:
            up[(a, b, c)] = up[(a, b, c)].add(inv[(c, d)].mul(low[(a, b, d)]))
    out = {}
    for a, b, c, d in product(ix, repeat=4):
        total = up[(b, d, c)].diff(a).sub(up[(a, d, c)].diff(b))
        for e in ix:
            total = total.add(up[(a, e, c)].mul(up[(b, d, e)]))
            total = total.sub(up[(b, e, c)].mul(up[(a, d, e)]))
        out[(a, b, c, d)] = total
    return out


# Full-index tensors are plain dicts from 1-based index tuples to nonzero
# ``Fraction`` values, as the jets of ``fields`` are.

def add_tensors(s: dict, t: dict, c=1) -> dict:
    """s + c t, zero sums dropped."""
    out = dict(s)
    for idx, v in t.items():
        w = out.get(idx, 0) + c * v
        if w:
            out[idx] = w
        else:
            out.pop(idx, None)
    return out


def evaluate(f: PolyTensorField, point) -> dict:
    """The tensor of f's values at a point."""
    values = {idx: s.eval(point) for idx, s in f.comps.items()}
    return {idx: v for idx, v in values.items() if v}


def slot_average(t: dict, positions, signed: bool = False) -> dict:
    """Average of t over all rearrangements of the given 1-based slots,
    each weighted by its sign when ``signed``: the symmetrization, or the
    antisymmetrization, an idempotent projection either way."""
    slots = [p - 1 for p in positions]
    if len(set(slots)) != len(slots):
        raise ValueError("positions must be distinct")
    perms = list(permutations(range(len(slots))))
    acc: dict = {}
    for idx, v in t.items():
        for perm in perms:
            new = list(idx)
            for slot, src in zip(slots, perm):
                new[slot] = idx[slots[src]]
            key = tuple(new)
            acc[key] = acc.get(key, 0) + (v * perm_sign(perm) if signed else v)
    return {idx: Fraction(v, len(perms)) for idx, v in acc.items() if v}


def christoffel_by_elimination(n: int, dg: dict) -> dict:
    """Connection coefficients of one jet by eliminating the
    compatibility system with that jet's own right-hand side: zeros for
    the antisymmetric-part rows, then Dg_abc for each b <= c."""
    m = fields._christoffel_system(n)
    trip = list(product(range(1, n + 1), repeat=3))
    b = [Fraction(0)] * (n * n * (n - 1) // 2)
    b += [dg.get((a, bb, c), 0) for a, bb, c in trip if bb <= c]
    x = solve(m, b)
    assert x is not None
    return {t: x[i] for i, t in enumerate(trip) if x[i]}


def christoffel_solver_by_slot_solves(n: int) -> ExactMatrix:
    """The solution operator of ``fields._christoffel_solver`` by one
    ``solve`` per symmetric-part equation: column j solves the system for
    the right-hand side that is 1 in the j-th symmetric-part equation and
    0 elsewhere, and the columns are brought to integers over the lcm of
    their denominators."""
    m = fields._christoffel_system(n)
    nsym = len(fields._slots(n)[1])
    first = m.rows - nsym
    cols = []
    for j in range(nsym):
        rhs = [0] * m.rows
        rhs[first + j] = 1
        x = solve(m, rhs)
        assert x is not None
        cols.append(x)
    scale = lcm(1, *(v.denominator for x in cols for v in x))
    data = [
        {j: x[i].numerator * (scale // x[i].denominator) for j, x in enumerate(cols) if x[i]}
        for i in range(m.cols)
    ]
    return ExactMatrix.from_int_rows(nsym, data, scale)


def key_map_by_antisymmetrization(n: int) -> ExactMatrix:
    """The matrix of ``prolong.key_isomorphism_check`` by the full-index
    route: column (a, b < c) is the skew of e_abc - e_acb in its first
    two slots, read at the rows (x < y, z)."""
    pairs = _psubsets(n, 2)
    pair_pos = {pair: i for i, pair in enumerate(pairs)}
    cols = []
    for a in range(1, n + 1):
        for b, c in pairs:
            image = slot_average({(a, b, c): 1, (a, c, b): -1}, (1, 2), signed=True)
            cols.append({
                pair_pos[(x, y)] * n + z - 1: v for (x, y, z), v in image.items() if x < y
            })
    return ExactMatrix.from_columns(cols, n * len(pairs))


# --- grouped tensor coordinates ---------------------------------------------
#
# Tensors whose index slots fall into consecutive symmetric or
# antisymmetric groups are determined by their values on representative
# keys: a nondecreasing index tuple for each symmetric group, a strictly
# increasing tuple for each antisymmetric group.  A ``GroupedSpace``
# enumerates those keys in lexicographic order, and ``sym_extend`` and
# ``skew_pair`` write partial symmetrizations and skew pairs as exact
# matrices in those value coordinates, over the enlarged group's size and
# over 2.  A symmetric-group value is the entry at any arrangement of its
# key; an antisymmetric-group value is the entry at the increasing
# arrangement, and a permuted arrangement carries the permutation's sign.

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
    back into group i; its rows are ``young.sym_extend_row``.
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


def whole_space_injectivity(n: int, ell: int) -> tuple[int, int]:
    """Reference ``prolong.injectivity_implication_check``: on the whole
    space of tensors with a free index before two symmetric groups of
    ell, the dimensions cut out by the trailing symmetrization and the
    skew pair together, and by the trailing symmetrization alone, as
    (intersection_dim, relaxed_dim)."""
    space = GroupedSpace(n, [Group(SYM, 1), Group(SYM, ell), Group(SYM, ell)])
    trailing, _ = sym_extend(space, 1, 2)
    skew, _ = skew_pair(space, 0, 1)
    return space.dim - rank(vstack(trailing, skew)), space.dim - rank(trailing)


# --- the elimination kernel before its pivot rule --------------------------


def _first_row_reduce_content(row, lead):
    """Divide ``row`` through by its content; sign fixed by column ``lead``."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g == 0:
        return
    if lead is not None and row.get(lead, 0) < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


def first_row_rref_int(rows, ncols):
    """Reference reduction: ``elim.rref_int`` as it was before the
    shortest-row pivot, taking as pivot the first remaining row that is
    nonzero in the column.  Returns (pivot columns, reduced rows)."""
    rows = [dict(r) for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        src = -1
        for i in range(r, nrows):
            if rows[i].get(c, 0):
                src = i
                break
        if src < 0:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        piv_row = rows[r]
        _first_row_reduce_content(piv_row, c)
        piv = piv_row[c]
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            f = row.get(c, 0)
            if not f:
                continue
            new = {}
            for k, v in row.items():
                new[k] = v * piv
            for k, v in piv_row.items():
                w = new.get(k, 0) - f * v
                if w:
                    new[k] = w
                elif k in new:
                    del new[k]
            _first_row_reduce_content(new, None)
            rows[i] = new
        pivots.append(c)
        r += 1
    return pivots, rows[:r]


# --- the whole-basis realization --------------------------------------------


def _arrangements(part: tuple[int, ...], kind: str):
    if kind == SYM:
        return [(p, 1) for p in sorted(set(permutations(part)))]
    out = []
    for p in permutations(range(len(part))):
        out.append((tuple(part[q] for q in p), perm_sign(p)))
    return out


def embed(space: GroupedSpace, coords) -> dict:
    """Expand value coordinates to the full tensor: a symmetric-group
    value at every arrangement of its key, an antisymmetric-group value
    at every permutation with its sign."""
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
    return entries


def extract(space: GroupedSpace, t: dict) -> list[Fraction]:
    """Read value coordinates off a tensor; rejects wrong symmetry type."""
    coords = []
    for key in space.keys():
        idx = tuple(i for part in key for i in part)
        coords.append(Fraction(t.get(idx, 0)))
    if embed(space, coords) != t:
        raise ValueError("tensor lacks the required group symmetries")
    return coords


def lead_rows(cols: list[dict[int, Fraction]]) -> list[int] | None:
    """Lead rows of columns in reduced shape, or None for any other shape.

    Reduced shape is the shape of a kernel basis from ``kernel_basis``:
    each column ends in a 1, at a row later than the previous column's
    lead, and no other column is nonzero at that row.  The kernel vector
    of free column f has its 1 at f and its other entries at pivot
    columns before f, and no kernel vector is nonzero at another free
    column.  Such columns are independent, and a subspace has exactly one
    basis of this shape.
    """
    if not all(cols):
        return None
    leads = [max(col) for col in cols]
    if any(a >= b for a, b in zip(leads, leads[1:])):
        return None
    lead_set = set(leads)
    if all(
        col[lead] == 1 and len(lead_set.intersection(col)) == 1
        for col, lead in zip(cols, leads)
    ):
        return leads
    return None


class SubspaceBasis:
    """Explicit basis of a symmetry-constrained subspace of a tensor power.

    ``coord_basis`` holds the basis in the value coordinates of
    ``space``, and ``columns`` its columns as sparse dicts.  The basis is
    canonical and in reduced shape (see ``lead_rows``): column j is the
    only one nonzero at its lead row ``leads[j]``, where it is 1.  So the
    coordinates of a vector y of the span are its values at the lead
    rows, read off y's support, and y lies in the span exactly when the
    residual y - B x of those coordinates x is zero.
    """

    def __init__(self, space: GroupedSpace, coord_basis: ExactMatrix):
        if coord_basis.rows != space.dim:
            raise ValueError("coordinate basis does not match the space")
        self.space = space
        self.n = space.n
        self.arity = space.arity
        self.coord_basis = coord_basis
        self.columns = coord_basis.columns()
        leads = lead_rows(self.columns)
        if leads is None:
            raise ValueError("coordinate basis is not in reduced shape")
        self.leads = leads
        self._lead_col = {r: j for j, r in enumerate(leads)}

    @property
    def dim(self) -> int:
        return self.coord_basis.cols

    def tensor(self, j: int) -> dict:
        """Column j as a full-index tensor."""
        return embed(self.space, self.columns[j])

    def coords(self, y: dict[int, Fraction]) -> dict[int, Fraction]:
        """The sparse x with B x = y; raises ValueError when y, a sparse
        vector in the value coordinates, lies outside the span."""
        x = {self._lead_col[r]: v for r, v in y.items() if v and r in self._lead_col}
        residual = {r: v for r, v in y.items() if v}
        for j, f in x.items():
            for r, v in self.columns[j].items():
                w = residual.get(r, 0) - f * v
                if w:
                    residual[r] = w
                else:
                    del residual[r]
        if residual:
            raise ValueError("vector lies outside the column span")
        return x

    def __repr__(self) -> str:
        return f"SubspaceBasis(n={self.n}, arity={self.arity}, dim={self.dim})"


@cache
def whole_basis(d: YoungDiagram, n: int) -> SubspaceBasis:
    """The whole basis of shape d over n, assembled from every weight
    space of ``realize_irreducible`` in the order of ``ordered_columns``
    and checked against the hook-content dimension; memoized per
    (shape, n)."""
    space = GroupedSpace(n, [Group(SYM, size) for size in young._group_sizes(d)])
    parts = realize_irreducible(d, n, weight_multiplicities(d, n))
    cols = []
    for w, j in ordered_columns(parts):
        part = parts[w]
        scale = part.scales[j]
        cols.append({
            space.index(part.keys[r]): Fraction(v, scale) for r, v in part.columns[j].items()
        })
    result = SubspaceBasis(space, ExactMatrix.from_columns(cols, space.dim))
    expected = gl_dimension(d, n)
    if result.dim != expected:
        raise RuntimeError(
            f"realization of {d.rows} over n={n} produced {result.dim} basis "
            f"columns, hook content gives {expected}"
        )
    return result


def clear_realization_cache() -> None:
    """Forget every memoized weight space and whole basis."""
    young._realize_memo.cache_clear()
    whole_basis.cache_clear()


class ProlongationSpace(NamedTuple):
    n: int
    ell: int
    components: tuple[SubspaceBasis, ...]

    @property
    def component_dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    @property
    def total_dim(self) -> int:
        return sum(self.component_dims)


@cache
def build_T(n: int, ell: int) -> ProlongationSpace:
    """Whole component bases of the prolongation space, checked against
    the hook-content dimension of (ell, ell) over n + 1."""
    _check_args(n, ell)
    comps = tuple(whole_basis(d, n) for d in _component_shapes(ell))
    space = ProlongationSpace(n, ell, comps)
    expected = gl_dimension(YoungDiagram((ell, ell)), n + 1)
    if space.total_dim != expected:
        raise RuntimeError(
            f"prolongation components sum to {space.total_dim}, expected {expected}"
        )
    return space


# --- the covector connection of one section ---------------------------------


class SectionDerivative:
    """Derivative values of a section; leading slot is the direction."""

    __slots__ = ("n", "x_part", "k_part")

    def __init__(self, x_part: PolyTensorField, k_part: PolyTensorField):
        self.n = x_part.n
        self.x_part = x_part
        self.k_part = k_part

    def is_zero(self) -> bool:
        return self.x_part.is_zero() and self.k_part.is_zero()

    def __repr__(self) -> str:
        return f"SectionDerivative(n={self.n})"


def killing_lift(X: PolyTensorField, g: MetricField | None = None) -> TractorSection:
    """Lift a covector field so the derivative isolates its symmetrized
    gradient: the 2-form slot carries the skew half of the gradient."""
    if X.arity != 1:
        raise ValueError("expected an arity-1 field")
    g = g if g is not None else MetricField.flat(X.n)
    dX = covariant_derivative(X, g)
    return TractorSection(X, antisymmetrize_field(dX, (1, 2)))


def tractor_derivative(s: TractorSection, g: MetricField) -> SectionDerivative:
    """Connection applied to a section; zero means parallel."""
    if s.n != g.n:
        raise ValueError("section and metric dimensions disagree")
    out_x, out_k = _derive_pair(g, s.x_part, s.k_part)
    return SectionDerivative(out_x, out_k)


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
