"""Prolongation bundles and their flat differential complexes.

For valence ell over an n-dimensional flat base, the prolongation space
T splits into components T_0, ..., T_ell.  Component k is realized as
tensors with a symmetric group of k indices followed by a symmetric
group of ell indices, such that symmetrizing the last first-group index
across the whole second group vanishes; T_0 is plain symmetric valence
ell.  The total dimension equals the hook-content dimension of the
two-row diagram (ell, ell) over n + 1, which is checked at build time.

The differential on form-valued sections,

    partial(omega tensor v) = omega wedge partial(v),

feeds the first first-group index of component k into the new form slot
and lands in component k - 1; component 0 is annihilated.  Wedging from
the right, the basis form e_S picks up sign (-1)^{#{s in S : s > a}}
when a new index a is appended.  The squared map vanishes because fixing
two first-group indices is symmetric in them while the wedge is skew.

Degree-p cochains are ordered by p-subset (lexicographic), then by
component, then by basis column; that layout is shared by the full
complex and by the diagonal subcomplexes graded by total box count
d = p + k + ell, so the graded pieces are literally submatrices of the
full differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb

from killingcalc.chain import ChainComplex, cohomology_dims
from killingcalc.matrix import ExactMatrix, rank
from killingcalc.symspace import GroupedSpace, Group, SYM, iota_matrix, skew_pair, sym_extend
from killingcalc.tensor import Tensor, antisymmetrize
from killingcalc.young import SubspaceBasis, YoungDiagram, gl_dimension, realize_irreducible

__all__ = [
    "CapExceeded",
    "ProlongationSpace",
    "CohomologyReport",
    "DiagonalReport",
    "build_T",
    "build_partial",
    "key_isomorphism_check",
    "predicted_cohomology",
    "complex_cohomology",
    "graded_diagonal_complex",
    "injectivity_implication_check",
    "DEFAULT_CAP",
]

DEFAULT_CAP = 20000


class CapExceeded(ValueError):
    """Requested complex is larger than the configured desk-scale cap."""


@dataclass(frozen=True)
class ProlongationSpace:
    n: int
    ell: int
    components: tuple[SubspaceBasis, ...]

    @property
    def component_dims(self) -> tuple[int, ...]:
        return tuple(c.dim for c in self.components)

    @property
    def total_dim(self) -> int:
        return sum(self.component_dims)


def _check_args(n: int, ell: int) -> None:
    if n < 2:
        raise ValueError("base dimension must be at least 2")
    if ell < 1:
        raise ValueError("valence must be at least 1")


@cache
def build_T(n: int, ell: int) -> ProlongationSpace:
    """Component bases of the prolongation space, checked against hooks."""
    _check_args(n, ell)
    comps = [realize_irreducible(YoungDiagram((ell,)), n, "row")]
    for k in range(1, ell + 1):
        comps.append(
            realize_irreducible(YoungDiagram((ell, k)), n, "symmetric-pair")
        )
    space = ProlongationSpace(n, ell, tuple(comps))
    expected = gl_dimension(YoungDiagram((ell, ell)), n + 1)
    if space.total_dim != expected:
        raise RuntimeError(
            f"prolongation components sum to {space.total_dim}, expected {expected}"
        )
    return space


@cache
def _iota_coefficients(n: int, ell: int) -> dict[tuple[int, int], ExactMatrix]:
    """Coefficient matrix of index fixing, per (component k >= 1, value a).

    Entry (k, a) expresses, in the component bases, the map sending a
    component-k section to the component-(k-1) tensor with its first
    first-group index fixed to a.  Each column is read off the lower
    basis's lead rows and verified exactly by its residual.
    """
    space = build_T(n, ell)
    out: dict[tuple[int, int], ExactMatrix] = {}
    for k in range(1, ell + 1):
        upper = space.components[k]
        lower = space.components[k - 1]
        for a in range(1, n + 1):
            iota, _ = iota_matrix(upper.space, 0, a)
            mapped = iota * upper.coord_basis
            cols = [lower.coords(y) for y in mapped.columns()]
            out[(k, a)] = ExactMatrix.from_columns(cols, lower.dim)
    return out


def _psubsets(n: int, p: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, n + 1), p))


def build_partial(n: int, ell: int, p: int) -> ExactMatrix:
    """Matrix of the differential from degree-p to degree-(p+1) cochains."""
    _check_args(n, ell)
    if not 0 <= p <= n:
        raise ValueError(f"form degree {p} outside 0..{n}")
    space = build_T(n, ell)
    dims = space.component_dims
    total = space.total_dim
    offsets = [sum(dims[:k]) for k in range(len(dims))]
    source = _psubsets(n, p)
    target = _psubsets(n, p + 1)
    target_pos = {s: i for i, s in enumerate(target)}
    rows = len(target) * total
    cols = len(source) * total
    if p == n:
        return ExactMatrix.zero(0, cols)
    coeffs = _iota_coefficients(n, ell)
    entries: dict[tuple[int, int], Fraction] = {}
    for si, s in enumerate(source):
        col0 = si * total
        in_s = set(s)
        for a in range(1, n + 1):
            if a in in_s:
                continue
            sign = (-1) ** sum(1 for x in s if x > a)
            ti = target_pos[tuple(sorted(s + (a,)))]
            row0 = ti * total
            for k in range(1, ell + 1):
                block = coeffs[(k, a)]
                for (r, c), v in block.entries.items():
                    entries[(row0 + offsets[k - 1] + r, col0 + offsets[k] + c)] = (
                        sign * v
                    )
    # each entry is +-1 times a nonzero entry of an iota coefficient matrix
    return ExactMatrix._trusted(rows, cols, entries)


def key_isomorphism_check(n: int) -> dict:
    """Skewing the first two slots maps one-form-valued two-forms
    bijectively onto two-form-valued one-forms; returns the verdict."""
    if n < 2:
        raise ValueError("base dimension must be at least 2")
    pairs = _psubsets(n, 2)
    dim = n * len(pairs)
    cols = []
    for a in range(1, n + 1):
        for (b, c) in pairs:
            t = Tensor(n, 3, {(a, b, c): 1, (a, c, b): -1})
            image = antisymmetrize(t, (1, 2))
            col = {}
            for pi, (x, y) in enumerate(pairs):
                for z in range(1, n + 1):
                    v = image.entries.get((x, y, z), Fraction(0))
                    if v:
                        col[pi * n + (z - 1)] = v
            cols.append(col)
    m = ExactMatrix.from_columns(cols, dim)
    r = rank(m)
    return {
        "n": n,
        "dimension": dim,
        "rank": r,
        "bijective": r == dim and m.rows == m.cols,
    }


def predicted_cohomology(n: int, ell: int, p: int) -> tuple[YoungDiagram, int]:
    """Diagram and dimension expected in degree p of the flat complex."""
    _check_args(n, ell)
    if p < 0:
        raise ValueError("degree must be nonnegative")
    if p == 0:
        d = YoungDiagram((ell,))
    elif p == 1:
        d = YoungDiagram((ell + 1,))
    else:
        d = YoungDiagram((ell + 1, ell + 1) + (1,) * (p - 2))
    return d, gl_dimension(d, n)


@dataclass(frozen=True)
class CohomologyReport:
    n: int
    ell: int
    space_dims: tuple[int, ...]
    computed: tuple[int, ...]
    diagrams: tuple[tuple[int, ...], ...]
    predicted: tuple[int, ...]

    @property
    def all_match(self) -> bool:
        return self.computed == self.predicted

    @property
    def euler(self) -> int:
        return sum((-1) ** p * h for p, h in enumerate(self.computed))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ell": self.ell,
            "space_dims": list(self.space_dims),
            "H": [
                {
                    "p": p,
                    "computed": c,
                    "diagram": list(d),
                    "predicted": e,
                    "match": c == e,
                }
                for p, (c, d, e) in enumerate(
                    zip(self.computed, self.diagrams, self.predicted)
                )
            ],
            "all_match": self.all_match,
        }


def _guard_cap(n: int, ell: int, cap: int | None) -> None:
    """Refuse complexes whose cochains, summed over all degrees, exceed
    the cap; checked before anything is realized."""
    _check_args(n, ell)
    cap = DEFAULT_CAP if cap is None else cap
    total = (2 ** n) * gl_dimension(YoungDiagram((ell, ell)), n + 1)
    if total > cap:
        raise CapExceeded(
            f"complex for n={n}, ell={ell} has total dimension {total}, "
            f"cap is {cap}"
        )


def full_complex(n: int, ell: int, cap: int | None = None) -> ChainComplex:
    _guard_cap(n, ell, cap)
    total = build_T(n, ell).total_dim
    spaces = tuple(comb(n, p) * total for p in range(n + 1))
    maps = tuple(build_partial(n, ell, p) for p in range(n))
    return ChainComplex(spaces, maps)


def complex_cohomology(n: int, ell: int, cap: int | None = None) -> CohomologyReport:
    """Cohomology of the flat complex, with diagram predictions attached."""
    cx = full_complex(n, ell, cap)
    computed = tuple(cohomology_dims(cx))
    diagrams = []
    predicted = []
    for p in range(n + 1):
        d, dim = predicted_cohomology(n, ell, p)
        diagrams.append(d.rows)
        predicted.append(dim)
    return CohomologyReport(
        n, ell, cx.spaces, computed, tuple(diagrams), tuple(predicted)
    )


@dataclass(frozen=True)
class DiagonalReport:
    n: int
    ell: int
    grade: int
    positions: tuple[tuple[int, int], ...]
    dims: tuple[int, ...]
    cohomology: tuple[int, ...]
    boxed: tuple[bool, ...]
    expected: tuple[int, ...]

    @property
    def interior(self) -> bool:
        return not any(self.boxed)

    @property
    def as_expected(self) -> bool:
        return self.cohomology == self.expected

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ell": self.ell,
            "grade": self.grade,
            "entries": [
                {
                    "p": p,
                    "k": k,
                    "dim": d,
                    "cohomology": h,
                    "boxed": b,
                    "expected": e,
                }
                for (p, k), d, h, b, e in zip(
                    self.positions, self.dims, self.cohomology, self.boxed, self.expected
                )
            ],
            "as_expected": self.as_expected,
        }


def _diagonal_positions(n: int, ell: int, d: int) -> list[tuple[int, int]]:
    out = []
    for p in range(n + 1):
        k = d - ell - p
        if 0 <= k <= ell:
            out.append((p, k))
    return out


def graded_diagonal_complex(n: int, ell: int, d: int, cap: int | None = None) -> DiagonalReport:
    """Subcomplex of fixed total box grade d = p + k + ell.

    The maps are extracted as submatrices of the full differential, so
    sign conventions cannot drift between the graded and ungraded
    pictures.  Away from boxed corners the diagonal is expected to be
    exact; at a boxed corner (component 0 in form degrees 0 and 1,
    component ell in form degrees >= 2) the expected cohomology is the
    predicted one for that form degree.
    """
    _guard_cap(n, ell, cap)
    positions = _diagonal_positions(n, ell, d)
    if not positions:
        raise ValueError(f"grade {d} carries no spaces for n={n}, ell={ell}")
    space = build_T(n, ell)
    dims = space.component_dims
    total = space.total_dim
    offsets = [sum(dims[:k]) for k in range(len(dims))]

    def col_indices(p: int, k: int) -> list[int]:
        subsets = _psubsets(n, p)
        return [
            si * total + offsets[k] + t
            for si in range(len(subsets))
            for t in range(dims[k])
        ]

    spaces = tuple(comb(n, p) * dims[k] for p, k in positions)
    maps = []
    for (p, k), nxt in zip(positions, positions[1:]):
        full = build_partial(n, ell, p)
        maps.append(full.submatrix(col_indices(*nxt), col_indices(p, k)))
    cohom = tuple(cohomology_dims(ChainComplex(spaces, tuple(maps))))
    boxed = tuple(
        (k == 0 and p <= 1) or (k == ell and p >= 2) for p, k in positions
    )
    expected = tuple(
        predicted_cohomology(n, ell, p)[1] if b else 0
        for (p, _), b in zip(positions, boxed)
    )
    return DiagonalReport(n, ell, d, tuple(positions), spaces, cohom, boxed, expected)


def injectivity_implication_check(n: int, ell: int) -> dict:
    """Tensors with one free index before the two symmetric groups.

    Imposing both the vanishing of the trailing symmetrization and the
    vanishing of the skew of the free index with the first group forces
    the whole tensor to vanish; dropping the skew condition leaves a
    space of dimension n times the top component.  Both dimensions are
    computed exactly and returned.
    """
    _check_args(n, ell)
    space = GroupedSpace(
        n, [Group(SYM, 1), Group(SYM, ell), Group(SYM, ell)]
    )
    trailing, _ = sym_extend(space, 1, 2)
    skew, _ = skew_pair(space, 0, 1)
    both = trailing.vstack(skew)
    strict_dim = space.dim - rank(both)
    relaxed_dim = space.dim - rank(trailing)
    top = gl_dimension(YoungDiagram((ell, ell)), n)
    return {
        "n": n,
        "ell": ell,
        "intersection_dim": strict_dim,
        "relaxed_dim": relaxed_dim,
        "relaxed_expected": n * top,
        "injective": strict_dim == 0,
        "relaxed_matches": relaxed_dim == n * top,
    }
