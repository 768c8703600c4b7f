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
component, then by basis column.  The flat complex is a
``chain.FormComplex``: A_a fixes a first-group index to a, lowering the
torus weight of the coefficient (the count of each index value 1..n in a
basis column's lead row) by e_a while the new form slot raises it by
e_a.  ``complex_cohomology`` and ``graded_diagonal_complex`` therefore
work on the dominant weight blocks alone, times their S_n orbits; the
graded diagonal of total box count d = p + k + ell is the sum of the
blocks whose weights total d.  ``build_partial`` is the whole
differential on all weights.

The differentials are written as integer rows.  The iota coefficient
matrices of one (n, ell) are brought to one scale once, the lcm of all
their denominators (2 at n=6, ell=2; 36 at n=3, ell=4), and that scale
is the scale of every differential and weight block, whose integer
entries are the scaled coefficients with their wedge signs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations
from math import comb, lcm

from killingcalc.cap import DEFAULT_CAP, CapExceeded, _check_args
from killingcalc.chain import FormComplex, form_differential, weight_cohomology
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


@cache
def build_T(n: int, ell: int) -> ProlongationSpace:
    """Component bases of the prolongation space, checked against hooks."""
    _check_args(n, ell)
    comps = [realize_irreducible(YoungDiagram((ell,)), n)]
    for k in range(1, ell + 1):
        comps.append(realize_irreducible(YoungDiagram((ell, k)), n))
    space = ProlongationSpace(n, ell, tuple(comps))
    expected = gl_dimension(YoungDiagram((ell, ell)), n + 1)
    if space.total_dim != expected:
        raise RuntimeError(
            f"prolongation components sum to {space.total_dim}, expected {expected}"
        )
    return space


def flat_forms(n: int, ell: int) -> FormComplex:
    """The flat complex as T-valued forms.

    A_a maps each component k >= 1 to component k - 1 by fixing its first
    first-group index to a, in the component bases: each column is read
    off the lower basis's lead rows and verified exactly by its residual.
    A_a annihilates component 0, whose columns are left out.  All the A_a
    share one scale, the lcm of all their denominators.  The weight of a
    basis column counts the index values 1..n of its lead row's key.
    """
    space = build_T(n, ell)
    dims = space.component_dims
    offsets = [sum(dims[:k]) for k in range(len(dims))]
    columns: list[dict[int, dict]] = [{} for _ in range(n)]
    for k in range(1, ell + 1):
        upper = space.components[k]
        lower = space.components[k - 1]
        for a in range(1, n + 1):
            iota, _ = iota_matrix(upper.space, 0, a)
            mapped = iota * upper.coord_basis
            for c, y in enumerate(mapped.columns()):
                x = lower.coords(y)
                if x:
                    columns[a - 1][offsets[k] + c] = {
                        offsets[k - 1] + r: v for r, v in x.items()
                    }
    scale = lcm(1, *(
        Fraction(v).denominator for col_a in columns
        for col in col_a.values() for v in col.values()
    ))
    for col_a in columns:
        for col in col_a.values():
            for r, v in col.items():
                col[r] = int(v * scale)
    weights = tuple(w for comp in space.components for w in comp.weights())
    return FormComplex(n, weights, tuple(columns), scale, left=False)


# The forms of the last (n, ell) asked for: the graded checks of one pair,
# and build_partial's degrees, read the same forms one after another.
# complex_cohomology reads them once per pair and builds its own, so that
# no memo stays alive through the checks that run after it.
_last_flat_forms = lru_cache(maxsize=1)(flat_forms)


def _psubsets(n: int, p: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, n + 1), p))


def build_partial(n: int, ell: int, p: int) -> ExactMatrix:
    """Matrix of the differential from degree-p to degree-(p+1) cochains on
    all weights, over the shared scale of ``flat_forms(n, ell)``."""
    _check_args(n, ell)
    if not 0 <= p <= n:
        raise ValueError(f"form degree {p} outside 0..{n}")
    return form_differential(_last_flat_forms(n, ell), p)


def _guard_key_cap(n: int, cap: int | None) -> None:
    """Refuse key isomorphisms whose dimension n C(n, 2) exceeds the cap;
    checked before any tensor is built."""
    cap = DEFAULT_CAP if cap is None else cap
    dim = n * comb(n, 2)
    if dim > cap:
        raise CapExceeded(
            f"key isomorphism for n={n} has dimension {dim}, cap is {cap}"
        )


def key_isomorphism_check(n: int, cap: int | None = None) -> dict:
    """Skewing the first two slots maps one-form-valued two-forms
    bijectively onto two-form-valued one-forms; returns the verdict."""
    if n < 2:
        raise ValueError("base dimension must be at least 2")
    _guard_key_cap(n, cap)
    pairs = _psubsets(n, 2)
    pair_pos = {pair: i for i, pair in enumerate(pairs)}
    dim = n * len(pairs)
    cols = []
    for a in range(1, n + 1):
        for (b, c) in pairs:
            t = Tensor(n, 3, {(a, b, c): 1, (a, c, b): -1})
            image = antisymmetrize(t, (1, 2))
            # the image is skew in its first two slots: read the x < y half
            cols.append({
                pair_pos[(x, y)] * n + (z - 1): v
                for (x, y, z), v in image.entries.items()
                if x < y
            })
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


def _guard_cap(n: int, ell: int, cap: int | None) -> None:
    """Refuse complexes whose cochains, summed over all degrees, exceed
    the cap; checked before anything is realized.  The component Sym^ell
    bounds the total below by 2^n C(n + ell - 1, ell), which refuses
    large ell before the hook-content product, quadratic in ell, runs."""
    _check_args(n, ell)
    cap = DEFAULT_CAP if cap is None else cap
    bound = (2 ** n) * comb(n + ell - 1, ell)
    if bound > cap:
        raise CapExceeded(
            f"complex for n={n}, ell={ell} has total dimension at least "
            f"{bound}, cap is {cap}"
        )
    total = (2 ** n) * gl_dimension(YoungDiagram((ell, ell)), n + 1)
    if total > cap:
        raise CapExceeded(
            f"complex for n={n}, ell={ell} has total dimension {total}, "
            f"cap is {cap}"
        )


def complex_cohomology(n: int, ell: int, cap: int | None = None) -> CohomologyReport:
    """Cohomology of the flat complex, with diagram predictions attached,
    from its dominant weight blocks (``chain.weight_cohomology``)."""
    _guard_cap(n, ell, cap)
    total = build_T(n, ell).total_dim
    spaces = tuple(comb(n, p) * total for p in range(n + 1))
    computed = tuple(weight_cohomology(flat_forms(n, ell)))
    diagrams = []
    predicted = []
    for p in range(n + 1):
        d, dim = predicted_cohomology(n, ell, p)
        diagrams.append(d.rows)
        predicted.append(dim)
    return CohomologyReport(
        n, ell, spaces, computed, tuple(diagrams), tuple(predicted)
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
    def as_expected(self) -> bool:
        return self.cohomology == self.expected


def _diagonal_positions(n: int, ell: int, d: int) -> list[tuple[int, int]]:
    out = []
    for p in range(n + 1):
        k = d - ell - p
        if 0 <= k <= ell:
            out.append((p, k))
    return out


def graded_diagonal_complex(n: int, ell: int, d: int, cap: int | None = None) -> DiagonalReport:
    """Subcomplex of fixed total box grade d = p + k + ell.

    A cochain of form degree p in component k has weight total
    p + k + ell, so this subcomplex is the sum of the weight blocks of
    total d.  Its cohomology comes from the dominant ones
    (``chain.weight_cohomology``), assembled from the same ``flat_forms``
    actions as the full differential, so sign conventions cannot drift
    between the graded and ungraded pictures.  Away from boxed corners
    the diagonal is expected to be exact; at a boxed corner (component 0
    in form degrees 0 and 1, component ell in form degrees >= 2) the
    expected cohomology is the predicted one for that form degree.
    """
    _guard_cap(n, ell, cap)
    positions = _diagonal_positions(n, ell, d)
    if not positions:
        raise ValueError(f"grade {d} carries no spaces for n={n}, ell={ell}")
    dims = build_T(n, ell).component_dims
    spaces = tuple(comb(n, p) * dims[k] for p, k in positions)
    h = weight_cohomology(_last_flat_forms(n, ell), d)
    cohom = tuple(h[p] for p, _ in positions)
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
