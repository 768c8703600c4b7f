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
basis column's keys) by e_a while the new form slot raises it by e_a.
``complex_cohomology`` and ``graded_diagonal_complex`` therefore work on
the dominant weight blocks alone, times their S_n orbits; the graded
diagonal of total box count d = p + k + ell is the sum of the blocks
whose weights total d.  Both read one table per (n, ell), ranked once
on the weights those blocks read (``chain.read_weights``, from Kostka
numbers), and report hook-content closed-form dimensions;
``injectivity_implication_check`` reads one number of that table.
``build_partial`` is the whole differential on all weights, built on
every call.

The differentials are written as integer rows.  ``flat_forms`` reads
the columns of A_a with ``chain._module_forms``: the image of an upper
column is the column with one first-group a removed (``_iota_image``),
read at the lower basis's lead keys and verified by its residual.  The
columns of one ``flat_forms`` share one scale, the lcm of all their
denominators (2 at n=6, ell=2; 36 at n=3, ell=4, over all weights), and
that scale is the scale of every differential and weight block, whose
integer entries are the scaled coefficients with their wedge signs.
"""

from __future__ import annotations

import operator
from functools import cache
from itertools import combinations, product
from math import comb
from typing import NamedTuple

from killingcalc.cap import _check_args
from killingcalc.chain import (
    FormComplex,
    _module_forms,
    form_differential,
    read_weights,
    weight_cohomology,
)
from killingcalc.matrix import ExactMatrix, rank
from killingcalc.young import (
    YoungDiagram,
    gl_dimension,
    orbit_size,
    realize_irreducible,
    weight_multiplicities,
)

__all__ = [
    "CohomologyReport",
    "DiagonalReport",
    "build_partial",
    "key_isomorphism_check",
    "predicted_cohomology",
    "complex_cohomology",
    "graded_diagonal_complex",
    "injectivity_implication_check",
]


def _component_shapes(ell: int) -> list[YoungDiagram]:
    """The diagrams of T_0, ..., T_ell: (ell) and (ell, k)."""
    return [YoungDiagram((ell,))] + [YoungDiagram((ell, k)) for k in range(1, ell + 1)]


def _iota_image(upper, col: dict[int, int], a: int) -> dict:
    """iota_a of one integer column of a component's weight space: the
    value at each key with one first-group index a removed (the group
    dropped when it empties)."""
    y = {}
    for r, v in col.items():
        first, second = upper.keys[r]
        if a in first:
            i = first.index(a)
            y[(first[:i] + first[i + 1 :], second) if len(first) > 1 else (second,)] = v
    return y


def flat_forms(n: int, ell: int, weights=None) -> FormComplex:
    """The flat complex as T-valued forms.

    A_a maps each component k >= 1 to component k - 1 by fixing its first
    first-group index to a.  Its columns are read off the realized weight
    spaces: weight w of T_k goes to weight w - e_a of T_(k-1), and each
    column is verified exactly by its residual there, or must vanish
    when T_(k-1) has no weight w - e_a.  A_a annihilates component 0,
    whose columns are left out.  All the A_a share one scale, the lcm of
    all their denominators.

    ``weights`` names the module weights to realize; the default is all
    of them.  Then only the columns of those weights are held, and A_a is
    written between those weights only.
    """
    shapes = _component_shapes(ell)
    mults = [weight_multiplicities(d, n) for d in shapes]
    comps = [
        realize_irreducible(d, n, tuple(w for w in mult if weights is None or w in weights))
        for d, mult in zip(shapes, mults)
    ]

    def step(k, w, a):
        if k and w[a - 1]:
            return k - 1, w[: a - 1] + (w[a - 1] - 1,) + w[a:]
        return None

    totals = {ell + k: gl_dimension(d, n) for k, d in enumerate(shapes)}
    return _module_forms(n, comps, mults, step, _iota_image, False, totals)


def _flat_read_weights(n: int, ell: int) -> frozenset:
    """The module weights the dominant blocks of the flat complex read,
    from the Kostka numbers alone."""
    return read_weights(w for d in _component_shapes(ell) for w in weight_multiplicities(d, n))


@cache
def _cohomology_by_grade(n: int, ell: int) -> dict[int, tuple[int, ...]]:
    """``chain.weight_cohomology`` of the flat complex on the weights its
    dominant blocks read; only this table is kept."""
    return weight_cohomology(flat_forms(n, ell, _flat_read_weights(n, ell)))


def _psubsets(n: int, p: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, n + 1), p))


def build_partial(n: int, ell: int, p: int) -> ExactMatrix:
    """Matrix of the differential from degree-p to degree-(p+1) cochains on
    all weights, over the shared scale of ``flat_forms(n, ell)``."""
    _check_args(n, ell)
    if not 0 <= operator.index(p) <= n:
        raise ValueError(f"form degree {p} outside 0..{n}")
    return form_differential(flat_forms(n, ell), p)


def _key_matrix(n: int) -> ExactMatrix:
    """The skew of the first two slots, from one-form-valued two-forms
    (a, b < c) to two-form-valued one-forms (x < y, z), over scale 2.

    The source basis element is e_abc - e_acb; its skew in the first two
    slots is (e_abc - e_bac - e_acb + e_cab) / 2.  So column (a, b < c)
    holds +-1 at row ((a, b) sorted, c) when a != b and -+1 at row
    ((a, c) sorted, b) when a != c, the upper sign when a is the smaller
    index.  The two rows differ in their last index.
    """
    pairs = _psubsets(n, 2)
    pair_pos = {pair: i for i, pair in enumerate(pairs)}
    dim = n * len(pairs)
    data: list[dict[int, int]] = [{} for _ in range(dim)]
    for col, (a, (b, c)) in enumerate(product(range(1, n + 1), pairs)):
        if a != b:
            data[pair_pos[(min(a, b), max(a, b))] * n + c - 1][col] = 1 if a < b else -1
        if a != c:
            data[pair_pos[(min(a, c), max(a, c))] * n + b - 1][col] = -1 if a < c else 1
    return ExactMatrix.from_int_rows(dim, data, 2)


def key_isomorphism_check(n: int) -> dict:
    """Skewing the first two slots maps one-form-valued two-forms
    bijectively onto two-form-valued one-forms; returns the verdict."""
    if n < 2:
        raise ValueError("base dimension must be at least 2")
    m = _key_matrix(n)
    r = rank(m)
    return {
        "n": n,
        "dimension": m.rows,
        "rank": r,
        "bijective": r == m.rows == m.cols,
    }


def predicted_cohomology(n: int, ell: int, p: int) -> tuple[YoungDiagram, int]:
    """Diagram and dimension expected in degree p of the flat complex."""
    _check_args(n, ell)
    if operator.index(p) < 0:
        raise ValueError("degree must be nonnegative")
    if p == 0:
        d = YoungDiagram((ell,))
    elif p == 1:
        d = YoungDiagram((ell + 1,))
    else:
        d = YoungDiagram((ell + 1, ell + 1) + (1,) * (p - 2))
    return d, gl_dimension(d, n)


class CohomologyReport(NamedTuple):
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


def complex_cohomology(n: int, ell: int) -> CohomologyReport:
    """Cohomology of the flat complex, with diagram predictions attached:
    the sum over grades of ``_cohomology_by_grade``; the cochain
    dimensions are hook-content closed forms."""
    _check_args(n, ell)
    total = gl_dimension(YoungDiagram((ell, ell)), n + 1)
    spaces = tuple(comb(n, p) * total for p in range(n + 1))
    computed = tuple(map(sum, zip(*_cohomology_by_grade(n, ell).values())))
    diagrams = []
    predicted = []
    for p in range(n + 1):
        d, dim = predicted_cohomology(n, ell, p)
        diagrams.append(d.rows)
        predicted.append(dim)
    return CohomologyReport(
        n, ell, spaces, computed, tuple(diagrams), tuple(predicted)
    )


class DiagonalReport(NamedTuple):
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


def graded_diagonal_complex(n: int, ell: int, d: int) -> DiagonalReport:
    """Subcomplex of fixed total box grade d = p + k + ell.

    A cochain of form degree p in component k has weight total
    p + k + ell, so this subcomplex is the sum of the weight blocks of
    total d.  Its cohomology is grade d of ``_cohomology_by_grade``, the
    table ``complex_cohomology`` sums, so the graded and ungraded
    pictures read the same blocks.  Away from boxed corners
    the diagonal is expected to be exact; at a boxed corner (component 0
    in form degrees 0 and 1, component ell in form degrees >= 2) the
    expected cohomology is the predicted one for that form degree.
    """
    _check_args(n, ell)
    operator.index(d)
    positions = _diagonal_positions(n, ell, d)
    if not positions:
        raise ValueError(f"grade {d} carries no spaces for n={n}, ell={ell}")
    dims = [gl_dimension(shape, n) for shape in _component_shapes(ell)]
    spaces = tuple(comb(n, p) * dims[k] for p, k in positions)
    h = _cohomology_by_grade(n, ell)[d]
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
    """Tensors with one free index a before the two symmetric groups B, C
    of T_ell, the top component.

    Imposing both the vanishing of the trailing symmetrization and the
    vanishing of the skew of the free index with the first group forces
    the whole tensor to vanish; dropping the skew condition leaves a
    space of dimension n times the top component.  Both dimensions are
    read off the flat complex, exactly:

    * the trailing symmetrization is T_ell's own two-row constraint, so
      the relaxed space is the T_ell-valued one-forms, of dimension n
      times the summed dimensions of T_ell's realized weight spaces; the
      S_n orbit of a dominant weight space holds spaces of its
      dimension, so the sum runs over the dominant ones times orbits;
    * the skew of a with a first-group index b is the e_a wedge e_b
      coefficient of A_b v_a - A_a v_b, so the space cut out by both
      conditions is the kernel of the differential on T_ell-valued
      one-forms, the degree-1 cochains of grade 2 ell + 1;
    * no degree-0 cochain has grade 2 ell + 1 (it would need a component
      ell + 1), so that kernel is degree-1 cohomology of grade 2 ell + 1,
      a number of ``_cohomology_by_grade``.
    """
    _check_args(n, ell)
    top = YoungDiagram((ell, ell))
    mult = weight_multiplicities(top, n)
    parts = realize_irreducible(top, n, (w for w in mult if w == tuple(sorted(w, reverse=True))))
    strict_dim = _cohomology_by_grade(n, ell)[2 * ell + 1][1]
    relaxed_dim = n * sum(orbit_size(w) * part.dim for w, part in parts.items())
    expected = n * gl_dimension(top, n)
    return {
        "n": n,
        "ell": ell,
        "intersection_dim": strict_dim,
        "relaxed_dim": relaxed_dim,
        "relaxed_expected": expected,
        "injective": strict_dim == 0,
        "relaxed_matches": relaxed_dim == expected,
    }
