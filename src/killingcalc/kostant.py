"""Abelian nilradical cohomology matching the flat complexes.

The traceless matrices of size n + 1 carry the column grading: crossing
out the first node splits them into the lower-left column (grade -1),
the block-diagonal part (grade 0), and the top row (grade +1).  The
grade -1 part is abelian, so the Chevalley-Eilenberg differential of a
module V reduces to the Koszul-type map

    D(e_S* tensor v) = sum_i (e_i* wedge e_S*) tensor (x_i . v),

with x_i running over the column basis and the wedge acting from the
left, sign (-1)^{#{s in S : s < i}}.

Taking V to be the two-row module of shape (ell, ell) over n + 1, the
cohomology in each degree is a single irreducible of the grade-0 block,
and its dimension must agree with the corresponding flat differential
complex in three independent ways: the computed kernel/image count, the
hook-content dimension of the predicted diagram over n, and the Weyl
dimension of the uncrossed tail of the predicted label row.  The label
rows carry one entry per node of the size-(n + 1) algebra; the first
(crossed) entry may be negative and is reported verbatim, never fed to
the Weyl formula.

Counting index values equal to 1 grades the module basis, and the
grade-c piece must match component ell - c of the prolongation space
over n.  That comparison is the branching check, which also checks that
every x_i raises the count by one.  That the grade -1 part acts
abelianly is covered by the d^2 check of ``lie_algebra_cohomology``:
D^2 = 0 on degree-0 cochains says exactly that the x_i commute on V.

The action matrices of one (n, ell) are brought to one scale once, the
lcm of all their denominators, and kept over that scale in the module;
the Koszul differentials are integer rows over the same scale.

The Koszul complex is a ``chain.FormComplex`` for the grade-0 block
GL(n), acting on the index values 2..n + 1: x_i turns a value i + 1
into 1, so the weight of a module column (the count of each value
2..n + 1 in its lead row) drops by e_i while e_i* raises the form weight
by e_i.  ``lie_algebra_cohomology`` computes the kernel/image count on
the dominant weight blocks alone, times their S_n orbits;
``koszul_differential`` is the whole differential on all weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import comb

from killingcalc.cap import _check_args
from killingcalc.chain import FormComplex, form_differential, weight_cohomology
from killingcalc.matrix import ExactMatrix, over_common_scale
from killingcalc.prolong import (
    _guard_cap,
    build_T,
    predicted_cohomology,
)
from killingcalc.symspace import replace_matrix
from killingcalc.young import SubspaceBasis, YoungDiagram, realize_irreducible, weyl_dimension

__all__ = [
    "VModule",
    "KostantReport",
    "build_V",
    "koszul_differential",
    "cohomology_label_row",
    "lie_algebra_cohomology",
    "branching_check",
]


@dataclass(frozen=True)
class VModule:
    """Two-row module with its grade -1 action in the realized basis.

    ``actions[i - 1]`` is the matrix of x_i; all of them share one scale,
    the lcm of all their denominators.  ``grades[t]`` counts the index
    values of column t's lead row equal to 1.
    """

    n: int
    ell: int
    basis: SubspaceBasis
    actions: tuple[ExactMatrix, ...]
    grades: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.basis.dim


@cache
def build_V(n: int, ell: int) -> VModule:
    """Realize the module and the column action matrices, with closure
    and grading checks."""
    _check_args(n, ell)
    basis = realize_irreducible(YoungDiagram((ell, ell)), n + 1)
    space = basis.space
    exact = []
    for i in range(1, n + 1):
        mapped = replace_matrix(space, 1, i + 1) * basis.coord_basis
        cols = [basis.coords(y) for y in mapped.columns()]
        exact.append(ExactMatrix.from_columns(cols, basis.dim))
    actions = over_common_scale(exact)
    # every key has 2 ell slots, so a homogeneous weight fixes the grade
    grades = tuple(2 * ell - sum(w) for w in basis.weights(first=2))
    return VModule(n, ell, basis, tuple(actions), grades)


def koszul_forms(n: int, ell: int) -> FormComplex:
    """The Koszul complex as V-valued forms, A_i the action of x_i; the
    weight of a column counts the index values 2..n + 1 of its lead row."""
    module = build_V(n, ell)
    columns = tuple(
        {t: col for t, col in enumerate(a.transpose().data) if col}
        for a in module.actions
    )
    weights = module.basis.weights(first=2)
    return FormComplex(n, weights, columns, module.actions[0].scale, left=True)


def koszul_differential(n: int, ell: int, p: int) -> ExactMatrix:
    """Differential from degree-p to degree-(p+1) module-valued forms on
    all weights, over the shared scale of ``build_V(n, ell).actions``."""
    _check_args(n, ell)
    if not 0 <= p <= n:
        raise ValueError(f"form degree {p} outside 0..{n}")
    return form_differential(koszul_forms(n, ell), p)


def cohomology_label_row(n: int, ell: int, p: int) -> tuple[int, ...]:
    """Label row over the size-(n + 1) algebra for the degree-p cohomology.

    The first entry sits on the crossed node and may be negative; the
    remaining n - 1 entries are the labels of the grade-0 block module.
    """
    _check_args(n, ell)
    if not 0 <= p <= n:
        raise ValueError(f"form degree {p} outside 0..{n}")
    if p == 0:
        return (0, ell) + (0,) * (n - 2)
    if p == 1:
        return (-2, ell + 1) + (0,) * (n - 2)
    rows = predicted_cohomology(n, ell, p)[0].rows
    padded = list(rows) + [0] * (n - len(rows))
    tail = tuple(padded[i] - padded[i + 1] for i in range(n - 1))
    return (-(ell + 1 + p),) + tail


@dataclass(frozen=True)
class KostantReport:
    n: int
    ell: int
    module_dim: int
    space_dims: tuple[int, ...]
    computed: tuple[int, ...]
    diagrams: tuple[tuple[int, ...], ...]
    predicted: tuple[int, ...]
    label_rows: tuple[tuple[int, ...], ...]
    weyl: tuple[int, ...]

    @property
    def all_match(self) -> bool:
        return all(
            c == d == w
            for c, d, w in zip(self.computed, self.predicted, self.weyl)
        )


def lie_algebra_cohomology(n: int, ell: int, cap: int | None = None) -> KostantReport:
    """Cohomology of the column action, with three-way dimension checks,
    from its dominant weight blocks (``chain.weight_cohomology``)."""
    _guard_cap(n, ell, cap)
    module_dim = build_V(n, ell).dim
    spaces = tuple(comb(n, p) * module_dim for p in range(n + 1))
    computed = tuple(weight_cohomology(koszul_forms(n, ell)))
    diagrams = []
    predicted = []
    rows = []
    weyl = []
    for p in range(n + 1):
        d, dim = predicted_cohomology(n, ell, p)
        row = cohomology_label_row(n, ell, p)
        diagrams.append(d.rows)
        predicted.append(dim)
        rows.append(row)
        weyl.append(weyl_dimension(row[1:]))
    return KostantReport(
        n,
        ell,
        module_dim,
        spaces,
        computed,
        tuple(diagrams),
        tuple(predicted),
        tuple(rows),
        tuple(weyl),
    )


def branching_check(n: int, ell: int) -> dict:
    """Grade pieces of the module against the prolongation components.

    The piece with c index values equal to 1 must have the dimension of
    component ell - c over n; the action matrices must shift c up by one.
    """
    module = build_V(n, ell)
    comps = build_T(n, ell).component_dims
    grade_dims = [0] * (ell + 1)
    for c in module.grades:
        if not 0 <= c <= ell:
            raise RuntimeError(f"grading weight {c} outside 0..{ell}")
        grade_dims[c] += 1
    pieces = []
    ok = True
    for c, got in enumerate(grade_dims):
        want = comps[ell - c]
        pieces.append({"ones": c, "dim": got, "component": ell - c, "expected": want})
        ok = ok and got == want
    shifts = all(
        module.grades[r] == module.grades[c] + 1
        for a in module.actions
        for r, row in enumerate(a.data)
        for c in row
    )
    return {
        "n": n,
        "ell": ell,
        "module_dim": module.dim,
        "pieces": pieces,
        "dims_match": ok,
        "action_shifts_grade": shifts,
    }
