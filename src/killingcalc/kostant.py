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
over n.  That comparison is the branching check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb

from killingcalc.chain import ChainComplex, cohomology_dims
from killingcalc.matrix import ExactMatrix
from killingcalc.prolong import (
    _check_args,
    _guard_cap,
    _psubsets,
    build_T,
    predicted_cohomology,
)
from killingcalc.symspace import replace_matrix
from killingcalc.young import SubspaceBasis, YoungDiagram, realize_irreducible, weyl_dimension

__all__ = [
    "GradedSL",
    "VModule",
    "KostantReport",
    "build_V",
    "koszul_differential",
    "koszul_complex",
    "cohomology_label_row",
    "lie_algebra_cohomology",
    "branching_check",
]


@dataclass(frozen=True)
class GradedSL:
    """Size n + 1 special linear algebra with the first-column grading."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("grading needs block sizes 1 and n with n >= 2")

    @property
    def size(self) -> int:
        return self.n + 1

    def grade(self, r: int, s: int) -> int:
        """Grade of the elementary matrix with entry at row r, column s."""
        if not (1 <= r <= self.size and 1 <= s <= self.size):
            raise ValueError("matrix position out of range")
        if r == s:
            return 0
        if s == 1:
            return -1
        if r == 1:
            return 1
        return 0

    def minus_one_basis(self) -> tuple[tuple[int, int], ...]:
        """Positions of the grade -1 basis, ordered by row."""
        return tuple((i + 1, 1) for i in range(1, self.n + 1))

    @staticmethod
    def bracket(a: tuple[int, int], b: tuple[int, int]) -> dict[tuple[int, int], int]:
        """Commutator of two elementary matrices as a sparse combination."""
        (r, s), (u, v) = a, b
        out: dict[tuple[int, int], int] = {}
        if s == u:
            out[(r, v)] = out.get((r, v), 0) + 1
        if v == r:
            out[(u, s)] = out.get((u, s), 0) - 1
        return {k: c for k, c in out.items() if c}

    def grades_additive(self) -> bool:
        """Commutators of elementary matrices respect the grading."""
        m = self.size
        for a in ((r, s) for r in range(1, m + 1) for s in range(1, m + 1)):
            for b in ((r, s) for r in range(1, m + 1) for s in range(1, m + 1)):
                g = self.grade(*a) + self.grade(*b)
                for pos in self.bracket(a, b):
                    if pos[0] != pos[1] and self.grade(*pos) != g:
                        return False
        return True

    def minus_one_abelian(self) -> bool:
        basis = self.minus_one_basis()
        return all(not self.bracket(a, b) for a in basis for b in basis)


@dataclass(frozen=True)
class VModule:
    """Two-row module with its grade -1 action in the realized basis."""

    n: int
    ell: int
    basis: SubspaceBasis
    actions: tuple[ExactMatrix, ...]
    grades: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.basis.dim


def _ones_count(key) -> int:
    return sum(part.count(1) for part in key)


@cache
def build_V(n: int, ell: int) -> VModule:
    """Realize the module and the column action matrices, with closure
    and grading checks."""
    _check_args(n, ell)
    basis = realize_irreducible(YoungDiagram((ell, ell)), n + 1, "symmetric-pair")
    space = basis.space
    actions = []
    for i in range(1, n + 1):
        mapped = replace_matrix(space, 1, i + 1) * basis.coord_basis
        cols = [basis.coords(y) for y in mapped.columns()]
        actions.append(ExactMatrix.from_columns(cols, basis.dim))
    keys = space.keys()
    grades = []
    for col in basis.columns:
        counts = {_ones_count(keys[r]) for r in col}
        if len(counts) != 1:
            raise RuntimeError("basis vector mixes grading weights")
        grades.append(counts.pop())
    return VModule(n, ell, basis, tuple(actions), tuple(grades))


def koszul_differential(n: int, ell: int, p: int) -> ExactMatrix:
    """Differential from degree-p to degree-(p+1) module-valued forms."""
    _check_args(n, ell)
    if not 0 <= p <= n:
        raise ValueError(f"form degree {p} outside 0..{n}")
    module = build_V(n, ell)
    dim = module.dim
    source = _psubsets(n, p)
    cols = len(source) * dim
    if p == n:
        return ExactMatrix.zero(0, cols)
    target = _psubsets(n, p + 1)
    target_pos = {s: i for i, s in enumerate(target)}
    entries: dict[tuple[int, int], Fraction] = {}
    for si, s in enumerate(source):
        col0 = si * dim
        in_s = set(s)
        for i in range(1, n + 1):
            if i in in_s:
                continue
            sign = (-1) ** sum(1 for x in s if x < i)
            row0 = target_pos[tuple(sorted(s + (i,)))] * dim
            for (r, c), v in module.actions[i - 1].entries.items():
                entries[(row0 + r, col0 + c)] = sign * v
    # each entry is +-1 times a nonzero entry of an action matrix
    return ExactMatrix._trusted(len(target) * dim, cols, entries)


def koszul_complex(n: int, ell: int, cap: int | None = None) -> ChainComplex:
    _guard_cap(n, ell, cap)
    dim = build_V(n, ell).dim
    spaces = tuple(comb(n, p) * dim for p in range(n + 1))
    maps = tuple(koszul_differential(n, ell, p) for p in range(n))
    return ChainComplex(spaces, maps)


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

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "ell": self.ell,
            "module_dim": self.module_dim,
            "space_dims": list(self.space_dims),
            "H": [
                {
                    "p": p,
                    "computed": c,
                    "diagram": list(d),
                    "predicted": e,
                    "dynkin_labels": list(row),
                    "weyl": w,
                    "match": c == e == w,
                }
                for p, (c, d, e, row, w) in enumerate(
                    zip(
                        self.computed,
                        self.diagrams,
                        self.predicted,
                        self.label_rows,
                        self.weyl,
                    )
                )
            ],
            "all_match": self.all_match,
        }


def lie_algebra_cohomology(n: int, ell: int, cap: int | None = None) -> KostantReport:
    """Cohomology of the column action, with three-way dimension checks."""
    cx = koszul_complex(n, ell, cap)
    computed = tuple(cohomology_dims(cx))
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
        build_V(n, ell).dim,
        cx.spaces,
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
    shifts = True
    for a in module.actions:
        for (r, c) in a.entries:
            if module.grades[r] != module.grades[c] + 1:
                shifts = False
    return {
        "n": n,
        "ell": ell,
        "module_dim": module.dim,
        "pieces": pieces,
        "dims_match": ok,
        "action_shifts_grade": shifts,
    }
