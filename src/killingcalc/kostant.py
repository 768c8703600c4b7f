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

Counting index values equal to 1 grades the module, and by the
branching rule the grade-c piece is component ell - c of the prolongation
space over n.  The branching check compares the two weight space by
weight space, on dominant weights, and checks that every x_i raises the
count by one.  That the grade -1 part acts abelianly is covered by the
d^2 check of ``lie_algebra_cohomology``: D^2 = 0 on degree-0 cochains
says exactly that the x_i commute on V.

The Koszul complex is a ``chain.FormComplex`` for the grade-0 block
GL(n), acting on the index values 2..n + 1: x_i turns a value i + 1
into 1, so the weight of a module column (the count of each value
2..n + 1 in its keys) drops by e_i while e_i* raises the form weight
by e_i.  ``build_V`` writes it: V is realized one GL(n + 1) weight
space at a time, and ``chain._module_forms``, the reader of the flat
complex too, reads each column of x_i (``_x_image``) off the realized
weight spaces, in integers, verified by its residual, all over one
scale, the lcm of their denominators; the Koszul differentials are
integer rows over that scale.  ``lie_algebra_cohomology`` ranks the dominant
weight blocks alone, times their S_n orbits, once per (n, ell), on the
weights those blocks read; ``koszul_differential`` is the whole
differential on all weights, with V built on every call.
"""

from __future__ import annotations

import operator
from functools import lru_cache
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
from killingcalc.matrix import ExactMatrix
from killingcalc.prolong import _component_shapes, predicted_cohomology
from killingcalc.young import (
    YoungDiagram,
    gl_dimension,
    orbit_size,
    realize_irreducible,
    weight_multiplicities,
    weyl_dimension,
)

__all__ = [
    "KostantReport",
    "build_V",
    "koszul_differential",
    "cohomology_label_row",
    "lie_algebra_cohomology",
    "branching_check",
]


def _x_image(part, col: dict[int, int], i: int) -> dict:
    """x_i of one integer column of a weight space of V, by the dual
    action of E[1, i + 1]: at each key with one index value i + 1 of a
    group turned into 1, minus the source value times the number of 1s in
    that group."""
    y: dict = {}
    for r, v in col.items():
        key = part.keys[r]
        for g, group in enumerate(key):
            if i + 1 in group:
                q = group.index(i + 1)
                changed = (1,) + group[:q] + group[q + 1 :]
                target = key[:g] + (changed,) + key[g + 1 :]
                w = y.get(target, 0) - changed.count(1) * v
                if w:
                    y[target] = w
                else:
                    del y[target]
    return y


def build_V(n: int, ell: int, weights: frozenset | None = None) -> FormComplex:
    """The module of shape (ell, ell) over n + 1 with its column action,
    as the coefficients of the Koszul complex.

    V is realized on its GL(n + 1) weights (c, w), c counting the index
    values 1 and w the values 2..n + 1; ``weights`` names the GL(n)
    weights w to realize, all of them by default.  x_i maps weight (c, w)
    to (c + 1, w - e_i); each of its columns is read at the lead keys of
    that weight space and verified by its residual, or must vanish when V
    has no such weight.  The module columns carry their weights w.
    """
    _check_args(n, ell)
    d = YoungDiagram((ell, ell))
    mult = weight_multiplicities(d, n + 1)
    parts = realize_irreducible(
        d, n + 1, tuple(w for w in mult if weights is None or w[1:] in weights)
    )

    def step(_, w, i):
        if w[i]:
            return 0, (w[0] + 1,) + w[1:i] + (w[i] - 1,) + w[i + 1 :]
        return None

    # the grade-c piece is T_(ell - c), of weight total 2 ell - c
    totals = {ell + k: gl_dimension(shape, n) for k, shape in enumerate(_component_shapes(ell))}
    cx = _module_forms(n, [parts], [mult], step, _x_image, True, totals)
    return cx._replace(weights=tuple(w[1:] for w in cx.weights))


def _read_weights(n: int, ell: int) -> frozenset:
    """The GL(n) weights of V the dominant Koszul blocks read, from the
    Kostka numbers alone."""
    return read_weights(w[1:] for w in weight_multiplicities(YoungDiagram((ell, ell)), n + 1))


def koszul_differential(n: int, ell: int, p: int) -> ExactMatrix:
    """Differential from degree-p to degree-(p+1) module-valued forms on
    all weights, over the shared scale of ``build_V(n, ell)``."""
    _check_args(n, ell)
    if not 0 <= operator.index(p) <= n:
        raise ValueError(f"form degree {p} outside 0..{n}")
    return form_differential(build_V(n, ell), p)


def cohomology_label_row(n: int, ell: int, p: int) -> tuple[int, ...]:
    """Label row over the size-(n + 1) algebra for the degree-p cohomology.

    The first entry sits on the crossed node and may be negative; the
    remaining n - 1 entries are the labels of the grade-0 block module.
    """
    _check_args(n, ell)
    if not 0 <= operator.index(p) <= n:
        raise ValueError(f"form degree {p} outside 0..{n}")
    if p == 0:
        return (0, ell) + (0,) * (n - 2)
    if p == 1:
        return (-2, ell + 1) + (0,) * (n - 2)
    rows = predicted_cohomology(n, ell, p)[0].rows
    padded = list(rows) + [0] * (n - len(rows))
    tail = tuple(padded[i] - padded[i + 1] for i in range(n - 1))
    return (-(ell + 1 + p),) + tail


class KostantReport(NamedTuple):
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


@lru_cache(maxsize=None, typed=True)
def lie_algebra_cohomology(n: int, ell: int) -> KostantReport:
    """Cohomology of the column action, with three-way dimension checks,
    summed over the grades of its dominant weight blocks
    (``chain.weight_cohomology``) on the weights they read; the cochain
    dimensions are hook-content closed forms.  Memoized by typed
    arguments: only the report is kept."""
    _check_args(n, ell)
    module_dim = gl_dimension(YoungDiagram((ell, ell)), n + 1)
    spaces = tuple(comb(n, p) * module_dim for p in range(n + 1))
    table = weight_cohomology(build_V(n, ell, _read_weights(n, ell)))
    computed = tuple(map(sum, zip(*table.values())))
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
    """Weight spaces of the module against the prolongation components.

    For each grade c (index values equal to 1) and each dominant GL(n)
    weight nu of total 2 ell - c, the realized weight space (c, nu) of V
    must have the dimension of the realized weight space nu of component
    ell - c over n.  Both modules are S_n-invariant, so the dominant
    weights decide; a piece's dimension is the orbit-weighted sum.  On
    every column of those weight spaces, each x_i must raise c by one.
    """
    _check_args(n, ell)
    d = YoungDiagram((ell, ell))
    shapes = _component_shapes(ell)
    module = weight_multiplicities(d, n + 1)
    # the dominant GL(n) weights of each grade c, of V or of T_(ell - c)
    dominant = []
    for c in range(ell + 1):
        weights = {w[1:] for w in module if w[0] == c}
        weights.update(weight_multiplicities(shapes[ell - c], n))
        dominant.append(sorted(w for w in weights if list(w) == sorted(w, reverse=True)))
    parts = realize_irreducible(d, n + 1, [(c,) + nu for c in range(ell + 1) for nu in dominant[c]])
    pieces = []
    ok = True
    shifts = True
    for c in range(ell + 1):
        comps = realize_irreducible(shapes[ell - c], n, dominant[c])
        got = want = 0
        for nu in dominant[c]:
            part, comp = parts[(c,) + nu], comps[nu]
            ok = ok and part.dim == comp.dim
            got += orbit_size(nu) * part.dim
            want += orbit_size(nu) * comp.dim
            shifts = shifts and all(
                sum(group.count(1) for group in key) == c + 1
                for col in part.columns
                for i in range(1, n + 1)
                for key in _x_image(part, col, i)
            )
        pieces.append({"ones": c, "dim": got, "component": ell - c, "expected": want})
    return {
        "n": n,
        "ell": ell,
        "module_dim": gl_dimension(d, n + 1),
        "pieces": pieces,
        "dims_match": ok,
        "action_shifts_grade": shifts,
    }
