"""Finite cochain complexes of exact matrices, and form complexes by weight.

A complex is a list of space dimensions d_0 .. d_m together with maps
D_p : space_p -> space_{p+1}; the map out of the last space is taken to
be zero.  Cohomology dimensions are computed as

    h_p = dim ker D_p - rank D_{p-1}

which is meaningful only when D_{p+1} D_p = 0, so that is checked first.

A ``FormComplex`` is the complex of forms on R^n with values in a module
M whose differential wedges in one form index at a time,

    D(e_S tensor v) = sum over a not in S of sign(S, a) e_{S + a} tensor A_a v,

with wedge sign (-1)^{#{s in S : s > a}} (wedging from the right) or
(-1)^{#{s in S : s < a}} (from the left).  The flat prolongation complex
and the Koszul complex are both of this kind.  Each basis column of M
carries a GL(n) torus weight, a vector in Z^n, and A_a raises the weight
of a form by e_a while lowering the module weight by e_a; so the weight
of e_S tensor v, the indicator of S plus the weight of v, is preserved
and every differential is block-diagonal by weight.  Form slots count
as +1_S: the weight of a cochain is 1_S plus its module weight, with no
determinant twist.  S_n permutes the weight blocks (the complexes are
GL(n)-equivariant), so blocks of weights in one S_n orbit have equal
cohomology.  ``weight_cohomology`` therefore assembles, d^2-checks and
ranks only the block of each dominant (non-increasing) weight mu, and
multiplies its cohomology by the orbit size
n! / prod(multiplicities of mu's entries)!, in one pass that returns
the cohomology of every grade (weight total).

The block of mu reads only the module columns of the weights mu - 1_S,
so the blocks come from one pass over the module's weights: each lift
w + 1_S of a weight w (``young.dominant_lifts``) puts the cochains (S, t)
of w's columns t in degree |S| of block w + 1_S.  A ``FormComplex`` may
hold just the weights with a lift: ``read_weights`` picks them from the
module's weights, which the caller knows from Kostka numbers.  The
bookkeeping is certified on every run: each block entry must land in
its own weight, and in every grade g and degree p the orbit-weighted
block dimensions must add up to C(n, p) times the closed-form dimension
of the module's part of weight total g - p, which also fails when a
weight or a lift the blocks read was left out.
``form_differential`` is the all-weights matrix, written by the same
``block_rows`` on all cochains of a complex that holds every module
column.  ``block_rows`` writes the parallel-section system of
``tractor`` and the Killing operator of ``killing`` too, and its check
that no entry leaves its block is the only one.

``_module_forms`` writes the flat complex and the Koszul complex alike
from realized weight spaces, given where A_a sends a weight and the
image of a column.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import comb, gcd, lcm
from typing import NamedTuple

from killingcalc.matrix import ExactMatrix, rank
from killingcalc.young import dominant_lifts, orbit_size, ordered_columns

__all__ = [
    "ChainComplex",
    "FormComplex",
    "block_rows",
    "cohomology_dims",
    "form_differential",
    "read_weights",
    "weight_cohomology",
]


class ChainComplex:
    """Space dimensions and the maps between them, shapes checked."""

    __slots__ = ("spaces", "maps")

    def __init__(self, spaces: tuple[int, ...], maps: tuple[ExactMatrix, ...]):
        if len(maps) != len(spaces) - 1:
            raise ValueError(
                f"{len(spaces)} spaces need {len(spaces) - 1} maps, "
                f"got {len(maps)}"
            )
        for p, m in enumerate(maps):
            if m.cols != spaces[p] or m.rows != spaces[p + 1]:
                raise ValueError(
                    f"map {p} is {m.rows}x{m.cols}, expected "
                    f"{spaces[p + 1]}x{spaces[p]}"
                )
        self.spaces = spaces
        self.maps = maps

    def composites_vanish(self) -> bool:
        return all(
            (self.maps[p + 1] * self.maps[p]).is_zero()
            for p in range(len(self.maps) - 1)
        )


def cohomology_dims(complex_: ChainComplex) -> list[int]:
    """Exact cohomology dimensions; rejects non-complexes."""
    if not complex_.composites_vanish():
        raise ValueError("not a complex: some composite map is nonzero")
    ranks = [rank(m) for m in complex_.maps]
    out = []
    for p, d in enumerate(complex_.spaces):
        rank_out = ranks[p] if p < len(ranks) else 0
        rank_in = ranks[p - 1] if p > 0 else 0
        out.append(d - rank_out - rank_in)
    return out


class FormComplex(NamedTuple):
    """Forms on R^n with values in a module, of which the complex holds
    the basis columns 0..dim-1: all of them, or those of some weights.

    ``weights[t]`` is the weight of column t and ``columns[a - 1]`` the
    matrix A_a by columns: ``columns[a - 1][t]`` is column t as a
    {row: integer} dict over ``scale``, absent where it is zero.  ``left``
    selects the wedge sign (-1)^{#{s in S : s < a}} instead of
    (-1)^{#{s in S : s > a}}.  ``totals[g]`` is the closed-form dimension
    of the module's part of weight total g, over every weight.
    """

    n: int
    weights: tuple[tuple[int, ...], ...]
    columns: tuple[dict[int, dict[int, int]], ...]
    scale: int
    left: bool
    totals: dict[int, int]

    @property
    def dim(self) -> int:
        return len(self.weights)

    def sign(self, s: tuple[int, ...], a: int) -> int:
        if self.left:
            return (-1) ** sum(1 for x in s if x < a)
        return (-1) ** sum(1 for x in s if x > a)


def _module_forms(n: int, modules, weights_of_each, step, image, left: bool, totals) -> FormComplex:
    """The ``FormComplex`` of some modules' realized weight spaces, one
    dict weight -> ``young.WeightSpace`` per module in ``modules``, their
    columns numbered module after module in the order of each whole basis.

    ``step(m, w, a)`` is where A_a sends weight w of module m, a pair
    (module, weight), or None where A_a vanishes.  Each column of A_a is
    ``image(source weight space, integer column, a)`` read at the target's
    lead keys and verified by its residual.  The image must vanish where
    the target module lacks the weight (``weights_of_each[module]`` names
    the weights it has); a target weight that exists but was not realized
    is one no block reads, and is skipped.  All the columns are brought to
    one scale, the lcm of their denominators.
    """
    order = [(m, w, j) for m, parts in enumerate(modules) for w, j in ordered_columns(parts)]
    number = {column: t for t, column in enumerate(order)}
    raw = []  # (a, column number, {row number: int}, source column scale)
    for m, parts in enumerate(modules):
        for w, source in parts.items():
            for a in range(1, n + 1):
                to = step(m, w, a)
                if to is None:
                    continue
                k, w2 = to
                target = modules[k].get(w2)
                if target is None and w2 in weights_of_each[k]:
                    continue
                for c, col in enumerate(source.columns):
                    y = image(source, col, a)
                    if target is None:
                        if y:
                            raise RuntimeError(f"A_{a} leaves its module from weight {w}")
                        continue
                    x = target.coords(y)
                    if x:
                        rows = {number[k, w2, j]: v for j, v in x.items()}
                        raw.append((a, number[m, w, c], rows, source.scales[c]))
    scale = lcm(1, *(s // gcd(s, *x.values()) for _, _, x, s in raw))
    columns: tuple[dict, ...] = tuple({} for _ in range(n))
    for a, t, x, s in raw:
        g = gcd(s, *x.values())
        f = scale // (s // g)
        columns[a - 1][t] = {r: v // g * f for r, v in x.items()}
    return FormComplex(n, tuple(w for _, w, _ in order), columns, scale, left, totals)


def block_rows(mu, source, target, entries) -> list[dict[int, int]]:
    """The block of weight mu of a weight-preserving map from the labels
    ``source`` to the labels ``target``: one row {source position: int}
    per target label, column j written from ``entries(source[j])``, an
    iterable of (target label, nonzero int).  An entry whose label is not
    in ``target`` leaves the block and raises RuntimeError naming mu,
    None for a map written on all weights."""
    index = {label: i for i, label in enumerate(target)}
    rows: list[dict[int, int]] = [{} for _ in target]
    for j, label in enumerate(source):
        for to, v in entries(label):
            i = index.get(to)
            if i is None:
                raise RuntimeError(f"entry from {label} to {to} leaves the block of weight {mu}")
            rows[i][j] = v
    return rows


def _block_map(cx: FormComplex, mu, source, target) -> ExactMatrix:
    """The differential from the degree-p cochains ``source`` to the
    degree-(p + 1) cochains ``target`` of the weight block mu, each a list
    of (p-subset, module column), by ``block_rows``."""
    def entries(cochain):
        s, t = cochain
        for a in range(1, cx.n + 1):
            col = cx.columns[a - 1].get(t)
            if col and a not in s:
                sign = cx.sign(s, a)
                s2 = tuple(sorted(s + (a,)))
                for t2, v in col.items():
                    yield (s2, t2), sign * v

    return ExactMatrix.from_int_rows(len(source), block_rows(mu, source, target, entries), cx.scale)


def form_differential(cx: FormComplex, p: int) -> ExactMatrix:
    """The differential from degree p to degree p + 1 on all weights, over
    ``cx.scale``.  Cochains are ordered by p-subset (lexicographic),
    then by module column."""
    def cochains(q):
        return [(s, t) for s in combinations(range(1, cx.n + 1), q) for t in range(cx.dim)]

    return _block_map(cx, None, cochains(p), cochains(p + 1))


def read_weights(weights, top: int, total: int) -> frozenset:
    """The module weights among ``weights`` that the dominant blocks read:
    those w with a lift ``young.dominant_lifts(w, top, total)``, 0/1
    shifts (top 1, total n) for the flat and Koszul blocks."""
    return frozenset(w for w in weights if dominant_lifts(w, top, total))


class _WeightBlock(NamedTuple):
    """The weight-mu part of a form complex: its orbit size and the blocks
    of the maps on its cochains, ordered as in ``form_differential``."""

    weight: tuple[int, ...]
    orbit: int
    complex: ChainComplex


def _weight_blocks(cx: FormComplex):
    """Yield the ``_WeightBlock`` of every dominant weight with a cochain,
    in decreasing lexicographic order."""
    n = cx.n
    by_weight: dict[tuple[int, ...], list[int]] = {}
    for t, w in enumerate(cx.weights):
        by_weight.setdefault(w, []).append(t)
    blocks: dict[tuple[int, ...], list[list]] = {}
    for w, ts in by_weight.items():
        for s, mu in dominant_lifts(w, 1, n):
            subset = tuple(a for a, x in enumerate(s, 1) if x)
            degrees = blocks.setdefault(mu, [[] for _ in range(n + 1)])
            degrees[len(subset)].extend((subset, t) for t in ts)
    for mu in sorted(blocks, reverse=True):
        cochains = [sorted(degree) for degree in blocks[mu]]
        maps = tuple(_block_map(cx, mu, cochains[p], cochains[p + 1]) for p in range(n))
        yield _WeightBlock(mu, orbit_size(mu), ChainComplex(tuple(map(len, cochains)), maps))


def weight_cohomology(cx: FormComplex) -> dict[int, tuple[int, ...]]:
    """Cohomology dimensions of every grade (weight total) of the complex
    in every degree 0..n, summed over the dominant weight blocks of that
    grade times their orbit sizes: grade -> (h_0, ..., h_n).

    Raises RuntimeError unless, in every grade g and degree p, the
    orbit-weighted block dimensions equal C(n, p) times the closed-form
    dimension of the module's part of weight total g - p.
    """
    n = cx.n
    dims: Counter = Counter()
    out: Counter = Counter()
    for block in _weight_blocks(cx):
        g = sum(block.weight)
        for p, (d, h) in enumerate(zip(block.complex.spaces, cohomology_dims(block.complex))):
            dims[g, p] += block.orbit * d
            out[g, p] += block.orbit * h
    grades = sorted({g + p for g in cx.totals for p in range(n + 1)} | {g for g, _ in dims})
    for g in grades:
        got = [dims[g, p] for p in range(n + 1)]
        expected = [comb(n, p) * cx.totals.get(g - p, 0) for p in range(n + 1)]
        if got != expected:
            raise RuntimeError(
                f"weight blocks of grade {g} times orbits give cochain "
                f"dimensions {got}, expected {expected}"
            )
    return {g: tuple(out[g, p] for p in range(n + 1)) for g in grades}
