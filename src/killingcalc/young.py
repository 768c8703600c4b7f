"""Young diagrams, symmetry classes and dimension formulas.

Dimension conventions, stated once and used everywhere:

* the content of cell (i, j) (1-based row i, column j) is j - i;
* the hook length of (i, j) is arm + leg + 1, the arm counting cells to
  the right in row i and the leg cells below in column j;
* the GL(n) dimension of a diagram is the product over cells of
  (n + content) / hook, zero when the diagram has more than n rows;
* for sl(r+1) with Dynkin labels (a_1, ..., a_r), the Weyl dimension is
  the product over 1 <= i <= j <= r of
  (a_i + ... + a_j + j - i + 1) / (j - i + 1).

``kostka`` counts semistandard tableaux: K_{lambda, mu} is the number of
fillings of shape lambda with mu_i entries equal to i, rows weakly
increasing and columns strictly increasing.  It is the dimension of the
weight-mu space of the GL(n) module of shape lambda, and it does not
depend on the order of mu's entries (Macdonald, *Symmetric Functions and
Hall Polynomials*, ch. I).  A torus weight is a vector in Z^n: the count
of each index value 1..n in a key, and ``weight_key`` is the
nondecreasing key of a weight.  S_n permutes the entries of a weight;
it is dominant when they do not increase, and ``orbit_size`` counts its
distinct permutations.  The dominant block mu of ``chain``, ``tractor``
or ``killing`` reads the weights w for which mu - w is an allowed shift
(0/1 for forms, degree <= D + 1 for polynomial sections, degree <= D
and D - 1 for the Killing operator's columns and rows), so each lists
its blocks from the weights it has, of module columns or of symmetric
keys, with ``dominant_lifts``.

``realize_irreducible`` produces explicit weight spaces of a subspace of
a tensor power carrying the given symmetry type.  The diagram's row
count picks one of two presentations:

* one row (a): a single symmetric group of a indices;
* two rows (a, b): tensors symmetric in a first group of b and a second
  group of a indices, with the symmetrization of the last first-group
  index across the whole second group vanishing.

Diagrams with more rows are refused.

Bases are realized one torus weight at a time.  The constraint rows
(``sym_extend_row``: the symmetrization of the last first-group index
across the second group) preserve the weight, so the constraint matrix
is block-diagonal by weight, and the canonical kernel basis of a
block-diagonal matrix is the union of its blocks' canonical kernel
bases: the weight-w columns come from the weight-w rows alone.  Each
weight space is memoized per (shape, n, w), kept as integer columns over
a per-column scale exactly as ``matrix.kernel_basis`` returns them, and
certified: its dimension must be the Kostka number of its weight.  The
union of every weight space, ordered by lead key (``ordered_columns``),
is the whole basis; the callers number their columns in that order and
never assemble it.

Every weight space is in reduced shape: its columns are the canonical
kernel basis of its constraint rows (the identity when there are no
constraints), so each column has a 1 at its own lead row where every
other column is 0.  That makes coordinates cheap: the coordinates of a
vector of the span are its values at the lead rows, and one residual
decides membership.  No second elimination is needed.
"""

from __future__ import annotations

import operator
from collections import Counter
from functools import cache, lru_cache
from itertools import chain, combinations_with_replacement
from math import factorial, lcm

from killingcalc.matrix import ExactMatrix, kernel_basis

__all__ = [
    "YoungDiagram",
    "WeightSpace",
    "gl_dimension",
    "weyl_dimension",
    "kostka",
    "weight_multiplicities",
    "orbit_size",
    "dominant_lifts",
    "bounded_compositions",
    "weight_key",
    "realize_irreducible",
    "sym_extend_row",
    "ordered_columns",
]


class YoungDiagram:
    """Weakly decreasing positive row lengths.  A diagram keys memos, so it
    equals only a diagram with the same rows, never a plain tuple."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(map(operator.index, rows))
        if any(r < 1 for r in rows):
            raise ValueError("row lengths must be positive")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError("row lengths must be weakly decreasing")
        self.rows = rows

    def __eq__(self, other) -> bool:
        return isinstance(other, YoungDiagram) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"YoungDiagram(rows={self.rows})"

    @property
    def size(self) -> int:
        return sum(self.rows)

    def conjugate(self) -> tuple[int, ...]:
        if not self.rows:
            return ()
        return tuple(
            sum(1 for r in self.rows if r >= j) for j in range(1, self.rows[0] + 1)
        )

    def cells(self):
        for i, r in enumerate(self.rows, start=1):
            for j in range(1, r + 1):
                yield i, j


def gl_dimension(d: YoungDiagram, n: int) -> int:
    """Hook-content dimension of the GL(n) module of shape d; n must be
    an integer."""
    if operator.index(n) < 1:
        raise ValueError("n must be positive")
    if len(d.rows) > n:
        return 0
    cols = d.conjugate()
    num = den = 1
    for i, j in d.cells():
        num *= n + j - i  # the content j - i
        den *= d.rows[i - 1] - j + cols[j - 1] - i + 1  # the hook: arm + leg + 1
    dim, rest = divmod(num, den)
    if rest:
        raise RuntimeError("hook-content product is not an integer")
    return dim


def weyl_dimension(label) -> int:
    """Dimension of the sl representation with the given Dynkin labels."""
    labels = tuple(map(operator.index, label))
    if any(a < 0 for a in labels):
        raise ValueError("Dynkin labels must be nonnegative")
    r = len(labels)
    num = den = 1
    for i in range(r):
        total = 0
        for j in range(i, r):
            total += labels[j]
            num *= total + j - i + 1
            den *= j - i + 1
    dim, rest = divmod(num, den)
    if rest:
        raise RuntimeError("Weyl dimension product is not an integer")
    return dim


def kostka(d: YoungDiagram, mu) -> int:
    """The Kostka number K_{d, mu}: semistandard tableaux of shape d and
    content mu, whose entries may come in any order."""
    content = tuple(sorted(map(operator.index, mu), reverse=True))
    if content and content[-1] < 0:
        raise ValueError("content entries must be nonnegative")
    return _kostka(d.rows, tuple(m for m in content if m))


@cache
def _kostka(rows: tuple[int, ...], content: tuple[int, ...]) -> int:
    """K_{rows, content} for a non-increasing positive content, by
    stripping the cells of the largest entry: they form a horizontal
    strip of content[-1] cells, no two in one column, so the inner shape
    nu has rows[i + 1] <= nu[i] <= rows[i]."""
    if sum(rows) != sum(content) or len(rows) > len(content):
        return 0
    if not content:
        return 1
    rest = content[:-1]
    total = 0

    def strip(i: int, left: int, nu: tuple[int, ...]) -> None:
        nonlocal total
        if i == len(rows):
            if not left:
                total += _kostka(tuple(r for r in nu if r), rest)
            return
        low = rows[i + 1] if i + 1 < len(rows) else 0
        for r in range(max(low, rows[i] - left), rows[i] + 1):
            strip(i + 1, left - (rows[i] - r), nu + (r,))

    strip(0, content[-1], ())
    return total


@lru_cache(maxsize=None, typed=True)
def weight_multiplicities(d: YoungDiagram, n: int) -> dict[tuple[int, ...], int]:
    """Every torus weight of the GL(n) module of shape d, with the
    dimension K_{d, w} of its weight space: the compositions w of the size
    of d into n parts with a nonzero Kostka number.  Memoized by typed
    arguments; callers must not mutate the result."""
    out = {}
    # a composition is the content of a nondecreasing key of that size
    for key in combinations_with_replacement(range(n), d.size):
        w = [0] * n
        for v in key:
            w[v] += 1
        k = kostka(d, w)
        if k:
            out[tuple(w)] = k
    return out


def orbit_size(mu) -> int:
    """Number of distinct permutations of the weight mu: its S_n orbit."""
    out = factorial(len(mu))
    for m in Counter(mu).values():
        out //= factorial(m)
    return out


def dominant_lifts(w, top: int, total: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every pair (s, w + s) with 0 <= s <= top entrywise, |s| <= total and
    w + s dominant, by s in lexicographic order.  s grows one entry at a
    time, dropping a prefix once w + s increases or is below a later w_i."""
    floors = [max(w[i:]) for i in range(len(w))]
    lifts = [((), ())]
    for x, floor in zip(w, floors):
        lifts = [
            (s + (k,), mu + (x + k,))
            for s, mu in lifts
            for k in range(min(top, total - sum(s)) + 1)
            if x + k >= floor and (not mu or mu[-1] >= x + k)
        ]
    return lifts


def bounded_compositions(bound: tuple[int, ...], total: int) -> list[tuple[int, ...]]:
    """The weights m with 0 <= m <= bound entrywise and entry total
    ``total``, in decreasing lexicographic order: the order of increasing
    ``weight_key``."""
    partial = [((), total)]  # (prefix, what the later entries must add)
    rest = sum(bound)
    zeros = ()  # the zero entries of the bound since the last nonzero one
    for b in bound:
        if not b:
            zeros += (0,)
            continue
        rest -= b  # the most the later entries can add
        partial = [
            (m + zeros + (k,), left - k)
            for m, left in partial
            for k in range(min(b, left), max(left - rest, 0) - 1, -1)
        ]
        zeros = ()
    return [m + zeros for m, left in partial if not left]


def weight_key(w) -> tuple[int, ...]:
    """The nondecreasing key of the torus weight w: w[v - 1] copies of
    each index value v."""
    return tuple(chain.from_iterable([(v,) * c for v, c in enumerate(w, 1) if c]))


class WeightSpace:
    """The weight-w part of a realized basis, in integers.

    ``keys`` are the keys of weight w of the basis's grouped space, in
    the space's order, and ``index`` maps each key to its position.
    Column j is the integer vector ``columns[j]`` (key position -> int)
    over the positive scale ``scales[j]``.  The columns are in reduced
    shape: column j is 1 (``scales[j]`` over its scale) at the key
    position ``leads[j]``, where every other column is 0, and the leads
    ascend.
    """

    __slots__ = ("weight", "keys", "index", "columns", "scales", "leads", "_lead_col")

    def __init__(self, weight, keys, vectors):
        """The weight space of ``weight`` spanned by the vectors of a
        canonical kernel basis, given as the (integer column over key
        positions, scale) pairs of ``matrix.kernel_basis``."""
        self.weight = weight
        self.keys = keys
        self.index = {k: i for i, k in enumerate(keys)}
        self.columns = [col for col, _ in vectors]
        self.scales = [scale for _, scale in vectors]
        self.leads = [max(col) for col in self.columns]
        self._lead_col = {r: j for j, r in enumerate(self.leads)}

    @property
    def dim(self) -> int:
        return len(self.columns)

    def coords(self, y: dict) -> dict[int, int]:
        """The coordinates of y / s, for a sparse integer vector y (key ->
        nonzero int) and any scale s: the values of y at the lead keys,
        over s.  Raises ValueError when y has a key of another weight or
        lies outside the span, decided by its residual in integers."""
        try:
            y = {self.index[k]: v for k, v in y.items()}
        except KeyError as e:
            raise ValueError(f"key {e.args[0]} has no place in weight {self.weight}") from None
        x = {self._lead_col[r]: v for r, v in y.items() if r in self._lead_col}
        scale = lcm(1, *(self.scales[j] for j in x))
        residual = {r: v * scale for r, v in y.items()}
        for j, f in x.items():
            f *= scale // self.scales[j]
            for r, v in self.columns[j].items():
                w = residual.get(r, 0) - f * v
                if w:
                    residual[r] = w
                else:
                    del residual[r]
        if residual:
            raise ValueError("vector lies outside the column span")
        return x


def _group_sizes(d: YoungDiagram) -> tuple[int, ...]:
    """Sizes of the symmetric groups of d's presentation."""
    if len(d.rows) == 1:
        return d.rows
    if len(d.rows) == 2:
        a, b = d.rows
        return (b, a)
    raise ValueError(f"no presentation realizes the shape {d.rows}: one or two rows only")


def _weight_keys(sizes: tuple[int, ...], w: tuple[int, ...]) -> list:
    """The keys of weight w of the space of one or two symmetric groups of
    the given sizes, in the space's (lexicographic) order; a group of size
    0 has the empty part.  The first group of a two-group key holds the
    weight c <= w of total sizes[0], the second w - c."""
    if len(sizes) == 1:
        return [(weight_key(w),)] if sum(w) == sizes[0] else []
    return [
        (weight_key(c), weight_key(x - y for x, y in zip(w, c)))
        for c in bounded_compositions(w, sizes[0])
    ]


def realize_irreducible(d: YoungDiagram, n: int, weights) -> dict:
    """The weight spaces of the symmetry class of shape d inside the
    tensor power: a dict from each torus weight of the iterable
    ``weights`` to its ``WeightSpace``, memoized per (shape, integer n,
    w); the memo is transparent since the construction is deterministic.
    """
    if not isinstance(d, YoungDiagram):
        d = YoungDiagram(tuple(d))
    n = operator.index(n)
    return {tuple(w): _realize_memo(d, n, tuple(w)) for w in weights}


@cache
def _realize_memo(d: YoungDiagram, n: int, w: tuple[int, ...]) -> WeightSpace:
    sizes = _group_sizes(d)
    if len(w) != n or min(w, default=0) < 0 or sum(w) != d.size:
        raise ValueError(f"{w} is not a weight of {d.rows} over n={n}")
    keys = _weight_keys(sizes, w)
    rows = []
    if len(sizes) == 2:
        # the constraint rows at the target keys of weight w
        index = {k: i for i, k in enumerate(keys)}
        for parts in _weight_keys((sizes[0] - 1, sizes[1] + 1), w):
            rows.append(sym_extend_row(parts, 0, 1, lambda src: index[tuple(src)]))
    part = WeightSpace(w, keys, kernel_basis(ExactMatrix.from_int_rows(len(keys), rows)))
    expected = kostka(d, w)
    if part.dim != expected:
        raise RuntimeError(
            f"realization of {d.rows} over n={n} produced {part.dim} basis "
            f"columns of weight {w}, the Kostka number is {expected}"
        )
    return part


def sym_extend_row(parts, i: int, j: int, index) -> dict[int, int]:
    """The integer row, over the scale len(parts[j]), of the
    symmetrization of one index of symmetric group i into symmetric group
    j, at one target key given as its parts in the source's group layout
    (an empty part where group i was dropped): a 1 at the source key with
    element t of part j moved back into part i, for each position t of
    part j.  ``index`` maps a source key, a list of parts, to its column."""
    mj = parts[j]
    row: dict[int, int] = {}
    for t in range(len(mj)):
        src = list(parts)
        src[i] = tuple(sorted(parts[i] + (mj[t],)))
        src[j] = mj[:t] + mj[t + 1 :]
        scol = index(src)
        row[scol] = row.get(scol, 0) + 1
    return row


def ordered_columns(parts: dict) -> list[tuple[tuple[int, ...], int]]:
    """The (weight, column) pairs of a dict of weight spaces in the order
    of the whole basis: by lead key."""
    return sorted(
        ((w, j) for w, part in parts.items() for j in range(part.dim)),
        key=lambda wj: parts[wj[0]].keys[parts[wj[0]].leads[wj[1]]],
    )
