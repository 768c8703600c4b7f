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

``realize_irreducible`` produces an explicit basis of a subspace of a
tensor power carrying the given symmetry type.  The diagram's row count
picks one of two presentations:

* one row (a): a single symmetric group of a indices;
* two rows (a, b): tensors symmetric in a first group of b and a second
  group of a indices, with the symmetrization of the last first-group
  index across the whole second group vanishing.

Diagrams with more rows are refused.

Every realization asserts that its basis cardinality equals the
hook-content dimension, so an unsupported shape cannot fail silently.

Every basis is in reduced shape: its columns are the canonical kernel
basis of the constraint matrix (the identity when there are no
constraints), so each column has a 1 at its own lead row where every
other column is 0.  ``SubspaceBasis`` enforces that shape, which makes
coordinates cheap: the coordinates of a vector of the span are its
values at the lead rows, and one residual decides membership.  No second
elimination is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from killingcalc.matrix import ExactMatrix, kernel_basis
from killingcalc.symspace import SYM, Group, GroupedSpace, embed, sym_extend
from killingcalc.tensor import Tensor

__all__ = [
    "YoungDiagram",
    "DynkinLabel",
    "SubspaceBasis",
    "gl_dimension",
    "weyl_dimension",
    "realize_irreducible",
    "clear_realization_cache",
]


@dataclass(frozen=True)
class YoungDiagram:
    rows: tuple[int, ...]

    def __post_init__(self):
        rows = tuple(int(r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        if any(r < 1 for r in rows):
            raise ValueError("row lengths must be positive")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise ValueError("row lengths must be weakly decreasing")

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


@dataclass(frozen=True)
class DynkinLabel:
    """Highest weight labels for a special linear algebra of rank len(labels)."""

    labels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(int(a) for a in self.labels))
        if any(a < 0 for a in self.labels):
            raise ValueError("Dynkin labels must be nonnegative")


def gl_dimension(d: YoungDiagram, n: int) -> int:
    """Hook-content dimension of the GL(n) module of shape d."""
    if n < 1:
        raise ValueError("n must be positive")
    if len(d.rows) > n:
        return 0
    cols = d.conjugate()
    num = Fraction(1)
    for i, j in d.cells():
        content = j - i
        arm = d.rows[i - 1] - j
        leg = cols[j - 1] - i
        num *= Fraction(n + content, arm + leg + 1)
    if num.denominator != 1:
        raise RuntimeError("hook-content product is not an integer")
    return int(num)


def weyl_dimension(label) -> int:
    """Dimension of the sl representation with the given Dynkin labels."""
    labels = label.labels if isinstance(label, DynkinLabel) else tuple(label)
    if any(int(a) < 0 for a in labels):
        raise ValueError("Dynkin labels must be nonnegative")
    r = len(labels)
    out = Fraction(1)
    for i in range(r):
        total = 0
        for j in range(i, r):
            total += labels[j]
            out *= Fraction(total + j - i + 1, j - i + 1)
    if out.denominator != 1:
        raise RuntimeError("Weyl dimension product is not an integer")
    return int(out)


def _lead_rows(cols: list[dict[int, Fraction]]) -> list[int] | None:
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
    canonical and in reduced shape (see ``_lead_rows``): column j is the
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
        leads = _lead_rows(self.columns)
        if leads is None:
            raise ValueError("coordinate basis is not in reduced shape")
        self.leads = leads
        self._lead_col = {r: j for j, r in enumerate(leads)}

    @property
    def dim(self) -> int:
        return self.coord_basis.cols

    def tensor(self, j: int) -> Tensor:
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

    def weights(self, first: int = 1) -> tuple[tuple[int, ...], ...]:
        """The torus weight of every column: the count of each index value
        first..n in its lead row's key.  Raises RuntimeError when a
        column's support mixes weights."""
        keys = self.space.keys()

        def content(r: int) -> tuple[int, ...]:
            counts = [0] * (self.n - first + 1)
            for part in keys[r]:
                for v in part:
                    if v >= first:
                        counts[v - first] += 1
            return tuple(counts)

        out = []
        for j, col in enumerate(self.columns):
            w = content(self.leads[j])
            if any(content(r) != w for r in col):
                raise RuntimeError(f"basis column {j} mixes torus weights")
            out.append(w)
        return tuple(out)

    def __repr__(self) -> str:
        return f"SubspaceBasis(n={self.n}, arity={self.arity}, dim={self.dim})"


def _presentation(d: YoungDiagram, n: int):
    """(space, constraints) of a realization: the basis is the kernel of
    the constraint matrix, or the whole space when constraints is None."""
    if len(d.rows) == 1:
        return GroupedSpace(n, [Group(SYM, d.rows[0])]), None
    if len(d.rows) == 2:
        a, b = d.rows
        space = GroupedSpace(n, [Group(SYM, b), Group(SYM, a)])
        constraints, _ = sym_extend(space, 0, 1)
        return space, constraints
    raise ValueError(f"no presentation realizes the shape {d.rows}: one or two rows only")


def _realize(space: GroupedSpace, constraints) -> SubspaceBasis:
    if constraints is None:
        return SubspaceBasis(space, ExactMatrix.identity(space.dim))
    basis = ExactMatrix.from_columns(kernel_basis(constraints), constraints.cols)
    return SubspaceBasis(space, basis)


def realize_irreducible(d: YoungDiagram, n: int) -> SubspaceBasis:
    """Basis of the symmetry class of shape d inside the tensor power.

    Results are memoized per (shape, n); the memo is transparent since
    the construction is deterministic.
    """
    if not isinstance(d, YoungDiagram):
        d = YoungDiagram(tuple(d))
    return _realize_memo(d, n)


@cache
def _realize_memo(d: YoungDiagram, n: int) -> SubspaceBasis:
    result = _realize(*_presentation(d, n))
    expected = gl_dimension(d, n)
    if result.dim != expected:
        raise RuntimeError(
            f"realization of {d.rows} over n={n} produced {result.dim} basis "
            f"columns, hook content gives {expected}"
        )
    return result


clear_realization_cache = _realize_memo.cache_clear
