"""Sparse exact matrices over the rationals.

``ExactMatrix`` has one representation: sparse integer rows and one
positive integer ``scale``, standing for the rational matrix rows /
scale.  Every builder writes integer rows, every product multiplies
them, and every elimination reduces them as they are; a matrix is never
mutated after it is built.  A positive scale keeps all of that exact:
dividing every row by the same positive number changes neither the row
space (so neither the rank, the kernel, nor the reduced echelon form)
nor whether a product vanishes, since (A / a)(B / b) = AB / (ab) is zero
exactly when the integer product AB is.  Scales are never normalized,
so two matrices are equal when A b == B a, not when their rows are.

All eliminations go through the integer kernel in
:mod:`killingcalc.elim`, by one path: the nonzero rows are split into
blocks, reduced fraction-free, and converted back.  So results are exact
and the reduced echelon form (hence ranks, kernels and solutions) is
canonical.  A row that repeats another reduces to zero and leaves the
row space as it is, and the reduced echelon form depends on the row
space alone.  ``integer_rank`` takes integer rows that are not wrapped
in a matrix and, since a rank is a pivot count, eliminates forward
only.  ``kernel_basis`` returns integer columns with their scales, so
no elimination result passes through ``Fraction``; only the
constructor, ``columns`` and ``solve`` handle ``Fraction`` values, and
they import it where they run.

Every elimination reduces one connected component of the nonzero
pattern at a time (rows and columns joined by shared entries), so no
reduction is ever larger than a block.  That is exact with no check
afterwards.  Permuting rows and columns by component makes the matrix
block-diagonal, so its rank is the sum of the block ranks, and the
reduced echelon form is the union of the blocks' forms with the rows
sorted by pivot column: that union is in reduced echelon form, has the
same row space, and the reduced echelon form of a row space is unique.
Hence the pivots, the kernel basis and the free-variables-zero solution
are the ones a reduction of the whole matrix gives.  The equivariant
differentials and constraint matrices fall apart this way into their
torus-weight blocks.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING

from killingcalc import elim

if TYPE_CHECKING:  # imported where the values are: the constructor, columns, solve
    from fractions import Fraction

__all__ = [
    "ExactMatrix",
    "rref",
    "rank",
    "integer_rank",
    "kernel_basis",
    "solve",
]


class ExactMatrix:
    """A rows x cols rational matrix as sparse integer rows over one
    positive scale: entry (r, c) is ``data[r].get(c, 0) / scale``.

    ``data`` holds one dict column -> nonzero int per row, zero rows
    included as empty dicts.
    """

    __slots__ = ("rows", "cols", "data", "scale")

    def __init__(self, rows: int, cols: int, entries=None):
        """The matrix of a dict (row, col) -> value, zero values skipped;
        values are coerced by ``Fraction`` and cleared to integers by the
        lcm of their denominators."""
        from fractions import Fraction

        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        values = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry index ({r}, {c}) outside {rows}x{cols}")
            v = Fraction(v)
            if v:
                values[(r, c)] = v
        scale = lcm(1, *(v.denominator for v in values.values()))
        data: list[dict[int, int]] = [{} for _ in range(rows)]
        for (r, c), v in values.items():
            data[r][c] = v.numerator * (scale // v.denominator)
        self.rows, self.cols, self.data, self.scale = rows, cols, data, scale

    @classmethod
    def from_int_rows(cls, cols: int, data: list[dict[int, int]], scale: int = 1) -> "ExactMatrix":
        """Wrap integer rows as they are, with none of the constructor's
        checks.  The caller guarantees every row is a dict from columns
        in 0..cols-1 to nonzero ints, the scale is a positive int, and
        nothing else mutates ``data``."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.data, m.scale = len(data), cols, data, scale
        return m

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls.from_int_rows(n, [{i: 1} for i in range(n)])

    @classmethod
    def from_columns(cls, cols_list, rows: int) -> "ExactMatrix":
        """Build from an iterable of sparse columns (dicts row -> value)."""
        entries = {}
        ncols = 0
        for c, col in enumerate(cols_list):
            ncols += 1
            for r, v in col.items():
                entries[(r, c)] = v
        return cls(rows, ncols, entries)

    def columns(self) -> list[dict[int, Fraction]]:
        """The columns as sparse dicts row -> ``Fraction``, rows ascending."""
        from fractions import Fraction

        cols: list[dict[int, Fraction]] = [dict() for _ in range(self.cols)]
        for r, row in enumerate(self.data):
            for c, v in row.items():
                cols[c][r] = Fraction(v, self.scale)
        return cols

    def transpose(self) -> "ExactMatrix":
        data: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for r, row in enumerate(self.data):
            for c, v in row.items():
                data[c][r] = v
        return ExactMatrix.from_int_rows(self.rows, data, self.scale)

    def is_zero(self) -> bool:
        return not any(self.data)

    def __eq__(self, other) -> bool:
        """A / a == B / b for another ``ExactMatrix``, compared as A b == B a."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        a, b = self.scale, other.scale
        return all(
            {c: v * b for c, v in x.items()} == {c: v * a for c, v in y.items()}
            for x, y in zip(self.data, other.data)
        )

    def __repr__(self) -> str:
        nnz = sum(len(row) for row in self.data)
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={nnz}, scale={self.scale})"

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Matrix product: the integer rows multiply, the scales multiply."""
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self!r} by {other!r}")
        # rows of self * other are the columns of other^T * self^T
        data = elim.spmul_int(other.data, self.data)
        return ExactMatrix.from_int_rows(other.cols, data, self.scale * other.scale)


def _blocks(rows, ncols: int) -> list[list[dict[int, int]]]:
    """Connected components of the nonzero pattern of integer rows on
    ncols columns, as lists of rows.

    A union-find over the columns joins the columns of each row, in
    O(nnz); a row's block is the one of its first column.  Zero rows
    and zero columns belong to no block.
    """
    rows = [row for row in rows if row]
    parent = list(range(ncols))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in rows:
        it = iter(row)
        a = find(next(it))
        for c in it:
            b = find(c)
            if a != b:
                parent[b] = a
    blocks: dict[int, list[dict[int, int]]] = {}
    for row in rows:
        blocks.setdefault(find(next(iter(row))), []).append(row)
    return list(blocks.values())


def _reduce(block: list[dict[int, int]], reduced: bool = True):
    """(cols, pivots, rows) of one block: ``elim.rref_int`` of its rows on
    its columns renumbered 0.. in ascending order, so that local pivots
    ascend with global ones; ``cols[k]`` is the global index of local
    column k."""
    cols = sorted({c for row in block for c in row})
    local = {c: k for k, c in enumerate(cols)}
    int_rows = [{local[c]: v for c, v in row.items()} for row in block]
    pivots, rows = elim.rref_int(int_rows, len(cols), reduced)
    return cols, pivots, rows


def integer_rank(rows, ncols: int) -> int:
    """Rank of the sparse integer rows (dicts column -> nonzero int) on
    ncols columns: the summed pivot counts of their blocks, each
    eliminated forward only."""
    return sum(len(_reduce(block, False)[1]) for block in _blocks(rows, ncols))


def _rref_rows(m: ExactMatrix) -> list[tuple[int, dict[int, int]]]:
    """(pivot column, reduced row) pairs of m's reduced echelon form,
    sorted by pivot column.  Each row is in integers, with content 1 and
    a positive pivot entry; divided by that entry it is the reduced row."""
    out = []
    for block in _blocks(m.data, m.cols):
        cols, pivots, rows = _reduce(block)
        for p, row in zip(pivots, rows):
            out.append((cols[p], {cols[k]: v for k, v in row.items()}))
    out.sort(key=lambda pr: pr[0])
    return out


def rref(m: ExactMatrix) -> tuple[list[int], ExactMatrix]:
    """Pivot columns and the canonical reduced row echelon form."""
    red = _rref_rows(m)
    scale = lcm(1, *(row[p] for p, row in red))
    data = [{c: v * (scale // row[p]) for c, v in row.items()} for p, row in red]
    return [p for p, _ in red], ExactMatrix.from_int_rows(m.cols, data, scale)


def rank(m: ExactMatrix) -> int:
    """Rank of m: the ``integer_rank`` of its rows as they are."""
    return integer_rank(m.data, m.cols)


def kernel_basis(m: ExactMatrix) -> list[tuple[dict[int, int], int]]:
    """Canonical basis of the right kernel, one vector per free column,
    in integers: a list of (column, scale) pairs, the vector being
    column / scale.

    The vector for free column f has a 1 in slot f and the negated
    reduced column above the pivots: with pivot row ``row`` of pivot p
    holding v at f, the value at p is -v / row[p].  The scale is the lcm
    of those denominators in lowest terms, so the column holds
    -v * scale // row[p] at p and ``scale`` at f, and has content 1.
    Vectors are ordered by ascending free column, and each one's slots
    ascend.
    """
    red = _rref_rows(m)
    pivots = {p for p, _ in red}
    entries: dict[int, list[tuple[int, int, int]]] = {
        f: [] for f in range(m.cols) if f not in pivots
    }
    for p, row in red:
        for c, v in row.items():
            if c != p:
                entries[c].append((p, v, row[p]))
    out = []
    for f, slots in entries.items():
        scale = lcm(1, *(d // gcd(v, d) for _, v, d in slots))
        col = {p: -v * scale // d for p, v, d in slots}
        col[f] = scale
        out.append((col, scale))
    return out


def solve(m: ExactMatrix, b) -> list[Fraction] | None:
    """One exact solution of m x = b (free variables 0), or None.

    With m = A / s the system is A x = s b.  Row r of the integer system
    ``[A | s b]`` is row r of A with s b_r appended in column m.cols, the
    whole row multiplied by the denominator of s b_r.  Only the block of
    that system holding the right-hand side needs reducing: every other
    block has a zero right-hand side, so it is consistent and its pivot
    variables are 0.
    """
    from fractions import Fraction

    bvec = list(b)
    if len(bvec) != m.rows:
        raise ValueError("right-hand side length mismatch")
    rhs = m.cols
    aug = []
    for row, v in zip(m.data, bvec):
        v = Fraction(v) * m.scale
        if v:
            row = {c: x * v.denominator for c, x in row.items()}
            row[rhs] = v.numerator
        aug.append(row)
    x = [Fraction(0)] * m.cols
    for block in _blocks(aug, m.cols + 1):
        if any(rhs in row for row in block):
            cols, pivots, rows = _reduce(block)
            last = len(cols) - 1  # rhs is the block's last column
            if pivots[-1] == last:
                return None
            for p, row in zip(pivots, rows):
                if last in row:
                    x[cols[p]] = Fraction(row[last], row[p])
    return x
