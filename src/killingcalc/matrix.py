"""Sparse exact matrices over the rationals.

``ExactMatrix`` stores only nonzero entries and is treated as immutable
by every function here.  All eliminations go through the integer kernel
in :mod:`killingcalc.elim`: rows are cleared of denominators, reduced
fraction-free, and converted back, so results are exact and the reduced
echelon form (hence ranks, kernels and solutions) is canonical.

``rank`` needs no echelon form, so it reduces each connected component
of the nonzero pattern (rows and columns joined by shared entries) on
its own and adds up the pivot counts.  That is exact: permuting rows and
columns by component makes the matrix block-diagonal, and rank adds over
diagonal blocks.  ``rref``, ``kernel_basis``, ``image_basis``, ``solve``
and ``ColumnSolver`` reduce the whole matrix.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm

from killingcalc import elim
from killingcalc.rationals import format_rational, parse_rational

__all__ = [
    "ExactMatrix",
    "ColumnSolver",
    "rref",
    "rank",
    "kernel_basis",
    "image_basis",
    "solve",
    "row_space_rref",
]


class ExactMatrix:
    """A rows x cols matrix of Fractions, sparse on (row, col) keys."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        self.rows = rows
        self.cols = cols
        clean: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in (entries or {}).items():
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry index ({r}, {c}) outside {rows}x{cols}")
            v = Fraction(v)
            if v:
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_rows(cls, data) -> "ExactMatrix":
        data = [list(row) for row in data]
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        entries = {
            (r, c): Fraction(v)
            for r, row in enumerate(data)
            for c, v in enumerate(row)
            if v
        }
        return cls(rows, cols, entries)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def zero(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols)

    @classmethod
    def from_columns(cls, cols_list, rows: int) -> "ExactMatrix":
        """Build from an iterable of sparse columns (dicts row -> value)."""
        entries = {}
        ncols = 0
        for c, col in enumerate(cols_list):
            ncols += 1
            for r, v in col.items():
                if v:
                    entries[(r, c)] = Fraction(v)
        return cls(rows, ncols, entries)

    def at(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), Fraction(0))

    def row(self, r: int) -> dict[int, Fraction]:
        return {c: v for (i, c), v in self.entries.items() if i == r}

    def column(self, c: int) -> dict[int, Fraction]:
        return {r: v for (r, j), v in self.entries.items() if j == c}

    def columns(self) -> list[dict[int, Fraction]]:
        cols: list[dict[int, Fraction]] = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def sparse_rows(self) -> list[dict[int, Fraction]]:
        rows: list[dict[int, Fraction]] = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()}
        )

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        raise TypeError("ExactMatrix is not hashable")

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        entries = dict(self.entries)
        for k, v in other.entries.items():
            w = entries.get(k, Fraction(0)) + v
            if w:
                entries[k] = w
            elif k in entries:
                del entries[k]
        return ExactMatrix(self.rows, self.cols, entries)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + other.scale(Fraction(-1))

    def scale(self, a) -> "ExactMatrix":
        a = Fraction(a)
        if not a:
            return ExactMatrix.zero(self.rows, self.cols)
        return ExactMatrix(
            self.rows, self.cols, {k: a * v for k, v in self.entries.items()}
        )

    def __mul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Matrix product, computed on denominator-cleared integers."""
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self!r} by {other!r}")
        la, a_cols = _clear_matrix_cols(self)
        lb, b_cols = _clear_matrix_cols(other)
        prod = elim.spmul_int(a_cols, b_cols)
        scale = Fraction(1, la * lb)
        entries = {
            (r, c): v * scale for c, col in enumerate(prod) for r, v in col.items()
        }
        return ExactMatrix(self.rows, other.cols, entries)

    def apply(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Apply to a sparse column vector, returning a sparse column."""
        cols = self.columns()
        acc: dict[int, Fraction] = {}
        for j, f in vec.items():
            if not f:
                continue
            for r, v in cols[j].items():
                w = acc.get(r, Fraction(0)) + f * v
                if w:
                    acc[r] = w
                elif r in acc:
                    del acc[r]
        return acc

    def hstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        entries = dict(self.entries)
        for (r, c), v in other.entries.items():
            entries[(r, c + self.cols)] = v
        return ExactMatrix(self.rows, self.cols + other.cols, entries)

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        entries = dict(self.entries)
        for (r, c), v in other.entries.items():
            entries[(r + self.rows, c)] = v
        return ExactMatrix(self.rows + other.rows, self.cols, entries)

    def submatrix(self, row_indices, col_indices) -> "ExactMatrix":
        rmap = {r: i for i, r in enumerate(row_indices)}
        cmap = {c: j for j, c in enumerate(col_indices)}
        entries = {
            (rmap[r], cmap[c]): v
            for (r, c), v in self.entries.items()
            if r in rmap and c in cmap
        }
        return ExactMatrix(len(rmap), len(cmap), entries)

    def to_json_dict(self) -> dict:
        triples = sorted((r, c, format_rational(v)) for (r, c), v in self.entries.items())
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[r, c, s] for r, c, s in triples],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExactMatrix":
        entries = {}
        for r, c, s in d["entries"]:
            entries[(int(r), int(c))] = parse_rational(s)
        return cls(int(d["rows"]), int(d["cols"]), entries)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, s: str) -> "ExactMatrix":
        return cls.from_json_dict(json.loads(s))


def _clear_row(row: dict[int, Fraction]) -> dict[int, int]:
    mult = lcm(*(v.denominator for v in row.values())) if row else 1
    return {c: v.numerator * (mult // v.denominator) for c, v in row.items()}


def _clear_matrix_cols(m: ExactMatrix):
    """Scale the whole matrix to integers; returns (multiplier, columns)."""
    mult = 1
    for v in m.entries.values():
        mult = lcm(mult, v.denominator)
    cols: list[dict[int, int]] = [dict() for _ in range(m.cols)]
    for (r, c), v in m.entries.items():
        cols[c][r] = v.numerator * (mult // v.denominator)
    return mult, cols


def _rref_data(m: ExactMatrix):
    """(pivots, integer-scaled reduced rows) for m; rows have content 1."""
    int_rows = [_clear_row(row) for row in m.sparse_rows()]
    return elim.rref_int(int_rows, m.cols)


def rref(m: ExactMatrix) -> tuple[list[int], ExactMatrix]:
    """Pivot columns and the canonical reduced row echelon form."""
    pivots, int_rows = _rref_data(m)
    entries = {}
    for i, row in enumerate(int_rows):
        piv = Fraction(row[pivots[i]])
        for c, v in row.items():
            entries[(i, c)] = Fraction(v) / piv
    return pivots, ExactMatrix(len(pivots), m.cols, entries)


def rank(m: ExactMatrix) -> int:
    """Rank of m, summed over the blocks of its nonzero pattern.

    A union-find over ``m.entries`` joins every row to the columns of its
    nonzero entries, in O(nnz), and ``elim.rref_int`` reduces each
    connected component on its own.  Ordering rows and columns by
    component makes m block-diagonal, and rank adds over diagonal
    blocks, so the summed pivot counts are the exact rank.  The
    equivariant differentials of the complexes fall apart this way into
    their torus-weight blocks.
    """
    parent = list(range(m.rows + m.cols))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for r, c in m.entries:
        a, b = find(r), find(m.rows + c)
        if a != b:
            parent[a] = b
    blocks: dict[int, dict[int, dict[int, Fraction]]] = {}
    for (r, c), v in m.entries.items():
        blocks.setdefault(find(r), {}).setdefault(r, {})[c] = v
    total = 0
    for rows in blocks.values():
        local: dict[int, int] = {}
        int_rows = [
            _clear_row({local.setdefault(c, len(local)): v for c, v in row.items()})
            for row in rows.values()
        ]
        pivots, _ = elim.rref_int(int_rows, len(local))
        total += len(pivots)
    return total


def kernel_basis(m: ExactMatrix) -> list[list[Fraction]]:
    """Canonical basis of the right kernel, one vector per free column.

    The vector for free column f has a 1 in slot f, the negated reduced
    column above the pivots, and zeros elsewhere; vectors are ordered by
    ascending free column.
    """
    pivots, red = rref(m)
    pivot_set = set(pivots)
    red_cols = red.columns()
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for i, val in red_cols[f].items():
            v[pivots[i]] = -val
        basis.append(v)
    return basis


def image_basis(m: ExactMatrix) -> list[list[Fraction]]:
    """Original columns of m sitting at the pivot positions."""
    pivots, _ = _rref_data(m)
    cols = m.columns()
    out = []
    for p in pivots:
        v = [Fraction(0)] * m.rows
        for r, val in cols[p].items():
            v[r] = val
        out.append(v)
    return out


def solve(m: ExactMatrix, b) -> list[Fraction] | None:
    """One exact solution of m x = b (free variables 0), or None."""
    bvec = list(b)
    if len(bvec) != m.rows:
        raise ValueError("right-hand side length mismatch")
    aug = m.hstack(
        ExactMatrix(m.rows, 1, {(r, 0): Fraction(v) for r, v in enumerate(bvec) if v})
    )
    pivots, red = rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    last = red.columns()[m.cols] if red.cols > m.cols else {}
    for i, val in last.items():
        x[pivots[i]] = val
    return x


def row_space_rref(vectors, ncols: int) -> ExactMatrix:
    """Canonical representation of the span of the given row vectors.

    Two families of vectors span the same subspace exactly when this
    returns equal matrices.
    """
    rows = [list(v) for v in vectors]
    if any(len(r) != ncols for r in rows):
        raise ValueError("vector length mismatch")
    mat = ExactMatrix(
        len(rows),
        ncols,
        {
            (i, j): Fraction(v)
            for i, row in enumerate(rows)
            for j, v in enumerate(row)
            if v
        },
    )
    _, red = rref(mat)
    return red


class ColumnSolver:
    """Repeated exact solving against a fixed full-column-rank matrix.

    Precomputes the lexicographically first independent row set R of B
    and the inverse of B[R, :]; ``coords(y)`` then returns the unique x
    with B x = y for any y in the column span.  Membership is the
    caller's contract; ``coords_checked`` verifies it.
    """

    def __init__(self, b: ExactMatrix):
        self.b = b
        self.dim = b.cols
        pivots, _ = _rref_data(b.transpose())
        if len(pivots) != b.cols:
            raise ValueError("columns are not linearly independent")
        self.pivot_rows = pivots
        square = b.submatrix(pivots, range(b.cols))
        aug = square.hstack(ExactMatrix.identity(b.cols))
        piv2, red = rref(aug)
        if piv2[: b.cols] != list(range(b.cols)):
            raise ValueError("row selection is singular")
        self.inverse = red.submatrix(range(b.cols), range(b.cols, 2 * b.cols))

    def coords(self, y: dict[int, Fraction]) -> list[Fraction]:
        restricted = {}
        for i, r in enumerate(self.pivot_rows):
            v = y.get(r, Fraction(0))
            if v:
                restricted[i] = v
        col = self.inverse.apply(restricted)
        out = [Fraction(0)] * self.dim
        for i, v in col.items():
            out[i] = v
        return out

    def coords_checked(self, y: dict[int, Fraction]) -> list[Fraction]:
        x = self.coords(y)
        residual = dict(y)
        for j, f in enumerate(x):
            if not f:
                continue
            for r, v in self.b.column(j).items():
                w = residual.get(r, Fraction(0)) - f * v
                if w:
                    residual[r] = w
                elif r in residual:
                    del residual[r]
        residual = {k: v for k, v in residual.items() if v}
        if residual:
            raise ValueError("vector lies outside the column span")
        return x
