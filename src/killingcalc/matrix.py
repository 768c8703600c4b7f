"""Sparse exact matrices over the rationals.

``ExactMatrix`` stores only nonzero entries and is treated as immutable
by every function here.  All eliminations go through the integer kernel
in :mod:`killingcalc.elim`, by one path: each row is cleared of
denominators once, rows that repeat exactly are dropped, the rest are
split into blocks, reduced fraction-free, and converted back.  So
results are exact and the reduced echelon form (hence ranks, kernels
and solutions) is canonical.  Clearing multiplies a row by a positive
integer and dropping a repeat removes a row already present; neither
changes the row space, and the reduced echelon form depends on the row
space alone.  ``integer_rank`` takes rows that are integers already,
from builders that write them directly.

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

import json
from fractions import Fraction
from math import lcm

from killingcalc import elim
from killingcalc.rationals import format_rational, parse_rational

__all__ = [
    "ExactMatrix",
    "rref",
    "rank",
    "integer_rank",
    "kernel_basis",
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
    def _trusted(cls, rows: int, cols: int, entries) -> "ExactMatrix":
        """Wrap entries as they are, with none of the constructor's checks.

        The caller guarantees the constructor's result would be the same:
        ``entries`` is a dict from (row, col) with 0 <= row < rows and
        0 <= col < cols to nonzero ``Fraction`` values, and nothing else
        holds it.  Builders outside this module may use it when every
        entry is a known nonzero ``Fraction`` (for example +-1 times an
        entry of another ``ExactMatrix``) placed by closed-form indices.
        """
        m = cls.__new__(cls)
        m.rows, m.cols, m.entries = rows, cols, entries
        return m

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

    def columns(self) -> list[dict[int, Fraction]]:
        cols: list[dict[int, Fraction]] = [dict() for _ in range(self.cols)]
        for (r, c), v in self.entries.items():
            cols[c][r] = v
        return cols

    def dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.cols for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix._trusted(
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
        return ExactMatrix._trusted(self.rows, other.cols, entries)

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
        return ExactMatrix._trusted(self.rows, self.cols + other.cols, entries)

    def vstack(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.cols:
            raise ValueError("column count mismatch")
        entries = dict(self.entries)
        for (r, c), v in other.entries.items():
            entries[(r + self.rows, c)] = v
        return ExactMatrix._trusted(self.rows + other.rows, self.cols, entries)

    def submatrix(self, row_indices, col_indices) -> "ExactMatrix":
        rmap = {r: i for i, r in enumerate(row_indices)}
        cmap = {c: j for j, c in enumerate(col_indices)}
        entries = {
            (rmap[r], cmap[c]): v
            for (r, c), v in self.entries.items()
            if r in rmap and c in cmap
        }
        return ExactMatrix._trusted(len(rmap), len(cmap), entries)

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


def _int_rows(m: ExactMatrix) -> list[dict[int, int]]:
    """The nonzero rows of m, each cleared of denominators once."""
    rows: dict[int, dict[int, Fraction]] = {}
    for (r, c), v in m.entries.items():
        rows.setdefault(r, {})[c] = v
    return [_clear_row(row) for row in rows.values()]


def _blocks(rows, ncols: int) -> list[list[dict[int, int]]]:
    """Connected components of the nonzero pattern of integer rows on
    ncols columns, as lists of rows, with exact repeats dropped.

    A union-find over the columns joins the columns of each row, in
    O(nnz); a row's block is the one of its first column.  Zero rows
    and zero columns belong to no block.
    """
    unique = list({frozenset(row.items()): row for row in rows if row}.values())
    parent = list(range(ncols))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in unique:
        it = iter(row)
        a = find(next(it))
        for c in it:
            b = find(c)
            if a != b:
                parent[b] = a
    blocks: dict[int, list[dict[int, int]]] = {}
    for row in unique:
        blocks.setdefault(find(next(iter(row))), []).append(row)
    return list(blocks.values())


def _reduce(block: list[dict[int, int]]):
    """(cols, pivots, rows) of one block: ``elim.rref_int`` of its rows on
    its columns renumbered 0.. in ascending order, so that local pivots
    ascend with global ones; ``cols[k]`` is the global index of local
    column k."""
    cols = sorted({c for row in block for c in row})
    local = {c: k for k, c in enumerate(cols)}
    int_rows = [{local[c]: v for c, v in row.items()} for row in block]
    pivots, rows = elim.rref_int(int_rows, len(cols))
    return cols, pivots, rows


def integer_rank(rows, ncols: int) -> int:
    """Rank of the sparse integer rows (dicts column -> nonzero int) on
    ncols columns: the summed pivot counts of their blocks."""
    return sum(len(_reduce(block)[1]) for block in _blocks(rows, ncols))


def _rref_rows(m: ExactMatrix) -> list[tuple[int, dict[int, Fraction]]]:
    """(pivot column, reduced row) pairs of m's reduced echelon form, rows
    divided by their pivots and sorted by pivot column."""
    out = []
    for block in _blocks(_int_rows(m), m.cols):
        cols, pivots, rows = _reduce(block)
        for p, row in zip(pivots, rows):
            piv = row[p]
            out.append((cols[p], {cols[k]: Fraction(v, piv) for k, v in row.items()}))
    out.sort(key=lambda pr: pr[0])
    return out


def rref(m: ExactMatrix) -> tuple[list[int], ExactMatrix]:
    """Pivot columns and the canonical reduced row echelon form."""
    red = _rref_rows(m)
    entries = {(i, c): v for i, (_, row) in enumerate(red) for c, v in row.items()}
    return [p for p, _ in red], ExactMatrix._trusted(len(red), m.cols, entries)


def rank(m: ExactMatrix) -> int:
    """Rank of m, the ``integer_rank`` of its cleared rows."""
    return integer_rank(_int_rows(m), m.cols)


def kernel_basis(m: ExactMatrix) -> list[dict[int, Fraction]]:
    """Canonical basis of the right kernel, one sparse column per free column.

    The vector for free column f has a 1 in slot f, the negated reduced
    column above the pivots, and zeros elsewhere; vectors are ordered by
    ascending free column, and each one's slots ascend.
    """
    red = _rref_rows(m)
    pivots = {p for p, _ in red}
    vecs: dict[int, dict[int, Fraction]] = {
        f: {} for f in range(m.cols) if f not in pivots
    }
    for p, row in red:
        for c, v in row.items():
            if c != p:
                vecs[c][p] = -v
    for f, vec in vecs.items():
        vec[f] = Fraction(1)
    return list(vecs.values())


def solve(m: ExactMatrix, b) -> list[Fraction] | None:
    """One exact solution of m x = b (free variables 0), or None.

    Only the block of ``[m | b]`` holding the right-hand side needs
    reducing: every other block has a zero right-hand side, so it is
    consistent and its pivot variables are 0.
    """
    bvec = list(b)
    if len(bvec) != m.rows:
        raise ValueError("right-hand side length mismatch")
    aug = m.hstack(
        ExactMatrix(m.rows, 1, {(r, 0): Fraction(v) for r, v in enumerate(bvec) if v})
    )
    x = [Fraction(0)] * m.cols
    for block in _blocks(_int_rows(aug), aug.cols):
        if any(m.cols in row for row in block):
            cols, pivots, rows = _reduce(block)
            rhs = len(cols) - 1  # m.cols is the block's last column
            if pivots[-1] == rhs:
                return None
            for p, row in zip(pivots, rows):
                if rhs in row:
                    x[cols[p]] = Fraction(row[rhs], row[p])
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
