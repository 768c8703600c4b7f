"""Integer elimination kernel.

The two hot loops behind every rank, kernel and cohomology computation
in the package:

* ``rref_int``    fraction-free Gauss-Jordan reduction of a sparse
                  integer matrix,
* ``spmul_int``   sparse integer matrix product.

Keeping the arithmetic in Python integers (no fixed-width types) makes
both exact for arbitrarily large entries.

Rows and columns are sparse dicts mapping index -> nonzero int.  Instead
of strict single-step exact division, each row is reduced by its content
(gcd of the entries) after every update; under the skip-ahead pivot
search used here this keeps entries small while staying division-safe on
rows whose leading columns vanish.  The reduced rows returned by
``rref_int`` have content 1 and a positive pivot entry, so dividing row i
by its pivot yields the canonical rational RREF, which is what the
callers in ``killingcalc.matrix`` do.
"""

from math import gcd


def _reduce_content(row, lead):
    """Divide ``row`` through by its content; sign fixed by column ``lead``."""
    g = 0
    for v in row.values():
        g = gcd(g, v)
    if g == 0:
        return
    if lead is not None and row.get(lead, 0) < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


def rref_int(rows, ncols):
    """Reduce sparse integer rows; returns (pivot columns, reduced rows).

    Pivot selection scans columns left to right and takes the first
    remaining row with a nonzero entry in that column.  The result is the
    (unique) reduced row echelon form up to positive row scaling.
    """
    rows = [dict(r) for r in rows]
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        src = -1
        for i in range(r, nrows):
            if rows[i].get(c, 0):
                src = i
                break
        if src < 0:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        piv_row = rows[r]
        _reduce_content(piv_row, c)
        piv = piv_row[c]
        for i in range(nrows):
            if i == r:
                continue
            row = rows[i]
            f = row.get(c, 0)
            if not f:
                continue
            new = {}
            for k, v in row.items():
                new[k] = v * piv
            for k, v in piv_row.items():
                w = new.get(k, 0) - f * v
                if w:
                    new[k] = w
                elif k in new:
                    del new[k]
            _reduce_content(new, None)
            rows[i] = new
        pivots.append(c)
        r += 1
    return pivots, rows[:r]


def spmul_int(a_cols, b_cols):
    """Sparse integer product: column j of the result is sum_i B[i,j] * A[:,i].

    Both arguments and the result are matrices stored column-wise as
    lists of dicts mapping row index -> int.
    """
    out = []
    for bc in b_cols:
        acc = {}
        for i, f in bc.items():
            for r, v in a_cols[i].items():
                w = acc.get(r, 0) + f * v
                if w:
                    acc[r] = w
                elif r in acc:
                    del acc[r]
        out.append(acc)
    return out
