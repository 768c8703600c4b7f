"""Integer elimination kernel.

The two hot loops behind every rank, kernel and cohomology computation
in the package:

* ``rref_int``    fraction-free elimination of a sparse integer matrix:
                  Gauss-Jordan, or forward only for a rank,
* ``spmul_int``   sparse integer matrix product.

Keeping the arithmetic in Python integers (no fixed-width types) makes
both exact for arbitrarily large entries.

Rows and columns are sparse dicts mapping index -> nonzero int.  Columns
are eliminated left to right.  The pivot of a column is the remaining
row with the fewest entries that is nonzero there (the row half of
Markowitz pivoting), which limits fill-in and coefficient growth; the
scan stops early at a row with one entry, which cannot be beaten.  The
remaining rows are filed by their least column, so the candidates of a
column are read off at once, never searched for among the other rows.
Instead of strict single-step exact division, each row is reduced by its
content (gcd of the entries) after every update.  The reduced rows
returned by ``rref_int`` have content 1 and a positive pivot entry, so
dividing row i by its pivot yields the canonical rational RREF, which is
what the callers in ``killingcalc.matrix`` do.  The reduced echelon form
of a row space is unique, so the pivot rule changes the work, never the
result.

With ``reduced=False`` a column is eliminated only from the rows that
are still candidates for later pivots, not from the pivot rows above.
That is a forward echelon form: its pivot count is the rank over Q, and
its rows span the row space, but they are not reduced.  Only
``matrix.integer_rank`` asks for it.
"""

from math import gcd


def _reduce_content(row, lead):
    """Divide ``row`` through by its content; sign fixed by column ``lead``."""
    if not row:
        return
    g = gcd(*row.values())
    if lead is not None and row[lead] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


def rref_int(rows, ncols, reduced=True):
    """Reduce sparse integer rows; returns (pivot columns, pivot rows).

    Columns are taken left to right, and the pivot of a column is the
    shortest remaining row that is nonzero there.  The remaining rows
    are kept by their least column: eliminating each column from every
    remaining row that holds it leaves them all starting to its right,
    so the candidates of a column are exactly the rows that start there.
    With ``reduced`` the column is cleared from the pivot rows above as
    well, and the result is the (unique) reduced row echelon form up to
    positive row scaling; without, the pivot count is the rank.
    """
    by_lead: dict[int, list[dict]] = {}
    for row in rows:
        if row:
            by_lead.setdefault(min(row), []).append(dict(row))
    pivots = []
    done = []
    for c in range(ncols):
        if not by_lead:
            break
        cands = by_lead.pop(c, None)
        if cands is None:
            continue
        piv_row = cands[0]
        for row in cands:
            if len(row) < len(piv_row):
                piv_row = row
                if len(row) == 1:
                    break
        _reduce_content(piv_row, c)
        for row in cands:
            if row is not piv_row:
                row = _eliminate(row, piv_row, c)
                if row:
                    by_lead.setdefault(min(row), []).append(row)
        if reduced:
            for i, row in enumerate(done):
                if c in row:
                    done[i] = _eliminate(row, piv_row, c)
        pivots.append(c)
        done.append(piv_row)
    return pivots, done


def _eliminate(row, piv_row, c):
    """``row`` with column c cleared by the pivot row of column c, as a
    new row of content 1."""
    f = row[c]
    piv = piv_row[c]
    new = dict(row) if piv == 1 else {k: v * piv for k, v in row.items()}
    for k, v in piv_row.items():
        w = new.get(k, 0) - f * v
        if w:
            new[k] = w
        else:
            del new[k]
    _reduce_content(new, None)
    return new


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
