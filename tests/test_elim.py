"""Invariants of the integer elimination kernel that every rank, kernel
and cohomology computation funnels through."""

from __future__ import annotations

import random
from math import gcd

from killingcalc import elim


def _rand_rows(rng: random.Random, nrows: int, ncols: int):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < 0.5:
                v = rng.randint(-20, 20)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def test_rref_int_rows_have_unit_content_and_positive_pivots():
    rng = random.Random(47)
    for _ in range(30):
        ncols = rng.randint(1, 8)
        rows = _rand_rows(rng, rng.randint(1, 8), ncols)
        pivots, red = elim.rref_int(rows, ncols)
        assert len(pivots) == len(red)
        for p, row in zip(pivots, red):
            assert row[p] > 0
            g = 0
            for v in row.values():
                g = gcd(g, v)
            assert g == 1
