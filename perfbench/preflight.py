"""Environment facts and the elimination-backend agreement check.

Prints one JSON object: the elimination backend killingcalc selected
(``elim.BACKEND``, or null when the package has no such switch) and the
preflight verdict.  When the compiled twin ``killingcalc._fastelim``
imports, both backends reduce the package's own differential matrices and
a few seeded synthetic ones, and their outputs must be identical;
otherwise the preflight is skipped.  Run with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import random


def _synthetic(rng: random.Random, nrows: int, ncols: int, density: float):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() < density:
                v = rng.randint(-9, 9)
                if v:
                    row[c] = v
        rows.append(row)
    return rows


def _cases():
    from killingcalc.matrix import _clear_row
    from killingcalc.prolong import build_partial

    for n, ell, p in ((3, 2, 1), (4, 2, 1), (4, 3, 2)):
        m = build_partial(n, ell, p)
        yield f"partial n={n} ell={ell} p={p}", [_clear_row(r) for r in m.sparse_rows()], m.cols
    rng = random.Random(2024)
    yield "dense-ish 60x80", _synthetic(rng, 60, 80, 0.3), 80
    yield "sparse 200x150", _synthetic(rng, 200, 150, 0.05), 150


def main() -> None:
    try:
        from killingcalc import elim
    except ImportError:
        elim = None
    info = {"elim_backend": getattr(elim, "BACKEND", None), "preflight": "skipped", "mismatches": []}
    try:
        from killingcalc import _elim_py, _fastelim
    except ImportError:
        print(json.dumps(info))
        return
    for name, rows, ncols in _cases():
        want = _elim_py.rref_int([dict(r) for r in rows], ncols)
        got = _fastelim.rref_int([dict(r) for r in rows], ncols)
        if tuple(got) != tuple(want):
            info["mismatches"].append(name)
    info["preflight"] = "fail" if info["mismatches"] else "pass"
    print(json.dumps(info))


if __name__ == "__main__":
    main()
