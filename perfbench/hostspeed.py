"""How fast the host runs, measured on the workload's CPU while it runs.

On a shared host the same interpreter work can run 1.8x slower for
seconds or minutes at a time, and the speed flips between levels every
few seconds.  ``SpeedLoop`` runs a fixed pure-Python loop in a thread of
the harness, on the CPU the harness and its children are pinned to, at
nice ``NICE``: the kernel time-slices it with the running child, so both
see the same host at the same moments.  Each chunk of the loop records
the CPU seconds it took; a process's CPU seconds times ``REFERENCE_S /
mean chunk seconds`` during that process are its CPU seconds at the
reference speed.  The loop is the benchmark's own code and never touches
killingcalc, so a change to the program moves the program's CPU seconds
and not the chunks'.

A chunk is a fraction-free reduction of a fixed sparse integer matrix
(dict rows, Python integers, gcd content reduction): the same kind of
interpreter work as the program's hot loops.
"""

from __future__ import annotations

import os
import random
import statistics
import threading
import time
from math import gcd

# Thread CPU seconds one chunk took on the host the benchmark was written
# on (Intel Xeon, 2 vCPUs, Python 3.11) in its fast spells.
REFERENCE_S = 0.0018
# The loop's nice value: about a quarter of the CPU next to a nice-0 child.
NICE = 5

# A fixed 24x20 sparse integer matrix of full column rank.
NCOLS = RANK = 20
_rnd = random.Random(7)
MATRIX = [{c: _rnd.randint(-9, 9) or 1 for c in range(NCOLS) if _rnd.random() < 0.25} for _ in range(24)]


def _rank(rows: list[dict]) -> int:
    rows = [dict(r) for r in rows]
    r = 0
    for c in range(NCOLS):
        src = next((i for i in range(r, len(rows)) if rows[i].get(c)), -1)
        if src < 0:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        piv_row = rows[r]
        piv = piv_row[c]
        for i, row in enumerate(rows):
            f = row.get(c) if i != r else None
            if not f:
                continue
            new = {k: v * piv for k, v in row.items()}
            for k, v in piv_row.items():
                w = new.get(k, 0) - f * v
                if w:
                    new[k] = w
                else:
                    new.pop(k, None)
            g = 0
            for v in new.values():
                g = gcd(g, v)
            if g > 1:
                new = {k: v // g for k, v in new.items()}
            rows[i] = new
        r += 1
    return r


def chunk() -> float:
    """Thread CPU seconds of one fixed amount of work."""
    t0 = time.thread_time()
    rank = _rank(MATRIX)
    elapsed = time.thread_time() - t0
    if rank != RANK:
        raise AssertionError(f"speed loop computed rank {rank}, expected {RANK}")
    return elapsed


class SpeedLoop:
    """Chunks run back to back in a thread until the ``with`` block ends."""

    def __init__(self):
        self.log: list[tuple[float, float]] = []  # (perf_counter midpoint, CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-loop", daemon=True)

    def _run(self):
        try:
            os.setpriority(os.PRIO_PROCESS, threading.get_native_id(), NICE)
        except (AttributeError, OSError):
            pass
        while not self._stop.is_set():
            t0 = time.perf_counter()
            cpu = chunk()
            self.log.append(((t0 + time.perf_counter()) / 2, cpu))

    def __enter__(self) -> "SpeedLoop":
        chunk()  # warm-up, and the rank check in this thread
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float) -> float:
        """Factor from raw CPU seconds to reference seconds for a process
        that ran from ``start`` to ``end`` (``time.perf_counter``)."""
        during = [cpu for t, cpu in self.log if start <= t <= end]
        return REFERENCE_S / statistics.mean(during or [cpu for _, cpu in self.log])
