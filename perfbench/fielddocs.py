"""Seeded `range-check` documents and their independent verification.

This module never imports killingcalc: it carries its own polynomial
arithmetic so that a wrong answer from the program cannot also slip into
the check.  A field is a dict mapping a 1-based index tuple to a
polynomial, and a polynomial is a dict mapping an exponent tuple to a
nonzero Fraction.

Documents come in two kinds:

* solvable: omega = sym grad X for a random covector field X; the
  program must return a potential whose symmetrized gradient is omega;
* witness: omega + w with the fixed non-gradient w (omega_11 += x_2^2);
  the program must return exactly the obstruction certificate of w,
  whose N_1212 entry is 2.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product

# (n, degree of the random potential X, kind).  The list is fixed so that
# every seed costs the same: the solver's work depends on n and the degree,
# while the seed only picks coefficients and monomials.
DOCUMENT_PLAN = (
    (3, 3, "solvable"),
    (3, 4, "solvable"),
    (3, 5, "solvable"),
    (3, 4, "witness"),
    (4, 3, "solvable"),
    (4, 4, "solvable"),
    (4, 5, "solvable"),
    (4, 4, "witness"),
)

TERMS_PER_COMPONENT = 3


def _padd(a: dict, b: dict, scale=1) -> dict:
    out = dict(a)
    for e, c in b.items():
        v = out.get(e, 0) + scale * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def _pdiff(p: dict, i: int) -> dict:
    """Partial derivative by the 0-based coordinate i."""
    out = {}
    for e, c in p.items():
        if e[i]:
            f = list(e)
            f[i] -= 1
            out[tuple(f)] = c * e[i]
    return out


def _field_add(f: dict, g: dict) -> dict:
    out = dict(f)
    for idx, p in g.items():
        s = _padd(out.get(idx, {}), p)
        if s:
            out[idx] = s
        else:
            out.pop(idx, None)
    return out


def sym_grad(X: dict, n: int) -> dict:
    """(d_a X_b + d_b X_a) / 2 for a covector field X."""
    out = {}
    for a, b in product(range(1, n + 1), repeat=2):
        s = _padd(_pdiff(X.get((b,), {}), a - 1), _pdiff(X.get((a,), {}), b - 1))
        s = {e: c / 2 for e, c in s.items()}
        if s:
            out[(a, b)] = s
    return out


def obstruction(omega: dict, n: int) -> dict:
    """N_abcd = d_a d_c w_bd - d_b d_c w_ad - d_a d_d w_bc + d_b d_d w_ac."""

    def dd(i, j, k, l):
        return _pdiff(_pdiff(omega.get((k, l), {}), j - 1), i - 1)

    out = {}
    for a, b, c, d in product(range(1, n + 1), repeat=4):
        v = _padd(dd(a, c, b, d), dd(b, c, a, d), -1)
        v = _padd(v, dd(a, d, b, c), -1)
        v = _padd(v, dd(b, d, a, c))
        if v:
            out[(a, b, c, d)] = v
    return out


def witness(n: int) -> dict:
    """The fixed non-gradient symmetric 2-tensor: omega_11 = x_2^2."""
    e = [0] * n
    e[1] = 2
    return {(1, 1): {tuple(e): Fraction(1)}}


def to_doc(field: dict, n: int, arity: int) -> dict:
    entries = []
    for idx in sorted(field):
        poly = [
            {"exp": list(e), "coef": str(c)}
            for e, c in sorted(field[idx].items(), key=lambda t: (sum(t[0]), t[0]))
        ]
        entries.append({"idx": list(idx), "poly": poly})
    return {"n": n, "arity": arity, "entries": entries}


def from_doc(doc: dict) -> tuple[int, int, dict]:
    """(n, arity, field) from a field document; repeated entries add up."""
    n, arity = int(doc["n"]), int(doc["arity"])
    field: dict = {}
    for item in doc["entries"]:
        idx = tuple(int(i) for i in item["idx"])
        poly = {}
        for t in item["poly"]:
            exp = tuple(int(x) for x in t["exp"])
            if len(exp) != n or len(idx) != arity:
                raise ValueError(f"malformed entry {item!r}")
            poly = _padd(poly, {exp: Fraction(t["coef"])})
        field = _field_add(field, {idx: poly})
    return n, arity, field


def _random_monomial(rng: random.Random, n: int, degree: int) -> tuple:
    e = [0] * n
    for _ in range(degree):
        e[rng.randrange(n)] += 1
    return tuple(e)


def random_covector(rng: random.Random, n: int, degree: int) -> dict:
    """Random polynomial covector field whose component 1 has full degree."""
    X = {}
    for a in range(1, n + 1):
        poly: dict = {}
        for t in range(TERMS_PER_COMPONENT):
            if a == 1:
                # only the first term has full degree, so nothing cancels it
                deg = degree if t == 0 else rng.randint(1, degree - 1)
            else:
                deg = rng.randint(1, degree)
            coef = Fraction(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]), rng.choice([1, 1, 2, 3]))
            poly = _padd(poly, {_random_monomial(rng, n, deg): coef})
        if poly:
            X[(a,)] = poly
    return X


def generate(seed: int) -> list[dict]:
    """The seeded document batch: one dict per document with the input
    field document and what the program's answer must satisfy."""
    rng = random.Random(seed)
    out = []
    for n, degree, kind in DOCUMENT_PLAN:
        X = random_covector(rng, n, degree)
        omega = sym_grad(X, n)
        if obstruction(omega, n):
            raise RuntimeError("a symmetrized gradient has a nonzero obstruction")
        expected = None
        if kind == "witness":
            omega = _field_add(omega, witness(n))
            expected = obstruction(witness(n), n)
        out.append({
            "name": f"range.n{n}.deg{degree}.{kind}",
            "n": n,
            "kind": kind,
            "document": to_doc(omega, n, 2),
            "omega": omega,
            "certificate": expected,
        })
    return out


def check_answer(case: dict, stdout: str) -> str | None:
    """None when the program's printed answer is right, else the reason."""
    try:
        n, arity, field = from_doc(json.loads(stdout))
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable answer: {e}"
    if n != case["n"]:
        return f"answer has n={n}, expected {case['n']}"
    if case["kind"] == "solvable":
        if arity != 1:
            return f"expected a potential (arity 1), got arity {arity}"
        if sym_grad(field, n) != case["omega"]:
            return "symmetrized gradient of the potential differs from the input"
        return None
    if arity != 4:
        return f"expected a certificate (arity 4), got arity {arity}"
    if field != case["certificate"]:
        return "certificate differs from the witness certificate"
    return None
