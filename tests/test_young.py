from __future__ import annotations

import random
import re
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from helpers import (
    REALIZED_IDS,
    REALIZED_SHAPES,
    SYM,
    Group,
    GroupedSpace,
    SubspaceBasis,
    add_tensors,
    apply,
    clear_realization_cache,
    extract,
    slot_average,
    weight_keys_by_combinations,
    whole_basis,
    whole_realization,
)
from killingcalc import young
from killingcalc.cli import main
from killingcalc.matrix import ExactMatrix
from killingcalc.young import (
    YoungDiagram,
    gl_dimension,
    kostka,
    orbit_size,
    realize_irreducible,
    weight_multiplicities,
    weyl_dimension,
)


def _ssyt_count(shape: tuple[int, ...], n: int) -> int:
    """Brute-force count of semistandard fillings with entries in 1..n.

    Rows weakly increase left to right, columns strictly increase top to
    bottom.  Independent of the hook content formula, so it serves as an
    oracle for gl_dimension on small shapes.
    """
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]

    def rec(i: int, filled: dict) -> int:
        if i == len(cells):
            return 1
        r, c = cells[i]
        lo = 1
        if c > 0:
            lo = max(lo, filled[(r, c - 1)])
        if r > 0:
            lo = max(lo, filled[(r - 1, c)] + 1)
        total = 0
        for v in range(lo, n + 1):
            filled[(r, c)] = v
            total += rec(i + 1, filled)
        filled.pop((r, c), None)
        return total

    return rec(0, {})


SHAPES = [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (2, 2), (3, 1), (2, 1, 1), (3, 2)]


def test_diagram_validation():
    with pytest.raises(ValueError):
        YoungDiagram((1, 2))
    with pytest.raises(ValueError):
        YoungDiagram((2, 0))
    assert YoungDiagram((3, 1)).conjugate() == (2, 1, 1)
    assert YoungDiagram((3, 1)).size == 4


def test_diagram_refuses_float_rows():
    with pytest.raises(TypeError):
        YoungDiagram((2.7, 1.2))


def test_gl_dimension_refuses_a_float_n():
    with pytest.raises(TypeError):
        gl_dimension(YoungDiagram((2,)), 3.0)


def test_weyl_dimension_refuses_float_labels():
    with pytest.raises(TypeError):
        weyl_dimension((1.9,))


def test_kostka_refuses_a_float_content():
    with pytest.raises(TypeError):
        kostka(YoungDiagram((2,)), (1.5, 0.5))


def test_gl_dimension_matches_tableau_count():
    for shape in SHAPES:
        for n in (2, 3, 4):
            assert gl_dimension(YoungDiagram(shape), n) == _ssyt_count(shape, n)


def test_gl_dimension_zero_when_too_many_rows():
    assert gl_dimension(YoungDiagram((1, 1, 1)), 2) == 0
    assert gl_dimension(YoungDiagram((2, 2, 1)), 2) == 0


def test_weyl_dimension_known_representations():
    assert weyl_dimension((0,)) == 1
    assert weyl_dimension((1,)) == 2
    assert weyl_dimension((2,)) == 3
    assert weyl_dimension((1, 0)) == 3
    assert weyl_dimension((1, 1)) == 8
    assert weyl_dimension((2, 2)) == 27
    assert weyl_dimension((1, 0, 0)) == 4
    assert weyl_dimension((0, 1, 0)) == 6
    assert weyl_dimension((1, 0, 1)) == 15


def test_weyl_and_hook_content_agree():
    # a partition with fewer than n rows names the sl(n) irrep whose
    # label is the vector of consecutive row differences
    for shape in SHAPES:
        for n in (3, 4, 5):
            if len(shape) >= n:
                continue
            rows = shape + (0,) * (n - 1 - len(shape))
            label = tuple(rows[i] - rows[i + 1] for i in range(n - 2)) + (rows[n - 2],)
            assert gl_dimension(YoungDiagram(shape), n) == weyl_dimension(label)


def test_weyl_dimension_rejects_negative_labels():
    with pytest.raises(ValueError):
        weyl_dimension((-2, 1))


def test_realized_bases_have_predicted_rank():
    for shape in [(2,), (2, 1), (2, 2), (3, 1), (1, 1)]:
        for n in (2, 3):
            basis = whole_basis(YoungDiagram(shape), n)
            assert basis.dim == gl_dimension(YoungDiagram(shape), n)
            if basis.dim:
                # each basis tensor extracts back to a unit coordinate vector
                vec = extract(basis.space, basis.tensor(0))
                assert basis.coords({i: v for i, v in enumerate(vec) if v}) == {0: 1}


def test_symmetric_pair_basis_tensors_have_stated_symmetries():
    basis = whole_basis(YoungDiagram((2, 1)), 3)
    # grouped layout (SYM 1, SYM 2): slot 1 then a symmetric pair
    for j in range(basis.dim):
        t = basis.tensor(j)
        assert slot_average(t, (2, 3)) == t
        # trailing-slot symmetrization over all three slots vanishes:
        # that is the constraint cutting (2,1) out of sym1 x sym2
        assert not slot_average(t, (1, 2, 3))


def test_row_and_column_presentations():
    row = whole_basis(YoungDiagram((3,)), 2)
    assert row.dim == gl_dimension(YoungDiagram((3,)), 2) == 4
    assert [g.size for g in row.space.groups] == [3]
    # the column (1, 1) comes out through two size-1 groups whose
    # symmetrization vanishes: the skew 2-tensors
    col = whole_basis(YoungDiagram((1, 1)), 3)
    assert col.dim == 3
    for j in range(col.dim):
        t = col.tensor(j)
        assert slot_average(t, (1, 2), signed=True) == t


def test_row_count_picks_the_presentation():
    """One row is one symmetric group, two rows (a, b) the groups Sym^b
    and Sym^a with the symmetrization constraint, and three or more rows
    have no presentation."""
    for shape in ((1, 1, 1), (2, 1, 1), (1, 1, 1, 1)):
        d = YoungDiagram(shape)
        with pytest.raises(ValueError, match=re.escape(str(shape))):
            realize_irreducible(d, 4, weight_multiplicities(d, 4))
    hook_content = {((1, 1), 2): 1, ((1, 1), 3): 3, ((2, 2), 2): 1, ((2, 2), 3): 6}
    for (shape, n), dim in hook_content.items():
        basis = whole_basis(YoungDiagram(shape), n)
        assert [(g.kind, g.size) for g in basis.space.groups] == [(SYM, shape[1]), (SYM, shape[0])]
        assert basis.dim == gl_dimension(YoungDiagram(shape), n) == dim


def test_cache_returns_identical_object():
    d = YoungDiagram((2, 1))
    clear_realization_cache()
    a = realize_irreducible(d, 3, weight_multiplicities(d, 3))
    b = realize_irreducible(d, 3, weight_multiplicities(d, 3))
    assert a.keys() == b.keys() and all(a[w] is b[w] for w in a)


def test_realization_deterministic_across_cache_clear():
    d = YoungDiagram((2, 2))
    clear_realization_cache()
    a = realize_irreducible(d, 3, weight_multiplicities(d, 3))
    clear_realization_cache()
    b = realize_irreducible(d, 3, weight_multiplicities(d, 3))
    assert a.keys() == b.keys()
    for w in a:
        assert a[w] is not b[w]
        assert (a[w].keys, a[w].columns, a[w].scales) == (b[w].keys, b[w].columns, b[w].scales)


def test_cache_dir_variable_writes_nothing(tmp_path, monkeypatch, capsys):
    """Bases are memoized in the process only: nothing is written to
    KILLINGCALC_CACHE_DIR."""
    monkeypatch.setenv("KILLINGCALC_CACHE_DIR", str(tmp_path))
    clear_realization_cache()
    realize_irreducible(YoungDiagram((2, 1)), 3, [(1, 1, 1)])
    assert main(["complex", "--n", "2", "--ell", "1"]) == 0
    capsys.readouterr()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("shape, n, kind", REALIZED_SHAPES, ids=REALIZED_IDS)
def test_lead_row_coordinates_round_trip_and_reject(shape, n, kind):
    """Coordinates are the values at the lead rows: every member of the
    span gets its own coefficients back, and a member changed at a row
    that is no column's lead (so off the span) is rejected."""
    basis = whole_basis(YoungDiagram(shape), n)
    rng = random.Random(f"{shape} {n} {kind}")
    cols = basis.columns
    for j, col in enumerate(cols):
        assert basis.coords(col) == {j: 1}
    coeffs = {j: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for j in range(basis.dim)}
    coeffs = {j: c for j, c in coeffs.items() if c}
    y = apply(basis.coord_basis, coeffs)
    assert basis.coords(y) == coeffs
    leads = set(basis.leads)
    free = [r for r in range(basis.space.dim) if r not in leads]
    for r in rng.sample(free, min(5, len(free))):
        off = dict(y)
        off[r] = off.get(r, 0) + 1
        with pytest.raises(ValueError, match="outside the column span"):
            basis.coords(off)


def test_subspace_basis_rejects_unreduced_columns():
    space = GroupedSpace(2, [Group(SYM, 2)])  # dimension 3
    for cols in ([{0: 1, 1: 1}, {1: 1}], [{1: 1}, {0: 1}], [{0: 2}], [{}], [{0: 1, 2: 1}, {2: 1}]):
        with pytest.raises(ValueError, match="reduced shape"):
            SubspaceBasis(space, ExactMatrix.from_columns(cols, 3))
    SubspaceBasis(space, ExactMatrix.from_columns([{0: 1}, {1: 5, 2: 1}], 3))


def test_extract_inverts_basis_embedding():
    rng = random.Random(67)
    basis = whole_basis(YoungDiagram((2, 1)), 3)
    # a random combination of basis tensors must extract back exactly
    coeffs = [rng.randint(-3, 3) for _ in range(basis.dim)]
    t = {}
    for j, c in enumerate(coeffs):
        t = add_tensors(t, basis.tensor(j), c)
    vec = extract(basis.space, t)
    got = basis.coords({i: v for i, v in enumerate(vec) if v})
    assert got == {j: Fraction(c) for j, c in enumerate(coeffs) if c}


def _ssyt_contents(shape: tuple[int, ...], k: int) -> Counter:
    """Brute-force contents of the semistandard fillings with entries in
    1..k: how many fillings have each content (count of each entry)."""
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    out: Counter = Counter()

    def rec(i: int, filled: dict) -> None:
        if i == len(cells):
            out[tuple(sum(1 for v in filled.values() if v == e) for e in range(1, k + 1))] += 1
            return
        r, c = cells[i]
        lo = max(filled[(r, c - 1)] if c else 1, filled[(r - 1, c)] + 1 if r else 1)
        for v in range(lo, k + 1):
            filled[(r, c)] = v
            rec(i + 1, filled)
        filled.pop((r, c), None)

    rec(0, {})
    return out


def _partitions(m: int, most: int | None = None) -> list[tuple[int, ...]]:
    """The partitions of m, parts at most ``most``, largest first."""
    most = m if most is None else most
    if m == 0:
        return [()]
    return [(p,) + rest for p in range(min(m, most), 0, -1) for rest in _partitions(m - p, p)]


def _compositions(m: int, k: int):
    """The compositions of m into k parts."""
    if k == 1:
        yield (m,)
        return
    for x in range(m + 1):
        for rest in _compositions(m - x, k - 1):
            yield (x,) + rest


def _dominates(lam, mu) -> bool:
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def test_kostka_matches_tableau_contents():
    """K_{lambda, mu} counts the fillings of content mu, whatever the order
    of mu's entries, for every shape of size at most 5 and 4 entries."""
    for m in range(1, 6):
        for shape in _partitions(m):
            contents = _ssyt_contents(shape, 4)
            for mu in _compositions(m, 4):
                assert kostka(YoungDiagram(shape), mu) == contents[mu], (shape, mu)


def test_kostka_diagonal_and_dominance():
    """K_{lambda, lambda} = 1, and K_{lambda, mu} is nonzero exactly when
    lambda dominates the sorted mu, in any order of mu's entries."""
    for m in range(1, 9):
        for lam in _partitions(m):
            d = YoungDiagram(lam)
            assert kostka(d, lam) == 1, lam
            for mu in _partitions(m):
                k = kostka(d, mu)
                assert (k > 0) == _dominates(lam, mu), (lam, mu)
                for perm in list(set(permutations(mu + (0,))))[:6]:
                    assert kostka(d, perm) == k, (lam, perm)


def test_kostka_table_values():
    table = {
        ((2, 2), (1, 1, 1, 1)): 2,
        ((3, 1), (1, 1, 1, 1)): 3,
        ((2, 1, 1), (1, 1, 1, 1)): 3,
        ((3, 1), (2, 1, 1)): 2,
        ((2, 2), (2, 1, 1)): 1,
        ((3, 2), (2, 2, 1)): 2,
        ((3, 3), (2, 2, 2)): 1,
        ((4, 2), (2, 2, 1, 1)): 4,
    }
    for (lam, mu), k in table.items():
        assert kostka(YoungDiagram(lam), mu) == k, (lam, mu)
    with pytest.raises(ValueError):
        kostka(YoungDiagram((2,)), (3, -1))


def test_weight_spaces_sum_to_hook_content():
    """Summed over the dominant weights mu, times their S_n orbits, the
    Kostka numbers give the hook-content dimension, for every one- or
    two-row shape of size at most 10 over n at most 7; the weights of
    ``weight_multiplicities`` are those with nonzero Kostka number."""
    for m in range(1, 11):
        for lam in [p for p in _partitions(m) if len(p) <= 2]:
            d = YoungDiagram(lam)
            for n in range(1, 8):
                dominant = [mu + (0,) * (n - len(mu)) for mu in _partitions(m) if len(mu) <= n]
                total = sum(orbit_size(mu) * kostka(d, mu) for mu in dominant)
                assert total == gl_dimension(d, n), (lam, n)
                if m <= 6 and n <= 4:
                    mult = weight_multiplicities(d, n)
                    assert sum(mult.values()) == total
                    assert all(mult[w] == kostka(d, w) > 0 for w in mult)


def test_bounded_compositions_match_a_product_filter():
    """On seeded bounds with zero entries, the compositions are those of
    the whole box with the given total, in decreasing lexicographic order."""
    rng = random.Random(73)
    for _ in range(200):
        bound = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(rng.randint(1, 6)))
        total = rng.randint(0, sum(bound) + 1)
        want = sorted(
            (m for m in product(*(range(b + 1) for b in bound)) if sum(m) == total),
            reverse=True,
        )
        assert young.bounded_compositions(bound, total) == want, (bound, total)


def test_dominant_lifts_match_a_box_filter():
    """On seeded weights, the lifts are the shifts s of the box
    [0, top]^n with |s| <= total and w + s dominant, in lexicographic
    order of s, each with its weight w + s."""
    rng = random.Random(29)
    for _ in range(300):
        w = tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 5)))
        top, total = rng.randint(0, 4), rng.randint(0, 7)
        want = []
        for s in product(range(top + 1), repeat=len(w)):
            mu = tuple(x + y for x, y in zip(w, s))
            if sum(s) <= total and list(mu) == sorted(mu, reverse=True):
                want.append((s, mu))
        assert young.dominant_lifts(w, top, total) == want, (w, top, total)


def test_weight_keys_match_the_combinations_oracle():
    """``_weight_keys`` gives the keys of the oracle, in its order, on every
    weight of every one- or two-row shape of size at most 7 over n at
    most 5, for the shape's groups and for its constraint rows' groups."""
    for m in range(1, 8):
        for lam in [p for p in _partitions(m) if len(p) <= 2]:
            sizes = young._group_sizes(YoungDiagram(lam))
            groups = [sizes] + ([(sizes[0] - 1, sizes[1] + 1)] if len(sizes) == 2 else [])
            for n in range(1, 6):
                for w in _compositions(m, n):
                    for s in groups:
                        assert young._weight_keys(s, w) == weight_keys_by_combinations(s, w), (s, w)


ORACLE_SHAPES = REALIZED_SHAPES + [((2, 2), 7, "symmetric-pair"), ((3, 3), 5, "symmetric-pair")]


@pytest.mark.parametrize(
    "shape, n, kind", ORACLE_SHAPES, ids=[f"{''.join(map(str, s))}-n{n}" for s, n, _ in ORACLE_SHAPES]
)
def test_weight_spaces_equal_the_whole_kernel(shape, n, kind):
    """Each weight space, realized from its own constraint rows, holds
    exactly the columns of the whole constraint matrix's canonical kernel
    basis whose lead key has that weight, and has the Kostka dimension;
    the whole basis assembled from them is that kernel basis."""
    d = YoungDiagram(shape)
    oracle = whole_realization(d, n)
    keys = oracle.space.keys()

    def weight(key):
        return tuple(sum(part.count(v) for part in key) for v in range(1, n + 1))

    by_weight: dict = {}
    for col, lead in zip(oracle.columns, oracle.leads):
        by_weight.setdefault(weight(keys[lead]), []).append(col)
    mult = weight_multiplicities(d, n)
    assert set(by_weight) == set(mult)
    for w, part in realize_irreducible(d, n, mult).items():
        assert part.dim == mult[w] == kostka(d, w)
        got = [
            {oracle.space.index(part.keys[r]): Fraction(v, s) for r, v in col.items()}
            for col, s in zip(part.columns, part.scales)
        ]
        assert got == by_weight[w], w
    whole = whole_basis(d, n)
    assert whole.space.groups == oracle.space.groups
    assert whole.coord_basis == oracle.coord_basis


def test_a_dropped_column_trips_the_kostka_certificate(monkeypatch):
    """A weight space that lost one kernel column is refused on its Kostka
    number, and so is a whole basis that would contain it."""
    original = young.kernel_basis

    def drop_last(m):
        return original(m)[:-1]

    clear_realization_cache()
    monkeypatch.setattr(young, "kernel_basis", drop_last)
    try:
        with pytest.raises(RuntimeError, match="Kostka number is 2"):
            realize_irreducible(YoungDiagram((2, 2)), 4, [(1, 1, 1, 1)])
        with pytest.raises(RuntimeError, match="Kostka number"):
            whole_basis(YoungDiagram((3, 1)), 3)
    finally:
        monkeypatch.undo()
        clear_realization_cache()
    assert realize_irreducible(YoungDiagram((2, 2)), 4, [(1, 1, 1, 1)])[(1, 1, 1, 1)].dim == 2
