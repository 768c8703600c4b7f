"""The grouped value-coordinate builders of ``helpers``, themselves the
oracles of the injectivity check and the realizations, against
full-tensor oracles.

Each builder writes integer rows over a closed-form scale.  The oracle
embeds every source coordinate vector as a full tensor, applies the
defining operation with ``helpers.slot_average`` or plain index reads,
reads the values at the target keys, and builds the matrix with the
checking ``ExactMatrix`` constructor.
"""

from __future__ import annotations

import pytest

from helpers import (
    ALT,
    SYM,
    Group,
    GroupedSpace,
    embed,
    iota_matrix,
    replace_matrix,
    skew_pair,
    slot_average,
    sym_extend,
)
from killingcalc.matrix import ExactMatrix


def _starts(space: GroupedSpace) -> list[int]:
    out, at = [], 0
    for g in space.groups:
        out.append(at)
        at += g.size
    return out


def _oracle(space, target, dropped, read, prepare=lambda t: t) -> ExactMatrix:
    """Column j holds read(prepare(T_j), parts) at every target key, T_j
    the full tensor of coordinate j and parts the key in the source's
    group layout (an empty part where a group was dropped)."""
    entries = {}
    for j in range(space.dim):
        t = prepare(embed(space, {j: 1}))
        for r, key in enumerate(target.keys()):
            parts = list(key)
            if dropped is not None:
                parts.insert(dropped, ())
            v = read(t, parts)
            if v:
                entries[(r, j)] = v
    return ExactMatrix(target.dim, space.dim, entries)


def _at(t, parts):
    return t.get(tuple(v for part in parts for v in part), 0)


def _assert_integer_rows(m: ExactMatrix, scale: int) -> None:
    assert m.scale == scale
    assert all(type(v) is int and v for row in m.data for v in row.values())
    assert all(0 <= c < m.cols for row in m.data for c in row)


def _space(n, *groups):
    return GroupedSpace(n, [Group(kind, size) for kind, size in groups])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_iota_and_replace_match_their_oracles(n):
    for groups in (((SYM, 1), (SYM, 2)), ((SYM, 2), (SYM, 2))):
        space = _space(n, *groups)
        for x in range(1, n + 1):
            m, target = iota_matrix(space, 0, x)
            _assert_integer_rows(m, 1)
            dropped = 0 if groups[0][1] == 1 else None
            want = _oracle(space, target, dropped,
                           lambda t, parts: _at(t, [(x,) + parts[0]] + parts[1:]))
            assert m == want, (n, groups, x)
    for groups in (((SYM, 2), (SYM, 2)), ((ALT, 2), (SYM, 1)), ((ALT, 3),)):
        space = _space(n, *groups)
        for s in range(1, n + 1):
            for r in range(1, n + 1):
                if r == s:
                    continue
                m = replace_matrix(space, s, r)
                _assert_integer_rows(m, 1)

                def read(t, parts):
                    idx = [v for part in parts for v in part]
                    return -sum(
                        t.get((*idx[:q], r, *idx[q + 1:]), 0) for q, v in enumerate(idx) if v == s
                    )

                assert m == _oracle(space, space, None, read), (n, groups, s, r)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_extensions_match_their_oracles(n):
    for groups, i, j in (
        (((SYM, 1), (SYM, 2)), 0, 1), (((SYM, 2), (SYM, 2)), 0, 1), (((SYM, 2), (SYM, 1)), 1, 0),
    ):
        space = _space(n, *groups)
        m, target = sym_extend(space, i, j)
        _assert_integer_rows(m, groups[j][1] + 1)
        start = _starts(space)
        slots = [start[i] + groups[i][1]] + [start[j] + q + 1 for q in range(groups[j][1])]

        def read(t, parts):
            src = list(parts)
            src[i] = parts[i] + (parts[j][0],)
            src[j] = parts[j][1:]
            return _at(t, src)

        want = _oracle(space, target, i if groups[i][1] == 1 else None, read,
                       lambda t: slot_average(t, slots))
        assert m == want, (n, groups, i, j)
    for groups, j in ((((SYM, 1), (SYM, 1)), 1), (((SYM, 1), (SYM, 1), (SYM, 2)), 2)):
        space = _space(n, *groups)
        m, target = skew_pair(space, 0, j)
        _assert_integer_rows(m, 2)
        slots = [1, _starts(space)[j] + 1]

        def read(t, parts):
            (x, y), mj = parts[0], parts[j]
            src = list(parts)
            src[0], src[j] = (x,), (y,) + mj
            return _at(t, src)

        want = _oracle(space, target, j if groups[j][1] == 1 else None, read,
                       lambda t: slot_average(t, slots, signed=True))
        assert m == want, (n, groups, j)
