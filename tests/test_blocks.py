"""Local identities of the crossing blocks, checked exactly.

Every Z route reads `invariants.POS_BLOCK` (M+) and `NEG_BLOCK` (M-), so a
wrong block is otherwise caught only when a sampled check happens to see
it.  Each block acts on two adjacent strands; placed on strand positions
(1, 2) or (2, 3) of three, with the identity on the third, the blocks
satisfy the braid relations, are each other's inverse, obey the skein
identity M+ - x M- = (1 - x) I, and agree at x = 1.
"""

import pytest

from vconway import invariants
from vconway.invariants import NEG_BLOCK, POS_BLOCK
from vconway.laurent import ONE, X, X_INV, Y, ZERO, eval_x1

IDENTITIES = ("braid M+", "braid M-", "mixed braid", "inverse", "skein", "x = 1")


def _on_strands(block, i):
    """The 3 x 3 matrix acting as block on strands i + 1, i + 2 of three."""
    m = [[ONE if r == c else ZERO for c in range(3)] for r in range(3)]
    for r in range(2):
        for c in range(2):
            m[i + r][i + c] = block[r][c]
    return m


def _mul(a, b):
    return [[sum((a[r][k] * b[k][c] for k in range(len(b))), ZERO) for c in range(len(b[0]))]
            for r in range(len(a))]


def _chain(*ms):
    out = ms[0]
    for m in ms[1:]:
        out = _mul(out, m)
    return out


def _failed_identities(pos, neg):
    """The names of the identities that the blocks pos (M+) and neg (M-) break."""
    p1, p2, n1, n2 = _on_strands(pos, 0), _on_strands(pos, 1), _on_strands(neg, 0), _on_strands(neg, 1)
    unit = [[ONE, ZERO], [ZERO, ONE]]
    holds = {
        "braid M+": _chain(p1, p2, p1) == _chain(p2, p1, p2),
        "braid M-": _chain(n1, n2, n1) == _chain(n2, n1, n2),
        "mixed braid": _chain(p1, p2, n1) == _chain(n2, p1, p2),
        "inverse": _mul(pos, neg) == unit,
        "skein": [[pos[r][c] - X * neg[r][c] for c in range(2)] for r in range(2)]
        == [[(ONE - X) * e for e in row] for row in unit],
        "x = 1": [list(map(eval_x1, row)) for row in pos] == [list(map(eval_x1, row)) for row in neg],
    }
    assert set(holds) == set(IDENTITIES)
    return [name for name in IDENTITIES if not holds[name]]


def _a_mutant():
    """M+ with a = 1 - x + (1 - x)^2 y in place of 1 - x, and M- its exact
    inverse.  M+ has determinant -x, so its inverse is [[0, -y/x], [-1/y, -a/x]]."""
    a = ONE - X + (ONE - X) * (ONE - X) * Y
    pos = ((a, POS_BLOCK[0][1]), POS_BLOCK[1])
    neg = (NEG_BLOCK[0], (NEG_BLOCK[1][0], -a * X_INV))
    assert _mul(pos, neg) == [[ONE, ZERO], [ZERO, ONE]]
    return pos, neg


def test_default_blocks_satisfy_every_identity():
    assert invariants.DEFAULT_BLOCKS == {1: POS_BLOCK, -1: NEG_BLOCK}
    assert _failed_identities(POS_BLOCK, NEG_BLOCK) == []


def test_mutated_blocks_break_an_identity():
    with invariants.mutated_blocks():
        pos, neg = invariants._blocks[1], invariants._blocks[-1]
    assert neg != NEG_BLOCK
    failed = _failed_identities(pos, neg)
    assert {"inverse", "skein"} <= set(failed), failed


@pytest.mark.parametrize("identity", ["braid M+", "skein"])
def test_a_mutant_breaks_the_braid_relation_and_the_skein_identity(identity):
    # this mutant keeps M- = M+^-1 and passes the Vassiliev and c0 checks
    assert identity in _failed_identities(*_a_mutant())
