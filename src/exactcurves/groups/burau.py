"""Word problem in the free product of two 3-strand braid groups.

The group <c1..c4 | c1c2c1=c2c1c2, c3c4c3=c4c3c4> is the free product of
two copies of the 3-strand braid group (factors {c1,c2} and {c3,c4}).
A word is trivial iff its free-product syllable reduction is empty, where
triviality inside each factor is decided with the reduced Burau
representation (2x2 matrices over integer Laurent polynomials), which is
faithful for 3 strands.
"""

from __future__ import annotations

from typing import Dict, Sequence

from .braids import BraidWord, artin_act
from .corpus import TAU1, TAU2
from .words import GroupWord


# -- Laurent polynomials over Z: dict exponent -> coefficient ----------------

def _lp_add(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + v
        if out[k] == 0:
            del out[k]
    return out


def _lp_mul(a: Dict[int, int], b: Dict[int, int]) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


_ONE = {0: 1}
_ZERO: Dict[int, int] = {}


def _mat_mul(A, B):
    return [[_lp_add(_lp_mul(A[i][0], B[0][j]), _lp_mul(A[i][1], B[1][j]))
             for j in range(2)] for i in range(2)]


_IDENTITY = [[dict(_ONE), dict(_ZERO)], [dict(_ZERO), dict(_ONE)]]

# reduced Burau matrices for B_3 (t a unit; inverses exact)
_BURAU = {
    1: [[{1: -1}, dict(_ONE)], [dict(_ZERO), dict(_ONE)]],
    -1: [[{-1: -1}, {-1: 1}], [dict(_ZERO), dict(_ONE)]],
    2: [[dict(_ONE), dict(_ZERO)], [{1: 1}, {1: -1}]],
    -2: [[dict(_ONE), dict(_ZERO)], [dict(_ONE), {-1: -1}]],
}


def _burau_of(letters: Sequence[int]):
    M = _IDENTITY
    for k in letters:
        M = _mat_mul(M, _BURAU[k])
    return M


def _is_identity_in_b3(letters: Sequence[int]) -> bool:
    """Whether a word in sigma_1^{+-1}, sigma_2^{+-1} is trivial in B_3."""
    if sum(1 if k > 0 else -1 for k in letters) != 0:
        return False  # exponent sum is a B_3 invariant
    M = _burau_of(letters)
    return M == _IDENTITY


# -- free-product syllable reduction -----------------------------------------

_FACTOR = {"c1": 0, "c2": 0, "c3": 1, "c4": 1}
_SIGMA = {"c1": 1, "c2": 2, "c3": 1, "c4": 2}


class G0Error(ValueError):
    pass


def g0_is_trivial(w: GroupWord) -> bool:
    """Word problem for <c1..c4 | braid relation in each pair>."""
    for n, _e in w.letters:
        if n not in _FACTOR:
            raise G0Error(f"generator {n!r} is not one of c1..c4")
    syllables = []  # (factor index, [braid letters])
    for n, e in w.letters:
        f = _FACTOR[n]
        s = _SIGMA[n] * e
        if syllables and syllables[-1][0] == f:
            syllables[-1][1].append(s)
        else:
            syllables.append((f, [s]))
    changed = True
    while changed:
        changed = False
        for i, (f, letters) in enumerate(syllables):
            if _is_identity_in_b3(letters):
                del syllables[i]
                if 0 < i <= len(syllables) - 1 and \
                        syllables[i - 1][0] == syllables[i][0]:
                    merged = (syllables[i - 1][0],
                              syllables[i - 1][1] + syllables[i][1])
                    syllables[i - 1:i + 1] = [merged]
                changed = True
                break
    return not syllables


def g0_equal(u: GroupWord, v: GroupWord) -> bool:
    return g0_is_trivial(u * v.inverse())


def verify_g0_relations(tau2: BraidWord = TAU2) -> bool:
    """Check c_i^(TAU1*tau2) = c_i^(tau2*TAU1) in G0 for i = 1..4.

    `tau2` is the second full twist of the deltoid monodromy (`TAU2`);
    the planted control passes a wrong one, which makes some i fail.
    """
    for i in range(1, 5):
        ci = GroupWord.gen(f"c{i}")
        u = artin_act(TAU1 * tau2, ci, 4, "c")
        v = artin_act(tau2 * TAU1, ci, 4, "c")
        if not g0_equal(u, v):
            return False
    return True
