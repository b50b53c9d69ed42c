"""Word problem in the free product of two 3-strand braid groups.

The group <c1..c4 | c1c2c1=c2c1c2, c3c4c3=c4c3c4> is the free product of
two copies of the 3-strand braid group (factors {c1,c2} and {c3,c4}).
Inside a factor an element is held as its reduced Burau matrix at
t = -1, which lies in SL(2, Z), and its exponent sum.  The kernel of
B_3 -> SL(2, Z) is <Delta^4> = <(s1 s2)^6>, whose generator has exponent
sum 12, so the pair is a faithful image of B_3 (Kassel and Turaev,
*Braid Groups*).  A word is trivial iff a left-to-right stack reduction
over its syllables ends empty (normal form in a free product; Lyndon and
Schupp, *Combinatorial Group Theory*).
"""

from __future__ import annotations

from .braids import BraidWord, artin_act
from .corpus import TAU1, TAU2
from .words import GroupWord


# reduced Burau matrices [[a, b], [c, d]] of s1^+-1, s2^+-1 at t = -1,
# held as (a, b, c, d)
_BURAU = {
    1: (1, 1, 0, 1),
    -1: (1, -1, 0, 1),
    2: (1, 0, -1, 1),
    -2: (1, 0, 1, 1),
}
_IDENTITY = (1, 0, 0, 1)

_FACTOR = {"c1": 0, "c2": 0, "c3": 1, "c4": 1}
_SIGMA = {"c1": 1, "c2": 2, "c3": 1, "c4": 2}


class G0Error(ValueError):
    pass


def _mul(A, B):
    a, b, c, d = A
    p, q, r, s = B
    return (a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s)


def g0_is_trivial(w: GroupWord) -> bool:
    """Word problem for <c1..c4 | braid relation in each pair>."""
    stack = []  # (factor, matrix, exponent sum) of each nontrivial syllable
    for n, e in w.letters:
        if n not in _FACTOR:
            raise G0Error(f"generator {n!r} is not one of c1..c4")
        f, m = _FACTOR[n], _BURAU[_SIGMA[n] * e]
        if stack and stack[-1][0] == f:
            _f, top, s = stack.pop()
            m, e = _mul(top, m), s + e
            if (m, e) == (_IDENTITY, 0):
                continue
        stack.append((f, m, e))
    return not stack


def g0_equal(u: GroupWord, v: GroupWord) -> bool:
    return g0_is_trivial(u * v.inverse())


def verify_g0_relations(tau2: BraidWord = TAU2) -> bool:
    """Check c_i^(TAU1*tau2) = c_i^(tau2*TAU1) in G0 for i = 1..4.

    `tau2` is the second full twist of the deltoid monodromy (`TAU2`);
    the planted control passes a wrong one, which makes some i fail.
    """
    for i in range(1, 5):
        ci = GroupWord.gen(f"c{i}")
        u = artin_act(TAU1 * tau2, ci, "c")
        v = artin_act(tau2 * TAU1, ci, "c")
        if not g0_equal(u, v):
            return False
    return True
