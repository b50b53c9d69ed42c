"""Braid words and the Artin action on free groups.

The action convention is pinned by the deltoid presentation: with
generators x_1..x_n of the free group,

    sigma_i:  x_i -> x_i * x_{i+1} * x_i^-1,   x_{i+1} -> x_i,

braid letters acting leftmost first.  With this convention the braid
(sigma_2*sigma_1)^2 acting on x_1..x_4 reproduces exactly the conjugation
relations of the line l1 in the deltoid-with-tangents presentation, and
(sigma_2*sigma_3)^2 those of l2.
"""

from __future__ import annotations

from typing import Iterable

from .words import GroupWord


class BraidError(ValueError):
    pass


class BraidWord:
    """A word in the Artin generators of the braid group on n strands.

    Letters are nonzero integers: +i for sigma_i, -i for sigma_i^-1,
    with 1 <= i <= n-1.
    """

    __slots__ = ("n", "letters")

    def __init__(self, n: int, letters: Iterable[int] = ()):
        letters = tuple(letters)
        if n < 1:
            raise BraidError("strand count must be >= 1")
        for k in letters:
            if not isinstance(k, int) or k == 0 or abs(k) > n - 1:
                raise BraidError(
                    f"braid letter {k} out of range for {n} strands")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, *a):
        raise AttributeError("BraidWord is immutable")

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if self.n != other.n:
            raise BraidError("strand count mismatch")
        return BraidWord(self.n, self.letters + other.letters)

    def __eq__(self, other):
        return (isinstance(other, BraidWord) and self.n == other.n
                and self.letters == other.letters)

    def __hash__(self):
        return hash((self.n, self.letters))

    def __repr__(self):
        body = "*".join(f"s{k}" if k > 0 else f"s{-k}^-1"
                        for k in self.letters) or "1"
        return f"BraidWord(n={self.n}, {body})"


def artin_act(b: BraidWord, w: GroupWord, prefix: str = "x") -> GroupWord:
    """Image of w under the Artin action of b on the free group of rank b.n.

    Free generators are named prefix1..prefixN with N = b.n; letters of b
    act leftmost first.
    """
    names = [f"{prefix}{i}" for i in range(1, b.n + 1)]
    known = set(names)
    for g in w.generators():
        if g not in known:
            raise BraidError(f"word generator {g!r} outside {prefix}1.."
                             f"{prefix}{b.n}")
    for k in b.letters:
        i = abs(k)
        xi = GroupWord.gen(names[i - 1])
        xj = GroupWord.gen(names[i])
        if k > 0:
            images = {names[i - 1]: xi * xj * xi.inverse(),
                      names[i]: xi}
        else:
            images = {names[i - 1]: xj,
                      names[i]: xj.inverse() * xi * xj}
        w = w.substituted(images)
    return w
