"""Freely reduced words in a free group.

A word is a sequence of (generator name, exponent) letters with exponent
+1 or -1, reduced on construction so no letter is adjacent to its inverse.
Construction keeps the caller's letter tuples (lists become tuples), so
words built from shared letters, like the Schreier letters of
`rewriting.rs_kernel`, hold one pointer per letter, not one tuple each.
The text format is "*"-separated letters, each a generator name that is a
Python identifier with an optional integer exponent, e.g.
"l2^-1*c4*l2*c2^-1" or "x^3*y^-2".
"""

from __future__ import annotations

from typing import Iterable, Mapping, Tuple


class WordError(ValueError):
    pass


Letter = Tuple[str, int]


def _reduce(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    out = []
    for let in letters:
        if type(let) is not tuple:
            let = tuple(let)
        name, e = let
        if e not in (1, -1):
            raise WordError(f"letter exponent must be +-1, got {e}")
        if out and out[-1][0] == name and out[-1][1] == -e:
            out.pop()
        else:
            out.append(let)
    return tuple(out)


class GroupWord:
    """A freely reduced word."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        object.__setattr__(self, "letters", _reduce(letters))

    def __setattr__(self, *a):
        raise AttributeError("GroupWord is immutable")

    # -- constructors --------------------------------------------------------
    @classmethod
    def gen(cls, name: str) -> "GroupWord":
        return cls([(name, 1)])

    @classmethod
    def from_text(cls, text: str) -> "GroupWord":
        text = text.strip()
        if not text or text == "1":
            return cls()
        letters = []
        for chunk in text.split("*"):
            chunk = chunk.strip()
            if not chunk:
                raise WordError(f"empty factor in {text!r}")
            if "^" in chunk:
                name, _, etext = chunk.partition("^")
                try:
                    k = int(etext)
                except ValueError:
                    raise WordError(f"bad exponent in {chunk!r}")
            else:
                name, k = chunk, 1
            name = name.strip()
            if not name:
                raise WordError(f"missing generator name in {chunk!r}")
            if not name.isidentifier():
                raise WordError(f"generator name {name!r} in {chunk!r} is "
                                "not an identifier")
            letters.extend([(name, 1 if k > 0 else -1)] * abs(k))
        return cls(letters)

    # -- group operations ----------------------------------------------------
    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord([(n, -e) for n, e in reversed(self.letters)])

    def __pow__(self, k: int) -> "GroupWord":
        base = self if k >= 0 else self.inverse()
        out = GroupWord()
        for _ in range(abs(k)):
            out = out * base
        return out

    # -- structure -----------------------------------------------------------
    def __len__(self):
        return len(self.letters)

    def is_identity(self) -> bool:
        return not self.letters

    def generators(self):
        return {n for n, _e in self.letters}

    def substituted(self, images: Mapping[str, "GroupWord"]) -> "GroupWord":
        """Image under the homomorphism defined by generator images."""
        out = []
        for n, e in self.letters:
            img = images.get(n)
            if img is None:
                out.append((n, e))
            else:
                out.extend(img.letters if e == 1 else img.inverse().letters)
        return GroupWord(out)

    # -- comparison / text ---------------------------------------------------
    def __eq__(self, other):
        return isinstance(other, GroupWord) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def to_text(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        i = 0
        while i < len(self.letters):
            n, e = self.letters[i]
            j = i
            while j < len(self.letters) and self.letters[j] == (n, e):
                j += 1
            k = (j - i) * e
            parts.append(n if k == 1 else f"{n}^{k}")
            i = j
        return "*".join(parts)

    def __repr__(self):
        return f"GroupWord({self.to_text()})"


def word(text: str) -> GroupWord:
    return GroupWord.from_text(text)
