"""Finite presentations and the Zariski–van Kampen builder."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from .braids import BraidError, BraidWord, artin_act
from .words import GroupWord, word


class PresentationError(ValueError):
    pass


class Presentation:
    """Generators, relators, and free-form provenance notes."""

    def __init__(self, generators: Sequence[str],
                 relators: Iterable[GroupWord], notes: str = ""):
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("duplicate generator names")
        rels = []
        gset = set(self.generators)
        for r in relators:
            if isinstance(r, str):
                r = word(r)
            bad = r.generators() - gset
            if bad:
                raise PresentationError(
                    f"relator {r.to_text()} uses unknown generators {bad}")
            if not r.is_identity():
                rels.append(r)
        self.relators = tuple(rels)
        self.notes = notes

    def __repr__(self):
        return (f"Presentation(<{', '.join(self.generators)} | "
                f"{len(self.relators)} relators>)")


def zvk_presentation(n: int, lines: Sequence[Tuple[str, BraidWord]],
                     infinity: bool = False) -> Presentation:
    """Complement presentation from braid monodromy data.

    Generators are fiber meridians c1..cn plus one generator per line;
    each line (name, braid) contributes the relations
    l^-1 * c_i * l = artin_act(braid, c_i).  With `infinity` set, the
    generator linf and the relation
    (c1*...*cn) * l_1 * ... * l_k * linf = 1 are added.
    """
    if n < 1:
        raise PresentationError("fiber rank must be >= 1")
    cnames = [f"c{i}" for i in range(1, n + 1)]
    lnames = [name for name, _b in lines]
    gens = cnames + lnames + (["linf"] if infinity else [])
    relators = []
    for lname, b in lines:
        if b.n != n:
            raise BraidError(
                f"braid for {lname} has {b.n} strands, expected {n}")
        l = GroupWord.gen(lname)
        for cname in cnames:
            ci = GroupWord.gen(cname)
            image = artin_act(b, ci, "c")
            relators.append(
                l.inverse() * ci * l * image.inverse())
    if infinity:
        c = GroupWord()
        for cname in cnames:
            c = c * GroupWord.gen(cname)
        tail = GroupWord()
        for lname in lnames:
            tail = tail * GroupWord.gen(lname)
        relators.append(c * tail * GroupWord.gen("linf"))
    return Presentation(gens, relators,
                        notes=f"zvk: n={n}, lines={lnames}, "
                              f"infinity={infinity}")


def quotient_by_relations(p: Presentation,
                          extra: Iterable, note: str = "") -> Presentation:
    """Presentation with extra relators appended (words or text)."""
    notes = (p.notes + "; " if p.notes else "") + (note or "quotient")
    return Presentation(p.generators, [*p.relators, *extra], notes)
