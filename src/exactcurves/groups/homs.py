"""Counting homomorphisms into small finite groups.

The count |Hom(G, T)| over a panel of small targets is an isomorphism
invariant that is cheap to compute and sharp enough to distinguish the
presentations compared here.  Targets are permutation groups (Q8 acting
on itself by left multiplication) and cyclic groups, packaged as
multiplication tables.

Conjugating every image by one t in T maps homomorphisms to
homomorphisms, so the count is taken once per orbit: the images of the
first generator run over one element of each conjugacy class of T,
weighted by the class size, and the images of each further generator
over one element of each orbit of the centraliser of the images so far,
weighted by the orbit size.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .presentation import Presentation


class HomError(ValueError):
    pass


class FiniteGroup:
    """Multiplication-table group: elements 0..n-1, identity 0.

    Every row and column of the table must be a permutation of 0..n-1,
    so every element has one inverse.  Associativity is not checked;
    `standard_target` builds only groups.
    """

    def __init__(self, name: str, mult: Sequence[Sequence[int]]):
        self.name = name
        self.mult = [list(row) for row in mult]
        self.order = len(self.mult)
        elements = list(range(self.order))
        if any(sorted(line) != elements
               for line in self.mult + [list(c) for c in zip(*self.mult)]):
            raise HomError("a row or column of the table is not a "
                           "permutation")
        if not elements or self.mult[0] != elements or any(
                row[0] != j for j, row in enumerate(self.mult)):
            raise HomError("element 0 is not an identity")
        self.inv = [row.index(0) for row in self.mult]

    def __repr__(self):
        return f"FiniteGroup({self.name}, order {self.order})"


def _perm_group(name: str, degree: int,
                gens: Sequence[Tuple[int, ...]]) -> FiniteGroup:
    """Closure of permutation generators (tuples = images of 0..deg-1)."""
    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(p[g[i]] for i in range(degree))
            if q not in index:
                index[q] = len(elements)
                elements.append(q)
                frontier.append(q)
    mult = [[index[tuple(a[b[i]] for i in range(degree))]
             for b in elements] for a in elements]
    return FiniteGroup(name, mult)


def standard_target(name: str) -> FiniteGroup:
    """S3, S4, D4, Q8 (and Z/n via 'Z2', 'Z8', ...)."""
    name = name.upper()
    if name == "S3":
        return _perm_group("S3", 3, [(1, 0, 2), (0, 2, 1)])
    if name == "S4":
        return _perm_group("S4", 4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    if name == "D4":
        return _perm_group("D4", 4, [(1, 2, 3, 0), (3, 2, 1, 0)])
    if name == "Q8":
        # left multiplication by i and j on 1, -1, i, -i, j, -j, k, -k
        return _perm_group("Q8", 8, [(2, 3, 1, 0, 6, 7, 5, 4),
                                     (4, 5, 7, 6, 1, 0, 2, 3)])
    if name.startswith("Z") and name[1:].isdigit():
        n = int(name[1:])
        if n < 1:
            raise HomError("cyclic order must be >= 1")
        mult = [[(a + b) % n for b in range(n)] for a in range(n)]
        return FiniteGroup(name, mult)
    raise HomError(f"unknown target group {name!r}")


# Largest target order `count_homs` accepts.
TARGET_MAX_ORDER = 120


def count_homs(p: Presentation, target) -> int:
    """Number of homomorphisms from the presented group into `target`.

    Backtracking over generator images; each relator is checked as soon
    as all of its generators have images, which prunes hard on the short
    relators typical of the corpus presentations.  Generator k's image
    runs over one element per orbit of H, the centraliser of the earlier
    images (the whole target for k = 0), weighted by the orbit size:
    conjugation by H fixes the earlier images and maps the homomorphisms
    through one element of an orbit onto those through any other.
    """
    if isinstance(target, str):
        target = standard_target(target)
    if target.order > TARGET_MAX_ORDER:
        raise HomError(
            f"target order {target.order} exceeds {TARGET_MAX_ORDER}")
    gens = list(p.generators)
    gidx = {g: i for i, g in enumerate(gens)}
    n = len(gens)
    # relator -> (letters as (gen index, exp), last generator position)
    rel_by_last: List[List[List[Tuple[int, int]]]] = [[] for _ in range(n)]
    for r in p.relators:
        letters = [(gidx[name], e) for name, e in r.letters]
        last = max(i for i, _e in letters)
        rel_by_last[last].append(letters)
    if n == 0:
        return 1
    mult = target.mult
    inv = target.inv
    images = [0] * n
    orbits_of = {}

    def orbits(H):
        """(element, orbit size, its centraliser in H) for one element of
        each orbit of the subgroup H, a sorted tuple, acting on the target
        by conjugation."""
        found = orbits_of.get(H)
        if found is None:
            found, seen = [], set()
            for x in range(target.order):
                if x not in seen:
                    orbit = {mult[mult[h][x]][inv[h]] for h in H}
                    seen |= orbit
                    found.append((x, len(orbit), tuple(
                        h for h in H if mult[h][x] == mult[x][h])))
            orbits_of[H] = found
        return found

    def ok(letters):
        acc = 0
        for i, e in letters:
            x = images[i] if e == 1 else inv[images[i]]
            acc = mult[acc][x]
        return acc == 0

    def count(k, H):
        if k == n:
            return 1
        total = 0
        for x, size, centraliser in orbits(H):
            images[k] = x
            if all(ok(letters) for letters in rel_by_last[k]):
                total += size * count(k + 1, centraliser)
        return total

    return count(0, tuple(range(target.order)))
