"""Todd-Coxeter coset enumeration and the regular representation.

The enumerator is the classical relator-scanning strategy with immediate
gap filling and full coincidence processing (union-find over cosets with
queued merges), following the standard textbook presentation.  For the
trivial subgroup the closed table is the regular permutation
representation, which makes element order and element equality decidable.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

from .presentation import Presentation
from .words import GroupWord, word


class CosetError(ValueError):
    pass


class CosetTable:
    """Closed coset table: cosets 0..n-1 with coset 0 the subgroup itself.

    `action[g]` is the permutation sending each coset to its image under
    right multiplication by the generator g.
    """

    def __init__(self, generators: Sequence[str],
                 action, subgroup_gens: Sequence[GroupWord]):
        self.generators = tuple(generators)
        self.action = {g: tuple(action[g]) for g in self.generators}
        self.subgroup_gens = tuple(subgroup_gens)
        n = len(next(iter(self.action.values()))) if self.action else 1
        self.n_cosets = n
        for g, perm in self.action.items():
            if sorted(perm) != list(range(n)):
                raise CosetError(f"action of {g} is not a permutation")
        self._inverse = {g: _inverse_perm(p) for g, p in self.action.items()}

    def apply(self, coset: int, w: GroupWord) -> int:
        c = coset
        for name, e in w.letters:
            perm = self.action[name] if e == 1 else self._inverse[name]
            c = perm[c]
        return c

    def word_permutation(self, w) -> tuple:
        if isinstance(w, str):
            w = word(w)
        return tuple(self.apply(c, w) for c in range(self.n_cosets))

    def element_order(self, w) -> int:
        """Order of the image of w (exact in the regular representation,
        i.e. when the subgroup is trivial)."""
        perm = self.word_permutation(w)
        order = 1
        seen = set()
        for start in range(self.n_cosets):
            if start in seen:
                continue
            length = 0
            c = start
            while True:
                seen.add(c)
                c = perm[c]
                length += 1
                if c == start:
                    break
            order = math.lcm(order, length)
        return order

    def elements_equal(self, u, v) -> bool:
        """Equality in the group (regular representation required for
        faithfulness; with a nontrivial subgroup this tests equality of
        the induced permutations only)."""
        return self.word_permutation(u) == self.word_permutation(v)


def _inverse_perm(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


DEFAULT_COSET_CAP = 1_000_000


def todd_coxeter(p: Presentation,
                 subgroup_gens: Sequence = (),
                 max_cosets: int = DEFAULT_COSET_CAP) -> CosetTable:
    """Enumerate cosets of the subgroup generated by `subgroup_gens`.

    Returns the closed CosetTable; raises CosetError when the coset cap
    is exceeded (the enumeration cannot tell "infinite index" from "needs
    more cosets", so the cap is the only stopping rule).
    """
    if max_cosets < 1:
        raise CosetError("coset cap must be >= 1")
    gens = list(p.generators)
    ngens = len(gens)
    col = {}
    for i, g in enumerate(gens):
        col[(g, 1)] = 2 * i
        col[(g, -1)] = 2 * i + 1

    def inv_col(c):
        return c ^ 1

    sub_words = []
    for w in subgroup_gens:
        if isinstance(w, str):
            w = word(w)
        bad = w.generators() - set(gens)
        if bad:
            raise CosetError(f"subgroup generator uses unknown {bad}")
        sub_words.append(w)

    relator_cols = []
    for r in p.relators:
        relator_cols.append([col[let] for let in r.letters])
    sub_cols = [[col[let] for let in w.letters] for w in sub_words]

    table: List[List[Optional[int]]] = [[None] * (2 * ngens)]
    rep = [0]          # union-find representative
    alive = [True]

    def find(k):
        while rep[k] != k:
            rep[k] = rep[rep[k]]
            k = rep[k]
        return k

    def define(alpha, c):
        if len(table) >= max_cosets:
            raise CosetError(f"coset cap {max_cosets} exceeded")
        beta = len(table)
        table.append([None] * (2 * ngens))
        rep.append(beta)
        alive.append(True)
        table[alpha][c] = beta
        table[beta][inv_col(c)] = alpha
        return beta

    coincidence_queue = []

    def merge(k, lam):
        k, lam = find(k), find(lam)
        if k == lam:
            return
        if k > lam:
            k, lam = lam, k
        rep[lam] = k
        alive[lam] = False
        coincidence_queue.append(lam)

    def process_coincidences():
        while coincidence_queue:
            lam = coincidence_queue.pop()
            for c in range(2 * ngens):
                delta = table[lam][c]
                if delta is None:
                    continue
                table[lam][c] = None
                # undo delta's back-reference, then re-install the edge
                # from lam's representative
                if table[delta][inv_col(c)] == lam:
                    table[delta][inv_col(c)] = None
                mu = find(lam)
                nu = find(delta)
                if table[mu][c] is not None:
                    merge(table[mu][c], nu)
                elif table[nu][inv_col(c)] is not None:
                    merge(table[nu][inv_col(c)], mu)
                else:
                    table[mu][c] = nu
                    table[nu][inv_col(c)] = mu

    def scan_and_fill(alpha, cols):
        alpha = find(alpha)
        while True:
            f = alpha        # forward scan
            i = 0
            n = len(cols)
            while i < n:
                nxt = table[f][cols[i]]
                if nxt is None:
                    break
                f = find(nxt)
                i += 1
            if i == n:
                merge(f, alpha)
                process_coincidences()
                return
            b = alpha        # backward scan
            j = n - 1
            while j >= i:
                nxt = table[b][inv_col(cols[j])]
                if nxt is None:
                    break
                b = find(nxt)
                j -= 1
            if j < i:
                merge(b, f)  # word closes up with a coincidence
                process_coincidences()
                return
            if j == i:       # single gap: deduction
                table[f][cols[i]] = b
                table[b][inv_col(cols[i])] = f
                return
            define(f, cols[i])
            alpha = find(alpha)

    for cols in sub_cols:
        scan_and_fill(0, cols)
    idx = 0
    while idx < len(table):
        if alive[idx] and find(idx) == idx:
            for cols in relator_cols:
                scan_and_fill(idx, cols)
                if not alive[idx] or find(idx) != idx:
                    break
        idx += 1

    # compress: renumber the live representatives
    live = [k for k in range(len(table)) if alive[k] and find(k) == k]
    number = {k: i for i, k in enumerate(live)}
    action = {}
    for g in gens:
        c = col[(g, 1)]
        perm = []
        for k in live:
            img = table[k][c]
            if img is None:
                raise CosetError("table failed to close")
            perm.append(number[find(img)])
        action[g] = perm
    if not gens:
        action = {}
    return CosetTable(gens, action, sub_words)
