"""Reidemeister–Schreier kernels, Tietze simplification, derived series.

Kernels are taken along surjections onto finite abelian groups (coset =
element of the quotient), which is exactly what the derived-series pipeline
needs: the coset table is built directly from the abelianized generator
images, the Schreier transversal is shortlex, and relators are rewritten
into Schreier generators and then Tietze-simplified.
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

from .abelian import abelianization_with_images
from .presentation import Presentation
from .words import GroupWord, _reduce


class RewriteError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Reidemeister–Schreier along a finite abelian quotient
# ---------------------------------------------------------------------------

def rs_kernel(p: Presentation, moduli: Sequence[int],
              images: Mapping[str, Sequence[int]],
              simplify: bool = True) -> Presentation:
    """Presentation of the kernel of the map onto prod Z/moduli[i].

    `images` sends each generator to a tuple of residues, one per modulus
    (checked).  The map must be surjective (checked).  The identity-coset
    case (empty moduli) returns the presentation unchanged.
    """
    moduli = tuple(int(m) for m in moduli)
    if any(m < 2 for m in moduli):
        raise RewriteError("moduli must all be >= 2")
    imgs = {}
    for g in p.generators:
        if g not in images:
            raise RewriteError(f"generator {g} has no image")
        img = tuple(images[g])
        if len(img) != len(moduli):
            raise RewriteError(f"image of {g} has {len(img)} residues, "
                               f"not one per modulus ({len(moduli)})")
        imgs[g] = tuple(int(x) % m for x, m in zip(img, moduli))
    if not moduli:
        return p

    # Cosets are the integers 0..order-1, read as mixed-radix numbers with
    # digits in moduli (last digit least significant), so integer order is
    # the lexicographic order of residue tuples.  fwd[g] and bwd[g] are the
    # actions of g and g^-1 on cosets.
    residues = list(itertools.product(*(range(m) for m in moduli)))
    order = len(residues)

    def coset(t):
        c = 0
        for x, m in zip(t, moduli):
            c = c * m + x % m
        return c

    fwd = {g: [coset([x + y for x, y in zip(t, imgs[g])])
               for t in residues] for g in p.generators}
    bwd = {g: [coset([x - y for x, y in zip(t, imgs[g])])
               for t in residues] for g in p.generators}

    # shortlex Schreier transversal (BFS over generator letters in order),
    # kept as its tree edges: (t, g) when the edge joins t and t*g, so
    # that the representative of one is that of the other times g^+-1
    letters = []
    for g in p.generators:
        letters.append((g, 1, fwd[g]))
        letters.append((g, -1, bwd[g]))
    reached = [False] * order
    reached[0] = True
    tree = set()
    queue = [0]
    while queue:
        nxt = []
        for t in queue:
            for g, e, table in letters:
                u = table[t]
                if not reached[u]:
                    reached[u] = True
                    tree.add((t, g) if e == 1 else (u, g))
                    nxt.append(u)
        queue = nxt
    # the search reaches exactly the image of the map
    count = sum(reached)
    if count != order:
        raise RewriteError(
            f"images generate a subgroup of index {order // count}, "
            "not the full target")

    # Schreier generators: one per (coset t, generator g) off the tree,
    # since rep(t)*g*rep(t*g)^-1 reduces to 1 exactly on a tree edge
    names = []
    name_at = {g: [None] * order for g in p.generators}
    for t in range(order):
        for g in p.generators:
            if (t, g) not in tree:
                names.append(f"y{len(names) + 1}")
                name_at[g][t] = names[-1]

    # one table per letter g^e: coset s -> (s * g^e, Schreier letter or None)
    step = {}
    for g in p.generators:
        at = name_at[g]
        step[g, 1] = [(u, (at[s], 1) if at[s] else None)
                      for s, u in enumerate(fwd[g])]
        step[g, -1] = [(u, (at[u], -1) if at[u] else None) for u in bwd[g]]

    relators = []
    for r in p.relators:
        tables = [step[let] for let in r.letters]
        for t in range(order):
            out = []
            s = t
            for table in tables:
                s, y = table[s]
                if y:
                    out.append(y)
            rr = GroupWord(out)
            if not rr.is_identity():
                relators.append(rr)
    kernel = Presentation(
        names, relators,
        notes=f"rs_kernel of ({p.notes or 'presentation'}) onto "
              f"{'x'.join(f'Z/{m}' for m in moduli)}")
    if simplify:
        kernel = tietze_simplify(kernel)
    return kernel


# ---------------------------------------------------------------------------
# Tietze simplification
# ---------------------------------------------------------------------------

# Safety stops of the Tietze moves: the largest growth in total relator
# length one elimination may cause, the total length past which the moves
# stop, and the most eliminations.
TIETZE_MAX_GROWTH = 200_000
TIETZE_MAX_TOTAL_LENGTH = 4_000_000
TIETZE_MAX_ELIMINATIONS = 100_000


def _free_cyclic_reduce(ls):
    """Free reduction (`words._reduce`) then cyclic reduction of a letter
    list."""
    ls = list(_reduce(ls))
    while len(ls) >= 2 and ls[0][0] == ls[-1][0] and ls[0][1] == -ls[-1][1]:
        ls = ls[1:-1]
    return ls


def _canonical_key(ls):
    """Cyclic-rotation / inversion canonical key for deduplication."""
    if not ls:
        return ()
    best = None
    inv = [(n, -e) for n, e in reversed(ls)]
    for w in (ls, inv):
        for k in range(len(w)):
            rot = tuple(w[k:] + w[:k])
            if best is None or rot < best:
                best = rot
    return best


def tietze_simplify(p: Presentation) -> Presentation:
    """Shorter presentation of an isomorphic group.

    Moves: free/cyclic relator reduction, duplicate removal, removal of
    generators made trivial by length-1 relators, and elimination of a
    generator occurring exactly once in some relator (substituting its
    expression into every other relator).  All moves preserve the group;
    the move log is attached as `tietze_log`.  Eliminations are chosen
    cheapest-first through a lazy priority queue, so large Schreier
    presentations (hundreds of generators) stay tractable.
    """
    import heapq

    gens = set(p.generators)
    gen_order = list(p.generators)
    rels = {}            # idx -> letter list (alive relators)
    gen2rels = {g: set() for g in gens}
    occ = {g: 0 for g in gens}
    version = {}
    log = []
    total = 0            # total length of the alive relators

    def register(idx, ls):
        nonlocal total
        rels[idx] = ls
        total += len(ls)
        version[idx] = version.get(idx, 0) + 1
        for n, _e in ls:
            occ[n] += 1
            gen2rels[n].add(idx)

    def unregister(idx):
        nonlocal total
        total -= len(rels[idx])
        for n, _e in rels[idx]:
            occ[n] -= 1
        for n in {n for n, _e in rels[idx]}:
            gen2rels[n].discard(idx)
        del rels[idx]

    next_idx = 0
    seen_keys = set()
    for r in p.relators:
        ls = _free_cyclic_reduce(list(r.letters))
        if not ls:
            continue
        key = _canonical_key(ls) if len(ls) <= 128 else tuple(ls)
        if key in seen_keys:
            continue
        seen_keys.add(key)
        register(next_idx, ls)
        next_idx += 1

    heap = []

    def push_candidates(idx):
        ls = rels.get(idx)
        if ls is None:
            return
        v = version.get(idx, 0)
        counts = {}
        for n, _e in ls:
            counts[n] = counts.get(n, 0) + 1
        for g, k in counts.items():
            if k == 1:
                cost = (len(ls) - 2) * max(occ[g] - 1, 0)
                heapq.heappush(heap, (cost, len(ls), g, idx, v))

    for idx in list(rels):
        push_candidates(idx)

    eliminations = 0
    while heap and eliminations < TIETZE_MAX_ELIMINATIONS:
        cost, rl, g, idx, v = heapq.heappop(heap)
        ls = rels.get(idx)
        if ls is None or g not in gens or version.get(idx, 0) != v:
            continue  # stale: fresh candidates were pushed on modification
        true_cost = (len(ls) - 2) * max(occ[g] - 1, 0)
        if true_cost != cost:
            heapq.heappush(heap, (true_cost, len(ls), g, idx, v))
            continue
        if true_cost > TIETZE_MAX_GROWTH:
            continue
        # rotate so the relator starts with g^e; then g = (rest)^-e
        pos = next(i for i, (n, _e) in enumerate(ls) if n == g)
        ls = ls[pos:] + ls[:pos]
        e = ls[0][1]
        rest = ls[1:]
        if e == 1:
            expr = [(n, -ee) for n, ee in reversed(rest)]
        else:
            expr = rest
        expr_inv = [(n, -ee) for n, ee in reversed(expr)]
        unregister(idx)
        affected = list(gen2rels[g])
        for j in affected:
            old = rels[j]
            new = []
            for n, ee in old:
                if n == g:
                    new.extend(expr if ee == 1 else expr_inv)
                else:
                    new.append((n, ee))
            new = _free_cyclic_reduce(new)
            unregister(j)
            if new:
                register(j, new)
                push_candidates(j)
        gens.discard(g)
        del gen2rels[g]
        del occ[g]
        log.append(f"eliminated {g} (relator length {rl}, cost {cost})")
        eliminations += 1
        if total > TIETZE_MAX_TOTAL_LENGTH:
            log.append("stopped: total length limit")
            break

    # final cleanup: dedup by canonical form, drop empties
    seen = set()
    final = []
    for idx in sorted(rels):
        ls = rels[idx]
        key = _canonical_key(ls) if len(ls) <= 128 else tuple(ls)
        if key and key not in seen:
            seen.add(key)
            final.append(GroupWord(ls))
    out_gens = [g for g in gen_order if g in gens]
    notes = (p.notes + "; " if p.notes else "") + \
        f"tietze: {len(log)} moves"
    out = Presentation(out_gens, final, notes)
    out.tietze_log = log
    return out


# ---------------------------------------------------------------------------
# derived series
# ---------------------------------------------------------------------------

# Safety stops of the derived series: the largest quotient order a level
# may have before its kernel is taken, and the most kernel generators.
DERIVED_MAX_INDEX = 512
DERIVED_MAX_GENERATORS = 4000


def derived_series_quotients(p: Presentation, depth: int):
    """Successive abelianizations G/G', G'/G'', ... down to `depth` levels.

    Returns {"quotients": [AbelianInvariants...], "status": str,
    "presentations": [...]}.  Recursion into the next level needs a finite
    abelianization; an infinite one is reported and stops the walk (its
    invariants are still appended).
    """
    if depth < 1:
        raise RewriteError("depth must be >= 1")
    quotients = []
    presentations = [p]
    status = "complete"
    current = p
    raw = False     # `current` is a kernel left unsimplified
    for level in range(depth):
        if level == depth - 1:
            # the last level only needs invariants (fast sparse path):
            # the unsimplified kernel can be large
            from .abelian import abelianization
            quotients.append(abelianization(current))
            break
        inv, images = abelianization_with_images(current)
        quotients.append(inv)
        if not inv.is_finite():
            status = "stopped: infinite abelianization at level " \
                f"{level + 1}"
            break
        if inv.order() == 1:
            status = f"stopped: perfect group at level {level + 1}"
            break
        if inv.order() > DERIVED_MAX_INDEX:
            status = f"stopped: index {inv.order()} exceeds limit"
            break
        # generators of the kernel about to be taken (Nielsen-Schreier)
        size = inv.order() * (len(current.generators) - 1) + 1
        if raw and size > DERIVED_MAX_GENERATORS:
            # over the raw kernel the final one would pass the limit: take
            # it over the simplified kernel, which the limit is checked on
            current = presentations[-1] = tietze_simplify(current)
            inv, images = abelianization_with_images(current)
        torsion_images = {g: v[:len(inv.torsion)]
                          for g, v in images.items()}
        # Tietze pays only on a kernel whose own kernel is rewritten again
        # (level < depth - 3).  The kernel feeding the last rewriting stays
        # raw: a generator Tietze would eliminate occurs once in some
        # relator, so its lifts are unit entries of the final relation
        # matrix, which the sparse invariants pivot on anyway, while the
        # substitutions lengthen the relators that the rewriting copies
        # index-fold.  The final kernel is only abelianized, and stays raw
        # too.  A raw kernel whose own kernel would pass
        # DERIVED_MAX_GENERATORS is simplified, so the limit stops the walk
        # where it did on simplified kernels.
        raw = level == depth - 3 and size <= DERIVED_MAX_GENERATORS
        current = rs_kernel(current, inv.torsion, torsion_images,
                            simplify=level <= depth - 3 and not raw)
        if len(current.generators) > DERIVED_MAX_GENERATORS:
            status = "stopped: generator limit exceeded"
            break
        presentations.append(current)
    return {"quotients": quotients, "status": status,
            "presentations": presentations}
