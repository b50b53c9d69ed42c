"""Smith normal form and abelianization of finite presentations."""

from __future__ import annotations

import itertools
from typing import Sequence

from .presentation import Presentation


class AbelianInvariants:
    """Free rank plus invariant torsion factors d1 | d2 | ... (all >= 2)."""

    def __init__(self, rank: int, torsion: Sequence[int]):
        torsion = tuple(int(d) for d in torsion)
        if rank < 0:
            raise ValueError("rank must be >= 0")
        if any(d < 2 for d in torsion):
            raise ValueError("torsion factors must be >= 2")
        for a, b in zip(torsion, torsion[1:]):
            if b % a != 0:
                raise ValueError("invariant factors must form a "
                                 "divisibility chain")
        self.rank = rank
        self.torsion = torsion

    def is_finite(self) -> bool:
        return self.rank == 0

    def order(self):
        if not self.is_finite():
            return None
        n = 1
        for d in self.torsion:
            n *= d
        return n

    def __eq__(self, other):
        return (isinstance(other, AbelianInvariants)
                and self.rank == other.rank
                and self.torsion == other.torsion)

    def __hash__(self):
        return hash((self.rank, self.torsion))

    def describe(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        groups = {}
        for d in self.torsion:
            groups[d] = groups.get(d, 0) + 1
        for d in sorted(groups):
            k = groups[d]
            parts.append(f"Z/{d}" if k == 1 else f"(Z/{d})^{k}")
        return " + ".join(parts) if parts else "trivial"

    def __repr__(self):
        return f"AbelianInvariants({self.describe()})"


def smith_normal_form(M: Sequence[Sequence[int]]):
    """U*M*V = D with D diagonal (divisibility chain), U and V unimodular.

    Returns (invariant_factors, D, U, V); invariant_factors lists the
    nonzero diagonal entries (including 1s).
    """
    A = [list(map(int, row)) for row in M]
    r = len(A)
    c = len(A[0]) if r else 0
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    V = [[int(i == j) for j in range(c)] for i in range(c)]

    def row_op(i, j, k):          # row_i += k*row_j
        A[i] = [a + k * b for a, b in zip(A[i], A[j])]
        U[i] = [a + k * b for a, b in zip(U[i], U[j])]

    def col_op(i, j, k):          # col_i += k*col_j
        for row in A:
            row[i] += k * row[j]
        for row in V:
            row[i] += k * row[j]

    def row_swap(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def col_swap(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        A[i] = [-a for a in A[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(r, c):
        # find smallest-magnitude nonzero pivot in the remaining block
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if A[i][j] and (best is None
                                or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        i0, j0 = best
        row_swap(t, i0)
        col_swap(t, j0)
        while True:
            done = True
            for i in range(t + 1, r):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    row_op(i, t, -q)
                    if A[i][t]:
                        row_swap(t, i)
                        done = False
            for j in range(t + 1, c):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    col_op(j, t, -q)
                    if A[t][j]:
                        col_swap(t, j)
                        done = False
            if done:
                # d1 | d2 | ...: when the pivot does not divide the rest of
                # the block, add an offending row and keep pivoting (the
                # pivot's magnitude drops each time)
                d = A[t][t]
                bad = next((i for i in range(t + 1, r)
                            if any(A[i][j] % d for j in range(t + 1, c))),
                           None)
                if bad is None:
                    break
                row_op(t, bad, 1)
        if A[t][t] < 0:
            row_neg(t)
        t += 1
    return [A[i][i] for i in range(t)], A, U, V


def abelianization(p: Presentation) -> AbelianInvariants:
    """Invariants only (no generator images), by the sparse elimination of
    `_invariants_sparse`, so it scales to the large unsimplified kernel
    presentations produced by the derived-series walk."""
    n = len(p.generators)
    if n == 0:
        return AbelianInvariants(0, ())
    return _invariants_sparse(_relation_rows(p), n)


def _relation_rows(p: Presentation):
    """The distinct rows, up to sign, of the relation matrix of `p` as
    dicts column -> value: each with its columns sorted and its first entry
    positive, at its first occurrence.  Duplicates are found on flat
    (j, v, j, v, ...) keys, which die with this call."""
    index = {g: i for i, g in enumerate(p.generators)}
    seen = set()
    rows = []
    for r in p.relators:
        row = {}
        for name, e in r.letters:
            j = index[name]
            row[j] = row.get(j, 0) + e
        cols = sorted(j for j, v in row.items() if v)
        if not cols:
            continue
        s = 1 if row[cols[0]] > 0 else -1
        key = tuple(x for j in cols for x in (j, s * row[j]))
        if key not in seen:
            seen.add(key)
            rows.append({j: s * row[j] for j in cols})
    return rows


# Rows examined per unit pivot: the restricted Markowitz search looks only
# at this many of the shortest rows holding a +-1 entry (Zlatev 1980).
MARKOWITZ_ROWS = 4


def _invariants_sparse(rows, ncols) -> AbelianInvariants:
    """Cokernel invariants of Z^ncols / rowspace for sparse integer rows
    (dicts column -> value, which it modifies), by `_sparse_smith`."""
    maps, _live, diag, _V = _sparse_smith(rows)
    eliminated = sum(map(len, maps))
    return AbelianInvariants(ncols - eliminated - len(diag),
                             [d for d in diag if d > 1])


def _sparse_smith(rows):
    """The sparse elimination under both abelianizations, on integer rows
    (dicts column -> value, which it modifies).

    Level by level: the rows are sorted by length, ties in input order, and
    unit pivots are eliminated on the shorter half only (`_unit_eliminate`);
    they are back-substituted (`_back_substitute`), every other row is
    reduced in one pass (`_reduce_packed`), and the next level starts from
    those rows.  A level whose short half has no unit entry eliminates on
    all of its rows instead, and its non-unit remnant is folded row by row
    into a reduced row Hermite normal form, which keeps its entries small
    (Havas, Holt and Rees 1993); the Smith form only sees that HNF, which
    has no more rows than columns.

    Returns (maps, live, diag, V).  `maps` lists each level's
    back-substituted pivots; applied in turn, their maps e_c -> -w0*q_c
    carry the cokernel onto Z^L / rowspace(remnant), L the columns no pivot
    took.  `live` lists, sorted, the columns of L that the remnant uses;
    diag and V are the invariant factors and the column transform of the
    Smith form of its HNF, on those columns (both empty with no remnant)."""
    rows = sorted(rows, key=len)
    maps = []
    while True:
        half = (len(rows) + 1) // 2
        pivots, rest = _unit_eliminate(rows[:half])
        if not pivots:
            break
        maps.append(_back_substitute(pivots))
        rows = sorted(_reduce_packed(maps[-1], rest + rows[half:]), key=len)
    pivots, rows = _unit_eliminate(rows)
    maps.append(_back_substitute(pivots))
    live = sorted({j for r in rows for j in r})
    colmap = {j: k for k, j in enumerate(live)}
    remnant = set()
    for r in rows:
        row = [0] * len(live)
        for j, v in r.items():
            row[colmap[j]] = v
        remnant.add(tuple(row))
    hnf = {}
    for row in sorted(remnant):
        _hnf_insert(hnf, list(row))
    if not hnf:
        return maps, live, [], []
    diag, _D, _U, V = smith_normal_form([hnf[c] for c in sorted(hnf)])
    return maps, live, diag, V


def _unit_eliminate(rows):
    """Eliminate unit (+-1) pivots from sparse rows, which it modifies.

    Rows holding a unit entry are kept in buckets by length, and each pivot
    is the unit entry of least Markowitz cost (predicted fill-in) among the
    MARKOWITZ_ROWS shortest such rows; its column is cleared from every
    other row by row operations, so the cokernel is unchanged.  Returns
    (pivots, rest): the pivots in the order taken, each as (column, value,
    row less that entry), and the nonzero rows left, which hold no unit
    entry and no pivot column.  A pivot row holds no earlier pivot
    column."""
    rows = dict(enumerate(rows))
    col_rows = {}   # col -> set of row ids
    for i, r in rows.items():
        for j in r:
            col_rows.setdefault(j, set()).add(i)
    buckets = {}    # length -> ids of rows holding a unit entry
    filed = {}      # row id -> the length it is filed under

    def file(i):
        r = rows[i]
        if 1 in r.values() or -1 in r.values():
            buckets.setdefault(len(r), set()).add(i)
            filed[i] = len(r)

    def unfile(i):
        n = filed.pop(i, None)
        if n is not None:
            bucket = buckets[n]
            bucket.discard(i)
            if not bucket:
                del buckets[n]

    for i in rows:
        file(i)
    pivots = []
    while buckets:
        shortest = itertools.islice(itertools.chain.from_iterable(
            buckets[n] for n in sorted(buckets)), MARKOWITZ_ROWS)
        _cost, i0, j0 = min(
            ((len(rows[i]) - 1) * (len(col_rows[j]) - 1), i, j)
            for i in shortest for j, v in rows[i].items()
            if v == 1 or v == -1)
        unfile(i0)
        pivot = rows.pop(i0)
        for j in pivot:
            col_rows[j].discard(i0)
        v0 = pivot.pop(j0)
        for i in col_rows.pop(j0):
            unfile(i)
            r = rows[i]
            f = r.pop(j0) * v0  # v0 in {1,-1}: multiplier so column vanishes
            for j, v in pivot.items():
                nv = r.get(j, 0) - f * v
                if nv:
                    if j not in r:
                        col_rows[j].add(i)
                    r[j] = nv
                elif j in r:
                    del r[j]
                    col_rows[j].discard(i)
            if r:
                file(i)
            else:
                del rows[i]
        pivots.append((j0, v0, pivot))
    return pivots, list(rows.values())


def _back_substitute(pivots):
    """The pivots of `_unit_eliminate` back-substituted, last first, as a
    dict pivot column c -> (w0, q_c): the row of c then reads w0*e_c + q_c,
    with w0 = +-1 and q_c on the columns no pivot took (the live ones).
    The pivot block is unit triangular, so the map Z^n -> Z^live sending
    e_c to -w0*q_c, and each live column to itself, is onto and its kernel
    is spanned by the pivot rows: it keeps the cokernel.  The pivot rows
    are modified into the q_c."""
    q = {}
    for c, w0, row in reversed(pivots):
        for c2 in [j for j in row if j in q]:
            f = row.pop(c2) * q[c2][0]
            for j, v in q[c2][1].items():
                nv = row.get(j, 0) - f * v
                if nv:
                    row[j] = nv
                else:
                    del row[j]
        q[c] = (w0, row)
    return q


def _reduce_packed(q, rows):
    """The rows reduced by the pivots q of `_back_substitute`, as dicts on
    the live columns, each once up to sign and none zero.

    A row r becomes r_live - sum over pivot columns c of r[c]*w0*q_c, its
    image under the map e_c -> -w0*q_c.  Each row is summed as one int with
    a slot of W bits per live column (Kronecker substitution, Harvey 2009);
    no reduced entry exceeds (L1 norm of r) * max(1, max |q|) in size,
    which W holds as a signed slot, so every slot reads back exactly."""
    live = sorted({j for r in rows for j in r if j not in q}
                  | {j for _w0, row in q.values() for j in row})
    qmax = max((abs(v) for _w0, row in q.values() for v in row.values()),
               default=1)
    bound = max((sum(map(abs, r.values())) for r in rows), default=0) * qmax
    width = bound.bit_length() // 8 + 1      # bytes: bound < 2^(8*width-1)
    weight = {j: 1 << (8 * width * k) for k, j in enumerate(live)}
    for c, (w0, row) in q.items():
        weight[c] = -w0 * sum(v * weight[j] for j, v in row.items())
    packed = dict.fromkeys(abs(sum(v * weight[j] for j, v in r.items()))
                           for r in rows)
    packed.pop(0, None)
    # (x + top) ^ top turns each signed slot into its two's complement;
    # one-byte slots then read back as signed chars
    top = int.from_bytes((bytes(width - 1) + b"\x80") * len(live), "little")
    size = width * len(live)
    out = []
    for x in packed:
        b = ((x + top) ^ top).to_bytes(size, "little")
        slots = (memoryview(b).cast("b") if width == 1 else
                 (int.from_bytes(b[k:k + width], "little", signed=True)
                  for k in range(0, size, width)))
        out.append({j: v for j, v in zip(live, slots) if v})
    return out


def _hnf_insert(hnf, row):
    """Fold an integer row into a reduced row Hermite normal form.

    `hnf` maps each pivot column to its row: zero left of the pivot, a
    positive pivot, and entries above every other pivot reduced into
    [0, pivot).  It stays the reduced HNF of the lattice spanned so far."""
    for c in range(len(row)):
        a = row[c]
        if not a:
            continue
        h = hnf.get(c)
        if h is None:
            hnf[c] = row if a > 0 else [-x for x in row]
            _hnf_reduce(hnf)
            return
        p = h[c]
        if a % p == 0:
            q = a // p
            row = [x - q * y for x, y in zip(row, h)]
        else:
            # [h; row] <- [[x, y], [-a/g, p/g]] [h; row], unimodular
            g, x, y = _xgcd(p, a)
            hnf[c] = [x * u + y * v for u, v in zip(h, row)]
            row = [(p // g) * v - (a // g) * u for u, v in zip(h, row)]
            _hnf_reduce(hnf)


def _hnf_reduce(hnf):
    """Reduce the entries above each pivot of `hnf` modulo that pivot."""
    pivots = sorted(hnf)
    for k, c in enumerate(pivots):
        h = hnf[c]
        for c2 in pivots[k + 1:]:
            q = h[c2] // hnf[c2][c2]
            if q:
                h = [x - q * y for x, y in zip(h, hnf[c2])]
        hnf[c] = h


def _xgcd(a, b):
    """(g, x, y) with x*a + y*b = g = gcd(a, b) > 0."""
    old_r, r, old_x, x, old_y, y = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return (old_r, old_x, old_y) if old_r > 0 else (-old_r, -old_x, -old_y)


def abelianization_with_images(p: Presentation):
    """Invariants plus each generator's image in the torsion coordinates.

    Returns (AbelianInvariants, {generator: tuple of residues}), the tuple
    running over the torsion factors (and free coordinates last, as exact
    integers) of Z^n / relator lattice.  The images come from the sparse
    elimination of `abelianization`: e_j is carried through each level's
    map e_c -> -w0*q_c, and the Smith form of the remnant's HNF, U*H*V = D,
    reads a vector x on its columns as x*V.
    """
    n = len(p.generators)
    if n == 0:
        return AbelianInvariants(0, ()), {}
    maps, live, diag, V = _sparse_smith(_relation_rows(p))
    k = len(diag)
    taken = set(live).union(*maps)
    free = [j for j in range(n) if j not in taken]
    inv = AbelianInvariants(len(live) - k + len(free),
                            [d for d in diag if d > 1])
    images = {}
    for j, g in enumerate(p.generators):
        x = {j: 1}
        for q in maps:
            for c in [c for c in x if c in q]:
                f = x.pop(c) * q[c][0]
                for i, v in q[c][1].items():
                    nv = x.get(i, 0) - f * v
                    if nv:
                        x[i] = nv
                    else:
                        del x[i]
        row = [x.get(c, 0) for c in live]
        coords = [sum(a * b for a, b in zip(row, col)) for col in zip(*V)]
        images[g] = tuple([y % d for y, d in zip(coords, diag) if d > 1]
                          + coords[k:] + [x.get(c, 0) for c in free])
    return inv, images
