"""Exact gcds and factorization of univariate polynomials over Q and over
towers.

`poly_gcd` is the only function that picks a gcd algorithm for a field:
the primitive remainder sequence over Z for Q, Euclid's algorithm over a
tower.  Yun's squarefree decomposition ("On square-free decomposition
algorithms", 1976) is built on it and feeds `irreducible_factors`.

One factoring path serves every caller that needs roots or irreducible factors
(`fields.roots_in_field`, `multipoly.factor_bounded`, and the branch and
candidate splitting in `singular`):

- over Q, Zassenhaus: the primitive integer part is split modulo the
  prime, among PRIME_TRIALS good ones, with the fewest modular factors
  (distinct-degree, then Cantor-Zassenhaus equal-degree splitting); the
  modular factors are Hensel-lifted past the Mignotte bound and recombined
  exhaustively;
- over a tower K = K'(a), Trager's norm method: shift t -> t - s*a until
  the norm N_{K/K'} (a resultant over K') is squarefree, factor that norm
  over K' (recursively, down to Q) and split by gcds over K.  References:
  Trager, "Algebraic factoring and rational function integration" (1976);
  Cohen, A Course in Computational Algebraic Number Theory, 3.5-3.6.

Every factor returned is irreducible by these arguments, never by a
numerical guess.  When recombination would test more than
RECOMBINATION_BUDGET subsets, the part still unsplit is returned as
unresolved.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from math import gcd, isqrt, lcm

from .fields import (FieldError, RationalField, up_add, up_derivative,
                     up_divmod, up_monic, up_mul, up_prem, up_sub, up_trim)

# Subsets of modular factors tried, per polynomial over Q, before the
# recombination gives up and reports the rest unresolved.
RECOMBINATION_BUDGET = 1 << 16
# Good primes tried when choosing the one with the fewest modular factors.
PRIME_TRIALS = 5


def poly_gcd(polys, field):
    """Monic gcd over `field` of any number of coefficient lists ([] when
    all are 0).

    This is the one place that picks a gcd algorithm: over Q the primitive
    remainder sequence over Z, over a tower Euclid's algorithm.
    """
    polys = [p for p in map(up_trim, polys) if p]
    if not polys:
        return []
    if isinstance(field, RationalField):
        return _monic(reduce(_gcd_z, map(_integral, polys)))
    return up_monic(reduce(_euclid, polys))


def _euclid(a, b):
    while b:
        a, b = b, up_divmod(a, b)[1]
    return a


def squarefree_decomposition(poly, field):
    """Yun's squarefree decomposition of a nonzero polynomial over `field`.

    Returns (lc, [(g_i, i), ...]) with poly = lc * prod g_i^i, each g_i
    monic, squarefree and nonconstant, the g_i pairwise coprime and listed
    by increasing i; every gcd is a `poly_gcd`.  Over Q, a poly that stays
    squarefree of full degree modulo one of PRIME_TRIALS primes is returned
    as one part at once.
    """
    f = up_trim([field.coerce(c) for c in poly])
    if not f:
        raise FieldError("zero polynomial")
    lc, f = f[-1], up_monic(f)
    if len(f) == 1:
        return lc, []
    if isinstance(field, RationalField):
        z = _integral(f)
        p = 2
        for _ in range(PRIME_TRIALS):
            p = _next_prime(p)
            if z[-1] % p and _squarefree_mod(z, p):
                return lc, [(f, 1)]
    # Yun: with a = gcd(f, f'), b = f/a and c = f'/a, each round splits off
    # g = gcd(b, c - b'), the product of the factors of multiplicity i
    d = up_derivative(f)
    a = poly_gcd([f, d], field)
    b, c = up_divmod(f, a)[0], up_divmod(d, a)[0]
    parts = []
    i = 1
    while len(b) > 1:
        c = up_sub(c, up_derivative(b))
        g = poly_gcd([b, c], field)
        if len(g) > 1:
            parts.append((g, i))
        b, c = up_divmod(b, g)[0], up_divmod(c, g)[0]
        i += 1
    return lc, parts


def irreducible_factors(poly, field):
    """Monic irreducible factors of a nonzero `poly` over `field`.

    Returns (factors, unresolved), lists of (q, mult) with poly = lc *
    prod q^mult over both; `unresolved` holds parts left unsplit at the
    recombination budget.  Each Yun part is factored once; the parts come
    by increasing multiplicity, and each part's factors by degree.
    """
    factors, unresolved = [], []
    for g, mult in squarefree_decomposition(poly, field)[1]:
        split, rest = _factor_squarefree(g, field)
        factors += [(q, mult) for q in sorted(split, key=len)]
        unresolved += [(q, mult) for q in sorted(rest, key=len)]
    return factors, unresolved


def _factor_squarefree(f, field):
    """(factors, unresolved) of a monic squarefree f over `field`."""
    if len(f) <= 2:
        return ([f] if len(f) == 2 else []), []
    if isinstance(field, RationalField):
        return _factor_q(f)
    return _factor_tower(f, field)


# ---------------------------------------------------------------------------
# Trager's norm method over a tower
# ---------------------------------------------------------------------------

def _factor_tower(f, K):
    """Factor a monic squarefree f of degree >= 2 over K = K'(a)."""
    a = K.gen()
    n = len(f) - 1
    # N(f(t - s*a)) is squarefree unless two of its n*d roots collide,
    # which happens for at most (n*d)^2 values of s
    for k in range((n * K.degree) ** 2 + 1):
        s = (k + 1) // 2 if k % 2 else -(k // 2)
        g = _shift(f, -s * a) if s else f
        norm = up_monic(_norm(g, K))
        if [m for _g, m in squarefree_decomposition(norm, K.base)[1]] == [1]:
            break
    else:
        raise FieldError("no shift gives a squarefree norm")
    parts, rest = _factor_squarefree(norm, K.base)
    if len(parts) == 1 and not rest:
        return [f], []

    def split(h):
        q = poly_gcd([g, [K.coerce(c) for c in h]], K)
        return _shift(q, s * a) if s else q
    return [split(h) for h in parts], [split(h) for h in rest]


def _shift(f, c):
    """f(t + c), by Horner's rule: g <- g*(t + c) + coef."""
    g = []
    for coef in reversed(f):
        g = [x + y for x, y in zip([coef] + g, [c * x for x in g] + [0])]
    return up_trim(g)


def _norm(g, K):
    """N_{K/K'}(g) = Res_y(minpoly(y), g(t, y)), a coefficient list over K'.

    Each coefficient of g is a polynomial in the generator y of K over K';
    the resultant is taken one tower level down with `resultant_univ`."""
    from .multipoly import MultiPoly, resultant_univ
    base = K.base
    T = ("t",)
    A = [MultiPoly.const(T, c, base) for c in K.minpoly]
    coords = [x.coords for x in g]
    B = [MultiPoly.from_univariate([c[j] for c in coords], T, "t", base)
         for j in range(K.degree)]
    res = resultant_univ(A, up_trim(B))
    return res.univariate_coeffs("t")


# ---------------------------------------------------------------------------
# Zassenhaus over Q
# ---------------------------------------------------------------------------

def _factor_q(f):
    """Factor a monic squarefree rational f of degree >= 2."""
    factors, unresolved = _zassenhaus(_integral(f))
    return [_monic(h) for h in factors], [_monic(h) for h in unresolved]


def _integral(f):
    """The primitive integer multiple of a rational f, lc > 0."""
    den = lcm(*(c.denominator for c in f))
    return _primitive([int(c * den) for c in f])


def _monic(h):
    return [Fraction(c, h[-1]) for c in h]


def _zassenhaus(f):
    """(factors, unresolved) over Z of a primitive squarefree f, lc > 0."""
    out = []
    if f[0] == 0:               # squarefree: t divides f exactly once
        out.append([0, 1])
        f = f[1:]
    if len(f) <= 2:
        return out + ([f] if len(f) == 2 else []), []
    best = None
    p, trials = 2, 0
    while trials < PRIME_TRIALS:
        p = _next_prime(p)
        if f[-1] % p == 0 or not _squarefree_mod(f, p):
            continue
        trials += 1
        ddf = _ddf(_monic_mod(f, p), p)
        count = sum((len(g) - 1) // d for d, g in ddf)
        if count == 1:
            return out + [f], []
        if best is None or count < best[0]:
            best = (count, p, ddf)
    _count, p, ddf = best
    rng = random.Random(p)
    modular = [u for d, g in ddf for u in _edf(g, d, p, rng)]
    # any factor of f has coefficients below 2^deg(f) * ||f||_2 (Mignotte);
    # lc(f) times it must be recovered in the symmetric range mod M
    bound = 2 * f[-1] * (isqrt(sum(c * c for c in f)) + 1) << (len(f) - 1)
    M = p
    while M <= bound:
        M *= M
    lifted = _lift(_mod(f, M), modular, p, M)
    factors, unresolved = _recombine(f, lifted, M)
    return out + factors, unresolved


def _next_prime(p):
    p += 1
    while any(p % q == 0 for q in range(2, isqrt(p) + 1)):
        p += 1
    return p


def _recombine(f, lifted, M):
    """Exhaustive recombination of the lifted monic factors (mod M) of f:
    subsets by increasing size, each product times lc(f) tested first by
    its constant term, then by exact division over Z."""
    found = []
    size, tried = 1, 0
    while 2 * size <= len(lifted):
        for S in combinations(range(len(lifted)), size):
            tried += 1
            if tried > RECOMBINATION_BUDGET:
                return found, [f]
            lc = f[-1]
            c0 = lc
            for i in S:
                c0 = c0 * lifted[i][0] % M
            c0 = _sym(c0, M)
            if c0 == 0 or (lc * f[0]) % c0:
                continue
            g = [lc]
            for i in S:
                g = _mul_mod(g, lifted[i], M)
            g = [_sym(c, M) for c in g]
            q = _exact_div_z([lc * c for c in f], g)
            if q is None:
                continue
            found.append(_primitive(g))
            f = _primitive(q)
            lifted = [u for i, u in enumerate(lifted) if i not in S]
            break
        else:
            size += 1
    return found + [f], []


def _sym(c, M):
    return c - M if c > M // 2 else c


def _primitive(h):
    c = gcd(*h)
    return [x // c for x in h] if h[-1] > 0 else [-x // c for x in h]


def _gcd_z(a, b):
    """Primitive gcd over Z, by the primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, up_prem(a, b)
        b = _primitive(b) if b else b
    return a


def _exact_div_z(a, b):
    """a / b over Z when the division is exact, else None."""
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c, r = divmod(a[k + db], b[-1])
        if r:
            return None
        q[k] = c
        if c:
            for i, y in enumerate(b):
                a[k + i] -= c * y
    return None if any(a[:db]) else q


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------

def _lift(f, factors, p, M):
    """Monic lifts mod M of the monic factors mod p of f (f = lc(f) * prod
    mod p), by a balanced factor tree of quadratic Hensel steps; M must
    be p^(2^k)."""
    if len(factors) == 1:
        inv = pow(f[-1], -1, M)
        return [[c * inv % M for c in f]]
    half = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:half]:
        g = _mul_mod(g, u, p)
    h = [1]
    for u in factors[half:]:
        h = _mul_mod(h, u, p)
    s, t = _bezout_mod(g, h, p)
    m = p
    while m < M:
        g, h, s, t = _hensel_step(f, g, h, s, t, m * m)
        m *= m
    return _lift(g, factors[:half], p, M) + _lift(h, factors[half:], p, M)


def _hensel_step(f, g, h, s, t, m):
    """From f = g*h and s*g + t*h = 1 modulo sqrt(m), the same modulo m
    with h monic (von zur Gathen and Gerhard, Algorithm 15.10)."""
    e = _sub_mod(f, _mul_mod(g, h, m), m)
    q, r = _divmod_mod(_mul_mod(s, e, m), h, m)
    g = _add_mod(g, _add_mod(_mul_mod(t, e, m), _mul_mod(q, g, m), m), m)
    h = _add_mod(h, r, m)
    b = _sub_mod(_add_mod(_mul_mod(s, g, m), _mul_mod(t, h, m), m), [1], m)
    c, d = _divmod_mod(_mul_mod(s, b, m), h, m)
    s = _sub_mod(s, d, m)
    t = _sub_mod(t, _add_mod(_mul_mod(t, b, m), _mul_mod(c, g, m), m), m)
    return g, h, s, t


# ---------------------------------------------------------------------------
# factoring modulo a prime
# ---------------------------------------------------------------------------

def _ddf(f, p):
    """Distinct-degree factorization of a monic squarefree f mod p:
    [(d, product of the irreducible factors of degree d)]."""
    out = []
    x = [0, 1]
    h = x
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd_mod(f, _sub_mod(h, x, p), p)
        if len(g) > 1:
            out.append((d, g))
            f = _divmod_mod(f, g, p)[0]
            h = _divmod_mod(h, f, p)[1]
    if len(f) > 1:
        out.append((len(f) - 1, f))
    return out


def _edf(f, d, p, rng):
    """Equal-degree splitting (Cantor-Zassenhaus, p odd) of a monic f
    whose irreducible factors mod p all have degree d."""
    if len(f) - 1 == d:
        return [f]
    e = (p ** d - 1) // 2
    while True:
        a = up_trim([rng.randrange(p) for _ in range(len(f) - 1)])
        if len(a) < 2:
            continue
        g = _gcd_mod(f, a, p)
        if len(g) == 1:
            g = _gcd_mod(f, _sub_mod(_powmod(a, e, f, p), [1], p), p)
        if 1 < len(g) < len(f):
            return (_edf(g, d, p, rng)
                    + _edf(_divmod_mod(f, g, p)[0], d, p, rng))


# ---------------------------------------------------------------------------
# dense integer polynomials modulo m (coefficient lists, index = degree)
# ---------------------------------------------------------------------------

def _mod(a, m):
    return up_trim([c % m for c in a])


def _monic_mod(a, p):
    inv = pow(a[-1], -1, p)
    return _mod([c * inv for c in a], p)


def _add_mod(a, b, m):
    return _mod(up_add(a, b), m)


def _sub_mod(a, b, m):
    return _mod(up_sub(a, b), m)


def _mul_mod(a, b, m):
    return _mod(up_mul(a, b, 0), m)


def _divmod_mod(a, b, m):
    """Division by b, whose leading coefficient is a unit mod m."""
    a = _mod(a, m)
    db = len(b) - 1
    if len(a) <= db:
        return [], a
    inv = pow(b[-1], -1, m)
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1 - db, -1, -1):
        c = a[k + db] * inv % m
        q[k] = c
        if c:
            for i, y in enumerate(b):
                a[k + i] = (a[k + i] - c * y) % m
    return up_trim(q), up_trim(a[:db])


def _squarefree_mod(a, p):
    """Whether a, of degree kept mod p, is squarefree mod p."""
    ap = _monic_mod(a, p)
    deriv = _mod([i * ap[i] for i in range(1, len(ap))], p)
    return len(_gcd_mod(ap, deriv, p)) == 1


def _gcd_mod(a, b, p):
    """Monic gcd mod a prime p."""
    while b:
        a, b = b, _divmod_mod(a, b, p)[1]
    return _monic_mod(a, p) if a else a


def _bezout_mod(a, b, p):
    """(s, t) with s*a + t*b = 1 mod a prime p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub_mod(s0, _mul_mod(q, s1, p), p)
        t0, t1 = t1, _sub_mod(t0, _mul_mod(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return _mod([c * inv for c in s0], p), _mod([c * inv for c in t0], p)


def _powmod(a, e, f, p):
    """a^e mod (f, p), by repeated squaring."""
    result = [1]
    a = _divmod_mod(a, f, p)[1]
    while e:
        if e & 1:
            result = _divmod_mod(_mul_mod(result, a, p), f, p)[1]
        e >>= 1
        if e:
            a = _divmod_mod(_mul_mod(a, a, p), f, p)[1]
    return result
