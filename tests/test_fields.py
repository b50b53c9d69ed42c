"""Tests for exact number-field tower arithmetic."""

import random
from fractions import Fraction
from math import prod

import pytest

from exactcurves.factoring import poly_gcd
from exactcurves.fields import (
    QQ, FieldAutomorphism, FieldElement, FieldError, NumberField,
    adjoin_root, common_field, element_from_doc, field_from_doc, rational_roots,
    roots_in_field, sqrt_in_field, sturm_real_roots, tower, up_derivative,
    up_divmod, up_eval, up_mul, up_trim,
)
from exactcurves.multipoly import MultiPoly, factor_bounded

# The quartic t^4 - 2t^3 + t^2 - 2t - 2 and the Eisenstein quadratic on top.
QUARTIC = [Fraction(-2), Fraction(-2), Fraction(1), Fraction(-2), Fraction(1)]


def total_degree(field):
    """Degree of the tower over Q."""
    return prod(level.degree for level in tower(field))


def make_K():
    return NumberField("eta", QUARTIC)


def make_K1():
    K = make_K()
    return K, NumberField("zeta", [K.one(), K.one(), K.one()], K)


# -- construction and basic arithmetic --------------------------------------

def test_tower_degrees():
    K, K1 = make_K1()
    assert K.degree == 4
    assert total_degree(K) == 4
    assert K1.degree == 2
    assert total_degree(K1) == 8
    assert K1.depth() == 2


def test_generator_satisfies_minpoly():
    K = make_K()
    eta = K.gen()
    assert eta ** 4 - 2 * eta ** 3 + eta ** 2 - 2 * eta - 2 == 0


def test_eta_inverse_frozen():
    # oracle: extended Euclid by hand gives 1/eta = (eta^3 - 2eta^2 + eta - 2)/2
    K = make_K()
    eta = K.gen()
    inv = eta.inverse()
    expected = (eta ** 3 - 2 * eta ** 2 + eta - 2) / 2
    assert inv == expected
    assert eta * inv == 1


def test_zeta_relations():
    K, K1 = make_K1()
    z = K1.gen()
    assert z ** 2 + z + 1 == 0
    assert z ** 3 == 1
    assert z ** 3 - 1 == 0


def test_cross_level_coercion():
    K, K1 = make_K1()
    eta = K.gen()
    z = K1.gen()
    s = eta + z  # auto-promotes eta into K1
    assert s.field is K1
    assert s - z == K1.coerce(eta)
    assert (s - eta) == z


def test_coercion_through_the_whole_tower():
    # over Q(eta, zeta)(w) an element of Q(eta) comes in two levels up
    K, K1 = make_K1()
    K2 = NumberField("w", [K1.coerce(-2), K1.zero(), K1.one()], K1)
    eta, w = K.gen(), K2.gen()
    assert K2.coerce(eta) == K2.coerce(K1.coerce(eta))
    assert (w + eta).field is K2
    assert w + eta == eta + w
    assert (w + eta) - w == K2.coerce(eta)
    # rational constants of any level still come down to Q
    assert QQ.coerce(K2.coerce(Fraction(3, 4))) == Fraction(3, 4)


def test_coerce_takes_a_deeper_element_down():
    # a value of K written in K1 = K(b) comes back into K
    K = NumberField("a", [Fraction(-2), 0, 1])
    K1 = NumberField("b", [K.coerce(-3), K.zero(), K.one()], K)
    a = K.gen()
    x = K.coerce(K1.coerce(a))
    assert x == a and x.field is K
    assert K.coerce(K1.coerce(a) * 3 + 1).num == (1, 3)
    with pytest.raises(FieldError):
        K.coerce(K1.gen())
    with pytest.raises(FieldError):
        K.coerce(K1.gen() * a)


def test_tower_lists_levels_from_q_up():
    K, K1 = make_K1()
    assert tower(K1) == [K, K1]
    assert tower(K) == [K]
    assert tower(QQ) == []


def test_common_field_is_the_deepest_item():
    K, K1 = make_K1()
    zeta_poly = MultiPoly.var(("x",), "x", K1) * K1.gen()
    assert common_field(Fraction(1, 2), K.gen(), zeta_poly) is K1
    assert common_field(3, Fraction(1, 2)) is QQ
    assert common_field(K, K.gen()) is K


def test_unrelated_towers_do_not_meet():
    A = NumberField("a", [Fraction(-2), 0, 1])
    B = NumberField("b", [Fraction(-3), 0, 1])
    with pytest.raises(FieldError):
        A.gen() + B.gen()
    with pytest.raises(FieldError):
        common_field(A.gen(), B)
    assert A.gen() != B.gen()
    assert A.gen() + 1 != B.gen() + 1


def test_equality_across_towers_is_transitive():
    # rational constants meet in Q, whichever tower they are written in
    A = NumberField("a", [Fraction(-2), 0, 1])
    B = NumberField("b", [Fraction(-3), 0, 1])
    assert A.one() == B.one()
    assert len({1, A.one(), B.one()}) == len({A.one(), B.one(), 1}) == 1
    # two extensions of one base meet in that base
    E = make_K()
    e = E.gen()
    P = NumberField("p", [-2, 0, 1], E)
    Q = NumberField("q", [-3, 0, 1], E)
    assert P.coerce(e) == Q.coerce(e)
    assert P.coerce(e) != Q.coerce(e + 1)
    assert len({P.coerce(e), Q.coerce(e), e}) == 1


def test_hash_agrees_with_equality():
    # equal values hash alike across tower levels and against rationals
    K, K1 = make_K1()
    eta = K.gen()
    assert len({eta, K1.coerce(eta)}) == 1
    assert hash(K.one()) == hash(1)
    assert hash(K1.coerce(Fraction(2, 3))) == hash(Fraction(2, 3))
    assert len({K1.gen() * eta, K1.gen() * K1.coerce(eta)}) == 1


def test_division_and_zero_division():
    K = make_K()
    eta = K.gen()
    x = (eta ** 2 - 3) / (eta + 1)
    assert x * (eta + 1) == eta ** 2 - 3
    with pytest.raises(ZeroDivisionError):
        K.zero().inverse()


def test_tower_depth_cap():
    K, K1 = make_K1()
    # a third extension is allowed...
    K2 = NumberField("w", [K1.one(), K1.zero(), K1.one()], K1)
    assert total_degree(K2) == 16
    assert K2.gen() ** 2 == -1
    # ...a fourth is not
    with pytest.raises(FieldError):
        NumberField("w2", [K2.one(), K2.zero(), K2.one()], K2)


def test_duplicate_generator_name_rejected():
    # a repeated name would leave the inner generator unwritable in text
    K, K1 = make_K1()
    with pytest.raises(FieldError):
        NumberField("eta", [K1.one(), K1.zero(), K1.one()], K1)
    with pytest.raises(FieldError):
        field_from_doc({"vars": ["a", "a"], "minpolys": ["t^2-2", "t^2-3"]})


# -- extension policy --------------------------------------------------------

@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
def test_extension_policy_table(depth, degree):
    # degree <= 4 over Q, <= 2 over depth 1 or 2, only linear over depth 3
    field = QQ
    for name, c in (("a", -2), ("b", -3), ("c", -5))[:depth]:
        field = NumberField(name, [Fraction(c), 0, 1], field)
    part = [field.coerce(-11)] + [field.zero()] * (degree - 1) + [field.one()]
    counter = [0]
    if degree > (4, 2, 2, 1)[depth]:
        with pytest.raises(FieldError, match="extension policy"):
            adjoin_root(part, field, counter)
        assert counter == [0]
        return
    root, ext = adjoin_root(part, field, counter)
    assert root ** degree == 11
    if degree == 1:
        assert ext is field and counter == [0]
    else:
        assert ext.base is field and ext.name == "w1" and root == ext.gen()


# -- automorphisms -----------------------------------------------------------

def test_conjugation_automorphism():
    K, K1 = make_K1()
    eta = K1.coerce(K.gen())
    z = K1.gen()
    sigma = FieldAutomorphism(K1, [eta, -1 - z])
    assert sigma(z) == -1 - z
    assert sigma(eta) == eta         # fixes the quartic subfield
    assert sigma(sigma(z)) == z      # involution
    a = (eta + z) * (2 - z * eta)
    assert sigma(a) == (eta + sigma(z)) * (2 - sigma(z) * eta)


def test_bad_automorphism_rejected():
    K, K1 = make_K1()
    z = K1.gen()
    with pytest.raises(FieldError):
        FieldAutomorphism(K1, [K1.coerce(K.gen()), z + 1])


def test_automorphism_must_map_minimal_polynomials():
    # b^2 = a, so sigma(b)^2 must be sigma(a) = -a: b does not qualify
    K = NumberField("a", [Fraction(-2), 0, 1])
    K1 = NumberField("b", [-K.gen(), 0, 1], K)
    a, b = K1.coerce(K.gen()), K1.gen()
    with pytest.raises(FieldError):
        FieldAutomorphism(K1, [-a, b])
    sigma = FieldAutomorphism(K1, [a, -b])
    assert sigma(b) == -b and sigma(sigma(b)) == b


def _apply_by_horner(images, x, field):
    """sigma(x) from the generator images alone: Horner's rule over the
    coordinates of x, each coordinate mapped the same way one level down."""
    if not isinstance(x, FieldElement):
        return field.coerce(x)
    img = images[x.field.depth() - 1]
    acc = field.zero()
    for c in reversed(x.coords):
        acc = acc * img + _apply_by_horner(images, c, field)
    return acc


def _automorphism_case(seed, rng):
    """(field, generator images) of an automorphism of a tower of depth
    1 + seed % 3: Q(z5) with z -> z^k; Q(w)(c), c^3 = 2, with
    w -> w or w^2 and c -> w^j c, or the paper's Q(eta)(zeta) with
    zeta -> zeta or -1 - zeta; and Q(w)(c)(r), r^2 = 5, with r -> +-r."""
    depth = 1 + seed % 3
    if depth == 1:
        K = NumberField("z", [1, 1, 1, 1, 1])
        return K, [K.gen() ** rng.randint(1, 4)]
    if depth == 2 and seed % 2:
        K, K1 = make_K1()
        z = K1.gen()
        return K1, [K1.coerce(K.gen()), rng.choice([z, -1 - z])]
    W = NumberField("w", [1, 1, 1])
    C = NumberField("c", [-2, 0, 0, 1], W)
    top = C if depth == 2 else NumberField("r", [-5, 0, 1], C)
    w, c = top.coerce(W.gen()), top.coerce(C.gen())
    images = [rng.choice([w, w * w]), w ** rng.randint(0, 2) * c]
    if depth == 3:
        images.append(rng.choice([1, -1]) * top.gen())
    return top, images


@pytest.mark.parametrize("seed", range(100))
def test_automorphism_matches_generator_images(seed):
    rng = random.Random(50_000 + seed)
    field, images = _automorphism_case(seed, rng)
    sigma = FieldAutomorphism(field, images)
    levels = tower(field)
    # values of every level of the tower, the field itself most often
    x, y = (_random_element(rng.choice(levels + [field] * 2), rng)
            for _ in range(2))
    assert sigma(x) == _apply_by_horner(images, x, field)
    assert sigma(x * y) == sigma(x) * sigma(y)
    assert sigma(x + y) == sigma(x) + sigma(y)


# -- Sturm counting ----------------------------------------------------------

def test_sturm_quartic_has_two_real_roots():
    assert sturm_real_roots(QUARTIC) == 2


def test_sturm_standard_cases():
    one = Fraction(1)
    assert sturm_real_roots([one, Fraction(0), one]) == 0      # t^2+1
    assert sturm_real_roots([-2 * one, Fraction(0), one]) == 2  # t^2-2
    # (t^2-2)(t^2+1)(t-3): three distinct real roots
    p = [Fraction(c) for c in [6, -2, 3, -1, -3, 1]]
    assert sturm_real_roots(p) == 3
    # repeated roots counted once: (t-1)^2
    assert sturm_real_roots([one, -2 * one, one]) == 1


# -- irreducibility / rational roots ----------------------------------------

def factor_degrees(coeffs):
    """Degrees of the irreducible factors over Q found by factor_bounded,
    and of those left unresolved."""
    f = MultiPoly.from_univariate([Fraction(c) for c in coeffs], ("t",), "t")
    _c, fac, unres = factor_bounded(f, "t")
    return (sorted(p.degree_in("t") for p, _m in fac),
            sorted(p.degree_in("t") for p, _m in unres))


def test_quartic_irreducible():
    assert factor_degrees(QUARTIC) == ([4], [])


def test_eisenstein_quadratic_irreducible():
    assert factor_degrees([1, 1, 1]) == ([2], [])


def test_reducible_quartics_detected():
    # (t^2+1)(t^2+2) = t^4 + 3t^2 + 2 : no rational roots, quadratic split
    assert factor_degrees([2, 0, 3, 0, 1]) == ([2, 2], [])
    # t^4 - 4 = (t^2-2)(t^2+2)
    assert factor_degrees([-4, 0, 0, 0, 1]) == ([2, 2], [])
    # rational root case: t^3 - 1 = (t - 1)(t^2 + t + 1)
    assert factor_degrees([-1, 0, 0, 1]) == ([1, 2], [])


def test_quartic_with_huge_coefficient_splits():
    # (t^2 + 3*10^61*t + 2)(t^2 + t + 5): no rational root, and a
    # numerical guess of the quadratic factors misses the large one
    big = [Fraction(2), Fraction(3 * 10 ** 61), Fraction(1)]
    small = [Fraction(5), Fraction(1), Fraction(1)]
    f = MultiPoly.from_univariate(up_mul(big, small), ("t",), "t")
    _c, fac, unres = factor_bounded(f, "t")
    assert not unres
    assert sorted(p.univariate_coeffs("t") for p, _m in fac) == \
        sorted([big, small])


def test_rational_roots():
    # 6t^3 - 5t^2 - 2t + 1 = (t-1)(3t-1)(2t+1)
    p = [Fraction(1), Fraction(-2), Fraction(-5), Fraction(6)]
    assert sorted(rational_roots(p)) == [
        Fraction(-1, 2), Fraction(1, 3), Fraction(1)]
    assert rational_roots([Fraction(0), Fraction(1)]) == [Fraction(0)]


def test_rational_roots_with_huge_constant_term():
    # trial division of a constant term near 10^40 never finishes
    import time
    r = Fraction(10 ** 40 + 7, 3)
    p = up_mul([-r, Fraction(1)], [Fraction(3), Fraction(0), Fraction(1)])
    t0 = time.monotonic()
    assert rational_roots(p) == [r]
    assert time.monotonic() - t0 < 5


# -- exact roots over towers -------------------------------------------------

def test_sqrt_in_field():
    K = make_K()
    eta = K.gen()
    assert sqrt_in_field(Fraction(4)) == 2
    assert sqrt_in_field(Fraction(2)) is None
    assert sqrt_in_field((eta + 1) ** 2) in ((eta + 1), -(eta + 1))
    assert sqrt_in_field(eta ** 2 - 2 * eta) is None


def test_sqrt_in_degree_16_tower():
    # over Q(eta, zeta)(w), w^2 = 2: sixteen embeddings, beyond any search
    # over their sign patterns
    K, K1 = make_K1()
    K2 = NumberField("w", [K1.coerce(-2), K1.zero(), K1.one()], K1)
    x = K2.gen() + K2.coerce(K1.gen())
    assert sqrt_in_field(x * x) in (x, -x)


def test_roots_in_field():
    K = make_K()
    eta = K.gen()
    # (t - eta)(t - 2) = t^2 - (eta+2)t + 2eta
    poly = [2 * eta, -(eta + 2), K.one()]
    roots = roots_in_field(poly, K)
    assert sorted(roots, key=lambda r: str(r)) == sorted(
        [K.coerce(2), eta], key=lambda r: str(r))
    # t^2 - eta has no root in K (eta is not a square there)
    assert roots_in_field([-eta, K.zero(), K.one()], K) == []


def test_root_beside_irreducible_cubic_over_K1():
    # (t - zeta)(t^3 + t + 1) over Q(eta, zeta), of degree 8
    K, K1 = make_K1()
    z = K1.gen()
    poly = up_mul([-z, K1.one()], [K1.one(), K1.one(), K1.zero(), K1.one()],
                  K1.zero())
    assert roots_in_field(poly, K1) == [z]


# -- structured documents ----------------------------------------------------

def test_field_from_doc_and_element_roundtrip():
    doc = {"vars": ["eta", "zeta"],
           "minpolys": ["t^4-2*t^3+t^2-2*t-2", "z^2+z+1"]}
    K1 = field_from_doc(doc)
    assert total_degree(K1) == 8
    assert K1.name == "zeta"
    assert K1.base.name == "eta"
    eta = K1.coerce(K1.base.gen())
    assert eta ** 4 - 2 * eta ** 3 + eta ** 2 - 2 * eta - 2 == 0
    x = eta ** 2 + K1.gen() * Fraction(5, 7)
    assert element_from_doc(
        K1, [["0", "0", "1", "0"], ["5/7", "0", "0", "0"]]) == x
    # the documented coordinate-vector shape over the quartic field
    r16 = 437 * eta ** 3 - 1270 * eta ** 2 + 1130 * eta - 1696
    assert element_from_doc(K1.base,
                            ["-1696", "1130", "-1270", "437"]) == r16


def test_field_from_doc_relative_minimal_polynomial():
    # b^2 = a over Q(a), a^2 = 2: the level's variable is s, the one
    # identifier that names no generator below
    K = field_from_doc({"vars": ["a", "b"], "minpolys": ["t^2-2", "s^2-a"]})
    assert [f.name for f in tower(K)] == ["a", "b"]
    b, a = K.gen(), K.coerce(K.base.gen())
    assert b * b == a and a * a == 2
    with pytest.raises(FieldError):
        field_from_doc({"vars": ["a", "b"], "minpolys": ["t^2-2", "s^2-r"]})


# -- property suite: field axioms (>= 100 randomized cases) ------------------

def _random_element(field, rng, depth=0):
    if isinstance(field, NumberField):
        return field.element([
            _random_element(field.base, rng) for _ in range(field.degree)])
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


@pytest.mark.parametrize("seed", range(100))
def test_field_axioms_random(seed):
    rng = random.Random(10_000 + seed)
    K, K1 = make_K1()
    F = K if seed % 2 == 0 else K1
    a = _random_element(F, rng)
    b = _random_element(F, rng)
    c = _random_element(F, rng)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + F.zero() == a
    assert a * F.one() == a
    assert a - a == F.zero()
    if b:
        assert (a / b) * b == a
        assert b * b.inverse() == F.one()


@pytest.mark.parametrize("seed", range(25))
def test_up_divmod_random(seed):
    rng = random.Random(20_000 + seed)
    K = make_K()
    p = [_random_element(K, rng) for _ in range(rng.randint(1, 6))]
    q = up_trim([_random_element(K, rng) for _ in range(rng.randint(1, 4))])
    if not q:
        q = [K.one()]
    quo, rem = up_divmod(p, q)
    from exactcurves.fields import up_add, up_mul
    assert up_add(up_mul(quo, q), rem) == up_trim(p)
    assert len(rem) - 1 < len(q) - 1 or not rem


def test_up_gcd_is_common_divisor():
    rng = random.Random(3)
    K = make_K()
    for _ in range(20):
        g = [_random_element(K, rng) for _ in range(3)]
        g = up_trim(g) or [K.one()]
        a = [_random_element(K, rng) for _ in range(3)]
        b = [_random_element(K, rng) for _ in range(3)]
        from exactcurves.fields import up_mul
        p, q = up_mul(g, a), up_mul(g, b)
        if not p or not q:
            continue
        d = poly_gcd([p, q], K)
        assert not up_divmod(p, d)[1]
        assert not up_divmod(q, d)[1]


# -- differential suite against sympy: tower arithmetic (100 cases) ----------

# The minimal polynomial w^2 + c1*w + c0 over Q(eta, zeta) of the octic's
# adjoined root w1 (coordinates over Q(eta), each over Q).
W1_MINPOLY = [
    [["-304793237/374557184", "-109647147/46819648",
      "-378581907/374557184", "98164307/93639296"],
     ["118766195/93639296", "62847771/93639296",
      "-204430311/93639296", "69343137/93639296"]],
    [["-7239697/5852456", "-18551511/55598332",
      "283992083/111196664", "-54624491/55598332"],
     ["-709728/731557", "-13496117/13899583",
      "15376398/13899583", "-2798769/13899583"]],
    [["1", "0", "0", "0"], ["0", "0", "0", "0"]]]


def make_K2():
    K, K1 = make_K1()
    K2 = NumberField("w1", [element_from_doc(K1, c) for c in W1_MINPOLY], K1)
    return K, K1, K2


def _sparse_element(field, rng):
    """A random element with some zero coordinates at every level."""
    if not isinstance(field, NumberField):
        return Fraction(rng.randint(-30, 30) * (rng.random() < 0.8),
                        rng.randint(1, 12))
    return field.element([_sparse_element(field.base, rng)
                          for _ in range(field.degree)])


def _sympy_tower(field, varnames=()):
    """sympy's QQ[levels, varnames] in lex order, top level first, the map
    of values (and of MultiPolys in `varnames`) into it, and the minimal
    polynomials of the levels.  Their leading monomials are powers of
    distinct generators, so they form a Groebner basis, and the remainder
    by them is the reduced form."""
    import sympy
    from sympy.polys.orderings import lex
    from sympy.polys.rings import ring
    levels = tower(field)[::-1]
    names = [f.name for f in levels] + list(varnames)
    R, *gens = ring(",".join(names), sympy.QQ, lex)
    gen = dict(zip(names, gens))

    def image(x):
        if isinstance(x, (int, Fraction)):
            return R(sympy.QQ(x.numerator, x.denominator))
        if isinstance(x, MultiPoly):
            return sum((image(c) * R.mul(*(gen[v] ** k
                                           for v, k in zip(x.vars, e)))
                        for e, c in x.terms.items()), R.zero)
        return sum((image(c) * gen[x.field.name] ** i
                    for i, c in enumerate(x.coords)), R.zero)

    minpolys = [sum((image(c) * gen[f.name] ** i
                     for i, c in enumerate(f.minpoly)), R.zero)
                for f in levels]
    return image, minpolys


@pytest.mark.parametrize("seed", range(100))
def test_tower_arithmetic_matches_sympy(seed):
    rng = random.Random(30_000 + seed)
    fields = make_K2()
    F = fields[seed % 3]
    image, minpolys = _sympy_tower(F)
    x = _sparse_element(F, rng)
    # the second operand may live one level lower: mixed-level arithmetic
    y = _sparse_element(fields[max(seed % 3 - seed // 3 % 2, 0)], rng)
    xs, ys = image(x), image(y)

    def same(p, ours):
        return p.rem(minpolys) == image(ours)

    assert same(xs * ys, x * y)
    n = rng.randint(2, 5)
    assert same(xs ** n, x ** n)
    if y:
        # the inverse, the quotient and a negative power are what sympy
        # multiplies back
        assert same(image(y.inverse()) * ys, 1)
        assert same(image(x / y) * ys, x)
        assert same(image(y ** -2) * ys ** 2, 1)
    # flat elements: hash agrees with equality across levels
    for z in (x, y):
        up = fields[2].coerce(z)
        assert up == z and hash(up) == hash(z)
        assert F.coerce(up) == z
    assert F.one() == 1 and hash(F.one()) == hash(1) == hash(fields[0].one())
