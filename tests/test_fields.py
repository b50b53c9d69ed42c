"""Tests for exact number-field tower arithmetic."""

import random
from fractions import Fraction

import pytest

from exactcurves.fields import (
    QQ, FieldAutomorphism, FieldElement, FieldError, NumberField,
    common_field, element_from_doc, element_to_doc, field_create, field_from_doc,
    rational_roots, roots_in_field, sqrt_in_field, sturm_real_roots,
    tower, up_derivative, up_divmod, up_eval, up_gcd, up_mul, up_trim,
)
from exactcurves.multipoly import MultiPoly, factor_bounded

# The quartic t^4 - 2t^3 + t^2 - 2t - 2 and the Eisenstein quadratic on top.
QUARTIC = [Fraction(-2), Fraction(-2), Fraction(1), Fraction(-2), Fraction(1)]


def make_K():
    return field_create(QUARTIC, varname="eta")


def make_K1():
    K = make_K()
    return K, NumberField("zeta", [K.one(), K.one(), K.one()], K)


# -- construction and basic arithmetic --------------------------------------

def test_tower_degrees():
    K, K1 = make_K1()
    assert K.degree == 4
    assert K.total_degree() == 4
    assert K1.degree == 2
    assert K1.total_degree() == 8
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
    A = field_create([Fraction(-2), 0, 1], varname="a")
    B = field_create([Fraction(-3), 0, 1], varname="b")
    with pytest.raises(FieldError):
        A.gen() + B.gen()
    with pytest.raises(FieldError):
        common_field(A.gen(), B)
    assert A.gen() != B.gen()
    assert not (A.one() == B.one())


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
    assert K2.total_degree() == 16
    assert K2.gen() ** 2 == -1
    # ...a fourth is not
    with pytest.raises(FieldError):
        NumberField("w2", [K2.one(), K2.zero(), K2.one()], K2)


# -- automorphisms -----------------------------------------------------------

def test_conjugation_automorphism():
    K, K1 = make_K1()
    eta = K1.coerce(K.gen())
    z = K1.gen()
    sigma = FieldAutomorphism(K1, [eta, -1 - z])
    assert sigma(z) == -1 - z
    assert sigma(eta) == eta         # fixes the quartic subfield
    assert sigma(sigma(z)) == z      # involution
    assert sigma.order() == 2
    a = (eta + z) * (2 - z * eta)
    assert sigma(a) == (eta + sigma(z)) * (2 - sigma(z) * eta)


def test_bad_automorphism_rejected():
    K, K1 = make_K1()
    z = K1.gen()
    with pytest.raises(FieldError):
        FieldAutomorphism(K1, [K1.coerce(K.gen()), z + 1])


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

def factor_degrees(coeffs, cap=4):
    """Degrees of the irreducible factors over Q found by factor_bounded,
    and of those left unresolved."""
    f = MultiPoly.from_univariate([Fraction(c) for c in coeffs], ("t",), "t")
    _c, fac, unres = factor_bounded(f, "t", cap=cap)
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
    _c, fac, unres = factor_bounded(f, "t", cap=4)
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
    assert K1.total_degree() == 8
    assert K1.name == "zeta"
    assert K1.base.name == "eta"
    eta = K1.coerce(K1.base.gen())
    assert eta ** 4 - 2 * eta ** 3 + eta ** 2 - 2 * eta - 2 == 0
    x = eta ** 2 + K1.gen() * Fraction(5, 7)
    doc2 = element_to_doc(x)
    assert element_from_doc(K1, doc2) == x
    # the documented coordinate-vector shape over the quartic field
    r16 = 437 * eta ** 3 - 1270 * eta ** 2 + 1130 * eta - 1696
    base_val = r16.as_base_constant()
    assert element_to_doc(base_val) == ["-1696", "1130", "-1270", "437"]


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
        d = up_gcd(p, q)
        assert not up_divmod(p, d)[1]
        assert not up_divmod(q, d)[1]
