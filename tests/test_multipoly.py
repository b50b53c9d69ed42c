"""Tests for sparse multivariate polynomial arithmetic."""

import random
from fractions import Fraction

import pytest

from exactcurves.factoring import poly_gcd
from exactcurves.fields import QQ, FieldError, NumberField, up_derivative
from exactcurves.multipoly import (
    MultiPoly, PolyError, exact_div, factor_bounded, parse_poly,
    resultant, squarefree_decomposition, squarefree_part,
)
from test_fields import _sparse_element, _sympy_tower, make_K2

XYZ = ("x", "y", "z")


def rand_poly(rng, varnames=XYZ, max_deg=3, nterms=5, coeff=9):
    terms = {}
    for _ in range(nterms):
        e = tuple(rng.randint(0, max_deg) for _ in varnames)
        terms[e] = Fraction(rng.randint(-coeff, coeff))
    return MultiPoly(varnames, terms)


def rand_poly_in_x(rng, **kw):
    # resample until x genuinely appears, so resultant suites never skip
    while True:
        p = rand_poly(rng, **kw)
        if p.degree_in("x") > 0:
            return p


# -- arithmetic --------------------------------------------------------------

def test_parse_and_expand():
    f = parse_poly("x^2 + 2*x*y + y^2 - z^2", XYZ)
    g = parse_poly("(x+y-z)*(x+y+z)", XYZ)
    assert f == g
    assert parse_poly("0", XYZ).is_zero()
    assert parse_poly("-3/4*x", XYZ) == parse_poly("(-3*x)/4", XYZ)


@pytest.mark.parametrize("text, expected", [
    ("-x^2", "-1*x^2"), ("2*-x^2", "-2*x^2"), ("x*-y^2", "-1*x*y^2"),
    ("x/-2", "-1/2*x"), ("x - -y", "x + y"), ("(-x)^2", "x^2")])
def test_sign_negates_the_power_after_it(text, expected):
    assert parse_poly(text, XYZ).to_text() == expected


@pytest.mark.parametrize("text", ["2x", "x y", "2(x+1)"])
def test_products_need_a_star(text):
    with pytest.raises(PolyError, match="trailing input"):
        parse_poly(text, XYZ)


def test_parse_rejects_garbage():
    with pytest.raises(PolyError):
        parse_poly("x + w", XYZ)
    with pytest.raises(PolyError):
        parse_poly("x^", XYZ)
    with pytest.raises(PolyError):
        parse_poly("(x", XYZ)


def test_degree_and_homogeneity():
    f = parse_poly("x^3 + y^2*z + z^3", XYZ)
    assert f.degree() == 3
    assert f.is_homogeneous()
    assert not parse_poly("x^2 + y^3", XYZ).is_homogeneous()
    assert MultiPoly.zero(XYZ).degree() == -1


def test_derivative():
    f = parse_poly("x^3*y + 2*x*z^2 - 7", XYZ)
    assert f.derivative("x") == parse_poly("3*x^2*y + 2*z^2", XYZ)
    assert f.derivative("y") == parse_poly("x^3", XYZ)
    assert f.derivative("z") == parse_poly("4*x*z", XYZ)


def test_substitute_and_eval():
    f = parse_poly("x^2 - y", XYZ)
    g = f.substitute({"x": parse_poly("y+1", XYZ)})
    assert g == parse_poly("y^2 + y + 1", XYZ)
    v = f.eval_point({"x": Fraction(3), "y": Fraction(2), "z": Fraction(0)})
    assert v == 7


def test_substitute_into_other_variables():
    f = parse_poly("x*y", ("x", "y"))
    uv = ("u", "v")
    g = f.substitute({"x": parse_poly("u+v", uv), "y": parse_poly("u-v", uv)})
    assert g == parse_poly("u^2 - v^2", uv)


def test_substitute_rejects_keys_that_are_not_variables():
    # a misspelled variable used to be ignored, returning f unchanged
    f = parse_poly("x^2 + y", ("x", "y"))
    with pytest.raises(PolyError, match="'X'"):
        f.substitute({"X": 1})
    with pytest.raises(PolyError, match="'z'"):
        f.substitute({"x": 2, "z": parse_poly("x", ("x", "y"))})


def _sparse_poly(field, varnames, rng, nterms=4, max_deg=2):
    """A random polynomial whose coefficients come from `_sparse_element`:
    mixed denominators, some zero coordinates at every level."""
    return MultiPoly(varnames, {
        tuple(rng.randint(0, max_deg) for _ in varnames):
            _sparse_element(field, rng) for _ in range(nterms)}, field)


def _reduce_coefficients(p, minpolys, n):
    """The remainder of a sympy polynomial `p` by the minimal polynomials,
    taken for the coefficient of each monomial in its last n variables on
    its own: the minimal polynomials hold none of them, and sympy's `rem`
    slows down quadratically in the number of terms."""
    ring, k = p.ring, p.ring.ngens - n
    parts = {}
    for m, c in p.items():
        parts.setdefault(m[k:], {})[m[:k] + (0,) * n] = c
    out = {}
    for tail, part in parts.items():
        for m, c in ring(part).rem(minpolys).items():
            out[m[:k] + tail] = c
    return ring(out)


@pytest.mark.parametrize("seed", range(100))
def test_products_match_sympy(seed):
    # products, powers and substitutions over Q and the towers of depth
    # 1-3 against sympy, reduced modulo the minimal polynomials; every
    # other pair of cases plants the cancellation (p + q)(p - q) = p^2 - q^2
    rng = random.Random(60_000 + seed)
    levels = (QQ, *make_K2())
    F = levels[seed % 4]
    names = XYZ[:2 + seed // 4 % 2]
    image, minpolys = _sympy_tower(F, names)

    def reduced(theirs):
        return _reduce_coefficients(theirs, minpolys, len(names))

    def same(ours, theirs):
        # a sum that cancels leaves no zero coefficient behind
        assert all(ours.terms.values())
        return reduced(theirs) == image(ours)

    # fewer terms and lower powers at depth 3, where sympy's reduction
    # dominates the run
    deep = seed % 4 == 3
    p, q, g = (_sparse_poly(F, names, rng, nterms=3 if deep else 4)
               for _ in range(3))
    a, b = (p + q, p - q) if seed // 8 % 2 else (p, q)
    assert same(a * b, image(a) * image(b))
    k = rng.randint(0, 2 if deep else 4)
    power = image(F.one())
    for _ in range(k):
        # reduced at each step: unreduced tower powers swell in sympy
        power = reduced(power * image(a))
    assert same(a ** k, power)
    # x -> a polynomial, y -> a monomial whose coefficient may lie in a
    # lower level; z, when present, stays
    x, y = (MultiPoly.var(names, v, F) for v in names[:2])
    low = levels[rng.randint(0, seed % 4)]
    mono = MultiPoly(names, {tuple(rng.randint(0, 2) for _ in names):
                             _sparse_element(low, rng) or 1}, low)
    # sympy substitutes into each monomial of g, reduced before it meets
    # the coefficient: composing image(g) whole swells like the powers
    subs = [(image(x), image(q)), (image(y), image(mono))]
    theirs = sum((image(c) * reduced(image(MultiPoly(names, {e: 1}))
                                     .compose(subs))
                  for e, c in g.terms.items()), image(F.zero()))
    assert same(g.substitute({"x": q, "y": mono}), theirs)


def test_homogeneous_part():
    f = parse_poly("x^2 + x*y + z + 1", XYZ)
    assert f.homogeneous_part(2) == parse_poly("x^2 + x*y", XYZ)
    assert f.homogeneous_part(1) == parse_poly("z", XYZ)
    assert f.homogeneous_part(0) == parse_poly("1", XYZ)


def test_exact_division():
    f = parse_poly("(x+y-z)*(x^2+z^2)", XYZ)
    assert exact_div(f, parse_poly("x+y-z", XYZ)) == parse_poly(
        "x^2+z^2", XYZ)
    with pytest.raises(PolyError):
        exact_div(parse_poly("x^2+1", XYZ), parse_poly("x+y", XYZ))


# -- resultants --------------------------------------------------------------

def test_resultant_known_value():
    # Res_x(x^2 - y, x^2 - 3x + y) = 4y^2 - 9y
    r = resultant(parse_poly("x^2-y", XYZ),
                  parse_poly("x^2-3*x+y", XYZ), "x")
    assert r == parse_poly("4*y^2 - 9*y", XYZ)


def test_resultant_common_root_vanishes():
    f = parse_poly("(x-y)*(x+z)", XYZ)
    g = parse_poly("(x-y)*(x-2*z)", XYZ)
    assert resultant(f, g, "x").is_zero()


def to_sympy(f):
    """A polynomial over Q as a sympy expression in its variables."""
    import sympy
    syms = sympy.symbols(f.vars)
    return sympy.Add(*[sympy.Rational(c.numerator, c.denominator)
                       * sympy.Mul(*[s ** k for s, k in zip(syms, e)])
                       for e, c in f.terms.items()])


@pytest.mark.parametrize("seed", range(100))
def test_resultant_matches_sylvester_oracle(seed):
    # the oracle is the determinant of sympy's Sylvester matrix;
    # sympy.resultant itself is not used, since sympy 1.14 drops the sign
    # (-1)^(m*n) when deg f < deg g: resultant(x - 1, x^3 - 2, x) gives 1
    import sympy
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.subresultants_qq_zz import sylvester
    rng = random.Random(40_000 + seed)
    a = rand_poly_in_x(rng, max_deg=3, nterms=4, coeff=5)
    b = rand_poly_in_x(rng, max_deg=3, nterms=4, coeff=5)
    M = DomainMatrix.from_Matrix(
        sylvester(to_sympy(a), to_sympy(b), sympy.Symbol("x")))
    expected = M.domain.to_sympy(M.det())
    assert sympy.expand(to_sympy(resultant(a, b, "x")) - expected) == 0


@pytest.mark.parametrize("seed", range(100))
def test_resultant_multiplicative(seed):
    rng = random.Random(50_000 + seed)
    a = rand_poly_in_x(rng, max_deg=2, nterms=3, coeff=4)
    b = rand_poly_in_x(rng, max_deg=2, nterms=3, coeff=4)
    c = rand_poly_in_x(rng, max_deg=2, nterms=3, coeff=4)
    assert resultant(a * b, c, "x") == resultant(a, c, "x") * \
        resultant(b, c, "x")


@pytest.mark.parametrize("seed", range(100))
def test_resultant_swap_sign(seed):
    rng = random.Random(60_000 + seed)
    a = rand_poly_in_x(rng, max_deg=3, nterms=4, coeff=5)
    b = rand_poly_in_x(rng, max_deg=2, nterms=4, coeff=5)
    m, n = a.degree_in("x"), b.degree_in("x")
    lhs = resultant(a, b, "x")
    rhs = resultant(b, a, "x")
    if (m * n) % 2 == 0:
        assert lhs == rhs
    else:
        assert lhs == -rhs


def test_resultant_over_number_field():
    K = NumberField("eta", [Fraction(-2), Fraction(-2), Fraction(1),
                            Fraction(-2), Fraction(1)])
    p = parse_poly("eta*x^2 + (eta^2-2)*y", ("x", "y"), K)
    q = parse_poly("x*y - 1", ("x", "y"), K)
    eta = K.gen()
    expect = MultiPoly(("x", "y"), {(0, 3): eta ** 2 - 2, (0, 0): eta}, K)
    assert resultant(p, q, "x") == expect


def test_hash_agrees_with_equality():
    one = MultiPoly.const(("x",), 1)
    assert one == 1 and len({one, 1}) == 1
    K = NumberField("a", [Fraction(-2), 0, 1])
    K1 = NumberField("b", [K.one(), K.zero(), K.one()], K)
    p = parse_poly("a*x^2 + 1", ("x",), K)
    assert p == p.to_field(K1) and len({p, p.to_field(K1)}) == 1
    assert len({parse_poly("x + 1", ("x",)),
                parse_poly("x + 1", ("x",), K)}) == 1


def test_coefficients_are_coerced_into_the_field():
    # an element of a deeper field is no coefficient of a K polynomial
    # unless its value lies in K
    K = NumberField("a", [Fraction(-2), 0, 1])
    K1 = NumberField("b", [K.coerce(-3), K.zero(), K.one()], K)
    with pytest.raises(FieldError):
        MultiPoly(("x",), {(1,): K1.gen()}, K)
    p = MultiPoly(("x",), {(1,): K1.coerce(K.gen())}, K)
    assert p.terms[(1,)].field is K
    B = NumberField("c", [Fraction(-5), 0, 1])
    with pytest.raises(FieldError):
        MultiPoly(("x",), {(1,): B.gen()}, K)


# -- gcd / squarefree --------------------------------------------------------

def test_gcd_univ():
    f, g, h = (parse_poly(t, ("x",)).univariate_coeffs("x")
               for t in ("(x-1)*(x-2)^2", "(x-1)*(x-3)", "2*(x-1)*(x-2)"))
    assert poly_gcd([f, g], QQ) == [-1, 1]
    assert poly_gcd([f, h], QQ) == [2, -3, 1]
    assert poly_gcd([f, h, g], QQ) == [-1, 1]
    # a zero list does not change the gcd; all zero gives []
    assert poly_gcd([[], h, [0]], QQ) == [2, -3, 1]
    assert poly_gcd([[], [0, 0]], QQ) == []


def test_squarefree_decomposition():
    h = parse_poly("3*x^2*(x-1)^3*(x+2)", ("x",))
    c, parts = squarefree_decomposition(h, "x")
    assert c == 3
    got = {(p.to_text(), m) for p, m in parts}
    assert got == {("x + 2", 1), ("x", 2), ("x + -1", 3)}
    # product reconstructs the input
    acc = MultiPoly.const(("x",), c)
    for p, m in parts:
        acc = acc * p ** m
    assert acc == h
    assert squarefree_part(h, "x") == parse_poly("x*(x-1)*(x+2)", ("x",))


@pytest.mark.parametrize("seed", range(100))
def test_squarefree_parts_are_squarefree(seed):
    rng = random.Random(70_000 + seed)
    coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(2, 6))]
    f = MultiPoly.from_univariate(coeffs, ("x",), "x")
    k = rng.randint(1, 3)
    g = f ** k * parse_poly("x^2+1", ("x",))
    if g.degree_in("x") <= 0:
        pytest.skip("degenerate sample")
    _, parts = squarefree_decomposition(g, "x")
    for p, _m in parts:
        cs = p.univariate_coeffs("x")
        assert len(poly_gcd([cs, up_derivative(cs)], QQ)) == 1  # gcd is 1
    # multiplicity-weighted product reconstructs g up to content
    acc = MultiPoly.const(("x",), 1)
    for p, m in parts:
        acc = acc * p ** m
    lc = g.univariate_coeffs("x")[-1]
    assert acc * lc == g


def test_factor_bounded():
    f = parse_poly("(x-1)*(x^2+1)*(x^2-2)", ("x",))
    content, fac, unres = factor_bounded(f, "x")
    assert content == 1
    assert not unres
    got = {p.to_text() for p, _ in fac}
    assert got == {"x + -1", "x^2 + 1", "x^2 + -2"}


def test_factor_bounded_returns_quartic_factor():
    f = parse_poly("(x^4 - 2*x^3 + x^2 - 2*x - 2)*(x-5)", ("x",))
    _, fac, unres = factor_bounded(f, "x")
    assert not unres
    degs = sorted(p.degree_in("x") for p, _ in fac)
    assert degs == [1, 4]


# -- text --------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(30))
def test_text_roundtrip(seed):
    rng = random.Random(80_000 + seed)
    f = rand_poly(rng)
    assert parse_poly(f.to_text(), XYZ) == f
