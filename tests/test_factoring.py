"""Tests for the exact factorizer: Zassenhaus over Q, Trager over towers."""

import functools
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from exactcurves.factoring import (_norm, irreducible_factors, poly_gcd,
                                   squarefree_decomposition)
from exactcurves.fields import (QQ, FieldError, NumberField, roots_in_field,
                                up_mul)
from exactcurves.multipoly import MultiPoly, factor_bounded

QUARTIC = [Fraction(-2), Fraction(-2), Fraction(1), Fraction(-2), Fraction(1)]


@functools.lru_cache(maxsize=None)
def towers():
    K = NumberField("eta", QUARTIC)
    return K, NumberField("zeta", [K.one(), K.one(), K.one()], K)


def product(polys, field):
    out = [field.one()]
    for p in polys:
        out = up_mul(out, [field.coerce(c) for c in p], field.zero())
    return out


def test_norm_of_primitive_element_has_tower_degree():
    # eta + zeta generates Q(eta, zeta): its minimal polynomial over Q, the
    # norm of t - (eta + zeta) taken level by level, has degree 8
    K, K1 = towers()
    theta = K1.coerce(K.gen()) + K1.gen()
    norm = _norm(_norm([-theta, K1.one()], K1), K)
    factors, unresolved = irreducible_factors(norm, QQ)
    assert [len(q) - 1 for q, _m in factors] == [8] and not unresolved
    coeffs = [K1.coerce(c) for c in norm]
    value = K1.zero()
    for c in reversed(coeffs):
        value = value * theta + c
    assert value == 0


def test_known_factors_recovered_over_K1():
    K, K1 = towers()
    eta, zeta = K1.coerce(K.gen()), K1.gen()
    x = eta ** 3 - 2 * zeta + Fraction(7, 3)
    planted = [[-x, K1.one()],
               [-eta, K1.zero(), K1.one()],
               [K1.one(), zeta, K1.zero(), K1.one()]]
    factors, unresolved = irreducible_factors(product(planted, K1), K1)
    assert not unresolved
    assert sorted((tuple(q) for q, _m in factors), key=len) == \
        sorted(map(tuple, planted), key=len)


def test_recombination_budget_leaves_input_unresolved(monkeypatch):
    # t^4 - 10t^2 + 1, the minimal polynomial of sqrt(2) + sqrt(3), splits
    # modulo every prime, so its irreducibility rests on recombination
    import exactcurves.factoring as factoring
    monkeypatch.setattr(factoring, "RECOMBINATION_BUDGET", 1)
    f = [Fraction(c) for c in (1, 0, -10, 0, 1)]
    assert irreducible_factors(f, QQ) == ([], [(f, 1)])
    with pytest.raises(FieldError):
        roots_in_field(f, QQ)
    g = MultiPoly.from_univariate(f, ("t",), "t")
    assert factor_bounded(g, "t")[1:] == ([], [(g, 1)])


def test_recombination_budget_over_a_tower_keeps_the_norm_part_unresolved(
        monkeypatch):
    # over Q(i) the shifted norm of (t - 1)(t^4 - 10t^2 + 1) splits over Q
    # into the norm of t - 1 and a part left unsplit at the budget: the
    # quartic it gives stays unresolved, never reported irreducible
    import exactcurves.factoring as factoring
    monkeypatch.setattr(factoring, "RECOMBINATION_BUDGET", 1)
    K = NumberField("i", [Fraction(1), Fraction(0), Fraction(1)])
    quartic = [K.coerce(c) for c in (1, 0, -10, 0, 1)]
    f = product([[-1, 1], quartic], K)
    assert irreducible_factors(f, K) == ([([-1, 1], 1)], [(quartic, 1)])


# -- differential suite against sympy factor_list ---------------------------

@functools.lru_cache(maxsize=None)
def sympy_domains():
    """sympy's QQ<eta> and QQ<eta, zeta>, with the images of eta and zeta."""
    import sympy
    y = sympy.Symbol("y")
    r = sympy.CRootOf(y ** 4 - 2 * y ** 3 + y ** 2 - 2 * y - 2, 0)
    z = (-1 + sympy.sqrt(-3)) / 2
    D1 = sympy.QQ.algebraic_field(r)
    D2 = sympy.QQ.algebraic_field(r, z)
    return (D1, D1.from_sympy(r), None), (D2, D2.from_sympy(r),
                                          D2.from_sympy(z))


def to_sympy(c, domain, eta, zeta):
    """Image of a Fraction or tower element in a sympy algebraic domain."""
    import sympy
    if isinstance(c, Fraction):
        return domain.convert(sympy.Rational(c.numerator, c.denominator))
    gen = zeta if c.field.depth() == 2 else eta
    out = domain.zero
    for x in reversed(c.coords):
        out = out * gen + to_sympy(x, domain, eta, zeta)
    return out


def sympy_poly(coeffs, field):
    import sympy
    domain, eta, zeta = ((sympy.QQ, None, None) if field is QQ
                         else sympy_domains()[field.depth() - 1])
    return sympy.Poly.from_list(
        [to_sympy(c, domain, eta, zeta) for c in reversed(coeffs)],
        sympy.Symbol("t"), domain=domain)


def random_element(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-4, 4))
    return field.element([random_element(field.base, rng)
                          for _ in range(field.degree)])


def random_poly(field, rng, deg):
    coeffs = [random_element(field, rng) for _ in range(deg)]
    return coeffs + [field.one()]


@pytest.mark.parametrize("seed", range(100))
def test_factor_matches_sympy(seed):
    import sympy
    rng = random.Random(90_000 + seed)
    K, K1 = towers()
    if seed < 60:
        field, degs, mults = QQ, [rng.randint(1, 4) for _ in range(3)], 2
    elif seed < 85:
        field, degs, mults = K, [rng.randint(1, 3) for _ in range(2)], 2
    else:
        field, degs, mults = K1, [rng.randint(1, 2) for _ in range(2)], 1
    planted = [random_poly(field, rng, d) for d in degs]
    if seed % 3 == 0:       # a factor from a subfield
        planted.append([Fraction(rng.randint(-3, 3)), Fraction(0),
                        Fraction(1)])
    polys = [p for p in planted for _ in range(rng.randint(1, mults))]
    f = MultiPoly.from_univariate(product(polys, field), ("t",), "t",
                                  field)
    _c, factors, unresolved = factor_bounded(f, "t")
    assert not unresolved
    got = {(tuple(p.univariate_coeffs("t")), m) for p, m in factors}
    # the factors multiply back to f and are monic
    back = MultiPoly.const(("t",), 1, field)
    for p, m in factors:
        assert p.univariate_coeffs("t")[-1] == 1
        back = back * p ** m
    assert back == f
    t = sympy.Symbol("t")
    if field is QQ:
        expr = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                           for c in reversed(f.univariate_coeffs("t"))], t)
        want = {(tuple(Fraction(int(c.p), int(c.q))
                       for c in reversed(q.monic().all_coeffs())), m)
                for q, m in sympy.factor_list(expr)[1]}
        assert got == want
        return
    want = {(q.monic(), m) for q, m in
            sympy_poly(f.univariate_coeffs("t"), field).factor_list()[1]}
    assert {(sympy_poly(list(c), field), m) for c, m in got} == want


# -- differential suite for poly_gcd and Yun against sympy -------------------

@pytest.mark.parametrize("seed", range(100))
def test_gcd_and_squarefree_match_sympy(seed):
    rng = random.Random(95_000 + seed)
    K, K1 = towers()
    field, deg = (QQ, 3) if seed < 60 else (K, 2) if seed < 85 else (K1, 1)

    def planted():
        return random_poly(field, rng, rng.randint(1, deg))
    common = planted()
    a = product([common, planted()], field)
    b = product([common] * rng.randint(1, 2) + [planted()], field)
    g = poly_gcd([a, b], field)
    assert g[-1] == 1
    assert sympy_poly(g, field) == \
        sympy_poly(a, field).gcd(sympy_poly(b, field)).monic()
    f = product([[Fraction(rng.randint(1, 5), 3)]]
                + [common] * rng.randint(1, 3)
                + [q for q in (planted(), planted()) for _ in
                   range(rng.randint(1, 2))], field)
    lc, parts = squarefree_decomposition(f, field)
    back = [lc]
    for q, m in parts:
        back = product([back] + [q] * m, field)
    assert back == f
    want = sympy_poly(f, field).sqf_list()[1]
    assert sorted((m, len(q) - 1) for q, m in parts) == \
        sorted((m, q.degree()) for q, m in want)
    # the gcd of three: a third multiple of `common` joins a and b
    c = product([common, planted()], field)
    assert sympy_poly(poly_gcd([a, b, c], field), field) == \
        sympy_poly(g, field).gcd(sympy_poly(c, field)).monic()


# -- the process never loads mpmath ------------------------------------------

def test_no_mpmath_in_process():
    import exactcurves
    src = os.path.dirname(os.path.dirname(exactcurves.__file__))
    code = """
import sys
from fractions import Fraction
from exactcurves.checks import run_check
from exactcurves.fields import QQ, roots_in_field
from exactcurves.multipoly import factor_bounded, parse_poly
from exactcurves.singular import CurveGerm, certify_composite
f = parse_poly("(x^2 + 3*x + 2)*(x^2 + x + 5)", ("x",))
assert len(factor_bounded(f, "x")[1]) == 3
assert roots_in_field([Fraction(-4), Fraction(0), Fraction(1)], QQ)
germ = CurveGerm(parse_poly("(u - v^2)*(u + v^2)*(u - v^2 - v^3)",
                            ("u", "v")))
assert certify_composite(germ).verdict == "COMPOSITE_3BRANCH"
assert run_check("octic-rederivation")["status"] == "pass"
print("mpmath" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip() == "False"
