"""Tests for germ certificates, branch expansions, and smoothness."""

import random
from fractions import Fraction

import pytest

from exactcurves import factoring, fields
from exactcurves.elim import make_root, solve_system
from exactcurves.fields import FieldError, NumberField, QQ
from exactcurves.multipoly import MultiPoly, parse_poly
from exactcurves.curves import lines_concurrent, tangent_lines_and_concurrency
from exactcurves.singular import (
    CurveGerm, GermError, UnresolvedGerm, certify_composite,
    certify_smooth_projective, certify_type, multiplicity_and_cone,
    puiseux_branches,
)

UV = ("u", "v")
XYZ = ("x", "y", "z")

DELTOID_AFFINE = parse_poly(
    "v^4 + 4*(1+u)*v^3 + 18*u*v^2 - 27*u^2", ("v", "u"))
DELTOID_SYMMETRIC = parse_poly(
    "y^2*z^2 + z^2*x^2 + x^2*y^2 - 2*x*y*z*(x+y+z)", XYZ)


# -- multiplicity and cone ---------------------------------------------------

def test_cone_e6_model():
    m, cone, is_power, L = multiplicity_and_cone(
        CurveGerm(parse_poly("u^3 - v^4", UV)))
    assert m == 3
    assert cone == parse_poly("u^3", UV)
    assert is_power
    assert L == parse_poly("u", UV)


def test_cone_two_lines():
    m, cone, is_power, _ = multiplicity_and_cone(
        CurveGerm(parse_poly("x^2 - y^2", ("x", "y"))))
    assert m == 2
    assert not is_power


def test_cone_deltoid_far_cusp():
    germ = CurveGerm(DELTOID_AFFINE, (Fraction(-3), Fraction(1)))
    m, cone, is_power, _ = multiplicity_and_cone(germ)
    assert m == 2
    assert is_power  # perfect square


@pytest.mark.parametrize("text", ["u^3 - v^3 + u^4", "u*v^2 + v^3 + u^4"])
def test_cubic_cone_not_a_cube(text):
    # with and without a u^3 term; neither cone is c*L^3
    germ = CurveGerm(parse_poly(text, UV))
    m, _cone, is_power, L = multiplicity_and_cone(germ)
    assert (m, is_power, L) == (3, False, None)
    assert certify_type(germ, "E6").verdict == "OTHER"


def test_point_off_curve_rejected():
    germ = CurveGerm(parse_poly("u^3 - v^4 + 1", UV))
    with pytest.raises(GermError):
        multiplicity_and_cone(germ)


# -- type certificates -------------------------------------------------------

def test_certify_e6_model():
    cert = certify_type(CurveGerm(parse_poly("u^3 - v^4", UV)), "E6")
    assert cert.verdict == "E6"
    assert cert.multiplicity == 3
    assert cert.newton_segment == ((3, 0), (0, 4))
    assert cert.newton_number == 6  # Kouchnirenko: 2*6 - 3 - 4 + 1


def test_certify_e6_swapped_coordinates():
    cert = certify_type(CurveGerm(parse_poly("s^4 - v^3", ("s", "v"))), "E6")
    assert cert.verdict == "E6"


def test_certify_e6_rejects_deeper_cusp():
    cert = certify_type(CurveGerm(parse_poly("u^3 - v^5", UV)), "E6")
    assert cert.verdict == "OTHER"
    assert "v^4 coefficient zero" in cert.reason


def test_certify_a2_model_and_newton_number():
    cert = certify_type(CurveGerm(parse_poly("u^2 - v^3", UV)), "A2")
    assert cert.verdict == "A2"
    assert cert.newton_segment == ((2, 0), (0, 3))
    assert cert.newton_number == 2


def test_certify_a1():
    cert = certify_type(
        CurveGerm(parse_poly("u^2 - v^2 + v^3", UV)), "A1")
    assert cert.verdict == "A1"
    cert2 = certify_type(CurveGerm(parse_poly("u^2 - v^3", UV)), "A1")
    assert cert2.verdict == "OTHER"


def test_certify_smooth_point():
    cert = certify_type(CurveGerm(parse_poly("u - v^2", UV)), "A2")
    assert cert.verdict == "SMOOTH"


def test_deltoid_affine_cusps():
    near = certify_type(CurveGerm(DELTOID_AFFINE, (0, 0)), "A2")
    far = certify_type(
        CurveGerm(DELTOID_AFFINE, (Fraction(-3), Fraction(1))), "A2")
    assert near.verdict == "A2"
    assert far.verdict == "A2"


def test_not_on_curve_raises():
    with pytest.raises(GermError):
        certify_type(CurveGerm(parse_poly("u^2 - v^3 + 1", UV)), "A2")


# -- branch expansions -------------------------------------------------------

def test_branches_already_split():
    germ = CurveGerm(parse_poly("(u-v^2)*(u-v^3)*(u+v^3)", UV))
    branches, shear = puiseux_branches(germ)
    assert shear is None
    texts = sorted(b.series_poly().to_text() for b in branches)
    assert texts == sorted(["v^2", "v^3", "-1*v^3"])


def test_branches_model_composite():
    germ = CurveGerm(parse_poly("(u-v^2)*(u^2-v^6)", UV))
    branches, _ = puiseux_branches(germ)
    texts = sorted(b.series_poly().to_text() for b in branches)
    assert texts == sorted(["v^2", "v^3", "-1*v^3"])


def test_branch_single():
    germ = CurveGerm(parse_poly("u - v - v^2", UV))
    branches, _ = puiseux_branches(germ)
    assert len(branches) == 1
    assert branches[0].series_poly() == parse_poly("v + v^2", UV)


def test_branches_need_quadratic_extension():
    germ = CurveGerm(parse_poly("u^2 - 2*v^2 + v^3", UV))
    branches, _ = puiseux_branches(germ)
    assert len(branches) == 2
    f = branches[0].field
    assert isinstance(f, NumberField)
    slopes = {b.coeffs[0] for b in branches}
    assert len(slopes) == 2
    for s in slopes:
        assert s * s == 2 or (s * s - 2) == 0


def test_fractional_branch_rejected():
    # u^2 - v^3 has a branch u = v^(3/2): integer expansion must refuse
    germ = CurveGerm(parse_poly("u^2 - v^3", UV))
    with pytest.raises(GermError):
        puiseux_branches(germ)


@pytest.mark.parametrize("text, truncation", [("u^2 - v^17", 8),
                                              ("u^2 - v^3", 1)])
def test_fractional_branch_at_last_level_rejected(text, truncation):
    # u = v^(17/2), u = v^(3/2): the last sub-germ, w^2 - v, is smooth but
    # tangent to v = 0, so no integer-exponent branch ends there
    germ = CurveGerm(parse_poly(text, UV))
    with pytest.raises(GermError):
        puiseux_branches(germ, truncation=truncation)


def _lines_through_origin(n):
    """Tangents v = j*u for j = 0..n-1, and a term of degree n + 1."""
    return parse_poly("*".join(f"(v-{j}*u)" for j in range(n))
                      + f" + u^{n + 1}", UV)


@pytest.mark.parametrize("n", [4, 20])
def test_shear_is_least_positive_integer_off_the_tangents(n):
    # after v -> v + lam*u the u^n coefficient of the cone is
    # lam*(lam-1)*...*(lam-n+1), nonzero first at lam = n
    branches, shear = puiseux_branches(CurveGerm(_lines_through_origin(n)))
    assert shear == n and len(branches) == n


def test_unresolved_edge_factorization_is_germ_error(monkeypatch):
    # the conjugates of a root of t^4 - 2 over Q(w) go unresolved
    monkeypatch.setattr(factoring, "RECOMBINATION_BUDGET", 1)
    germ = CurveGerm(parse_poly("u^4 - 2*v^4 + v^5", UV))
    with pytest.raises(UnresolvedGerm):
        puiseux_branches(germ)


def test_edge_with_a_non_normal_root_field_is_unresolved():
    # the tangent edge u^3 - 2v^3 has one root in Q(2^(1/3)); its two
    # conjugates lie outside that field, so the germ is not expanded
    with pytest.raises(UnresolvedGerm):
        puiseux_branches(CurveGerm(parse_poly("u^3 - 2*v^3 + u^4", UV)))


# every germ this module expands, with the truncation it is expanded to
EXPANDED = [
    ("(u-v^2)*(u-v^3)*(u+v^3)", 8),
    ("(u-v^2)*(u^2-v^6)", 8),
    ("(u-v^2)*(u-v^3)", 8),
    ("(u-v^2)*(u-v^3)*(u-v+v^3)", 8),
    ("(u-v^2)*(u-v^2-v^4)*(u-v^2-2*v^4)", 8),
    ("u - v - v^2", 8),
    ("u^2 - 2*v^2 + v^3", 8),
    ("u^2 - v^2 + v^3", 8),
    ("(u-v^2)*(v-u^2)", 8),  # tangent to v = 0: sheared first
    ("v*(v-u)*(v-2*u)*(v-3*u) + u^5", 8),  # sheared by 4
    ("(u-v^2)*(u^2-v^6)", 3),
    # its v^8 coefficient comes from the term -2*v^7 of 2*w + w^2 - 2*v^7
    # - w*v^7 at the second level (m = 1, remaining = 7), which a degree
    # bound of m*remaining - 1 would drop
    ("(u - v - v^8)*(u + v)", 8),
]


def test_branch_residual_valuation():
    # oracle for the expansion's own argument: substituting each branch
    # back into the germ it came from leaves order > truncation
    germs = [(CurveGerm(parse_poly(t, UV)), n) for t, n in EXPANDED]
    germs += [(CurveGerm(_sheared_composite(seed)), 8) for seed in range(30)]
    for germ, n in germs:
        branches, shear = puiseux_branches(germ, truncation=n)
        f = germ.f
        if shear is not None:
            U = MultiPoly.var(UV, "u", f.field)
            V = MultiPoly.var(UV, "v", f.field)
            f = f.substitute({"v": V + shear * U})
        for b in branches:
            assert len(b.coeffs) == n
            assert b.residual_valuation(f) > n, (germ, b)


# -- composite certificate ---------------------------------------------------

def test_composite_model():
    cert = certify_composite(CurveGerm(parse_poly("(u-v^2)*(u^2-v^6)", UV)))
    assert cert.verdict == "COMPOSITE_3BRANCH"
    assert cert.contacts == (2, 2, 3)


def test_composite_rejects_two_branches():
    cert = certify_composite(CurveGerm(parse_poly("(u-v^2)*(u-v^3)", UV)))
    assert cert.verdict == "OTHER"
    assert "branch count 2" in cert.reason


def test_composite_rejects_distinct_tangents():
    cert = certify_composite(
        CurveGerm(parse_poly("(u-v^2)*(u-v^3)*(u-v+v^3)", UV)))
    assert cert.verdict == "OTHER"
    assert "tangent" in cert.reason


def test_composite_rejects_a16_cusp_branch():
    # two smooth branches and an A16 cusp u^2 = v^17, multiplicity 4
    f = parse_poly("(u - v^2 - v^3)*(u - v^2 - 2*v^3)*(u^2 - v^17)", UV)
    with pytest.raises(GermError):
        certify_composite(CurveGerm(f))


@pytest.mark.parametrize("text, note", [
    # the branch u = v^10 meets the line u = 0 past the truncation
    ("(u - v^10)*(u - v^2)*(u - v^2 - v^3)",
     "intersection of the common tangent line with the germ: 14 "),
    ("u*(u - v^2)*(u - v^2 - v^3)",
     "the common tangent line is a component of the germ"),
])
def test_composite_tangent_line_note(text, note):
    cert = certify_composite(CurveGerm(parse_poly(text, UV)))
    assert cert.verdict == "COMPOSITE_3BRANCH"
    assert cert.contacts == (2, 2, 3)
    assert any(n.startswith(note) for n in cert.notes), cert.notes


def test_composite_rejects_wrong_contacts():
    # contacts (2,3,3): branches v^2, v^2+v^3, v^2+2*v^3 ->
    # ord diffs: 3, 3, 3 actually; use v^2 / v^3-shifted family for (2,2,3)
    f = parse_poly("(u-v^2)*(u-v^2-v^4)*(u-v^2-2*v^4)", UV)
    cert = certify_composite(CurveGerm(f))
    assert cert.verdict == "OTHER"
    assert "contacts" in cert.reason


# -- tangent lines / concurrency --------------------------------------------

def test_symmetric_deltoid_cusps_concurrent():
    pts = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    pts = [tuple(Fraction(c) for c in p) for p in pts]
    lines, concurrent = tangent_lines_and_concurrency(DELTOID_SYMMETRIC, pts)
    assert concurrent
    assert len(lines) == 3


def test_coordinate_triangle_not_concurrent():
    assert not lines_concurrent([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_three_concurrent_lines():
    assert lines_concurrent([(1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_tangent_rejects_non_unique():
    f = parse_poly("x^2*z^2 - y^2*z^2 + x^4", XYZ)
    with pytest.raises(GermError):
        tangent_lines_and_concurrency(
            f, [tuple(Fraction(c) for c in p)
                for p in [(0, 0, 1), (0, 0, 1), (0, 0, 1)]])


# -- projective smoothness ---------------------------------------------------

def test_smooth_conic():
    ok, witness = certify_smooth_projective(parse_poly("x^2+y^2+z^2", XYZ))
    assert ok
    assert witness["steps"]


def test_singular_triangle():
    ok, _ = certify_smooth_projective(parse_poly("x*y*z", XYZ))
    assert not ok


def test_nodal_cubic_detected():
    ok, _ = certify_smooth_projective(parse_poly("y^2*z - x^3 - x^2*z", XYZ))
    assert not ok


def test_smooth_quartic_model():
    q = parse_poly(
        "z^4 - 3*x^2*z^2 + y^2*z^2 - 36*x^3*y + 45*x^2*y^2 - 12*x*y^3", XYZ)
    ok, witness = certify_smooth_projective(q)
    assert ok


def test_fermat_quartic_smooth():
    ok, _ = certify_smooth_projective(parse_poly("x^4 + y^4 + z^4", XYZ))
    assert ok


@pytest.mark.parametrize("text", ["x^2*(y + z)", "(x - y + z)^2"])
def test_degenerate_line_decided_without_retry(text):
    # double lines: singular everywhere, shown on the line z = 0
    ok, witness = certify_smooth_projective(parse_poly(text, XYZ))
    assert ok is False
    assert "z = 0" in witness["steps"][-1]


def test_zero_resultant_means_reducible():
    ok, witness = certify_smooth_projective(
        parse_poly("(x^2 + y^2 - z^2)*(x - 2*z)", XYZ))
    assert ok is False
    assert "reducible" in witness["steps"][-1]


QUARTIC_SINGULAR_OVER_SQRT2 = "(y^2 - 2*z^2)^2 + x^2*z^2 + x^4"


def test_singular_point_in_adjoined_root():
    ok, witness = certify_smooth_projective(
        parse_poly(QUARTIC_SINGULAR_OVER_SQRT2, XYZ))
    assert ok is False
    assert "common zero" in witness["steps"][-1]


def test_candidate_beyond_extensions_is_unresolved(monkeypatch):
    # one extension policy for every caller: when it refuses all roots of
    # degree > 1, the smoothness chart, the branch expansion and the
    # elimination solver each report unresolved, never a verdict
    adjoin_root = fields.adjoin_root

    def refuse(part, field, counter):
        if len(part) > 2:
            raise FieldError("refused")
        return adjoin_root(part, field, counter)

    monkeypatch.setattr(fields, "adjoin_root", refuse)
    ok, witness = certify_smooth_projective(
        parse_poly(QUARTIC_SINGULAR_OVER_SQRT2, XYZ))
    assert ok is None
    assert "inconclusive" in witness["steps"][-1]
    with pytest.raises(UnresolvedGerm):
        puiseux_branches(CurveGerm(parse_poly("u^2 - 2*v^2 + v^3", UV)))
    rep = solve_system(make_root(("x",), [parse_poly("x^2 - 2", ("x",))]))
    assert rep["solutions"] == []
    (rec,) = rep["unresolved_branches"]
    assert rec["reason"] == "refused"


def test_line_is_smooth():
    ok, _ = certify_smooth_projective(parse_poly("y", XYZ))
    assert ok is True


# -- differential suite: smoothness against sympy Groebner bases -------------

def _random_form(rng, d):
    while True:
        f = MultiPoly(XYZ, {(i, j, d - i - j): rng.randint(-3, 3)
                            for i in range(d + 1) for j in range(d + 1 - i)
                            if rng.random() < 0.8})
        if f:
            return f


def _smoothness_case(seed):
    """A random form of degree 2-4, a line times a form, or a form with a
    planted singular point (a:b:1)."""
    rng = random.Random(70_000 + seed)
    if seed % 3 == 0:
        return _random_form(rng, rng.randint(2, 4))
    if seed % 3 == 1:
        return _random_form(rng, 1) * _random_form(rng, rng.randint(1, 3))
    d = rng.randint(2, 4)
    a, b = rng.randint(-2, 2), rng.randint(-2, 2)
    # only terms of degree >= 2 in x, y: singular at (0:0:1)
    g = MultiPoly(XYZ, {e: c for e, c in _random_form(rng, d).terms.items()
                        if e[0] + e[1] >= 2} or {(d, 0, 0): 1})
    X, Y, Z = (MultiPoly.var(XYZ, n) for n in XYZ)
    return g.substitute({"x": X - a * Z, "y": Y - b * Z})


def _smooth_by_groebner(f):
    """Oracle: no chart x_i = 1 has a common zero of the partials."""
    import sympy
    X = sympy.symbols(XYZ)
    F = sum(sympy.Rational(c.numerator, c.denominator)
            * X[0] ** e[0] * X[1] ** e[1] * X[2] ** e[2]
            for e, c in f.terms.items())
    partials = [sympy.diff(F, v) for v in X]
    for i in range(3):
        eqs = [q for q in (p.subs(X[i], 1) for p in partials) if q != 0]
        rest = [v for k, v in enumerate(X) if k != i]
        if not eqs or list(sympy.groebner(eqs, *rest).exprs) != [1]:
            return False
    return True


@pytest.mark.parametrize("seed", range(100))
def test_smoothness_matches_groebner(seed):
    f = _smoothness_case(seed)
    ok, _ = certify_smooth_projective(f)
    assert ok is _smooth_by_groebner(f)


# -- property suite: certificate invariance under linear changes -------------

MODELS = [
    ("E6", parse_poly("u^3 - v^4", UV)),
    ("A2", parse_poly("u^2 - v^3", UV)),
    ("A1", parse_poly("u^2 - v^2 + v^3", UV)),
]


def _random_change(f, rng):
    while True:
        a, b = rng.randint(-4, 4), rng.randint(-4, 4)
        c, d = rng.randint(-4, 4), rng.randint(-4, 4)
        if a * d - b * c:
            break
    u, v = f.vars
    U = MultiPoly.var(f.vars, u, f.field)
    V = MultiPoly.var(f.vars, v, f.field)
    scale = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
    return f.substitute({u: Fraction(a) * U + Fraction(b) * V,
                         v: Fraction(c) * U + Fraction(d) * V}) * scale


@pytest.mark.parametrize("seed", range(100))
def test_certificate_invariant_under_linear_change(seed):
    rng = random.Random(90_000 + seed)
    expected, f = MODELS[seed % len(MODELS)]
    g = _random_change(f, rng)
    cert = certify_type(CurveGerm(g), expected)
    assert cert.verdict == expected
    assert cert.multiplicity == {"E6": 3, "A2": 2, "A1": 2}[expected]


def _sheared_composite(seed):
    rng = random.Random(95_000 + seed)
    f = parse_poly("(u-v^2)*(u^2-v^6)", UV)
    # shears u -> u + t*v keep all branches integer-exponent
    t = Fraction(rng.randint(-3, 3))
    u, v = f.vars
    U = MultiPoly.var(UV, u, f.field)
    V = MultiPoly.var(UV, v, f.field)
    return f.substitute({u: U + t * V})


@pytest.mark.parametrize("seed", range(30))
def test_composite_invariant_under_shear(seed):
    cert = certify_composite(CurveGerm(_sheared_composite(seed)))
    assert cert.verdict == "COMPOSITE_3BRANCH"
    assert cert.contacts == (2, 2, 3)
