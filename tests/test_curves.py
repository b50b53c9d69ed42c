"""Tests for the curve corpus, transformations, and the octic assembly."""

import json
import random
from fractions import Fraction

import pytest

from exactcurves import curves
from exactcurves.curves import (CurveError, CurveRecord, appendix_b_mappings,
                                assemble_appendix_b, c82_singular_system,
                                certify_curve_spec, corpus_get,
                                invariance_check, kummer_pullback,
                                parse_constant, projective_germ)
from exactcurves.fields import QQ, NumberField, sturm_real_roots, tower
from exactcurves.multipoly import MultiPoly, parse_poly
from exactcurves.singular import CurveGerm, certify_type

X3 = ("x", "y", "z")


def _q(text, varnames=X3, field=QQ):
    return parse_poly(text, varnames, field)


# -- corpus loading ----------------------------------------------------------

def test_corpus_unknown_name():
    with pytest.raises(CurveError):
        corpus_get("no_such_curve")


def test_corpus_degrees():
    assert corpus_get("deltoid_symmetric").poly.degree() == 4
    assert corpus_get("c82").poly.degree() == 8
    assert corpus_get("c82_quartic").poly.degree() == 4
    assert corpus_get("c83_quartic").poly.degree() == 4


def test_c82_leading_terms_frozen():
    # two spot-checked coefficients of the shipped octic
    f = corpus_get("c82").poly
    assert f.terms[(5, 3, 0)] == Fraction(-11, 3)
    assert f.terms[(0, 0, 8)] == 1
    assert f.terms[(0, 4, 4)] == Fraction(243, 11)


# -- certification of the corpus declarations --------------------------------

def test_deltoid_symmetric_certifies():
    rep = certify_curve_spec(corpus_get("deltoid_symmetric"))
    assert rep["ok"]
    assert len(rep["points"]) == 3
    assert all(p["verdict"] == "A2" for p in rep["points"])
    assert rep["cusp_tangents_concurrent"]
    assert rep["points_distinct"]


def test_repeated_projective_point_is_not_distinct():
    # one cusp declared twice, the second time with its coordinates scaled
    # by 2: the same projective point, so the declarations are refused
    rec = corpus_get("deltoid_symmetric")
    coords, kind = rec.singular_points[0]
    twice = CurveRecord("deltoid_twice", rec.poly, rec.field,
                        [(coords, kind),
                         (tuple(2 * c for c in coords), kind)], [])
    rep = certify_curve_spec(twice)
    assert rep["points_distinct"] is False
    assert rep["ok"] is False


def test_deltoid_affine_certifies():
    rep = certify_curve_spec(corpus_get("deltoid_affine"))
    assert rep["ok"]
    assert [p["verdict"] for p in rep["points"]] == ["A2", "A2"]


def test_c82_certifies():
    rep = certify_curve_spec(corpus_get("c82"))
    assert rep["ok"]
    # 2 axis points + 2 representative off-axis points, all E6
    assert len(rep["points"]) == 4
    assert all(p["verdict"] == "E6" for p in rep["points"])
    assert rep["points_distinct"]
    autos = {a["name"]: a for a in rep["automorphisms"]}
    assert autos["z_flip"]["invariant"] is True
    assert autos["xy_swap"]["invariant"] is False


def test_c82_quartic_smooth():
    rep = certify_curve_spec(corpus_get("c82_quartic"))
    assert rep["ok"]
    assert rep["smooth"]


def test_c83_quartic_smooth_over_tower():
    rec = corpus_get("c83_quartic")
    assert [level.degree for level in tower(rec.field)] == [4, 2]
    rep = certify_curve_spec(rec)
    assert rep["ok"]
    assert rep["smooth"]


def test_unseparated_composite_point_is_unresolved():
    # the branches v^2 and v^2 + v^9 agree past the default truncation 8:
    # undecided, not refuted
    uv = ("u", "v")
    f = _q("(u - v^2)*(u - v^2 - v^9)*(u + v^2)", uv)
    origin = (Fraction(0), Fraction(0))
    rec = CurveRecord("unseparated", f, QQ,
                      [(origin, "COMPOSITE_3BRANCH")], [], affine=True)
    rep = certify_curve_spec(rec)
    assert [(p["verdict"], p["ok"]) for p in rep["points"]] == \
        [("UNRESOLVED", None)]
    assert rep["ok"] is None
    # a point off the curve still fails, and a failure outranks it
    rec.singular_points.append(((Fraction(1), Fraction(0)), "E6"))
    rep = certify_curve_spec(rec)
    assert rep["points"][1]["ok"] is False
    assert rep["ok"] is False


def test_tangent_direction_beyond_extensions_is_unresolved():
    # one level down, u^3 - a*v^6 over Q(a), a^2 = 2, has the edge
    # polynomial t^3 - a, irreducible of degree 3 over a depth-1 field and
    # so beyond the extensions the expansion adjoins: undecided, not refuted
    K = NumberField("a", [Fraction(-2), 0, 1])
    f = _q("u^3 - a*v^6", ("u", "v"), K)
    origin = (Fraction(0), Fraction(0))
    rec = CurveRecord("beyond", f, K, [(origin, "COMPOSITE_3BRANCH")], [],
                      affine=True)
    rep = certify_curve_spec(rec)
    assert [(p["verdict"], p["ok"]) for p in rep["points"]] == \
        [("UNRESOLVED", None)]
    assert rep["ok"] is None


def test_c83_quartic_constants_live_in_quartic_subfield():
    # every printed building-block constant lies in the degree-4 subfield:
    # only the explicit zeta multiplier leaves it
    rec = corpus_get("c83_quartic")
    K1 = rec.field
    b12 = parse_constant("-97*eta^3 - 23*eta^2 - 130*eta - 92", K1)
    assert K1.base.coerce(b12).field is K1.base


def test_off_axis_point_data_consistent():
    # the declared parametrization satisfies the curve and its root data
    rec = corpus_get("c82")
    (coords, typ), _ = rec.singular_points[2], None
    assert typ == "E6"
    field = coords[1].field
    f = rec.poly.to_field(field)
    assert f.eval_point({"x": coords[0], "y": coords[1],
                         "z": field.coerce(coords[2])}) == 0
    # x(t) = (99 t^3 - 5 t)/6 at the abstract root
    beta = field.gen()
    assert coords[0] == (99 * beta ** 3 - 5 * beta) / 6
    # the integer form of the minimal polynomial has no real roots
    root_poly = [Fraction(3), Fraction(0), Fraction(22), Fraction(0),
                 Fraction(99)]
    assert sturm_real_roots(root_poly) == 0


def test_c82_off_axis_points_share_one_field(monkeypatch):
    # equal points over two copies of Q(beta) compare unequal, so the
    # record builds its points field once: a point declared twice is
    # found, not passed as distinct
    rec = corpus_get("c82")
    (p, _), (q, _) = rec.singular_points[2:]
    assert p[1].field is q[1].field
    doc = json.loads(curves._data_text("curves.json"))
    doc["c82"]["singular_points"].append(doc["c82"]["singular_points"][2])
    monkeypatch.setattr(curves, "_data_text", lambda _name: json.dumps(doc))
    monkeypatch.setattr(curves, "_CORPUS_CACHE", {})
    twice = corpus_get("c82")
    assert len(twice.singular_points) == 5
    assert twice.singular_points[4][0] == twice.singular_points[2][0]
    rep = certify_curve_spec(twice)
    assert rep["points_distinct"] is False
    assert rep["ok"] is False


def test_c82_off_axis_point_off_the_curve_fails():
    rec = corpus_get("c82")
    (x, y, z), typ = rec.singular_points[2]
    moved = CurveRecord("c82_moved", rec.poly, rec.field,
                        [*rec.singular_points[:2], ((x + 1, y, z), typ)], [])
    rep = certify_curve_spec(moved)
    assert rep["points"][2]["ok"] is False
    assert rep["ok"] is False


def test_parse_constant_rational_text_is_a_fraction():
    K = NumberField("eta", [Fraction(-2), Fraction(-2), Fraction(1),
                            Fraction(-2), Fraction(1)])
    half = parse_constant("3/2", K)
    assert type(half) is Fraction and half == Fraction(3, 2)
    e = parse_constant("eta + 1", K)
    assert e.field is K and e == K.gen() + 1


def test_c82_singular_system_vanishes_at_declared_point():
    rec = corpus_get("c82")
    coords, _t = rec.singular_points[2]
    field = coords[1].field
    names, polys = c82_singular_system()
    assert names == ("x", "y")
    assert len(polys) == 3
    point = {names[0]: coords[0], names[1]: coords[1]}
    for p in polys:
        assert p.to_field(field).eval_point(point) == 0


# -- germs at projective points ----------------------------------------------

def test_projective_germ_translates_to_origin():
    f = _q("y^2*z - x^3")  # cuspidal cubic, A2 at [0:0:1]
    germ = projective_germ(f, (Fraction(0), Fraction(0), Fraction(1)))
    cert = certify_type(germ, "A2")
    assert cert.verdict == "A2"


def test_projective_germ_rejects_zero_point():
    f = _q("x^2 + y*z")
    with pytest.raises(CurveError):
        projective_germ(f, (Fraction(0), Fraction(0), Fraction(0)))


# -- Kummer pullback ---------------------------------------------------------

def test_kummer_identity_and_errors():
    f = _q("x^2*y + z^3")
    assert kummer_pullback(f, 1) == f
    with pytest.raises(CurveError):
        kummer_pullback(f, 0)
    with pytest.raises(CurveError):
        kummer_pullback(f, 2, names=("w",))


def test_kummer_degree_multiplies():
    f = corpus_get("deltoid_symmetric").poly
    assert f.degree() == 4
    g = kummer_pullback(f, 2)
    assert g.degree() == 8
    assert g.is_homogeneous()


def test_kummer_local_model_upgrade():
    # u^2 - v^3 pulled back along u -> u^2 acquires an E6 point
    f = parse_poly("u^2 - v^3", ("u", "v"), QQ)
    g = kummer_pullback(f, 2, names=("u",))
    assert g == parse_poly("u^4 - v^3", ("u", "v"), QQ)
    cert = certify_type(CurveGerm(g, (Fraction(0), Fraction(0))), "E6")
    assert cert.verdict == "E6"
    assert cert.newton_number == 6


@pytest.mark.parametrize("seed", range(30))
def test_kummer_multiplicative_random(seed):
    rng = random.Random(40_000 + seed)
    terms = {}
    for _ in range(rng.randint(1, 6)):
        e = tuple(rng.randint(0, 3) for _ in range(3))
        terms[e] = Fraction(rng.randint(-5, 5))
    f = MultiPoly.zero(X3, QQ)
    f.terms = {e: c for e, c in terms.items() if c}
    n, m = rng.randint(1, 3), rng.randint(1, 3)
    assert kummer_pullback(kummer_pullback(f, n), m) == \
        kummer_pullback(f, n * m)


# -- invariance --------------------------------------------------------------

def _matmul(A, B):
    return [[sum(A[i][k] * B[k][j] for k in range(3)) for j in range(3)]
            for i in range(3)]


def test_invariance_basic():
    f = corpus_get("deltoid_symmetric").poly
    # cyclic coordinate permutation preserves the symmetric deltoid
    P = [[0, 0, 1], [1, 0, 0], [0, 1, 0]]
    ok, lam = invariance_check(f, P)
    assert ok and lam == 1
    # a generic shear does not
    S = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    ok, _ = invariance_check(f, S)
    assert not ok


@pytest.mark.parametrize("seed", range(30))
def test_invariance_lambda_composition(seed):
    # for scalings A, B of an invariant f: lambda(A.B) = lambda(A)*lambda(B)
    rng = random.Random(50_000 + seed)
    f = _q("x^4 + y^4 + z^4 + x*y*z*(x + y + z)")
    a = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    b = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]))
    A = [[a if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    B = [[b if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    okA, lamA = invariance_check(f, A)
    okB, lamB = invariance_check(f, B)
    okAB, lamAB = invariance_check(f, _matmul(A, B))
    assert okA and okB and okAB
    assert lamA == a ** 4 and lamB == b ** 4
    assert lamAB == lamA * lamB


# -- genus bookkeeping -------------------------------------------------------

def test_c82_genus_arithmetic():
    # arithmetic genus of a degree-8 plane curve, minus the delta
    # invariants of its six certified singular points
    d = corpus_get("c82").poly.degree()
    arithmetic_genus = (d - 1) * (d - 2) // 2
    assert arithmetic_genus == 21
    # each point certifies E6: one branch, Milnor number 6, so delta = 3
    germ = projective_germ(corpus_get("c82").poly,
                           (Fraction(1), Fraction(0), Fraction(0)))
    cert = certify_type(germ, "E6")
    branches = 1
    delta = (cert.newton_number + branches - 1) // 2
    assert delta == 3
    assert arithmetic_genus - 6 * delta == 3
    # matching the genus of the smooth quartic model
    dq = corpus_get("c82_quartic").poly.degree()
    assert (dq - 1) * (dq - 2) // 2 == 3


# -- octic family assembly ---------------------------------------------------

def test_appendix_b_mappings_listed():
    labels = [m["label"] for m in appendix_b_mappings()]
    assert labels == ["s23-to-r32", "s40-to-r32"]


@pytest.mark.parametrize("label", ["s23-to-r32", "s40-to-r32"])
def test_appendix_b_structural_checks(label):
    report = assemble_appendix_b(label)
    checks = report["checks"]
    assert checks["F_homogeneous_deg8"]
    assert checks["F_sigma_swap_symmetric"]
    assert checks["x8y8_divides"]
    assert checks["G0_order3_invariant"]
    assert checks["G_coeffs_in_fixed_field"]
    assert checks["G_order3_invariant"]
    assert report["G0"].degree() == 8
    assert report["G"].degree() == 8
    # G's coefficients all fix under conjugation, i.e. live in the
    # degree-4 subfield; spot-check the model is not a constant multiple
    # of the plain octic template
    assert report["F"] != report["G"]


def test_appendix_b_unknown_label():
    with pytest.raises(CurveError):
        assemble_appendix_b("nonsense")


def test_appendix_b_custom_mapping_dict():
    report = assemble_appendix_b({"label": "custom", "r32": "s23",
                                  "r40": "s40"})
    assert report["mapping"] == "custom"
    assert report["checks"]["F_homogeneous_deg8"]
