"""Curve corpus and transformations.

Loads the shipped equations (deltoid models, the singular octics, the
quartic models), certifies their declared singular points and automorphism
invariances, performs Kummer pullbacks, and assembles the two-parameter
octic family from its constant table (including the candidate resolutions
of the ambiguous constant names in that table).
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from typing import Sequence

from . import fields as fl
from .fields import QQ, FieldAutomorphism, NumberField, field_from_doc
from .multipoly import MultiPoly, dehomogenize, parse_poly
from .singular import (CurveGerm, GermError, UnresolvedGerm,
                       certify_composite, certify_smooth_projective,
                       certify_type, multiplicity_and_cone)


class CurveError(ValueError):
    pass


def _data_text(name: str) -> str:
    return resources.files("exactcurves.data").joinpath(name).read_text()


def parse_constant(text: str, field):
    """Parse a constant expression: a `Fraction` for rational text, else an
    element of `field` (tower generators allowed)."""
    try:
        return Fraction(text)
    except ValueError:
        pass
    p = parse_poly(text, (), field)
    if not p.terms:
        return field.zero()
    return next(iter(p.terms.values()))


class CurveRecord:
    """A named curve: polynomial, field, declared points and automorphisms."""

    def __init__(self, name, poly, field, singular_points, automorphisms,
                 affine=False, smooth=False, cusp_tangents_concurrent=False):
        self.name = name
        self.poly = poly
        self.field = field
        self.singular_points = singular_points  # [(coords tuple, type)]
        self.automorphisms = automorphisms      # [(name, matrix, expected)]
        self.affine = affine
        self.smooth = smooth
        self.cusp_tangents_concurrent = cusp_tangents_concurrent

    def __repr__(self):
        return f"CurveRecord({self.name})"


_CORPUS_CACHE = {}


def corpus_names() -> list:
    """The names of the corpus curves, sorted."""
    return sorted(json.loads(_data_text("curves.json")))


def corpus_get(name: str) -> CurveRecord:
    """The published equation (and declared data) for a corpus curve.

    The coordinates of the declared points lie in the curve's field, or in
    its "points_field" when the entry names one; that field is built once,
    so points over it compare equal exactly when they are equal.
    """
    if name in _CORPUS_CACHE:
        return _CORPUS_CACHE[name]
    entry = json.loads(_data_text("curves.json")).get(name)
    if entry is None:
        raise CurveError(f"unknown curve {name!r}; known: {corpus_names()}")
    field = field_from_doc(entry["field"]) if entry["field"] else QQ
    poly = parse_poly(entry["poly"], tuple(entry["vars"]), field)
    points_field = field_from_doc(entry["points_field"]) \
        if "points_field" in entry else field
    pts = _declared_points(entry.get("singular_points", []), points_field)
    autos = [(a["name"], [[parse_constant(c, field) for c in row]
                          for row in a["matrix"]], a["invariant"])
             for a in entry.get("automorphisms", [])]
    rec = CurveRecord(name, poly, field, pts, autos,
                      affine=entry.get("affine", False),
                      smooth=entry.get("smooth", False),
                      cusp_tangents_concurrent=entry.get(
                          "cusp_tangents_concurrent", False))
    _CORPUS_CACHE[name] = rec
    return rec


def _declared_points(entries, field):
    """[(coords tuple, type)] from the data files' point entries
    {"coords": [...], "type": T}."""
    return [(tuple(parse_constant(c, field) for c in p["coords"]), p["type"])
            for p in entries]


# ---------------------------------------------------------------------------
# germs at projective points
# ---------------------------------------------------------------------------

def _chart(point):
    """The chart of a projective point: the index of its first nonzero
    coordinate, then the indices of the other two in order."""
    i = next((k for k in (0, 1, 2) if point[k]), None)
    if i is None:
        raise CurveError("zero projective point")
    return (i, *(t for t in (0, 1, 2) if t != i))


def projective_germ(f: MultiPoly, point) -> CurveGerm:
    """Affine germ of a homogeneous 3-variable polynomial at a point, in
    the point's chart (`_chart`)."""
    if len(f.vars) != 3:
        raise CurveError("expected a polynomial in 3 variables")
    field = fl.common_field(f, *point)
    pt = [field.coerce(c) for c in point]
    i, j, k = _chart(pt)
    s = 1 / pt[i]
    return CurveGerm(dehomogenize(f, i), (pt[j] * s, pt[k] * s))


# ---------------------------------------------------------------------------
# tangent lines and concurrency
# ---------------------------------------------------------------------------

def tangent_lines_and_concurrency(f: MultiPoly, points: Sequence):
    """Unique tangent line at each singular point; concurrency of 3 lines.

    `f` is homogeneous in 3 variables; each point is a projective triple
    with a perfect-power tangent cone at it.  Returns (lines, concurrent)
    where each line is a coefficient triple on the variables of f.
    """
    if len(f.vars) != 3:
        raise GermError("projective polynomial must have 3 variables")
    lines = [_tangent_line_at(f, p) for p in points]
    return lines, lines_concurrent(lines)


def _tangent_line_at(f: MultiPoly, point):
    germ = projective_germ(f, point)
    _m, _cone, is_power, L = multiplicity_and_cone(germ)
    if not is_power:
        raise GermError("point has a non-unique tangent line")
    field = germ.field
    i, j, k = _chart(point)
    a, b = germ.point
    cu = L.terms.get((1, 0), field.zero())
    cv = L.terms.get((0, 1), field.zero())
    # affine line cu*(x_j - a*x_i) + cv*(x_k - b*x_i) = 0, homogenized
    coeffs = [field.zero()] * 3
    coeffs[j] = cu
    coeffs[k] = cv
    coeffs[i] = -(cu * a + cv * b)
    return tuple(coeffs)


def _det3(rows):
    (a, b, c), (d, e, f_), (g, h, i) = rows
    return a * (e * i - f_ * h) - b * (d * i - f_ * g) + c * (d * h - e * g)


def lines_concurrent(lines) -> bool:
    if len(lines) != 3:
        raise GermError("concurrency test needs exactly 3 lines")
    return not _det3([tuple(r) for r in lines])


# ---------------------------------------------------------------------------
# Kummer pullback / invariance
# ---------------------------------------------------------------------------

def kummer_pullback(f: MultiPoly, n: int, names=None) -> MultiPoly:
    """Substitute each variable (or each listed one) by its n-th power."""
    if n < 1:
        raise CurveError("pullback exponent must be >= 1")
    if n == 1:
        return f
    if names is None:
        scaled = set(f.vars)
    else:
        scaled = set(names)
        unknown = scaled - set(f.vars)
        if unknown:
            raise CurveError(f"unknown variables {sorted(unknown)}")
    terms = {tuple(n * x if v in scaled else x
                   for v, x in zip(f.vars, e)): c
             for e, c in f.terms.items()}
    out = MultiPoly.zero(f.vars, f.field)
    out.terms = terms
    return out


def invariance_check(f: MultiPoly, matrix):
    """Whether f composed with the linear map equals lambda*f; returns
    (bool, lambda or None)."""
    field = fl.common_field(f, *(c for row in matrix for c in row))
    f = f.to_field(field)
    names = f.vars
    subs = {}
    for i, nname in enumerate(names):
        acc = MultiPoly.zero(names, field)
        for j, n2 in enumerate(names):
            cij = field.coerce(matrix[i][j])
            if cij:
                acc = acc + MultiPoly.const(names, cij, field) * \
                    MultiPoly.var(names, n2, field)
        subs[nname] = acc
    g = f.substitute(subs)
    if g.is_zero():
        return (f.is_zero(), field.one() if f.is_zero() else None)
    e0 = next(iter(f.terms))
    if e0 not in g.terms:
        return False, None
    lam = g.terms[e0] / f.terms[e0]
    if g == MultiPoly.const(names, lam, field) * f:
        return True, lam
    return False, None


# ---------------------------------------------------------------------------
# octic family assembly
# ---------------------------------------------------------------------------

def _appendix_b_data():
    doc = json.loads(_data_text("appendix_b.json"))
    K = field_from_doc(doc["field"])
    consts = {k: fl.element_from_doc(K, v)
              for k, v in doc["constants"].items()}
    return K, consts, doc


def appendix_b_mappings():
    """The candidate resolutions of the ambiguous constant names."""
    return json.loads(_data_text("appendix_b.json"))["candidate_mappings"]


def assemble_appendix_b(mapping):
    """Assemble the octic family F, its quotient G0, and the model G.

    `mapping` is either a label from the data file's candidate list or a
    dict assigning the missing constant names (r32, r40) to supplied ones.
    Returns a report dict with the three polynomials, F as a `CurveRecord`
    with its declared singular points ("record", for `certify_curve_spec`),
    and the structural check results.  Nothing is certified here.
    """
    K, consts, doc = _appendix_b_data()
    mappings = doc["candidate_mappings"]
    if isinstance(mapping, str):
        matches = [m for m in mappings if m.get("label") == mapping]
        if not matches:
            raise CurveError(f"unknown mapping label {mapping!r}")
        mapping = matches[0]
    label = mapping.get("label", "custom")
    r32 = consts[mapping["r32"]]
    r40 = consts[mapping["r40"]]

    K1 = NumberField("zeta", [K.one(), K.one(), K.one()], K)
    zeta = K1.gen()
    sigma = FieldAutomorphism(K1, [K1.coerce(K.gen()), -1 - zeta])

    def c(x):
        return K1.coerce(x)

    TZ = ("t", "z")
    t = MultiPoly.var(TZ, "t", K1)
    z = MultiPoly.var(TZ, "z", K1)
    F0 = (z ** 8
          + MultiPoly.const(TZ, c(2 * consts["r16"]) / 19, K1) * t * z ** 6
          + MultiPoly.const(TZ, c(3 * consts["r24"]) / 19 ** 2, K1)
          * t ** 2 * z ** 4
          + MultiPoly.const(TZ, c(2 * r32) / 19 ** 2, K1) * t ** 3 * z ** 2
          + MultiPoly.const(TZ, c(4 * r40) / 19, K1) * t ** 4)
    F1 = (MultiPoly.const(
            TZ, (c(consts["r15"]) + zeta * c(consts["s15"])) / 19 ** 3, K1)
          * z ** 4
          + MultiPoly.const(
            TZ, (c(consts["r23"]) + zeta * c(consts["s23"])) / 19 ** 2, K1)
          * t * z ** 2
          + MultiPoly.const(
            TZ, 6 * (c(consts["r31"]) + 4 * zeta * c(consts["s31"]))
            / 19 ** 2, K1) * t ** 2)
    F2 = (MultiPoly.const(
            TZ, (c(consts["r22"]) + 2 * zeta * c(consts["s22"])) / 19, K1)
          * z ** 2
          + MultiPoly.const(
            TZ, 2 * (c(consts["r30"]) + 4 * zeta * c(consts["s30"])) / 19,
            K1) * t)

    XYZ = ("x", "y", "z")
    x = MultiPoly.var(XYZ, "x", K1)
    y = MultiPoly.var(XYZ, "y", K1)
    zz = MultiPoly.var(XYZ, "z", K1)

    def plug(template):
        return template.substitute({"t": x * y, "z": zz})

    F1s = _apply_sigma(F1, sigma)
    F2s = _apply_sigma(F2, sigma)
    F = (plug(F0)
         + 2 * x * y * zz * (x * plug(F1) + y * plug(F1s))
         + x ** 2 * y ** 2 * (x ** 2 * plug(F2) + y ** 2 * plug(F2s)))

    record = CurveRecord(f"appendix_b:{label}", F, K1,
                         _declared_points(doc["singular_points"], K1), [])
    report = {"mapping": label, "F": F, "record": record, "checks": {}}
    # structural checks
    report["checks"]["F_homogeneous_deg8"] = \
        F.is_homogeneous() and F.degree() == 8
    swapped = _apply_sigma(
        F.substitute({"x": y, "y": x}), sigma)
    report["checks"]["F_sigma_swap_symmetric"] = (swapped == F)

    # G0 = F(x^3, y^3, xyz) / x^8 y^8, exact divisibility checked termwise
    Fk = F.substitute({"x": x ** 3, "y": y ** 3, "z": x * y * zz})
    bad = [e for e in Fk.terms if e[0] < 8 or e[1] < 8]
    report["checks"]["x8y8_divides"] = not bad
    if bad:
        report["checks"]["x8y8_failures"] = sorted(bad)[:10]
        report["G0"] = None
        report["G"] = None
        return report
    G0 = MultiPoly.zero(XYZ, K1)
    G0.terms = {(e[0] - 8, e[1] - 8, e[2]): cc for e, cc in Fk.terms.items()}
    report["G0"] = G0

    zbar = -1 - zeta
    ok3, lam3 = invariance_check(
        G0, [[zeta, K1.zero(), K1.zero()],
             [K1.zero(), zbar, K1.zero()],
             [K1.zero(), K1.zero(), K1.one()]])
    report["checks"]["G0_order3_invariant"] = bool(ok3) and lam3 == 1

    G = G0.substitute({"x": x + MultiPoly.const(XYZ, zeta, K1) * y,
                       "y": x + MultiPoly.const(XYZ, zbar, K1) * y})
    report["G"] = G
    escape = [e for e, cc in G.terms.items() if sigma(cc) != cc]
    report["checks"]["G_coeffs_in_fixed_field"] = not escape
    if escape:
        report["checks"]["G_escaping_monomials"] = sorted(escape)[:10]
    # the order-3 symmetry of G in the mixed coordinates: (x,y) -> (-y, x-y)
    okg, lamg = invariance_check(
        G, [[K1.zero(), -K1.one(), K1.zero()],
            [K1.one(), -K1.one(), K1.zero()],
            [K1.zero(), K1.zero(), K1.one()]])
    report["checks"]["G_order3_invariant"] = bool(okg) and lamg == 1
    return report


def structural_ok(report) -> bool:
    """Whether every structural check of an `assemble_appendix_b` report
    held; the list-valued failure samples are not verdicts."""
    return all(v for v in report["checks"].values() if isinstance(v, bool))


def _apply_sigma(p: MultiPoly, sigma) -> MultiPoly:
    out = MultiPoly.zero(p.vars, p.field)
    out.terms = {e: sigma(c) for e, c in p.terms.items()}
    out.terms = {e: c for e, c in out.terms.items() if c}
    return out


# ---------------------------------------------------------------------------
# certification reports
# ---------------------------------------------------------------------------

def certify_curve_spec(record: CurveRecord):
    """Run the declared certificates for a corpus curve; aggregate report.

    Each entry's "ok" is True, False, or None for a point left undecided
    (verdict UNRESOLVED).  The report's "ok" is False when any entry
    failed, else None when any point is undecided, else True.
    """
    report = {"name": record.name, "points": [], "automorphisms": [],
              "ok": True}

    def germ_for(coords):
        if record.affine:
            return CurveGerm(record.poly, coords)
        return projective_germ(record.poly, coords)

    for coords, expected in record.singular_points:
        entry = {"coords": [str(c) for c in coords], "expected": expected}
        try:
            germ = germ_for(coords)
            if expected == "COMPOSITE_3BRANCH":
                cert = certify_composite(germ)
            else:
                cert = certify_type(germ, expected)
            entry["verdict"] = cert.verdict
            entry["ok"] = (cert.verdict == expected)
            if cert.contacts is not None:
                entry["contacts"] = list(cert.contacts)
            if cert.reason:
                entry["reason"] = cert.reason
        except UnresolvedGerm as exc:
            entry["verdict"] = "UNRESOLVED"
            entry["reason"] = str(exc)
            entry["ok"] = None
        except GermError as exc:
            entry["verdict"] = "ERROR"
            entry["reason"] = str(exc)
            entry["ok"] = False
        report["points"].append(entry)
        report["ok"] = conjoin(report["ok"], entry["ok"])

    # pairwise distinctness of projective points over a common field
    if not record.affine:
        report["points_distinct"] = _points_distinct(record.singular_points)
        report["ok"] = conjoin(report["ok"], report["points_distinct"])

    for name, M, expected in record.automorphisms:
        ok, lam = invariance_check(record.poly, M)
        entry = {"name": name, "invariant": ok,
                 "lambda": str(lam) if lam is not None else None,
                 "ok": ok == expected}
        report["automorphisms"].append(entry)
        report["ok"] = conjoin(report["ok"], entry["ok"])

    if record.smooth:
        ok, witness = certify_smooth_projective(record.poly)
        report["smooth"] = ok
        report["ok"] = conjoin(report["ok"], ok)

    if record.cusp_tangents_concurrent:
        pts = [coords for coords, _t in record.singular_points]
        _lines, concurrent = tangent_lines_and_concurrency(record.poly, pts)
        report["cusp_tangents_concurrent"] = concurrent
        report["ok"] = conjoin(report["ok"], concurrent)
    return report


def conjoin(*oks):
    """Three-valued "and" of True, False and None (undecided): False beats
    None, which beats True."""
    return False if False in oks else None if None in oks else True


def _points_distinct(points) -> bool:
    normed = []
    for coords, _t in points:
        field = fl.common_field(*coords)
        v = [field.coerce(c) for c in coords]
        s = 1 / v[_chart(v)[0]]
        normed.append(tuple(c * s for c in v))
    for i in range(len(normed)):
        for j in range(i + 1, len(normed)):
            if all(x == y for x, y in zip(normed[i], normed[j])):
                return False
    return True


# ---------------------------------------------------------------------------
# elimination-system export (for re-deriving the c82 point data)
# ---------------------------------------------------------------------------

def c82_singular_system():
    """Polynomial system whose solutions are the off-axis triple points of
    c82 (chart z=1): the three partial derivatives of the octic."""
    f = corpus_get("c82").poly
    out = [dehomogenize(f.derivative(n), 2) for n in f.vars]
    return out[0].vars, out
