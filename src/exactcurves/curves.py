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
from typing import Optional, Sequence

from . import fields as fl
from .fields import QQ, FieldAutomorphism, NumberField, field_from_doc
from .multipoly import MultiPoly, PolyError, dehomogenize, parse_poly
from .singular import (CurveGerm, GermError, UnresolvedGerm,
                       certify_composite, certify_smooth_projective,
                       certify_type, tangent_lines_and_concurrency)


class CurveError(ValueError):
    pass


def _data_text(name: str) -> str:
    return resources.files("exactcurves.data").joinpath(name).read_text()


def parse_constant(text: str, field):
    """Parse a constant expression (tower generators allowed) to an element."""
    p = parse_poly(text, (), field)
    if not p.terms:
        return field.zero()
    return next(iter(p.terms.values()))


class CurveRecord:
    """A named curve: polynomial, field, declared points and automorphisms."""

    def __init__(self, name, poly, field, singular_points, automorphisms,
                 affine=False, smooth=False, extra_points=None):
        self.name = name
        self.poly = poly
        self.field = field
        self.singular_points = singular_points  # [(coords tuple, type)]
        self.automorphisms = automorphisms      # [(name, matrix, expected)]
        self.affine = affine
        self.smooth = smooth
        self.extra_points = extra_points or []  # same shape, other fields

    def __repr__(self):
        return f"CurveRecord({self.name})"


_CORPUS_CACHE = {}


def corpus_get(name: str) -> CurveRecord:
    """The published equation (and declared data) for a corpus curve."""
    if name in _CORPUS_CACHE:
        return _CORPUS_CACHE[name]
    data = json.loads(_data_text("curves.json"))
    if name not in data:
        raise CurveError(f"unknown curve {name!r}; known: {sorted(data)}")
    entry = data[name]
    field = field_from_doc(entry["field"]) if entry["field"] else QQ
    poly = parse_poly(entry["poly"], tuple(entry["vars"]), field)
    pts = []
    for p in entry.get("singular_points", []):
        coords = tuple(parse_constant(c, field) if not _is_rational(c)
                       else Fraction(c) for c in p["coords"])
        pts.append((coords, p["type"]))
    autos = []
    for a in entry.get("automorphisms", []):
        M = [[parse_constant(c, field) if not _is_rational(c)
              else Fraction(c) for c in row] for row in a["matrix"]]
        autos.append((a["name"], M, a["invariant"]))
    extra = []
    if entry.get("singular_points_file"):
        extra = _load_point_file(entry["singular_points_file"])
    rec = CurveRecord(name, poly, field, pts, autos,
                      affine=entry.get("affine", False),
                      smooth=entry.get("smooth", False),
                      extra_points=extra)
    _CORPUS_CACHE[name] = rec
    return rec


def _is_rational(text):
    try:
        Fraction(text)
        return True
    except ValueError:
        return False


def _load_point_file(fname):
    doc = json.loads(_data_text(fname))
    field = field_from_doc(doc["field"])
    pts = []
    rep = doc.get("representative_points", doc.get("points", []))
    for p in rep:
        coords = tuple(parse_constant(c, field)
                       for c in p["coords_in_beta"])
        pts.append((coords, p["type"]))
    return pts


# ---------------------------------------------------------------------------
# germs at projective points
# ---------------------------------------------------------------------------

def projective_germ(f: MultiPoly, point) -> CurveGerm:
    """Affine germ of a homogeneous 3-variable polynomial at a point, in
    the chart of the point's first nonzero coordinate."""
    if len(f.vars) != 3:
        raise CurveError("expected a polynomial in 3 variables")
    field = fl.common_field(f, *point)
    pt = [field.coerce(c) for c in point]
    i = next((k for k in (0, 1, 2) if pt[k]), None)
    if i is None:
        raise CurveError("zero projective point")
    j, k = [t for t in (0, 1, 2) if t != i]
    s = 1 / pt[i]
    return CurveGerm(dehomogenize(f, i), (pt[j] * s, pt[k] * s))


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
    return K, consts, doc["candidate_mappings"]


def appendix_b_mappings():
    """The candidate resolutions of the ambiguous constant names."""
    _, _, mappings = _appendix_b_data()
    return mappings


def assemble_appendix_b(mapping=None):
    """Assemble the octic family F, its quotient G0, and the model G.

    `mapping` is either a label from the data file's candidate list, a dict
    assigning the missing constant names (r32, r40) to supplied ones, or
    None for the first candidate.  Returns a report dict with the three
    polynomials and the structural check results.
    """
    K, consts, mappings = _appendix_b_data()
    if mapping is None:
        mapping = mappings[0]
    elif isinstance(mapping, str):
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
    q19 = Fraction(19)
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

    report = {"mapping": label, "F": F, "checks": {}}
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


def _apply_sigma(p: MultiPoly, sigma) -> MultiPoly:
    out = MultiPoly.zero(p.vars, p.field)
    out.terms = {e: sigma(c) for e, c in p.terms.items()}
    out.terms = {e: c for e, c in out.terms.items() if c}
    return out


def appendix_b_singularity_check(report):
    """Composite-type certification of F at [1:0:0] and [0:1:0].

    Returns {"status": "pass" | "unresolved", ...} — never a silent pass.
    """
    F = report["F"]
    out = {"points": {}}
    status = "pass"
    for tag, pt in (("[1:0:0]", (1, 0, 0)), ("[0:1:0]", (0, 1, 0))):
        entry = {}
        try:
            germ = projective_germ(F, tuple(Fraction(c) for c in pt))
            cert = certify_composite(germ)
            entry["verdict"] = cert.verdict
            entry["contacts"] = cert.contacts
            entry["reason"] = cert.reason
            if cert.verdict != "COMPOSITE_3BRANCH":
                status = "unresolved"
        except GermError as exc:
            entry["verdict"] = "ERROR"
            entry["reason"] = str(exc)
            status = "unresolved"
        out["points"][tag] = entry
    out["status"] = status
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

    all_points = list(record.singular_points) + list(record.extra_points)
    for coords, expected in all_points:
        entry = {"coords": [str(c) for c in coords], "expected": expected}
        try:
            germ = germ_for(coords)
            if expected == "COMPOSITE_3BRANCH":
                cert = certify_composite(germ)
            else:
                cert = certify_type(germ, expected)
            entry["verdict"] = cert.verdict
            entry["ok"] = (cert.verdict == expected)
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
        report["points_distinct"] = _points_distinct(all_points)
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

    if record.name == "deltoid_symmetric":
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
        i = max(k for k in range(len(v)) if v[k])
        s = 1 / v[i]
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
