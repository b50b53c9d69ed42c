"""Named verification checks and the manifest that aggregates them.

Each check re-runs one of the toolkit's reproduction targets and compares
the outcome against the published value; it returns only its details,
each with an "ok" verdict of True, False or None (undecided).
`run_check` alone turns them into a status: "pass" when every detail
holds, "fail" when one is refuted, and otherwise "unresolved" (the
computation finished but could not decide the strongest claim), which is
never silently promoted to pass.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import prod
from typing import Dict, List, Optional, Sequence

from .curves import (appendix_b_mappings, assemble_appendix_b,
                     c82_singular_system, certify_curve_spec, conjoin,
                     corpus_get, kummer_pullback, structural_ok)
from .elim import make_root, solve_system
from .fields import QQ, common_field, sturm_real_roots, tower
from .groups import (CORPUS, ORB22_TO_Z2Z2, count_homs,
                     derived_series_quotients, rs_kernel, todd_coxeter,
                     verify_g0_relations, word)
from .groups.braids import BraidWord
from .multipoly import parse_poly
from .singular import CurveGerm, certify_type


class CheckError(ValueError):
    pass


def _expect(details, label, got, expected):
    details[label] = {"got": _plain(got), "expected": _plain(expected),
                      "ok": got == expected}


def _expect_report(details, label, rep, key="ok"):
    """Record whether a certification report holds: its verdict `rep[key]`
    is True, False, or None when it left something undecided."""
    details[label] = {"got": rep[key], "expected": True, "ok": rep[key]}


# status of a check from the three-valued `conjoin` of its details' "ok":
# an undecided detail is never promoted to pass
_STATUS = {True: "pass", None: "unresolved", False: "fail"}


def _plain(v):
    if isinstance(v, (list, tuple)):
        return [_plain(x) for x in v]
    if isinstance(v, dict):
        return {k: _plain(x) for k, x in v.items()}
    if isinstance(v, (str, int, bool)) or v is None:
        return v
    return str(v)


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------

def _check_monodromy_presentation():
    details = {}
    p = CORPUS["gdl"]
    expected = [
        "l1^-1*c1*l1*c1*c2*c3^-1*c2^-1*c1^-1",
        "l1^-1*c2*l1*c1*c2*c1^-1*c2^-1*c1^-1",
        "l1^-1*c3*l1*c1*c2^-1*c1^-1",
        "l1^-1*c4*l1*c4^-1",
        "l2^-1*c1*l2*c1^-1",
        "l2^-1*c2*l2*c2*c3*c4*c3^-1*c4^-1*c3^-1*c2^-1",
        "l2^-1*c3*l2*c2*c3*c4^-1*c3^-1*c2^-1",
        "l2^-1*c4*l2*c2^-1",
        "c1*c2*c3*c4*l1*l2*linf",
    ]
    _expect(details, "relators", [r.to_text() for r in p.relators], expected)
    return details


def _check_monodromy_commutation():
    details = {}
    _expect(details, "all_four_meridians", verify_g0_relations(), True)
    _expect(details, "planted_failure_control",
            verify_g0_relations(tau2=BraidWord(4, (2, 2))), False)
    return details


def _check_order24_group():
    details = {}
    p = CORPUS["cremona24"]
    ct = todd_coxeter(p)
    _expect(details, "order", ct.n_cosets, 24)
    res = derived_series_quotients(p, 2)
    _expect(details, "abelianization", res["quotients"][0].describe(), "Z/8")
    _expect(details, "derived_quotient", res["quotients"][1].describe(), "Z/3")
    _expect(details, "c2_order", ct.element_order("c2"), 8)
    _expect(details, "c2_c3_identity",
            ct.elements_equal("c2*c3^-1", (word("c2*c3") ** 4)), True)
    return details


def _check_derived_series_main(depth=3):
    details = {}
    res = derived_series_quotients(CORPUS["g_symp"], depth)
    expected = ["Z/8", "Z/3", "(Z/2)^6", "Z^9 + (Z/2)^5 + Z/4"][:depth]
    _expect(details, "quotients",
            [q.describe() for q in res["quotients"]], expected)
    _expect(details, "status", res["status"], "complete")
    return details


def _check_derived_series_main_full():
    return _check_derived_series_main(depth=4)


def _check_derived_series_companion():
    details = {}
    res = derived_series_quotients(CORPUS["g2"], 4)
    _expect(details, "quotients",
            [q.describe() for q in res["quotients"]],
            ["Z/8", "Z/3", "(Z/2)^4", "Z^3 + Z/2"])
    _expect(details, "status", res["status"], "complete")
    return details


def _check_kernel_consistency():
    details = {}
    ker = rs_kernel(CORPUS["g_orb22"], (2, 2), ORB22_TO_Z2Z2)
    stated = CORPUS["g_symp"]
    rk = derived_series_quotients(ker, 3)
    rs = derived_series_quotients(stated, 3)
    _expect(details, "abelianization",
            rk["quotients"][0].describe(),
            rs["quotients"][0].describe())
    _expect(details, "derived_quotients_depth3",
            [q.describe() for q in rk["quotients"]],
            [q.describe() for q in rs["quotients"]])
    for target in ("S3", "S4", "D4", "Q8"):
        _expect(details, f"homs_to_{target}",
                count_homs(ker, target), count_homs(stated, target))
    return details


def _check_octic_certification():
    details = {}
    rec = corpus_get("c82")
    rep = certify_curve_spec(rec)
    _expect_report(details, "all_points_and_automorphisms", rep)
    axis = sorted(tuple(str(c) for c in coords)
                  for coords, _t in rec.singular_points
                  if not coords[2])
    _expect(details, "axis_points", axis,
            sorted([("1", "0", "0"), ("0", "1", "0")]))
    _expect(details, "types",
            sorted({t for _c, t in rec.singular_points}), ["E6"])
    # a point over an extension certifies all its conjugates: y = beta
    # generates Q(beta), so the off-axis representative has [Q(beta):Q] of
    # them, and its z-flip partner y = -beta is one, beta's minimal
    # polynomial being even
    fields = [common_field(*coords) for coords, _t in rec.singular_points]
    conjugates = sum(prod(level.degree for level in tower(K))
                     for K in set(fields) - {QQ})
    _expect(details, "declared_point_count", fields.count(QQ) + conjugates, 6)
    return details


def _check_octic_rederivation():
    details = {}
    names, polys = c82_singular_system()
    rep = solve_system(make_root(names, polys), order=["x"])
    _expect(details, "status", rep["status"], "complete")
    _expect(details, "solution_count", len(rep["solutions"]), 1)
    if rep["solutions"]:
        s = rep["solutions"][0]
        _expect(details, "extension",
                s["extensions"], [("w1", "y^4 + 2/9*y^2 + 1/33")])
        b = s["field"].gen()
        _expect(details, "y_is_root", s["assignment"]["y"] == b, True)
        _expect(details, "x_from_y",
                s["assignment"]["x"] == (99 * b ** 3 - 5 * b) / 6,
                True)
        _expect(details, "verified", s["verified"], True)
    return details


def _check_deltoid_suite():
    details = {}
    sym = certify_curve_spec(corpus_get("deltoid_symmetric"))
    _expect_report(details, "symmetric_ok", sym)
    _expect(details, "cusp_count", len(sym["points"]), 3)
    _expect(details, "all_cusps",
            [p["verdict"] for p in sym["points"]],
            ["A2", "A2", "A2"])
    _expect(details, "tangents_concurrent",
            sym.get("cusp_tangents_concurrent"), True)
    aff = certify_curve_spec(corpus_get("deltoid_affine"))
    _expect_report(details, "affine_ok", aff)
    # the affine model is stored in (v, u) coordinate order, so the cusp
    # at (u, v) = (1, -3) appears as ("-3", "1")
    pts = sorted(tuple(p["coords"]) for p in aff["points"])
    _expect(details, "affine_cusp_locations", pts,
            sorted([("0", "0"), ("-3", "1")]))
    return details


def _check_power_map_mechanism():
    details = {}
    f = parse_poly("u^2 - v^3", ("u", "v"))
    g = kummer_pullback(f, 2, names=["u"])
    cert = certify_type(CurveGerm(g, (Fraction(0), Fraction(0))), "E6")
    _expect(details, "local_model_verdict", cert.verdict, "E6")
    quartic = corpus_get("deltoid_symmetric").poly
    _expect(details, "pullback_degree",
            kummer_pullback(quartic, 2).degree(), 8)
    return details


def _assembled_octic_family():
    """(label, report, structural checks passed) per candidate mapping."""
    for mapping in appendix_b_mappings():
        rep = assemble_appendix_b(mapping)
        yield mapping["label"], rep, structural_ok(rep)


def _check_octic_family_assembly():
    return {label: _plain(dict(rep["checks"], ok=structural))
            for label, rep, structural in _assembled_octic_family()}


def _check_octic_family_singularities():
    details = {}
    for label, rep, structural in _assembled_octic_family():
        spec = certify_curve_spec(rep["record"])
        details[label] = _plain(dict(rep["checks"], singularities=spec,
                                     ok=conjoin(structural, spec["ok"])))
    return details


def _check_quartic_smoothness():
    details = {}
    for name in ("c82_quartic", "c83_quartic"):
        rep = certify_curve_spec(corpus_get(name))
        _expect_report(details, f"{name}_smooth", rep, "smooth")
        _expect_report(details, f"{name}_ok", rep)
    return details


def _check_real_root_count():
    details = {}
    count = sturm_real_roots([Fraction(-2), Fraction(-2), Fraction(1),
                              Fraction(-2), Fraction(1)])
    _expect(details, "real_roots_of_defining_quartic", count, 2)
    return details


# ---------------------------------------------------------------------------
# manifest
# ---------------------------------------------------------------------------

# (id, statement checked, tags, runner)
_CHECKS = [
    ("monodromy-presentation",
     "braid-monodromy presentation of the line-arrangement complement "
     "has exactly the nine published conjugation relations",
     ("groups",), _check_monodromy_presentation),
    ("monodromy-commutation",
     "the two full-twist monodromy braids commute on all four meridians "
     "in the free product of two 3-strand braid groups",
     ("groups",), _check_monodromy_commutation),
    ("order24-group",
     "identified-lines quotient has order 24, abelianization Z/8, "
     "derived quotient Z/3, and the stated element identities",
     ("groups",), _check_order24_group),
    ("derived-series-main",
     "derived-series quotients of the 4-generator kernel group, "
     "levels 1-3: Z/8, Z/3, (Z/2)^6",
     ("groups",), _check_derived_series_main),
    ("derived-series-main-full",
     "level-4 derived-series quotient of the 4-generator kernel group "
     "is Z^9 + (Z/2)^5 + Z/4",
     ("groups",), _check_derived_series_main_full),
    ("derived-series-companion",
     "derived-series quotients of the 3-generator companion group: "
     "Z/8, Z/3, (Z/2)^4, Z^3 + Z/2",
     ("groups",), _check_derived_series_companion),
    ("kernel-consistency",
     "index-4 kernel of the orbifold group matches the stated "
     "4-generator presentation on abelianization, derived quotients, "
     "and hom counts",
     ("groups",), _check_kernel_consistency),
    ("octic-certification",
     "the rational octic has six E6 points, two of them on the axis "
     "line, with the declared automorphism behaviour",
     ("curves",), _check_octic_certification),
    ("octic-rederivation",
     "the off-axis singular points of the rational octic are re-derived "
     "from scratch by the elimination solver",
     ("curves", "elim"), _check_octic_rederivation),
    ("deltoid-suite",
     "tricuspidal quartic: three A2 cusps with concurrent tangents; "
     "affine model cusps at (0,0) and (1,-3)",
     ("curves",), _check_deltoid_suite),
    ("power-map-mechanism",
     "coordinate power substitution upgrades the cusp model to E6 and "
     "doubles the quartic's degree to 8",
     ("curves",), _check_power_map_mechanism),
    ("octic-family-assembly",
     "assembled octic family: exact x^8y^8 divisibility, order-3 "
     "invariance, coefficients in the fixed field, per candidate "
     "constant mapping",
     ("curves",), _check_octic_family_assembly),
    ("octic-family-singularities",
     "assembled octic family, per candidate constant mapping: the "
     "structural checks of octic-family-assembly, and the composite "
     "three-branch type with contacts (2, 2, 3) at both axis points",
     ("curves",), _check_octic_family_singularities),
    ("quartic-smoothness",
     "both printed quartics certify smooth over their coefficient "
     "fields",
     ("curves",), _check_quartic_smoothness),
    ("real-root-count",
     "the degree-4 defining polynomial of the base field has exactly "
     "two real roots",
     ("fields",), _check_real_root_count),
]


class VerificationManifest:
    """Ordered check results with a console rendering; `cli` writes the
    entries as the JSON report."""

    def __init__(self, entries: List[Dict]):
        self.entries = entries
        ids = [e["id"] for e in entries]
        if len(set(ids)) != len(ids):
            raise CheckError("duplicate check ids")

    @property
    def failed(self):
        return [e for e in self.entries if e["status"] == "fail"]

    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def render(self) -> str:
        lines = []
        for e in self.entries:
            line = f"{e['status'].upper():10s} {e['id']}"
            if "runtime_s" in e:
                line += f"  ({e['runtime_s']:.2f}s)"
            lines.append(line)
        counts = {}
        for e in self.entries:
            counts[e["status"]] = counts.get(e["status"], 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(f"-- {len(self.entries)} checks: {summary}")
        return "\n".join(lines)


def check_ids():
    return [cid for cid, _s, _t, _f in _CHECKS]


def run_check(check_id: str) -> Dict:
    """Execute one check and return its report entry, whose status is the
    `conjoin` of its details' "ok"; a check that raises, or a detail
    without "ok", is a fail with the error recorded."""
    for cid, statement, tags, fn in _CHECKS:
        if cid == check_id:
            t0 = time.time()
            try:
                details = fn()
                status = _STATUS[conjoin(*(d["ok"]
                                           for d in details.values()))]
            except Exception as exc:           # surfaced, not swallowed
                status = "fail"
                details = {"error": f"{type(exc).__name__}: {exc}"}
            return {"id": cid, "statement": statement,
                    "tags": list(tags), "status": status,
                    "details": details,
                    "runtime_s": round(time.time() - t0, 3)}
    raise CheckError(f"unknown check id {check_id!r}; "
                     f"known: {check_ids()}")


def run_all(tags: Optional[Sequence[str]] = None) -> VerificationManifest:
    """Run all checks, or those carrying at least one of `tags`."""
    return VerificationManifest([
        run_check(cid) for cid, _s, ctags, _f in _CHECKS
        if not tags or set(tags) & set(ctags)])
