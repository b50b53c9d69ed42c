"""Acceptance gate: the toolkit's headline reproduction targets.

Every test here re-runs a published computation end to end and asserts
both the exact outcome and a runtime ceiling.  All of them run by default,
the level-4 derived-series quotient included: its index-64 kernel of
about 4000 relators goes through bucketed unit-pivot elimination, a
Hermite normal form of the remnant and one Smith normal form in seconds.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path


@contextmanager
def budget(seconds):
    t0 = time.monotonic()
    yield
    elapsed = time.monotonic() - t0
    assert elapsed < seconds, \
        f"runtime {elapsed:.1f}s exceeded the {seconds}s budget"


# -- 1: braid-monodromy presentation ----------------------------------------

def test_monodromy_presentation_reproduced():
    from exactcurves.groups import CORPUS
    with budget(1):
        p = CORPUS["gdl"]
        assert [r.to_text() for r in p.relators] == [
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


# -- 2: commutation of the two monodromy braids -----------------------------

def test_monodromy_braids_commute_on_meridians():
    from exactcurves.groups import BraidWord, verify_g0_relations
    with budget(10):
        assert verify_g0_relations() is True
        assert verify_g0_relations(tau2=BraidWord(4, (2, 2))) is False


# -- 3: the order-24 quotient group -----------------------------------------

def test_order24_quotient_group():
    from exactcurves.groups import (CORPUS, abelianization,
                                    derived_series_quotients,
                                    todd_coxeter, word)
    with budget(5):
        p = CORPUS["cremona24"]
        ct = todd_coxeter(p)
        assert ct.n_cosets == 24
        assert abelianization(p).describe() == "Z/8"
        res = derived_series_quotients(p, 2)
        assert res["quotients"][1].describe() == "Z/3"
        assert ct.element_order("c2") == 8
        assert ct.elements_equal(word("c2*c3^-1"), word("c2*c3") ** 4)


# -- 4: derived series of the 4-generator kernel group ----------------------

def test_derived_series_main_levels_1_to_3():
    from exactcurves.groups import CORPUS, derived_series_quotients
    with budget(60):
        res = derived_series_quotients(CORPUS["g_symp"], 3)
        assert [q.describe() for q in res["quotients"]] == \
            ["Z/8", "Z/3", "(Z/2)^6"]
        assert res["status"] == "complete"


def test_derived_series_main_level_4():
    from exactcurves.groups import CORPUS, derived_series_quotients
    with budget(30):
        res = derived_series_quotients(CORPUS["g_symp"], 4)
        assert [q.describe() for q in res["quotients"]] == \
            ["Z/8", "Z/3", "(Z/2)^6", "Z^9 + (Z/2)^5 + Z/4"]
        assert res["status"] == "complete"


# -- 5: derived series of the 3-generator companion group -------------------

def test_derived_series_companion_full_depth():
    from exactcurves.groups import CORPUS, derived_series_quotients
    with budget(600):
        res = derived_series_quotients(CORPUS["g2"], 4)
        assert [q.describe() for q in res["quotients"]] == \
            ["Z/8", "Z/3", "(Z/2)^4", "Z^3 + Z/2"]
        assert res["status"] == "complete"


# -- 6: orbifold kernel vs the stated presentation --------------------------

def test_orbifold_kernel_matches_stated_presentation():
    from exactcurves.groups import (CORPUS, ORB22_TO_Z2Z2, abelianization,
                                    count_homs, derived_series_quotients,
                                    rs_kernel)
    with budget(600):
        ker = rs_kernel(CORPUS["g_orb22"], (2, 2), ORB22_TO_Z2Z2)
        stated = CORPUS["g_symp"]
        assert abelianization(ker) == abelianization(stated)
        rk = derived_series_quotients(ker, 3)
        rs = derived_series_quotients(stated, 3)
        assert [q.describe() for q in rk["quotients"]] == \
            [q.describe() for q in rs["quotients"]]
        for target in ("S3", "S4", "D4", "Q8"):
            assert count_homs(ker, target) == count_homs(stated, target)


# -- 7: certification and re-derivation of the rational octic ----------------

def test_octic_certification_and_rederivation():
    from exactcurves.curves import (c82_singular_system, certify_curve_spec,
                                    corpus_get)
    from exactcurves.elim import make_root, solve_system
    with budget(120):
        rec = corpus_get("c82")
        rep = certify_curve_spec(rec)
        assert rep["ok"]
        assert all(p["verdict"] == "E6" for p in rep["points"])
        axis = sorted(tuple(str(c) for c in coords)
                      for coords, _t in rec.singular_points
                      if not coords[2])
        assert axis == sorted([("1", "0", "0"), ("0", "1", "0")])
        autos = {a["name"]: a for a in rep["automorphisms"]}
        assert autos["z_flip"]["invariant"] is True
        assert autos["xy_swap"]["invariant"] is False
        # the off-axis point data regenerated from scratch
        names, polys = c82_singular_system()
        sol = solve_system(make_root(names, polys), order=["x"])
        assert sol["status"] == "complete"
        assert len(sol["solutions"]) == 1
        s = sol["solutions"][0]
        assert s["extensions"] == [("w1", "y^4 + 2/9*y^2 + 1/33")]
        b = s["field"].gen()
        assert s["assignment"]["y"] == b
        assert s["assignment"]["x"] == (99 * b ** 3 - 5 * b) / 6
        assert s["verified"]


# -- 8: tricuspidal quartic suite -------------------------------------------

def test_deltoid_suite():
    from exactcurves.curves import certify_curve_spec, corpus_get
    with budget(5):
        sym = certify_curve_spec(corpus_get("deltoid_symmetric"))
        assert sym["ok"]
        assert [p["verdict"] for p in sym["points"]] == ["A2"] * 3
        assert sym["cusp_tangents_concurrent"] is True
        aff = certify_curve_spec(corpus_get("deltoid_affine"))
        assert aff["ok"]
        # stored in (v, u) coordinate order: cusps at (u,v)=(0,0), (1,-3)
        assert sorted(tuple(p["coords"]) for p in aff["points"]) == \
            sorted([("0", "0"), ("-3", "1")])


# -- 9: power-map upgrade of the cusp model ---------------------------------

def test_power_map_mechanism():
    from exactcurves.curves import corpus_get, kummer_pullback
    from exactcurves.multipoly import parse_poly
    from exactcurves.singular import CurveGerm, certify_type
    with budget(1):
        f = parse_poly("u^2 - v^3", ("u", "v"))
        g = kummer_pullback(f, 2, names=["u"])
        cert = certify_type(CurveGerm(g, (Fraction(0), Fraction(0))), "E6")
        assert cert.verdict == "E6"
        quartic = corpus_get("deltoid_symmetric").poly
        assert kummer_pullback(quartic, 2).degree() == 8


# -- 10: octic family assembly ----------------------------------------------

def test_octic_family_assembly_all_mappings():
    from exactcurves.curves import (appendix_b_mappings,
                                    appendix_b_singularity_check,
                                    assemble_appendix_b)
    with budget(20):
        outcomes = {}
        for mapping in appendix_b_mappings():
            rep = assemble_appendix_b(mapping)
            checks = rep["checks"]
            assert checks["F_homogeneous_deg8"]
            assert checks["F_sigma_swap_symmetric"]
            assert checks["x8y8_divides"]
            assert checks["G0_order3_invariant"]
            assert checks["G_coeffs_in_fixed_field"]
            assert checks["G_order3_invariant"]
            sing = appendix_b_singularity_check(rep)
            assert sing["status"] in ("pass", "unresolved")
            outcomes[mapping["label"]] = sing
        # both candidate mappings currently certify the composite type
        # with branch contacts (2, 2, 3) at both axis points; neither is
        # ruled out by the singularity pattern
        for label, sing in outcomes.items():
            assert sing["status"] == "pass", (label, sing)
            for entry in sing["points"].values():
                assert entry["verdict"] == "COMPOSITE_3BRANCH"
                assert tuple(sorted(entry["contacts"])) == (2, 2, 3)


# -- 11: smoothness of the printed quartics ---------------------------------

def test_printed_quartics_certify_smooth():
    from exactcurves.curves import certify_curve_spec, corpus_get
    with budget(120):
        for name in ("c82_quartic", "c83_quartic"):
            rep = certify_curve_spec(corpus_get(name))
            assert rep["smooth"] is True
            assert rep["ok"]


# -- 12: real-root count of the base-field polynomial ------------------------

def test_base_field_polynomial_has_two_real_roots():
    from exactcurves.fields import sturm_real_roots
    with budget(1):
        coeffs = [Fraction(c) for c in (-2, -2, 1, -2, 1)]
        assert sturm_real_roots(coeffs) == 2


# -- 13: randomized property suites (>= 100 cases each) ----------------------
# The full suites live beside the modules they test and run in the same
# CI session as this file:
#   - field axioms                  tests/test_fields.py      (100 cases)
#   - resultant oracle/multiplicativity/sign
#                                   tests/test_multipoly.py   (100 each)
#   - SNF round trip + shuffles     tests/test_groups.py      (120 + 100)
#   - Nielsen-Schreier rank         tests/test_groups.py      (100 cases)
#   - Artin automorphism/products   tests/test_groups.py      (100 each)
#   - certificate invariance        tests/test_singular.py    (100 cases)
#   - elimination soundness         tests/test_elim.py        (100 cases)
#   - factoring against sympy       tests/test_factoring.py   (100 cases)
# This meta-check asserts the advertised case counts are actually present
# so the gate fails loudly if a suite is trimmed.

def test_property_suites_present_with_100_cases():
    import re
    here = Path(__file__).parent
    required = {
        "test_fields.py": [("test_field_axioms_random", 100)],
        "test_multipoly.py": [
            ("test_resultant_matches_sylvester_oracle", 100),
            ("test_resultant_multiplicative", 100),
            ("test_resultant_swap_sign", 100)],
        "test_singular.py": [
            ("test_certificate_invariant_under_linear_change", 100)],
        "test_elim.py": [("test_elim_soundness_planted", 100)],
        "test_groups.py": [
            ("test_sparse_invariants_match_smith_forms", 100)],
        "test_factoring.py": [("test_factor_matches_sympy", 100)],
    }
    for fname, suites in required.items():
        text = (here / fname).read_text()
        for func, count in suites:
            pat = (r'@pytest\.mark\.parametrize\("seed", range\((\d+)\)\)'
                   r'\s*\ndef ' + re.escape(func))
            m = re.search(pat, text)
            assert m, f"{func} suite missing from {fname}"
            assert int(m.group(1)) >= count, \
                f"{func} has {m.group(1)} cases, needs >= {count}"
    text = (here / "test_groups.py").read_text()
    for func in ("test_automorphism_round_trip_100",
                 "test_product_preservation_100",
                 "test_total_product_fixed_100",
                 "test_nielsen_schreier_rank_100"):
        assert func in text
    assert "range(120)" in text    # SNF transform round-trip suite
