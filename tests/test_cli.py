"""Tests for the command-line front end and the check manifest."""

import json

import pytest

from exactcurves import checks as ck, curves
from exactcurves.cli import build_parser, main


class TestChecksRegistry:
    def test_ids_unique(self):
        ids = ck.check_ids()
        assert len(ids) == len(set(ids))

    def test_unknown_id(self):
        with pytest.raises(ck.CheckError):
            ck.run_check("no-such-check")

    def test_single_check_entry_shape(self):
        e = ck.run_check("real-root-count")
        assert e["status"] == "pass"
        assert e["id"] == "real-root-count"
        assert "runtime_s" in e
        assert e["details"]["real_roots_of_defining_quartic"]["ok"]

    def test_exceptions_become_fail_entries(self):
        # a check body that raises must produce a fail, not a crash
        orig = ck._CHECKS
        try:
            def boom():
                raise RuntimeError("broken oracle")
            ck._CHECKS = orig + [("synthetic-fail", "always raises",
                                  ("synthetic",), boom)]
            e = ck.run_check("synthetic-fail")
            assert e["status"] == "fail"
            assert "RuntimeError" in e["details"]["error"]
        finally:
            ck._CHECKS = orig

    @pytest.mark.parametrize("oks, status", [
        ((True, True), "pass"),
        ((True, None), "unresolved"),
        ((None, False, True), "fail"),
        ((False,), "fail")])
    def test_status_is_the_conjunction_of_the_details(self, monkeypatch,
                                                      oks, status):
        # a check returns only its details; run_check reads the status off
        # their "ok" values
        details = {f"d{i}": {"got": ok, "expected": True, "ok": ok}
                   for i, ok in enumerate(oks)}
        monkeypatch.setattr(ck, "_CHECKS", ck._CHECKS + [
            ("synthetic", "details as given", ("synthetic",),
             lambda: details)])
        e = ck.run_check("synthetic")
        assert e["status"] == status
        assert e["details"] == details

    def test_detail_without_a_verdict_is_a_fail(self, monkeypatch):
        monkeypatch.setattr(ck, "_CHECKS", ck._CHECKS + [
            ("synthetic", "one detail has no ok", ("synthetic",),
             lambda: {"a": {"got": 1, "expected": 1, "ok": True},
                      "b": {"got": 1}})])
        e = ck.run_check("synthetic")
        assert e["status"] == "fail"
        assert e["details"] == {"error": "KeyError: 'ok'"}

    def test_octic_family_details_carry_one_verdict_per_mapping(self):
        for cid in ("octic-family-assembly", "octic-family-singularities"):
            e = ck.run_check(cid)
            assert e["status"] == "pass"
            assert sorted(e["details"]) == ["s23-to-r32", "s40-to-r32"]
            assert all(d["ok"] is True for d in e["details"].values())

    def test_refuted_octic_point_fails_the_check(self, monkeypatch):
        # an axis point declared with a type it does not have is refuted,
        # so the check fails rather than stays unresolved
        assemble = ck.assemble_appendix_b

        def declared_e6(mapping):
            rep = assemble(mapping)
            rec = rep["record"]
            rec.singular_points = [(c, "E6") for c, _t in rec.singular_points]
            return rep
        monkeypatch.setattr(ck, "assemble_appendix_b", declared_e6)
        e = ck.run_check("octic-family-singularities")
        assert e["status"] == "fail"
        for label in ("s23-to-r32", "s40-to-r32"):
            spec = e["details"][label]["singularities"]
            assert [p["verdict"] for p in spec["points"]] == ["OTHER"] * 2


class TestManifest:
    def test_tag_filtering(self):
        m = ck.run_all(tags=["fields"])
        assert [e["id"] for e in m.entries] == ["real-root-count"]
        assert m.exit_code() == 0

    def test_empty_filter_is_empty_pass(self):
        m = ck.run_all(tags=["no-such-tag"])
        assert m.entries == []
        assert m.exit_code() == 0

    def test_curves_manifest_runs_every_check(self):
        m = ck.run_all(tags=["curves"])
        assert [e["id"] for e in m.entries] == [
            cid for cid, _s, tags, _f in ck._CHECKS if "curves" in tags]
        assert all(e["status"] == "pass" for e in m.entries)
        with pytest.raises(SystemExit):
            main(["verify", "--deep"])

    def test_unresolved_never_counts_as_pass(self):
        m = ck.VerificationManifest([
            {"id": "a", "status": "unresolved", "details": {}},
            {"id": "b", "status": "pass", "details": {}},
        ])
        assert m.exit_code() == 0      # unresolved is not a failure...
        assert all(e["status"] != "pass" or e["id"] == "b"
                   for e in m.entries)  # ...but it is never shown as pass

    @pytest.mark.parametrize("held, status", [(None, "unresolved"),
                                              (False, "fail")])
    def test_undecided_report_makes_check_unresolved(self, monkeypatch,
                                                     held, status):
        certify = ck.certify_curve_spec
        monkeypatch.setattr(ck, "certify_curve_spec",
                            lambda rec: dict(certify(rec), ok=held))
        assert ck.run_check("quartic-smoothness")["status"] == status

    def test_undecided_smoothness_makes_check_unresolved(self, monkeypatch):
        monkeypatch.setattr(curves, "certify_smooth_projective",
                            lambda f: (None, {"steps": []}))
        entry = ck.run_check("quartic-smoothness")
        assert entry["status"] == "unresolved"
        assert entry["details"]["c82_quartic_smooth"]["got"] is None

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ck.CheckError):
            ck.VerificationManifest([{"id": "a", "status": "pass"},
                                     {"id": "a", "status": "pass"}])

    def test_report_determinism(self, tmp_path):
        texts = []
        for k in range(2):
            path = tmp_path / f"report{k}.json"
            assert main(["verify", "--tag", "fields",
                         "--report", str(path)]) == 0
            # runtimes may differ between runs
            texts.append([line for line in path.read_text().splitlines()
                          if '"runtime_s"' not in line])
        assert texts[0] == texts[1]

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.json"
        assert main(["verify", "--tag", "fields", "--report", str(path)]) == 0
        checks = json.loads(path.read_text())["checks"]
        # the report holds the manifest's entries, runtimes apart
        entries = ck.run_all(tags=["fields"]).entries
        assert [dict(e, runtime_s=0) for e in checks] == \
            [dict(e, runtime_s=0) for e in entries]
        assert checks[0]["id"] == "real-root-count"

    def test_render_summary_line(self):
        m = ck.run_all(tags=["fields"])
        out = m.render()
        assert "1 checks" in out or "1 pass" in out


class TestCli:
    def test_field_sturm(self, capsys):
        assert main(["field", "sturm", "--coeffs=-2,-2,1,-2,1"]) == 0
        assert "real roots: 2" in capsys.readouterr().out

    def test_field_roots(self, capsys):
        assert main(["field", "roots", "--coeffs=-6,1,1"]) == 0
        out = capsys.readouterr().out
        assert "2" in out and "-3" in out

    def test_poly_resultant(self, capsys):
        assert main(["poly", "resultant", "--vars", "x,y", "--var", "x",
                     "x^2+y^2-1", "x-y"]) == 0
        assert "2*y^2 + -1" in capsys.readouterr().out

    def test_poly_factor(self, capsys):
        assert main(["poly", "factor", "--vars", "t", "--var", "t",
                     "t^4-5*t^2+6"]) == 0
        out = capsys.readouterr().out
        assert "t^2 + -2" in out and "t^2 + -3" in out

    def test_poly_factor_prints_irreducible_quintic(self, capsys):
        assert main(["poly", "factor", "--vars", "x", "--var", "x",
                     "x^5 - x - 1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["(x^5 + -1*x + -1)^1"]

    def test_group_order(self, capsys):
        assert main(["group", "order", "cremona24"]) == 0
        assert capsys.readouterr().out.strip() == "24"

    def test_group_order_cap_is_the_library_default(self, monkeypatch):
        # the CLI states no cap of its own: it follows todd_coxeter's
        import exactcurves.groups.coset as coset
        monkeypatch.setattr(coset, "DEFAULT_COSET_CAP", 17)
        args = build_parser().parse_args(["group", "order", "cremona24"])
        assert args.max_cosets == 17

    def test_group_abelianization(self, capsys):
        assert main(["group", "abelianization", "g_symp"]) == 0
        assert capsys.readouterr().out.strip() == "Z/8"

    def test_group_derived_series(self, capsys):
        assert main(["group", "derived-series", "g2", "--depth", "4"]) == 0
        out = capsys.readouterr().out
        assert "level 4: Z^3 + Z/2" in out
        assert "status: complete" in out

    def test_group_homs(self, capsys):
        assert main(["group", "homs", "g2", "--target", "S4"]) == 0
        capsys.readouterr()

    def test_group_show_and_list(self, capsys):
        assert main(["group", "list"]) == 0
        assert "g_symp" in capsys.readouterr().out
        assert main(["group", "show", "g0"]) == 0
        assert "c1*c2*c1" in capsys.readouterr().out

    def test_curve_list_and_certify(self, capsys):
        assert main(["curve", "list"]) == 0
        assert "deltoid_symmetric" in capsys.readouterr().out
        assert main(["curve", "certify", "deltoid_affine"]) == 0
        assert "overall: ok" in capsys.readouterr().out

    def test_curve_certify_undecided_smoothness(self, monkeypatch, capsys):
        monkeypatch.setattr(curves, "certify_smooth_projective",
                            lambda f: (None, {"steps": []}))
        assert main(["curve", "certify", "c82_quartic"]) == 0
        out = capsys.readouterr().out
        assert "smooth: unresolved" in out
        assert "overall: unresolved" in out

    def test_curve_assemble_b_certifies_declared_points(self, tmp_path,
                                                        capsys):
        report = tmp_path / "b.json"
        assert main(["curve", "assemble-b", "--mapping", "s23-to-r32",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert out.count("got COMPOSITE_3BRANCH contacts=(2, 2, 3)  [ok]") \
            == 2
        assert "  overall: ok" in out
        spec = json.loads(report.read_text())["s23-to-r32"]["singularities"]
        assert spec["ok"] is True
        assert [p["coords"] for p in spec["points"]] == \
            [["1", "0", "0"], ["0", "1", "0"]]

    @pytest.mark.parametrize("held, code, mark", [(None, 0, "unresolved"),
                                                  (False, 1, "MISMATCH")])
    def test_curve_assemble_b_fails_only_on_a_refutation(
            self, monkeypatch, capsys, held, code, mark):
        monkeypatch.setattr(curves, "certify_curve_spec", lambda rec: {
            "points": [], "automorphisms": [], "ok": held})
        assert main(["curve", "assemble-b", "--mapping", "s23-to-r32"]) \
            == code
        assert f"  overall: {mark}" in capsys.readouterr().out

    def test_curve_pullback(self, capsys):
        assert main(["curve", "pullback", "--vars", "u,v", "-n", "2",
                     "--names", "u", "u^2-v^3"]) == 0
        assert "u^4" in capsys.readouterr().out

    def test_solve_run(self, tmp_path, capsys):
        doc = {"vars": ["x", "y"],
               "polys": ["x^2+y^2-13", "x-y-1"]}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        report = tmp_path / "out.json"
        assert main(["solve", "run", str(path), "--order", "y",
                     "--report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "x=3, y=2" in out
        saved = json.loads(report.read_text())
        assert saved["status"] == "complete"
        assert len(saved["solutions"]) == 2

    def test_solve_run_with_filter(self, tmp_path, capsys):
        # x*y = 0, x - y = 0: Res_x = -y^2, and filtering its one factor y
        # removes the origin, closing the root
        doc = {"vars": ["x", "y"],
               "polys": ["x*y", "x-y"],
               "filters": [{"type": "variable_vanishing", "var": "y"}]}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        report = tmp_path / "out.json"
        assert main(["solve", "run", str(path), "--order", "x",
                     "--report", str(report)]) == 0
        assert "leaves: 1 (0 solved, 0 contradictory, 0 unresolved, " \
            "1 closed)" in capsys.readouterr().out
        saved = json.loads(report.read_text())
        assert saved["status"] == "complete"
        assert saved["solutions"] == []
        assert saved["nodes_expanded"] == 1
        assert saved["leaves"] == {"solved": 0, "contradictory": 0,
                                   "unresolved": 0, "closed": 1}
        assert [(a["filter"], a["factor"]) for a in saved["audit"]
                if a["event"] == "filtered"] == [("vanishing(y)", "y")]

    def test_solve_run_node_budget(self, tmp_path, capsys):
        doc = {"vars": ["x", "y"], "polys": ["x^2+y^2-13", "x-y-1"]}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        report = tmp_path / "out.json"
        assert main(["solve", "run", str(path), "--budget-nodes", "1",
                     "--report", str(report)]) == 1
        assert '"status": "node_budget_exhausted"' in report.read_text()
        assert "status: node_budget_exhausted" in capsys.readouterr().out

    def test_check_command_prints_an_undecided_detail_unresolved(
            self, monkeypatch, capsys):
        monkeypatch.setattr(curves, "certify_smooth_projective",
                            lambda f: (None, {"steps": []}))
        assert main(["check", "quartic-smoothness"]) == 0
        out = capsys.readouterr().out
        assert "MISMATCH" not in out
        assert out.count("unresolved (got None)") == 4

    def test_check_command(self, capsys, tmp_path):
        report = tmp_path / "check.json"
        assert main(["check", "real-root-count",
                     "--report", str(report)]) == 0
        assert "PASS" in capsys.readouterr().out
        assert json.loads(report.read_text())["status"] == "pass"

    def test_verify_tag_filter(self, capsys, tmp_path):
        report = tmp_path / "verify.json"
        assert main(["verify", "--tag", "fields",
                     "--report", str(report)]) == 0
        assert "real-root-count" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["checks"][0]["status"] == "pass"

    def test_typed_errors_print_message_and_exit_2(self, tmp_path, capsys):
        system = tmp_path / "system.json"
        system.write_text(json.dumps({"vars": ["x"], "polys": ["y"]}))
        for argv in (["field", "roots", "--coeffs", "0"],
                     ["poly", "resultant", "--vars", "x", "--var", "y",
                      "x", "x"],
                     ["curve", "pullback", "--vars", "u", "-n", "0", "u"],
                     ["group", "homs", "g_symp", "--target", "Z0"],
                     ["group", "order", "g0", "--max-cosets", "10"],
                     ["group", "derived-series", "cremona24", "--depth", "0"],
                     ["group", "show", "nosuch"],
                     ["solve", "run", str(system)],
                     ["check", "no-such-check"]):
            assert main(argv) == 2, argv
            out = capsys.readouterr()
            assert out.err.startswith("error: "), argv
            assert "Traceback" not in out.err
        # a file that cannot be read or written is named in the message
        missing = str(tmp_path / "missing.json")
        unwritable = str(tmp_path / "missing" / "r.json")
        for path, argv in ((missing, ["solve", "run", missing]),
                           (unwritable, ["group", "abelianization", "g2",
                                         "--report", unwritable])):
            assert main(argv) == 2, argv
            out = capsys.readouterr()
            assert out.err.startswith("error: ") and path in out.err, argv

    def test_report_flag_writes_json(self, tmp_path, capsys):
        report = tmp_path / "r.json"
        main(["group", "abelianization", "g2", "--report", str(report)])
        capsys.readouterr()
        assert json.loads(report.read_text())["abelianization"] == "Z/8"
