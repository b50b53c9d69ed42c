"""Command-line front end.

Subcommands: field, poly, curve, group, solve, check, verify.  Reports
are JSON documents (written with --report); console output is a short
human-readable summary of the same content.  A typed error of the
package (each is a ValueError), or a file that cannot be read or written
(an OSError, whose message names the path), prints "error: <message>" to
stderr and exits with 2, as argparse does for bad arguments.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction


def _parse_coeffs(text):
    return [Fraction(t.strip()) for t in text.split(",") if t.strip()]


# console word for a three-valued verdict: None is undecided
_VERDICT = {True: "ok", None: "unresolved", False: "MISMATCH"}


def _write_report(args, doc):
    if getattr(args, "report", None):
        with open(args.report, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, default=str)
            fh.write("\n")


# ---------------------------------------------------------------------------
# field
# ---------------------------------------------------------------------------

def _cmd_field(args):
    from .fields import rational_roots, sturm_real_roots
    coeffs = _parse_coeffs(args.coeffs)
    if args.field_cmd == "sturm":
        n = sturm_real_roots(coeffs)
        print(f"real roots: {n}")
        _write_report(args, {"coeffs": [str(c) for c in coeffs],
                             "real_roots": n})
    elif args.field_cmd == "roots":
        roots = rational_roots(coeffs)
        print("rational roots:", ", ".join(str(r) for r in roots) or "none")
        _write_report(args, {"coeffs": [str(c) for c in coeffs],
                             "rational_roots": [str(r) for r in roots]})
    return 0


# ---------------------------------------------------------------------------
# poly
# ---------------------------------------------------------------------------

def _cmd_poly(args):
    from .multipoly import factor_bounded, parse_poly, resultant
    varnames = tuple(v.strip() for v in args.vars.split(","))
    if args.poly_cmd == "resultant":
        f = parse_poly(args.f, varnames)
        g = parse_poly(args.g, varnames)
        r = resultant(f, g, args.var)
        print(r.to_text())
        _write_report(args, {"resultant": r.to_text()})
    elif args.poly_cmd == "factor":
        f = parse_poly(args.poly, varnames)
        content, factors, unresolved = factor_bounded(f, args.var)
        print(f"content: {content}")
        for fac, mult in factors:
            print(f"({fac.to_text()})^{mult}")
        for u, mult in unresolved:
            print(f"unresolved: ({u.to_text()})^{mult}")
        _write_report(args, {
            "content": str(content),
            "factors": [[fac.to_text(), mult] for fac, mult in factors],
            "unresolved": [[u.to_text(), mult]
                           for u, mult in unresolved]})
    return 0


# ---------------------------------------------------------------------------
# curve
# ---------------------------------------------------------------------------

def _print_curve_report(rep, indent=""):
    """Console lines for a `certify_curve_spec` report."""
    for p in rep["points"]:
        contacts = (f" contacts={tuple(p['contacts'])}"
                    if "contacts" in p else "")
        print(f"{indent}point {p['coords']}: expected {p['expected']}, "
              f"got {p['verdict']}{contacts}  [{_VERDICT[p['ok']]}]")
    for a in rep["automorphisms"]:
        print(f"{indent}automorphism {a['name']}: "
              f"invariant={a['invariant']}  [{_VERDICT[a['ok']]}]")
    if "smooth" in rep:
        print(f"{indent}smooth:", _VERDICT[rep["smooth"]])
    if "cusp_tangents_concurrent" in rep:
        print(f"{indent}cusp tangents concurrent:",
              _VERDICT[rep["cusp_tangents_concurrent"]])
    print(f"{indent}overall:", _VERDICT[rep["ok"]])


def _cmd_curve(args):
    from .curves import (appendix_b_mappings, assemble_appendix_b,
                         certify_curve_spec, conjoin, corpus_get,
                         corpus_names, kummer_pullback, structural_ok)
    from .multipoly import parse_poly
    if args.curve_cmd == "list":
        print("\n".join(corpus_names()))
        return 0
    if args.curve_cmd == "certify":
        rep = certify_curve_spec(corpus_get(args.name))
        _print_curve_report(rep)
        _write_report(args, rep)
        return 1 if rep["ok"] is False else 0
    if args.curve_cmd == "pullback":
        varnames = tuple(v.strip() for v in args.vars.split(","))
        f = parse_poly(args.poly, varnames)
        names = [v.strip() for v in args.names.split(",")] \
            if args.names else None
        g = kummer_pullback(f, args.n, names=names)
        print(g.to_text())
        _write_report(args, {"pullback": g.to_text()})
        return 0
    if args.curve_cmd == "assemble-b":
        labels = [args.mapping] if args.mapping else \
            [m["label"] for m in appendix_b_mappings()]
        doc = {}
        exit_code = 0
        for label in labels:
            rep = assemble_appendix_b(label)
            print(f"mapping {label}:")
            for k, v in rep["checks"].items():
                print(f"  {k}: {v}")
            spec = certify_curve_spec(rep["record"])
            _print_curve_report(spec, indent="  ")
            if conjoin(structural_ok(rep), spec["ok"]) is False:
                exit_code = 1
            doc[label] = dict(rep["checks"], singularities=spec)
        _write_report(args, doc)
        return exit_code
    return 2


# ---------------------------------------------------------------------------
# group
# ---------------------------------------------------------------------------

def _cmd_group(args):
    from .groups import (CORPUS, abelianization, count_homs,
                         derived_series_quotients, get, todd_coxeter)
    if args.group_cmd == "list":
        print("\n".join(sorted(CORPUS)))
        return 0
    p = get(args.name)
    if args.group_cmd == "show":
        print("generators:", ", ".join(p.generators))
        for r in p.relators:
            print(" ", r.to_text())
        if p.notes:
            print("notes:", p.notes)
        return 0
    if args.group_cmd == "abelianization":
        inv = abelianization(p)
        print(inv.describe())
        _write_report(args, {"group": args.name,
                             "abelianization": inv.describe()})
        return 0
    if args.group_cmd == "derived-series":
        res = derived_series_quotients(p, args.depth)
        for i, q in enumerate(res["quotients"], 1):
            print(f"level {i}: {q.describe()}")
        print("status:", res["status"])
        _write_report(args, {
            "group": args.name, "depth": args.depth,
            "quotients": [q.describe() for q in res["quotients"]],
            "status": res["status"]})
        return 0
    if args.group_cmd == "order":
        ct = todd_coxeter(p, max_cosets=args.max_cosets)
        print(ct.n_cosets)
        _write_report(args, {"group": args.name, "order": ct.n_cosets})
        return 0
    if args.group_cmd == "homs":
        n = count_homs(p, args.target)
        print(n)
        _write_report(args, {"group": args.name, "target": args.target,
                             "homs": n})
        return 0
    return 2


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def _cmd_solve(args):
    from .elim import DEFAULT_NODE_CAP, solve_system, system_from_doc
    with open(args.system) as fh:
        doc = json.load(fh)
    root, filters = system_from_doc(doc)
    order = [v.strip() for v in args.order.split(",")] if args.order \
        else None
    rep = solve_system(root, order=order, filters=filters,
                       node_cap=(DEFAULT_NODE_CAP if args.budget_nodes is None
                                 else args.budget_nodes))
    leaves = {st: sum(n.status == st for n in rep["leaves"]) for st in
              ("solved", "contradictory", "unresolved", "closed")}
    print(f"status: {rep['status']}; nodes expanded: "
          f"{rep['nodes_expanded']}; leaves: {len(rep['leaves'])} ("
          + ", ".join(f"{n} {st}" for st, n in leaves.items()) + ")")
    for s in rep["solutions"]:
        ext = "; ".join(f"{n}: {t}" for n, t in s["extensions"]) or "Q"
        assign = ", ".join(f"{v}={x}" for v, x in
                           sorted(s["assignment"].items()))
        print(f"solution over [{ext}]: {assign}")
    for u in rep["unresolved_branches"]:
        print(f"unresolved branch: {u['reason']}")
    doc_out = {
        "status": rep["status"],
        "nodes_expanded": rep["nodes_expanded"],
        "leaves": leaves,
        "solutions": [
            {"assignment": {v: str(x)
                            for v, x in s["assignment"].items()},
             "extensions": [[n, t] for n, t in s["extensions"]]}
            for s in rep["solutions"]],
        "unresolved_branches": [u["reason"]
                                for u in rep["unresolved_branches"]],
        "audit": rep["audit"],
    }
    _write_report(args, doc_out)
    return 0 if rep["status"] == "complete" else 1


# ---------------------------------------------------------------------------
# check / verify
# ---------------------------------------------------------------------------

def _cmd_check(args):
    from .checks import run_check
    entry = run_check(args.id)
    print(f"{entry['status'].upper()}  {entry['id']}  "
          f"({entry['runtime_s']:.2f}s)")
    for k, v in entry["details"].items():
        if isinstance(v, dict) and "got" in v:
            print(f"  {k}: {_VERDICT[v['ok']]} (got {v['got']})")
        else:
            print(f"  {k}: {v}")
    _write_report(args, entry)
    return 0 if entry["status"] != "fail" else 1


def _cmd_verify(args):
    from .checks import run_all
    manifest = run_all(tags=args.tag or None)
    print(manifest.render())
    _write_report(args, {"checks": manifest.entries})
    return manifest.exit_code()


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    from .groups import coset
    ap = argparse.ArgumentParser(
        prog="exactcurves",
        description="Exact verification toolkit for plane curves and "
                    "fundamental groups")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def add_report(p):
        p.add_argument("--report", help="write a JSON report to this path")

    p_field = sub.add_parser("field", help="number-field utilities")
    sf = p_field.add_subparsers(dest="field_cmd", required=True)
    for name, doc in (("sturm", "count real roots exactly"),
                      ("roots", "list rational roots")):
        q = sf.add_parser(name, help=doc)
        q.add_argument("--coeffs", required=True,
                       help="comma-separated coefficients, low degree first")
        add_report(q)
    p_field.set_defaults(func=_cmd_field)

    p_poly = sub.add_parser("poly", help="polynomial utilities")
    sp = p_poly.add_subparsers(dest="poly_cmd", required=True)
    q = sp.add_parser("resultant", help="resultant of two polynomials")
    q.add_argument("--vars", required=True)
    q.add_argument("--var", required=True,
                   help="variable to eliminate")
    q.add_argument("f")
    q.add_argument("g")
    add_report(q)
    q = sp.add_parser("factor", help="exact factorization in one variable")
    q.add_argument("--vars", required=True)
    q.add_argument("--var", required=True)
    q.add_argument("poly")
    add_report(q)
    p_poly.set_defaults(func=_cmd_poly)

    p_curve = sub.add_parser("curve", help="curve corpus operations")
    sc = p_curve.add_subparsers(dest="curve_cmd", required=True)
    sc.add_parser("list", help="list corpus curves")
    q = sc.add_parser("certify", help="run the declared certificates")
    q.add_argument("name")
    add_report(q)
    q = sc.add_parser("pullback", help="coordinate power substitution")
    q.add_argument("--vars", required=True)
    q.add_argument("-n", type=int, required=True)
    q.add_argument("--names", help="comma-separated subset of variables")
    q.add_argument("poly")
    add_report(q)
    q = sc.add_parser("assemble-b", help="assemble the octic family and "
                     "certify its axis singularities")
    q.add_argument("--mapping", help="candidate constant-mapping label")
    add_report(q)
    p_curve.set_defaults(func=_cmd_curve)

    p_group = sub.add_parser("group", help="group corpus operations")
    sg = p_group.add_subparsers(dest="group_cmd", required=True)
    sg.add_parser("list", help="list corpus groups")
    q = sg.add_parser("show", help="print a presentation")
    q.add_argument("name")
    q = sg.add_parser("abelianization", help="abelian invariants")
    q.add_argument("name")
    add_report(q)
    q = sg.add_parser("derived-series", help="derived-series quotients")
    q.add_argument("name")
    q.add_argument("--depth", type=int, default=3)
    add_report(q)
    q = sg.add_parser("order", help="group order via coset enumeration")
    q.add_argument("name")
    q.add_argument("--max-cosets", type=int,
                   default=coset.DEFAULT_COSET_CAP)
    add_report(q)
    q = sg.add_parser("homs", help="count homomorphisms to a small group")
    q.add_argument("name")
    q.add_argument("--target", required=True,
                   help="S3, S4, D4, Q8 or Z<n>")
    add_report(q)
    p_group.set_defaults(func=_cmd_group)

    p_solve = sub.add_parser("solve", help="elimination-tree solver")
    ss = p_solve.add_subparsers(dest="solve_cmd", required=True)
    q = ss.add_parser("run", help="solve a polynomial system document")
    q.add_argument("system", help="JSON file: vars, field, polys, filters")
    q.add_argument("--order", help="comma-separated elimination order")
    q.add_argument("--budget-nodes", type=int, default=None,
                   help="nodes to expand before stopping unfinished "
                        "(default: the solver's node cap)")
    add_report(q)
    p_solve.set_defaults(func=_cmd_solve)

    p_check = sub.add_parser("check", help="run one named check")
    p_check.add_argument("id")
    add_report(p_check)
    p_check.set_defaults(func=_cmd_check)

    p_verify = sub.add_parser("verify", help="run the check manifest")
    p_verify.add_argument("--tag", action="append",
                          help="only checks carrying this tag")
    add_report(p_verify)
    p_verify.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
