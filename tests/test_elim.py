"""Tests for the resultant-based elimination-tree solver."""

import random
from fractions import Fraction

import pytest

from exactcurves.elim import (ElimError, EliminationNode, FactorFilter,
                              back_substitute, eliminate_step,
                              expand_children, make_root, search,
                              solve_system, system_from_doc)
from exactcurves.fields import QQ, NumberField, tower
from exactcurves.multipoly import factor_bounded, leading_term, parse_poly

V2 = ("x", "y")


def P(text, varnames=V2, field=QQ):
    return parse_poly(text, varnames, field)


def assignments(report):
    return [{v: x for v, x in s["assignment"].items()}
            for s in report["solutions"]]


# -- eliminate_step ----------------------------------------------------------

def test_eliminate_step_substitution_case():
    root = make_root(V2, [P("x^2 + y^2 - 1"), P("x - y")])
    res = eliminate_step(root, root.gens[1], "x")
    assert len(res) == 1
    assert res[0]["resultant"] == P("2*y^2 - 1")
    # factored: the single squarefree factor is y^2 - 1/2 (monic)
    assert [f.to_text() for f in res[0]["factors"]] == ["y^2 + -1/2"]
    assert not res[0]["unresolved"]


def test_eliminate_step_inconsistent_constant():
    root = make_root(V2, [P("x - 1"), P("x - 2")])
    res = eliminate_step(root, root.gens[0], "x")
    assert res[0]["constant"]
    assert res[0]["resultant"] == P("-1")


def test_eliminate_step_zero_resultant_flagged():
    root = make_root(V2, [P("x*y"), P("x")])
    res = eliminate_step(root, root.gens[1], "x")
    assert res[0]["zero"]


@pytest.mark.parametrize("gens", [["x*y", "x*y + x"],
                                  ["(x-1)*(y-2)", "(x-1)*(y+3)"]])
def test_zero_resultant_reported_unresolved(gens):
    # the generators share a factor in x, so the system vanishes on a whole
    # line (x = 0, x = 1) that no resultant in x sees
    rep = solve_system(make_root(V2, [P(g) for g in gens]), order=["x"])
    assert not rep["solutions"]
    assert [n.path for n in rep["unresolved"]] == ["0"]
    assert "zero resultant" in rep["unresolved"][0].status_reason
    assert [a["event"] for a in rep["audit"]] == ["zero_resultant"]


def test_multivariate_resultant_factors_are_squarefree():
    # Res_z = x*(y-1)^2*(y+1): the coordinate factor x is peeled and the
    # univariate rest is factored exactly
    V3 = ("x", "y", "z")
    root = make_root(V3, [P("z", V3), P("z + x*(y-1)^2*(y+1)", V3)])
    (res,) = eliminate_step(root, root.gens[0], "z")
    assert sorted(f.to_text() for f in res["factors"]) == \
        ["x", "y + -1", "y + 1"]
    assert not res["unresolved"]


def test_eliminate_step_pivot_errors():
    root = make_root(V2, [P("y^2 - 1"), P("x - y")])
    with pytest.raises(ElimError):
        eliminate_step(root, root.gens[0], "x")  # pivot independent of x


# -- expand_children ---------------------------------------------------------

def test_expand_children_cartesian():
    root = make_root(V2, [P("y - x"), P("(x - 1)*(x^2 + y^2 - 2)")])
    res = eliminate_step(root, root.gens[0], "y")
    audit = []
    kids = expand_children(root, root.gens[0], "y", res, (), audit)
    # resultant 2(x-1)^2(x+1): factors x-1 and x+1 -> 2 children
    assert len(kids) == 2
    assert all(len(k.gens) == 1 for k in kids)
    assert {k.gens[0].to_text() for k in kids} == {"x + -1", "x + 1"}
    assert kids[0].history() == ["y"]


def test_expand_children_filtered_and_logged():
    root = make_root(V2, [P("y - x"), P("(x - 1)*(x^2 + y^2 - 2)")])
    res = eliminate_step(root, root.gens[0], "y")
    flt = FactorFilter.poly_match("drop-x-1", "x - 1", V2)
    audit = []
    kids = expand_children(root, root.gens[0], "y", res, (flt,), audit)
    assert len(kids) == 1
    removed = [a for a in audit if a["event"] == "filtered"]
    assert len(removed) == 1
    assert removed[0]["filter"] == "drop-x-1"


def test_expand_children_all_filtered_closes_node():
    root = make_root(V2, [P("y - x"), P("(x - 1)*(x^2 + y^2 - 2)")])
    res = eliminate_step(root, root.gens[0], "y")
    flts = (FactorFilter.poly_match("a", "x - 1", V2),
            FactorFilter.poly_match("b", "x + 1", V2))
    audit = []
    kids = expand_children(root, root.gens[0], "y", res, flts, audit)
    assert kids == []
    assert root.status == "closed"


def test_no_two_children_share_a_generator_set():
    # Res_z = x*R and x*y*R, R = x + y + 1, are multivariate: one of their
    # factors {x, R} and {x, y, R} is chosen from each.  The choices (x, R)
    # and (R, x), and those that repeat the carried 2*x up to a scalar,
    # give one child each: 4 children of 6 choices
    V3 = ("x", "y", "z")
    gens = [P("z - 1", V3), P("z*x*(x + y + 1)", V3),
            P("x*y*(x + y + z)", V3), P("2*x", V3), P("y - 2", V3)]
    root = make_root(V3, gens)
    steps = eliminate_step(root, root.gens[0], "z")
    assert [len(e["factors"]) for e in steps] == [2, 3]
    kids = expand_children(root, root.gens[0], "z", steps, (), [])
    keys = [frozenset(g * (1 / leading_term(g)[1]) for g in k.gens)
            for k in kids]
    assert len(keys) == len(set(keys)) == 4
    rep = solve_system(make_root(V3, gens), order=["z", "y"])
    assert assignments(rep) == [
        {"x": Fraction(0), "y": Fraction(2), "z": Fraction(1)}]


def test_univariate_resultants_meet_in_one_gcd():
    # Res_x = (y-1)(y-3) and (y-1)(y-3)(y-5): only their gcd is factored,
    # one child per factor, and the carried 2*y - 2 rules out y = 3
    gens = [P("x - y"), P("(x-1)*(x-3)"), P("(x-1)*(x-3)*(x-5)"),
            P("2*y - 2")]
    root = make_root(V2, gens)
    (step,) = eliminate_step(root, root.gens[0], "x")
    assert step["generators"] == list(root.gens[1:3])
    assert step["resultant"] == P("(y-1)*(y-3)")
    assert sorted(f.to_text() for f in step["factors"]) == ["y + -1",
                                                            "y + -3"]
    rep = solve_system(make_root(V2, gens), order=["x"])
    assert rep["audit"][0]["children"] == 2
    assert rep["nodes_expanded"] == 3
    assert sorted(n.status for n in rep["leaves"]) == ["contradictory",
                                                       "solved"]
    assert assignments(rep) == [{"x": Fraction(1), "y": Fraction(1)}]


def test_constant_gcd_closes_the_node_contradictory():
    # Res_x = y^2 - 1 and y^2 - 4 have no common zero
    rep = solve_system(make_root(V2, [P("x - y"), P("x^2 - 1"),
                                      P("x^2 - 4")]), order=["x"])
    assert rep["nodes_expanded"] == 1
    assert [n.path for n in rep["contradictory"]] == ["0"]
    assert rep["audit"] == [{"node": "0", "event": "contradiction",
                             "detail": "nonzero constant resultant"}]


def test_overlapping_leaves_report_one_solution():
    # Res_z = x*(x + y) splits into the children {y, x} and {y, x + y},
    # and both reach (0, 0, 1)
    V3 = ("x", "y", "z")
    gens = [P("z - 1", V3), P("z*x*(x + y)", V3), P("y", V3)]
    rep = solve_system(make_root(V3, gens), order=["z", "y"])
    assert len(rep["solved"]) == 2
    assert assignments(rep) == [
        {"x": Fraction(0), "y": Fraction(0), "z": Fraction(1)}]


def test_variable_vanishing_filter():
    flt = FactorFilter.variable_vanishing("y")
    assert flt.matches(P("y"))
    assert flt.matches(P("3*y"))
    assert not flt.matches(P("y - 1"))
    assert not flt.matches(P("x"))


# -- full search + back-substitution -----------------------------------------

def test_planted_rational_solution():
    rep = solve_system(make_root(V2, [P("x + y - 1"), P("x*y + 6")]))
    assert rep["status"] == "complete"
    got = {(s["assignment"]["x"], s["assignment"]["y"])
           for s in rep["solutions"] if not s["extensions"]}
    assert got == {(Fraction(3), Fraction(-2)), (Fraction(-2), Fraction(3))}
    assert all(s["verified"] for s in rep["solutions"])


def test_planted_sqrt2_solution():
    rep = solve_system(make_root(V2, [P("x^2 - 2"), P("y - x")]))
    sols = rep["solutions"]
    assert len(sols) == 1
    s = sols[0]
    assert s["extensions"] and "x^2 + -2" in s["extensions"][0][1]
    w = s["field"].gen()
    assert w * w == 2
    assert s["assignment"]["x"] == w
    assert s["assignment"]["y"] == w
    assert s["verified"]


def test_inconsistent_system():
    rep = solve_system(make_root(V2, [P("x - 1"), P("x - 2")]))
    assert rep["solutions"] == []
    assert rep["leaves"]
    assert all(n.status == "contradictory" for n in rep["leaves"])


def test_single_equation_leaf():
    rep = solve_system(make_root(("x",), [P("x - 3", ("x",))]))
    assert assignments(rep) == [{"x": Fraction(3)}]


def test_quartic_extension_adjoined():
    quartic = P("x^4 - 2*x^3 + x^2 - 2*x - 2", ("x",))
    rep = solve_system(make_root(("x",), [quartic]))
    assert len(rep["solutions"]) == 1
    s = rep["solutions"][0]
    assert isinstance(s["field"], NumberField)
    g = s["assignment"]["x"]
    assert g ** 4 - 2 * g ** 3 + g ** 2 - 2 * g - 2 == 0


def test_underdetermined_reported():
    rep = solve_system(make_root(V2, [P("x^2 - 2")]))
    assert rep["solutions"] == []
    assert rep["unresolved_branches"]
    assert "unconstrained" in rep["unresolved_branches"][0]["reason"]


def test_three_variable_chain():
    V3 = ("x", "y", "z")
    gens = [P("x + y + z - 6", V3), P("x - y", V3), P("z - 3", V3)]
    rep = solve_system(make_root(V3, gens))
    assert assignments(rep) == [
        {"x": Fraction(3, 2), "y": Fraction(3, 2), "z": Fraction(3)}]


def test_back_substitute_requires_solved_leaf():
    rep = solve_system(make_root(V2, [P("x - 1"), P("x - 2")]))
    with pytest.raises(ElimError):
        back_substitute(rep["leaves"][0])


def test_system_from_doc():
    doc = {"vars": ["x", "y"], "field": None,
           "polys": ["x - y", "x^2 + y^2 - 1"]}
    root, filters = system_from_doc(doc)
    assert filters == []
    rep = solve_system(root)
    assert len(rep["solutions"]) == 1  # the two conjugate roots of 2y^2=1
    s = rep["solutions"][0]
    assert s["assignment"]["x"] == s["assignment"]["y"]
    assert 2 * s["assignment"]["x"] ** 2 == 1


def test_adjoined_root_name_is_fresh_in_the_tower():
    # over Q(w1) the root of y^2 - 2 must not be named w1 again
    W = NumberField("w1", [Fraction(-3), 0, 1])
    rep = solve_system(make_root(V2, [P("x - y"), P("y^2 - 2")], W))
    (s,) = rep["solutions"]
    assert [f.name for f in tower(s["field"])] == ["w1", "w2"]
    assert s["assignment"]["y"] ** 2 == 2


def test_leaf_keeps_the_factors_it_split(monkeypatch):
    # at a recombination budget of 1 the leaf's gcd y*(y^4 - 10*y^2 + 1)
    # splits off y, and the quartic, irreducible over Q but split modulo
    # every prime, stays unsplit: the leaf is solved through y = 0, and the
    # quartic is one unresolved record
    import exactcurves.factoring as factoring
    monkeypatch.setattr(factoring, "RECOMBINATION_BUDGET", 1)
    rep = solve_system(make_root(V2, [P("x - y"), P("y*(y^4 - 10*y^2 + 1)")]),
                       order=["x"])
    assert [n.status for n in rep["leaves"]] == ["solved"]
    assert assignments(rep) == [{"x": 0, "y": 0}]
    (rec,) = rep["unresolved_branches"]
    assert rec == {"status": "unresolved", "partial": {},
                   "reason": "unsplit residual factor in y: "
                             "y^4 + -10*y^2 + 1"}


def test_leaf_left_wholly_unsplit_is_unresolved(monkeypatch):
    import exactcurves.factoring as factoring
    monkeypatch.setattr(factoring, "RECOMBINATION_BUDGET", 1)
    rep = solve_system(make_root(("y",), [P("y^4 - 10*y^2 + 1", ("y",))]))
    assert [n.status for n in rep["unresolved"]] == ["unresolved"]
    assert "unsplit by the factorizer" in rep["unresolved"][0].status_reason
    assert rep["solutions"] == rep["unresolved_branches"] == []


# -- roots the extension policy refuses --------------------------------------

def test_refused_factor_keeps_the_leaf_solutions():
    # x^5 - x - 1 is irreducible over Q, beyond the policy's degree 4: its
    # branch is one unresolved record, and x = 1 is still emitted
    rep = solve_system(make_root(("x",), [P("(x - 1)*(x^5 - x - 1)", ("x",))]))
    assert [n.status for n in rep["leaves"]] == ["solved"]
    assert assignments(rep) == [{"x": 1}]
    assert rep["solutions"][0]["verified"]
    (rec,) = rep["unresolved_branches"]
    assert rec["reason"] == ("extension policy: no root of degree 5 is "
                             "adjoined over a tower of depth 0")


def test_cubic_over_a_quadratic_field_is_refused():
    A = NumberField("a", [Fraction(-2), 0, 1])
    rep = solve_system(make_root(("x",), [P("x^3 - a", ("x",), A)], A))
    assert rep["solutions"] == []
    (rec,) = rep["unresolved_branches"]
    assert "extension policy" in rec["reason"]


def test_no_root_is_adjoined_over_depth_three():
    K = QQ
    for name, c in (("a", -2), ("b", -3), ("c", -5)):
        K = NumberField(name, [Fraction(c), 0, 1], K)
    rep = solve_system(make_root(("x",), [P("x^2 - 7", ("x",), K)], K))
    assert rep["solutions"] == []
    (rec,) = rep["unresolved_branches"]
    assert rec["reason"] == ("extension policy: no root of degree 2 is "
                             "adjoined over a tower of depth 3")


# -- filter transparency / determinism ---------------------------------------

def test_no_filters_yield_leaf_superset():
    gens = [P("y - x"), P("(x - 1)*(x^2 + y^2 - 2)")]
    plain = search(make_root(V2, gens))
    filt = search(make_root(V2, gens),
                  filters=[FactorFilter.poly_match("d", "x - 1", V2)])
    plain_keys = {tuple(sorted(g.to_text() for g in n.gens))
                  for n in plain["leaves"]}
    filt_keys = {tuple(sorted(g.to_text() for g in n.gens))
                 for n in filt["leaves"]}
    assert filt_keys <= plain_keys
    assert len(filt_keys) < len(plain_keys)
    assert any(a["event"] == "filtered" for a in filt["audit"])


def test_determinism():
    gens = [P("x^2 + y^2 - 5"), P("x*y - 2")]

    def run():
        rep = solve_system(make_root(V2, gens))
        return ([n.path for n in rep["leaves"]],
                [(a.get("event"), a.get("node")) for a in rep["audit"]],
                [sorted((v, str(x)) for v, x in s["assignment"].items())
                 for s in rep["solutions"]])
    assert run() == run()


def test_budget_exhaustion_status():
    gens = [P("x^2 + y^2 - 5"), P("x*y - 2")]
    rep = search(make_root(V2, gens), node_cap=1)
    assert rep["status"] == "node_budget_exhausted"


# -- node invariants ---------------------------------------------------------

def test_node_invariants():
    with pytest.raises(ElimError):
        EliminationNode([P("0")], QQ, V2)


def test_root_refuses_a_variable_outside_the_system():
    with pytest.raises(ElimError, match=r"involves y"):
        make_root(("x",), [P("x*y - 1")])
    # a declared but unused variable is fine
    assert make_root(("x",), [P("x - 3")]).remaining_vars == ("x",)


# -- the curve-corpus derivation ---------------------------------------------

def test_c82_offaxis_points_rederived():
    from exactcurves.curves import c82_singular_system
    names, polys = c82_singular_system()
    rep = solve_system(make_root(names, polys), order=["x"])
    assert rep["status"] == "complete"
    # the two resultants meet in one gcd, irreducible over Q: one leaf
    assert rep["nodes_expanded"] == 2
    assert [n.status for n in rep["leaves"]] == ["solved"]
    assert len(rep["solutions"]) == 1
    s = rep["solutions"][0]
    # the root field of the stored point data, re-found from scratch
    assert s["extensions"] == [("w1", "y^4 + 2/9*y^2 + 1/33")]
    b = s["field"].gen()
    assert s["assignment"]["y"] == b
    assert s["assignment"]["x"] == (99 * b ** 3 - 5 * b) / 6
    assert s["verified"]


# -- soundness property suite (>= 100 randomized planted systems) ------------

@pytest.mark.parametrize("seed", range(100))
def test_elim_soundness_planted(seed):
    rng = random.Random(60_000 + seed)
    a = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    b = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    c = Fraction(rng.choice([-2, -1, 1, 2, 3]))
    k = Fraction(rng.randint(1, 6))
    m = Fraction(rng.randint(-3, 3))
    x, y = P("x"), P("y")
    f1 = (x - a) - c * (y - b)
    f2 = (y - b) * (y * y + k) + m * (x - a)
    root = make_root(V2, [f1, f2])
    rep = solve_system(root, order=["y"])
    assert rep["status"] == "complete"
    # every emitted solution vanishes on the planted generators
    for s in rep["solutions"]:
        assert s["verified"]
        F = s["field"]
        for g in root.gens:
            assert g.to_field(F).eval_point(s["assignment"]) == 0
    # and the planted rational point is among them
    assert any(s["assignment"].get("x") == a and s["assignment"].get("y") == b
               for s in rep["solutions"] if not s["extensions"])
