"""Resultant-based elimination-tree solver.

A polynomial system over Q (or a bounded tower extension) is solved by
repeatedly eliminating one variable: a pivot generator is chosen, resultants
against the remaining generators are computed, factored, and optionally
pruned by declared degeneracy filters; every surviving factor combination
becomes a child node.  Univariate leaves are classified and solved values
are pushed back up the tree through bounded field extensions, with every
emitted solution verified against the original generators.

The solver does not claim completeness: a wrong filter can discard genuine
solutions, and factors beyond the degree cap are reported unresolved rather
than guessed.  Everything removed or left open is recorded in the audit log.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Optional, Sequence

from . import fields as fl
from .fields import FieldError, NumberField, QQ
from .multipoly import (MultiPoly, PolyError, factor_bounded, parse_poly,
                        poly_gcd_univ, resultant, squarefree_decomposition)


class ElimError(ValueError):
    pass


DEFAULT_BUDGETS = {"node_cap": 10_000, "degree_cap": 4, "time_cap_s": 300.0}


# ---------------------------------------------------------------------------
# factor filters
# ---------------------------------------------------------------------------

class FactorFilter:
    """A named, deterministic predicate removing degenerate resultant factors.

    There are no implicit defaults: a factor is only dropped when a filter
    the caller declared matches it, and every removal is logged with the
    filter's name.
    """

    def __init__(self, name: str, predicate: Callable[[MultiPoly], bool],
                 description: str = ""):
        self.name = name
        self.predicate = predicate
        self.description = description or name

    def matches(self, factor: MultiPoly) -> bool:
        return bool(self.predicate(factor))

    def __repr__(self):
        return f"FactorFilter({self.name})"

    @staticmethod
    def variable_vanishing(varname: str) -> "FactorFilter":
        """Drop the bare coordinate factor (a degenerate locus like x=0)."""
        def pred(p):
            return (varname in p.vars
                    and _is_scalar_multiple(
                        p, MultiPoly.var(p.vars, varname, p.field)))
        return FactorFilter(f"vanishing({varname})", pred,
                            f"factor is the coordinate {varname}")

    @staticmethod
    def poly_match(name: str, text: str, varnames: Sequence[str],
                   field=QQ) -> "FactorFilter":
        """Drop factors that are scalar multiples of a given polynomial."""
        target = parse_poly(text, tuple(varnames), field)

        def pred(p):
            try:
                return _is_scalar_multiple(p.to_field(target.field), target)
            except (FieldError, PolyError):
                return False
        return FactorFilter(name, pred, f"factor matches {text}")


def _is_scalar_multiple(p: MultiPoly, q: MultiPoly) -> bool:
    if p.vars != q.vars and set(q.vars) <= set(p.vars):
        q = MultiPoly(p.vars, {
            tuple(e[q.vars.index(v)] if v in q.vars else 0
                  for v in p.vars): c
            for e, c in q.terms.items()}, q.field)
    if p.vars != q.vars or len(p.terms) != len(q.terms) or not p.terms:
        return p.is_zero() and q.is_zero()
    e0 = next(iter(p.terms))
    if e0 not in q.terms:
        return False
    s = p.terms[e0] / q.terms[e0]
    return all(e in q.terms and c == s * q.terms[e]
               for e, c in p.terms.items())


def _normalize(p: MultiPoly) -> MultiPoly:
    """Scale so the graded-lex leading coefficient is 1 (for deduplication)."""
    if not p.terms:
        return p
    e = max(p.terms, key=lambda t: (sum(t), t))
    return p * (1 / p.terms[e])


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

class EliminationNode:
    """One ideal in the elimination tree."""

    def __init__(self, gens: Sequence[MultiPoly], field,
                 remaining_vars: Sequence[str], parent=None,
                 elim_var: Optional[str] = None, path: str = "0"):
        gens = tuple(gens)
        if any(g.is_zero() for g in gens):
            raise ElimError("node generators must be nonzero")
        self.gens = gens
        self.field = field
        self.remaining_vars = tuple(remaining_vars)
        self.parent = parent
        self.elim_var = elim_var  # variable removed when stepping from parent
        self.path = path
        self.status = "open"
        self.status_reason = ""
        self.pivot_used = None    # set when this node is expanded
        self.var_eliminated = None
        self.children = []
        # history invariants
        hist = self.history()
        if len(hist) != len(set(hist)):
            raise ElimError("eliminated variables must be pairwise distinct")

    def history(self):
        """Variables eliminated on the way down to this node, in order."""
        out = []
        node = self
        while node.parent is not None:
            out.append(node.elim_var)
            node = node.parent
        return list(reversed(out))

    def close(self, status: str, reason: str = ""):
        self.status = status
        self.status_reason = reason

    def __repr__(self):
        return (f"EliminationNode(path={self.path}, status={self.status}, "
                f"gens={len(self.gens)}, vars={self.remaining_vars})")


def make_root(varnames: Sequence[str], gens: Sequence[MultiPoly],
              field=QQ) -> EliminationNode:
    gens = tuple(g.to_field(field) for g in gens)
    return EliminationNode(gens, field, tuple(varnames))


# ---------------------------------------------------------------------------
# one elimination step
# ---------------------------------------------------------------------------

def eliminate_step(node: EliminationNode, pivot: MultiPoly, var: str,
                   degree_cap: int = 4):
    """Resultants of the pivot against every other generator involving `var`.

    Returns a list of dicts, one per paired generator:
      {"generator": g, "resultant": r, "zero": bool, "constant": bool,
       "factors": [MultiPoly...], "unresolved": [MultiPoly...]}
    Factors are squarefree, normalized, with bounded-degree factor search
    applied when the resultant is univariate.
    """
    if pivot.degree_in(var) <= 0:
        raise ElimError(f"pivot has no positive degree in {var}")
    if not any(g is not pivot and g.degree_in(var) > 0 for g in node.gens):
        raise ElimError(f"no second generator involves {var}")
    results = []
    for g in node.gens:
        if g is pivot or g.degree_in(var) <= 0:
            continue
        r = resultant(pivot, g, var)
        entry = {"generator": g, "resultant": r, "zero": r.is_zero(),
                 "constant": False, "factors": [], "unresolved": []}
        if r.is_zero():
            results.append(entry)
            continue
        if not any(any(e) for e in r.terms):
            entry["constant"] = True
            results.append(entry)
            continue
        entry["factors"], entry["unresolved"] = _factor_poly(r, degree_cap)
        results.append(entry)
    return results


def _factor_poly(r: MultiPoly, degree_cap: int):
    """Squarefree factors of r (deduplicated, normalized).

    Univariate polynomials get the bounded-degree factor search; genuinely
    multivariate ones are reduced to squarefree parts per variable only.
    """
    live = [v for v in r.vars if r.degree_in(v) > 0]
    factors, unresolved = [], []
    if len(live) == 1:
        _c, facs, unres = factor_bounded(r, live[0], degree_cap)
        factors = [p for p, _m in facs]
        unresolved = [p for p, _m in unres]
    else:
        # peel coordinate factors x^k, then keep the squarefree core whole
        core = r
        for v in live:
            k = min(e[r.vars.index(v)] for e in core.terms)
            if k > 0:
                factors.append(MultiPoly.var(r.vars, v, r.field))
                core = MultiPoly(r.vars, {
                    tuple(x - (k if i == r.vars.index(v) else 0)
                          for i, x in enumerate(e)): c
                    for e, c in core.terms.items()}, r.field)
        if any(any(e) for e in core.terms):
            core = _multivar_squarefree(core)
            factors.append(core)
    seen, out = set(), []
    for p in factors:
        p = _normalize(p)
        key = p.to_text()
        if key not in seen:
            seen.add(key)
            out.append(p)
    seen2, out2 = set(), []
    for p in unresolved:
        p = _normalize(p)
        key = p.to_text()
        if key not in seen2 and key not in seen:
            seen2.add(key)
            out2.append(p)
    return out, out2


def _multivar_squarefree(p: MultiPoly) -> MultiPoly:
    """Replace repeated univariate-in-one-variable square factors when the
    polynomial happens to be a perfect power in one variable; otherwise
    return it unchanged (no full multivariate factorization is attempted)."""
    for v in p.vars:
        if p.degree_in(v) > 0:
            try:
                _c, parts = squarefree_decomposition(p, v)
            except PolyError:
                return p
            if len(parts) == 1 and parts[0][1] > 1:
                return parts[0][0]
            return p
    return p


# ---------------------------------------------------------------------------
# child expansion
# ---------------------------------------------------------------------------

def expand_children(node: EliminationNode, pivot: MultiPoly, var: str,
                    step_results, filters: Sequence[FactorFilter] = (),
                    audit: Optional[list] = None):
    """Build the child nodes for one elimination step.

    One child per cartesian selection of surviving factors (one factor per
    resultant), deduplicated; generators independent of `var` are carried
    through.  Filtered factors are logged with the filter name.  A zero
    resultant closes the node unresolved, since its zero set may then hold
    a whole component.
    """
    if audit is None:
        audit = []
    node.pivot_used = pivot
    node.var_eliminated = var
    carried = [g for g in node.gens
               if g is not pivot and g.degree_in(var) <= 0]
    if any(entry["constant"] for entry in step_results):
        node.close("contradictory", "nonzero constant resultant")
        audit.append({"node": node.path, "event": "contradiction",
                      "detail": "nonzero constant resultant"})
        return []
    zero = next((e for e in step_results if e["zero"]), None)
    if zero is not None:
        # the pivot shares a factor with a generator: the node's zero set
        # may hold a whole component that no resultant sees
        detail = "pivot shares a factor with " + zero["generator"].to_text()
        node.close("unresolved", "zero resultant: " + detail)
        audit.append({"node": node.path, "event": "zero_resultant",
                      "detail": detail})
        return []
    choice_sets = []
    for entry in step_results:
        surviving = []
        for p in entry["factors"] + entry["unresolved"]:
            hit = next((f for f in filters if f.matches(p)), None)
            if hit is not None:
                audit.append({"node": node.path, "event": "filtered",
                              "filter": hit.name, "factor": p.to_text()})
            else:
                surviving.append(p)
        if not surviving:
            node.close("closed", "all factors filtered")
            audit.append({"node": node.path, "event": "closed",
                          "detail": "all factors of a resultant filtered"})
            return []
        choice_sets.append(surviving)

    remaining = tuple(v for v in node.remaining_vars if v != var)
    combos = [[]]
    for s in choice_sets:
        combos = [c + [p] for c in combos for p in s]
    seen = set()
    children = []
    for combo in combos:
        gens = carried + combo
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        key = tuple(sorted(g.to_text() for g in gens))
        if key in seen:
            continue
        seen.add(key)
        dedup = []
        kseen = set()
        for g in gens:
            t = _normalize(g).to_text()
            if t not in kseen:
                kseen.add(t)
                dedup.append(g)
        child = EliminationNode(dedup, node.field, remaining, parent=node,
                                elim_var=var,
                                path=f"{node.path}.{len(children)}")
        children.append(child)
    node.children = children
    audit.append({"node": node.path, "event": "expanded", "pivot":
                  pivot.to_text(), "var": var, "children": len(children)})
    return children


# ---------------------------------------------------------------------------
# tree search
# ---------------------------------------------------------------------------

def _choose_pivot(node: EliminationNode, var: str):
    """Lowest positive degree in `var`; ties broken by term count, then by
    canonical text (for determinism)."""
    cands = [g for g in node.gens if g.degree_in(var) > 0]
    if not cands:
        return None
    return min(cands, key=lambda g: (g.degree_in(var), len(g.terms),
                                     g.to_text()))


def search(root: EliminationNode, order: Optional[Sequence[str]] = None,
           filters: Sequence[FactorFilter] = (),
           budgets: Optional[Mapping] = None):
    """Depth-first elimination down to univariate leaves.

    Returns a report dict: status, node/leaf lists by classification, and
    the full audit log.  Identical inputs produce identical trees.
    """
    budgets = {**DEFAULT_BUDGETS, **(budgets or {})}
    cap = budgets["degree_cap"]
    if order is None:
        order = list(reversed(root.remaining_vars))[:-1]
    order = list(order)
    audit = []
    t0 = time.monotonic()
    status = "complete"
    stack = [root]
    expanded = 0
    leaves = []
    while stack:
        if expanded >= budgets["node_cap"]:
            status = "node_budget_exhausted"
            break
        if time.monotonic() - t0 > budgets["time_cap_s"]:
            status = "time_budget_exhausted"
            break
        node = stack.pop()
        expanded += 1
        const = next((g for g in node.gens
                      if not any(any(e) for e in g.terms)), None)
        if const is not None:
            node.close("contradictory", "nonzero constant generator")
            audit.append({"node": node.path, "event": "contradiction",
                          "detail": "nonzero constant generator"})
            leaves.append(node)
            continue
        if len(node.remaining_vars) <= 1:
            _classify_leaf(node, cap, audit)
            leaves.append(node)
            continue
        var = next((v for v in order if v in node.remaining_vars), None)
        if var is None:
            node.close("unresolved", "no elimination variable left in order")
            audit.append({"node": node.path, "event": "unresolved",
                          "detail": "variable order exhausted"})
            leaves.append(node)
            continue
        pivot = _choose_pivot(node, var)
        others = [g for g in node.gens
                  if g is not pivot and g.degree_in(var) > 0]
        if pivot is None or not others:
            # zero or one generator involves the variable: no resultant to
            # take.  Drop the involving generator into the history (it is
            # replayed at back-substitution) and continue with the rest.
            kept = [g for g in node.gens if g.degree_in(var) <= 0]
            if not kept:
                node.close("unresolved", "underdetermined system: only "
                           f"{var} is constrained at this node")
                audit.append({"node": node.path, "event": "unresolved",
                              "detail": node.status_reason})
                leaves.append(node)
                continue
            child = EliminationNode(
                kept, node.field,
                tuple(v for v in node.remaining_vars if v != var),
                parent=node, elim_var=var, path=node.path + ".0")
            node.children = [child]
            node.var_eliminated = var
            audit.append({"node": node.path, "event": "skip_var",
                          "var": var})
            stack.append(child)
            continue
        steps = eliminate_step(node, pivot, var, cap)
        children = expand_children(node, pivot, var, steps, filters, audit)
        if node.status == "open":
            node.close("expanded")
        if node.status in ("contradictory", "closed", "unresolved"):
            leaves.append(node)
        # push in reverse so child .0 is explored first (deterministic DFS)
        stack.extend(reversed(children))
    report = {
        "status": status,
        "nodes_expanded": expanded,
        "leaves": leaves,
        "solved": [n for n in leaves if n.status == "solved"],
        "contradictory": [n for n in leaves if n.status == "contradictory"],
        "unresolved": [n for n in leaves if n.status == "unresolved"],
        "audit": audit,
        "budgets": budgets,
        "root": root,
    }
    return report


def _classify_leaf(node: EliminationNode, cap: int, audit: list):
    var = node.remaining_vars[0] if node.remaining_vars else None
    if var is None:
        node.close("unresolved", "no variable left")
        return
    polys = [g for g in node.gens if g.degree_in(var) >= 0]
    g = None
    for p in polys:
        g = p if g is None else poly_gcd_univ(g, p, var)
    if g is None or g.is_zero():
        node.close("unresolved", "zero ideal in the last variable")
        audit.append({"node": node.path, "event": "unresolved",
                      "detail": "no univariate constraint"})
        return
    if g.degree_in(var) <= 0:
        node.close("contradictory", "univariate gcd is a nonzero constant")
        audit.append({"node": node.path, "event": "contradiction",
                      "detail": "constant gcd at leaf"})
        return
    node.leaf_gcd = g
    _c, facs, unres = factor_bounded(g, var, cap)
    node.leaf_factors = [p for p, _m in facs]
    node.leaf_unresolved = [p for p, _m in unres]
    if unres:
        node.close("unresolved",
                   "factor beyond degree cap: "
                   + "; ".join(p.to_text() for p, _m in unres))
        audit.append({"node": node.path, "event": "unresolved",
                      "detail": node.status_reason})
    else:
        node.close("solved")
        audit.append({"node": node.path, "event": "solved",
                      "factors": [p.to_text() for p in node.leaf_factors]})


# ---------------------------------------------------------------------------
# back-substitution
# ---------------------------------------------------------------------------

def back_substitute(leaf: EliminationNode, degree_cap: int = 4):
    """Solutions of the original system reached through this solved leaf.

    Walks the elimination history upward, at each level substituting the
    values found so far, factoring the resulting univariate polynomial over
    the current tower (adjoining a bounded extension per irreducible factor
    when needed), and finally verifying every assignment against the root
    generators.  A verification failure aborts loudly; residual factors
    beyond the cap are reported as unresolved records.
    """
    if leaf.status != "solved":
        raise ElimError(f"leaf is {leaf.status}, not solved")
    chain = [leaf]
    while chain[-1].parent is not None:
        chain.append(chain[-1].parent)
    root = chain[-1]
    var0 = leaf.remaining_vars[0]
    name_counter = [0]

    partials = []  # (field, {var: value}, extensions)
    for fac in leaf.leaf_factors:
        for field, val, ext, note in _values_of(fac, var0, leaf.field,
                                                name_counter):
            if val is None:
                partials.append(_unresolved_record(
                    {var0: None}, note))
            else:
                partials.append((field, {var0: val}, list(ext)))

    results = []
    for item in partials:
        if isinstance(item, dict):   # already an unresolved record
            results.append(item)
            continue
        results.extend(_ascend(chain, item, degree_cap, name_counter))

    # unconditional verification against the root ideal
    for rec in results:
        if rec["status"] != "solved":
            continue
        field = rec["field"]
        point = rec["assignment"]
        for g in root.gens:
            val = g.to_field(field).eval_point(point)
            if val != field.coerce(0) and val != 0:
                raise ElimError(
                    "internal error: emitted solution fails the root ideal "
                    f"on {g.to_text()}")
        rec["verified"] = True
    return results


def _ascend(chain, seed, degree_cap, name_counter):
    """Recursive walk from the leaf's parent up to the root."""
    field, assign, exts = seed
    out = []

    def step(level, field, assign, exts):
        # levels: chain[1:] are the ancestors; chain[i] produced chain[i-1]
        # by eliminating chain[i-1].elim_var from its own generators
        if level >= len(chain):
            out.append({"status": "solved", "field": field,
                        "assignment": dict(assign),
                        "extensions": list(exts)})
            return
        node = chain[level]
        var = chain[level - 1].elim_var
        if var in assign:   # skip_var level: nothing to recover
            step(level + 1, field, assign, exts)
            return
        sub = {v: x for v, x in assign.items()}
        univs = []
        for g in node.gens:
            h = g.to_field(field).substitute(sub)
            if h.is_zero():
                continue
            if h.degree_in(var) <= 0:
                if any(any(e) for e in h.terms):
                    continue  # involves untouched vars only: no constraint
                return        # nonzero constant: inconsistent branch
            univs.append(h)
        if not univs:
            out.append(_unresolved_record(
                assign, f"variable {var} unconstrained after substitution"))
            return
        g = univs[0]
        for h in univs[1:]:
            g = poly_gcd_univ(g, h, var)
        if g.degree_in(var) <= 0:
            return  # inconsistent combination of values: prune silently
        _c, facs, unres = factor_bounded(g, var, degree_cap)
        for p, _m in unres:
            out.append(_unresolved_record(
                assign, f"residual factor beyond cap in {var}: "
                        + p.to_text()))
        for p, _m in facs:
            for nfield, val, next_exts, note in _values_of(
                    p, var, field, name_counter):
                if val is None:
                    out.append(_unresolved_record(assign, note))
                    continue
                nassign = {v: nfield.coerce(x) for v, x in assign.items()}
                nassign[var] = val
                step(level + 1, nfield, nassign, exts + list(next_exts))

    step(1, field, assign, exts)
    return out


def _values_of(factor: MultiPoly, var: str, field, name_counter):
    """Root(s) of an irreducible univariate factor over `field`, adjoining
    one bounded extension when the degree exceeds 1.

    Yields (field, value, extensions, note); value None signals an
    unresolved branch (tower depth exhausted).
    """
    coeffs = fl.up_monic(factor.univariate_coeffs(var))
    deg = len(coeffs) - 1
    if deg == 1:
        yield field, field.coerce(-coeffs[0]), [], ""
        return
    name = fl.fresh_name(field, name_counter)
    try:
        ext = NumberField(name, coeffs, field)
    except FieldError as exc:
        yield field, None, [], f"cannot adjoin degree-{deg} root: {exc}"
        return
    yield ext, ext.gen(), [(name, factor.to_text())], ""


def _unresolved_record(assign, reason):
    return {"status": "unresolved",
            "partial": {v: x for v, x in assign.items() if x is not None},
            "reason": reason}


# ---------------------------------------------------------------------------
# system documents
# ---------------------------------------------------------------------------

def system_from_doc(doc) -> EliminationNode:
    """Root node from {"vars": [...], "field": doc|None, "polys": [text]}."""
    field = fl.field_from_doc(doc["field"]) if doc.get("field") else QQ
    varnames = tuple(doc["vars"])
    gens = [parse_poly(t, varnames, field) for t in doc["polys"]]
    return make_root(varnames, gens, field)


def solve_system(root: EliminationNode,
                 order: Optional[Sequence[str]] = None,
                 filters: Sequence[FactorFilter] = (),
                 budgets: Optional[Mapping] = None):
    """search + back_substitute over all solved leaves; combined report."""
    report = search(root, order, filters, budgets)
    solutions = []
    unresolved = []
    for leaf in report["solved"]:
        for rec in back_substitute(leaf, report["budgets"]["degree_cap"]):
            if rec["status"] == "solved":
                solutions.append(rec)
            else:
                unresolved.append(rec)
    report["solutions"] = _dedup_solutions(solutions)
    report["unresolved_branches"] = unresolved
    return report


def _dedup_solutions(solutions):
    seen = set()
    out = []
    for rec in solutions:
        key = (tuple(sorted((v, str(x))
                            for v, x in rec["assignment"].items())),
               tuple(t for _n, t in rec["extensions"]))
        if key not in seen:
            seen.add(key)
            out.append(rec)
    return out
