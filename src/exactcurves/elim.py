"""Resultant-based elimination-tree solver.

A polynomial system over Q (or a bounded tower extension) is solved by
repeatedly eliminating one variable: a pivot generator is chosen, resultants
against the remaining generators are computed, factored, and optionally
pruned by declared degeneracy filters; every surviving factor combination
becomes a child node unless a sibling has the same generators up to
scalars.  Univariate leaves are classified and solved values
are pushed back up the tree through roots that `fields.adjoin_root`
adjoins, each emitted solution verified against the original generators.

The solver does not claim completeness: a wrong filter can discard genuine
solutions, and a root the extension policy refuses is reported unresolved
rather than guessed.  Everything removed or left open is in the audit log.
"""

from __future__ import annotations

import time
from typing import Callable, Mapping, Optional, Sequence

from . import fields as fl
from .factoring import poly_gcd
from .fields import FieldError, QQ
from .multipoly import (MultiPoly, factor_bounded, leading_term, parse_poly,
                        resultant)


class ElimError(ValueError):
    pass


DEFAULT_BUDGETS = {"node_cap": 10_000, "time_cap_s": 300.0}


# ---------------------------------------------------------------------------
# canonical form and factor filters
# ---------------------------------------------------------------------------

def _canonical(p: MultiPoly) -> MultiPoly:
    """p scaled so its graded-lex leading coefficient is 1: two nonzero
    polynomials have one canonical form exactly when each is a scalar
    multiple of the other."""
    return p * (1 / leading_term(p)[1])


class FactorFilter:
    """A named, deterministic predicate removing degenerate resultant factors.

    There are no implicit defaults: a factor is only dropped when a filter
    the caller declared matches it, and every removal is logged with the
    filter's name.
    """

    def __init__(self, name: str, matches: Callable[[MultiPoly], bool]):
        self.name = name
        self.matches = matches

    def __repr__(self):
        return f"FactorFilter({self.name})"

    @staticmethod
    def variable_vanishing(varname: str) -> "FactorFilter":
        """Drop the bare coordinate factor (a degenerate locus like x=0)."""
        return FactorFilter(f"vanishing({varname})", lambda p: (
            varname in p.vars
            and _canonical(p) == MultiPoly.var(p.vars, varname, p.field)))

    @staticmethod
    def poly_match(name: str, text: str, varnames: Sequence[str],
                   field=QQ) -> "FactorFilter":
        """Drop factors that are scalar multiples of a given polynomial."""
        target = _canonical(parse_poly(text, tuple(varnames), field))
        return FactorFilter(name, lambda p: _canonical(p) == target)


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
    """The root node of the system `gens` in the variables `varnames`; a
    generator that involves any other variable is refused."""
    for g in gens:
        for v in g.vars:
            if v not in varnames and g.degree_in(v) > 0:
                raise ElimError(f"generator {g.to_text()} involves {v}, "
                                f"which is not among {tuple(varnames)}")
    gens = tuple(g.to_field(field) for g in gens)
    return EliminationNode(gens, field, tuple(varnames))


# ---------------------------------------------------------------------------
# one elimination step
# ---------------------------------------------------------------------------

def eliminate_step(node: EliminationNode, pivot: MultiPoly, var: str):
    """Resultants of the pivot against every other generator involving `var`.

    Returns a list of dicts, one per paired generator:
      {"generator": g, "resultant": r, "zero": bool, "constant": bool,
       "factors": [MultiPoly...], "unresolved": [MultiPoly...]}
    Factors are in canonical form and are those of `_factor_poly`:
    irreducible, except the whole multivariate rest of a resultant.
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
        entry["factors"], entry["unresolved"] = _factor_poly(r)
        results.append(entry)
    return results


def _factor_poly(r: MultiPoly):
    """Canonical factors of r, and those left unresolved.

    A univariate r is factored exactly (`factor_bounded`), factors sorted
    by degree.  A multivariate r first loses its coordinate factors x^k; a
    univariate rest is then factored the same way, and a multivariate rest
    is kept whole, so that factor need be neither squarefree nor irreducible.
    """
    factors, unresolved = [], []
    rest = r
    live = [v for v in r.vars if r.degree_in(v) > 0]
    if len(live) > 1:
        for i, v in enumerate(r.vars):
            k = min(e[i] for e in rest.terms)
            if k > 0:
                factors.append(MultiPoly.var(r.vars, v, r.field))
                rest = MultiPoly(r.vars, {e[:i] + (e[i] - k,) + e[i + 1:]: c
                                          for e, c in rest.terms.items()},
                                 r.field)
        live = [v for v in r.vars if rest.degree_in(v) > 0]
    if len(live) == 1:
        _c, facs, unres = factor_bounded(rest, live[0])
        factors += sorted((p for p, _m in facs),
                          key=lambda p: p.degree_in(live[0]))
        unresolved = [p for p, _m in unres]
    elif live:
        factors.append(rest)
    return (list(dict.fromkeys(map(_canonical, factors))),
            list(dict.fromkeys(map(_canonical, unresolved))))


# ---------------------------------------------------------------------------
# child expansion
# ---------------------------------------------------------------------------

def expand_children(node: EliminationNode, pivot: MultiPoly, var: str,
                    step_results, filters: Sequence[FactorFilter] = (),
                    audit: Optional[list] = None):
    """Build the child nodes for one elimination step.

    One child per cartesian selection of surviving factors (one factor per
    resultant); generators independent of `var` are carried through.  A
    child's generators are distinct up to scalars, and no two children
    have the same set of canonical generators.  Filtered factors are
    logged with the filter name.  A zero resultant closes the node
    unresolved, since its zero set may then hold a whole component.
    """
    if audit is None:
        audit = []
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

    # generators keyed by canonical form; factors already are canonical
    carried = {}
    for g in node.gens:
        if g is not pivot and g.degree_in(var) <= 0:
            carried.setdefault(_canonical(g), g)
    remaining = tuple(v for v in node.remaining_vars if v != var)
    combos = [[]]
    for s in choice_sets:
        combos = [c + [p] for c in combos for p in s]
    seen = set()
    children = []
    for combo in combos:
        gens = dict(carried)
        for p in combo:
            gens.setdefault(p, p)
        key = frozenset(gens)
        if key in seen:
            continue
        seen.add(key)
        children.append(EliminationNode(
            gens.values(), node.field, remaining, parent=node, elim_var=var,
            path=f"{node.path}.{len(children)}"))
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
            _classify_leaf(node, audit)
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
            audit.append({"node": node.path, "event": "skip_var",
                          "var": var})
            stack.append(child)
            continue
        steps = eliminate_step(node, pivot, var)
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


def _univariate_step(gens, var: str, field, assign: Mapping):
    """The one univariate step, taken at a leaf and at every ancestor
    during back-substitution.

    Substitutes `assign` into `gens` over `field`, takes the gcd in `var`
    of the results that involve `var`, and factors it exactly.  Returns
    None when no generator constrains `var`, ([], []) when `assign` makes
    a generator a nonzero constant or the gcd constant, and otherwise the
    irreducible factors and the parts `factor_bounded` left unsplit.
    """
    univs = []
    for g in gens:
        h = g.to_field(field).substitute(assign) if assign else g
        if h.is_zero():
            continue
        if h.degree_in(var) <= 0:
            if any(any(e) for e in h.terms):
                continue  # involves untouched vars only: no constraint
            return [], []
        univs.append(h)
    if not univs:
        return None
    f = univs[0]
    g = poly_gcd([h.univariate_coeffs(var) for h in univs], f.field)
    if len(g) <= 1:
        return [], []
    _c, facs, unres = factor_bounded(
        MultiPoly.from_univariate(g, f.vars, var, f.field), var)
    return [p for p, _m in facs], [p for p, _m in unres]


def _classify_leaf(node: EliminationNode, audit: list):
    if not node.remaining_vars:
        node.close("unresolved", "no variable left")
        return
    step = _univariate_step(node.gens, node.remaining_vars[0], node.field, {})
    if step is None:
        node.close("unresolved", "zero ideal in the last variable")
        audit.append({"node": node.path, "event": "unresolved",
                      "detail": "no univariate constraint"})
        return
    factors, unres = step
    if not factors and not unres:
        node.close("contradictory", "univariate gcd is a nonzero constant")
        audit.append({"node": node.path, "event": "contradiction",
                      "detail": "constant gcd at leaf"})
        return
    if unres:
        node.close("unresolved",
                   "factor left unsplit by the factorizer: "
                   + "; ".join(p.to_text() for p in unres))
        audit.append({"node": node.path, "event": "unresolved",
                      "detail": node.status_reason})
    else:
        node.leaf_factors = factors
        node.close("solved")
        audit.append({"node": node.path, "event": "solved",
                      "factors": [p.to_text() for p in factors]})


# ---------------------------------------------------------------------------
# back-substitution
# ---------------------------------------------------------------------------

def back_substitute(leaf: EliminationNode):
    """Solutions of the original system reached through this solved leaf.

    Walks the elimination history upward.  Each irreducible factor of a
    level's univariate step fixes that level's variable to a root
    adjoined by `fields.adjoin_root`; the next ancestor then takes its
    univariate step under the values found so far.  Every assignment that
    reaches the root is verified against the root generators, and a
    verification failure aborts loudly; a factor whose root the extension
    policy refuses, or one left unsplit, is reported as an unresolved
    record.
    """
    if leaf.status != "solved":
        raise ElimError(f"leaf is {leaf.status}, not solved")
    chain = [leaf]
    while chain[-1].parent is not None:
        chain.append(chain[-1].parent)
    name_counter = [0]
    results = []

    def extend(level, var, factors, field, assign, exts):
        # chain[level] fixes `var` to a root of one of `factors`; its
        # parent, chain[level + 1], eliminated chain[level].elim_var
        for p in factors:
            coeffs = fl.up_monic(p.univariate_coeffs(var))
            try:
                value, nfield = fl.adjoin_root(coeffs, field, name_counter)
            except FieldError as exc:
                results.append(_unresolved_record(assign, str(exc)))
                continue
            ext = [] if nfield is field else [(nfield.name, p.to_text())]
            point = {v: nfield.coerce(x) for v, x in assign.items()}
            point[var] = nfield.coerce(value)
            if level + 1 == len(chain):
                bad = next((g for g in chain[-1].gens
                            if g.to_field(nfield).eval_point(point) != 0),
                           None)
                if bad is not None:
                    raise ElimError("internal error: emitted solution fails "
                                    f"the root ideal on {bad.to_text()}")
                results.append({"status": "solved", "field": nfield,
                                "assignment": point,
                                "extensions": exts + ext, "verified": True})
                continue
            up = chain[level].elim_var
            step = _univariate_step(chain[level + 1].gens, up, nfield, point)
            if step is None:
                results.append(_unresolved_record(
                    point, f"variable {up} unconstrained after substitution"))
                continue
            facs, unres = step
            results.extend(_unresolved_record(
                point, f"unsplit residual factor in {up}: " + q.to_text())
                for q in unres)
            extend(level + 1, up, facs, nfield, point, exts + ext)

    extend(0, leaf.remaining_vars[0], leaf.leaf_factors, leaf.field, {}, [])
    return results


def _unresolved_record(assign, reason):
    return {"status": "unresolved", "partial": dict(assign),
            "reason": reason}


# ---------------------------------------------------------------------------
# system documents
# ---------------------------------------------------------------------------

def system_from_doc(doc):
    """Root node and declared filters of a system document.

    {"vars": [...], "field": field doc or null, "polys": [text],
     "filters": [{"type": "variable_vanishing", "var": v} or
                 {"type": "poly_match", "text": t, "name": n}]};
    "field", "filters" and a filter's "name" are optional.
    """
    field = fl.field_from_doc(doc["field"]) if doc.get("field") else QQ
    varnames = tuple(doc["vars"])
    root = make_root(varnames, [parse_poly(t, varnames, field)
                                for t in doc["polys"]], field)
    filters = []
    for spec in doc.get("filters", []):
        kind = spec.get("type")
        if kind == "variable_vanishing":
            filters.append(FactorFilter.variable_vanishing(spec["var"]))
        elif kind == "poly_match":
            filters.append(FactorFilter.poly_match(
                spec.get("name", spec["text"]), spec["text"], varnames,
                field))
        else:
            raise ElimError(f"unknown filter type {kind!r}")
    return root, filters


def solve_system(root: EliminationNode,
                 order: Optional[Sequence[str]] = None,
                 filters: Sequence[FactorFilter] = (),
                 budgets: Optional[Mapping] = None):
    """search + back_substitute over all solved leaves; combined report."""
    report = search(root, order, filters, budgets)
    solutions = []
    unresolved = []
    for leaf in report["solved"]:
        for rec in back_substitute(leaf):
            if rec["status"] == "solved":
                solutions.append(rec)
            else:
                unresolved.append(rec)
    report["solutions"] = _dedup_solutions(solutions)
    report["unresolved_branches"] = unresolved
    return report


def _dedup_solutions(solutions):
    # distinct leaves may share solutions: a coordinate factor and the
    # multivariate rest of one resultant can vanish at one point
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
