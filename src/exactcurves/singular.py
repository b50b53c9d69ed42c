"""Local analysis of plane-curve germs.

Certifies singularity types from exact data: multiplicity and tangent cone,
Newton-segment certificates for ordinary cusps (type A2) and the deeper
cuspidal type E6 (local model u^3 = v^4), truncated integer-exponent branch
expansions for germs whose branches are all smooth, the composite
three-branch type with pairwise contact orders (2,2,3), and projective
smoothness certificates on one disjoint cover of the plane: the point
(1:0:0), the line z = 0 and the chart z = 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count

from . import fields as fl
from .factoring import irreducible_factors, poly_gcd
from .fields import FieldError
from .multipoly import MultiPoly, dehomogenize, resultant


class GermError(ValueError):
    pass


class UnresolvedGerm(GermError):
    """The germ was not decided within the bounds of the expansion: its
    certificate is unresolved, not refuted."""


class CurveGerm:
    """A plane-curve germ: a 2-variable polynomial at a base point.

    The first variable of `f` is treated as the dependent one (branches are
    expanded as series u = phi(v)).  The base point is translated to the
    origin internally.
    """

    def __init__(self, f: MultiPoly, point=(0, 0)):
        if len(f.vars) != 2:
            raise GermError("germ polynomial must have exactly 2 variables")
        if f.is_zero():
            raise GermError("germ polynomial is identically zero")
        u, v = f.vars
        a, b = point
        field = fl.common_field(f, a, b)
        f = f.to_field(field)
        if a or b:
            shifted = f.substitute({
                u: MultiPoly.var(f.vars, u, field) + field.coerce(a),
                v: MultiPoly.var(f.vars, v, field) + field.coerce(b)})
        else:
            shifted = f
        self.original = f
        self.point = (field.coerce(a), field.coerce(b))
        self.f = shifted
        self.field = field

    def on_curve(self) -> bool:
        return (0,) * 2 not in self.f.terms

    def __repr__(self):
        return f"CurveGerm({self.f.to_text()} at {self.point})"


class SingularityCertificate:
    """Verdict record for a germ: type, multiplicity, tangent/Newton data."""

    def __init__(self, verdict, multiplicity=None, tangent_cone=None,
                 cone_power_of=None, newton_segment=None, newton_number=None,
                 contacts=None, reason=None, notes=None):
        self.verdict = verdict
        self.multiplicity = multiplicity
        self.tangent_cone = tangent_cone
        self.cone_power_of = cone_power_of  # linear form when cone = c*L^m
        self.newton_segment = newton_segment
        self.newton_number = newton_number
        self.contacts = contacts
        self.reason = reason
        self.notes = list(notes or [])

    def __repr__(self):
        return f"SingularityCertificate({self.verdict}, m={self.multiplicity})"


class BranchExpansion:
    """Truncated smooth-branch series u = sum a_k v^k (integer exponents)."""

    def __init__(self, varnames, coeffs, field):
        self.vars = tuple(varnames)
        self.coeffs = list(coeffs)  # coeffs[k-1] is the coefficient of v^k
        self.field = field

    def tangent_slope(self):
        return self.coeffs[0] if self.coeffs else self.field.zero()

    def series_poly(self) -> MultiPoly:
        terms = {}
        for k, a in enumerate(self.coeffs, start=1):
            if a:
                terms[(0, k)] = a
        return MultiPoly(self.vars, terms, self.field)

    def residual_valuation(self, f: MultiPoly) -> int:
        """Order in v of f(series, v); > len(coeffs) for a true branch."""
        u, v = self.vars
        g = f.substitute({u: self.series_poly()})
        if g.is_zero():
            return 10 ** 9
        return min(e[1] for e in g.terms)

    def __repr__(self):
        return f"BranchExpansion({self.series_poly().to_text()})"


# ---------------------------------------------------------------------------
# multiplicity and tangent cone
# ---------------------------------------------------------------------------

def multiplicity_and_cone(germ: CurveGerm):
    """Multiplicity m, degree-m cone, and its perfect-power analysis.

    Returns (m, cone, is_perfect_power, linear_form).  The perfect-power
    test is exact: a reconstruction of L, verified by expansion.
    """
    f = germ.f
    if (0, 0) in f.terms:
        raise GermError("base point is not on the curve")
    m = f.min_degree()
    cone = f.homogeneous_part(m)
    L = cone if m == 1 else _extract_power_root(cone, m)
    return m, cone, L is not None, L


def _cone_coeff(cone, i, j):
    return cone.terms.get((i, j), cone.field.zero())


def _extract_power_root(cone: MultiPoly, m: int):
    """Linear L with cone = c*L^m, verified by expansion; None if absent."""
    field = cone.field
    u, v = cone.vars
    a = _cone_coeff(cone, m, 0)
    if a:
        # cone = a*(u + s*v)^m  =>  coefficient of u^(m-1) v is m*a*s
        s = _cone_coeff(cone, m - 1, 1) / (m * a)
        L = MultiPoly.var(cone.vars, u, field) + \
            MultiPoly.const(cone.vars, s, field) * \
            MultiPoly.var(cone.vars, v, field)
        if cone == MultiPoly.const(cone.vars, a, field) * L ** m:
            return L
        return None
    c = _cone_coeff(cone, 0, m)
    L = MultiPoly.var(cone.vars, v, field)
    if c and cone == MultiPoly.const(cone.vars, c, field) * L ** m:
        return L
    return None


# ---------------------------------------------------------------------------
# A1 / A2 / E6 certificates
# ---------------------------------------------------------------------------

_TYPE_DATA = {
    # expected type -> (multiplicity, second Newton vertex b, i.e. the
    # required nonzero coefficient of v^b after the cone-straightening change)
    "A2": (2, 3),
    "E6": (3, 4),
}


def certify_type(germ: CurveGerm, expected: str) -> SingularityCertificate:
    """Certificate that a germ has type A1, A2, or E6 (or explain failure).

    For A2/E6: multiplicity m with tangent cone a perfect m-th power c*L^m,
    and after the linear change L -> u the coefficient of v^(m+1) is
    nonzero.  With the cone equal to L^m no monomial can lie below the
    Newton segment (m,0)-(0,m+1); the segment's endpoints are coprime, so
    the germ is Newton-nondegenerate with Newton number (m-1)*m and is
    topologically u^m = v^(m+1).
    """
    if expected not in ("A1", "A2", "E6"):
        raise GermError(f"unsupported expected type {expected!r}")
    if not germ.on_curve():
        raise GermError("point not on curve")
    f = germ.f
    m = f.min_degree()
    if m == 1:
        return SingularityCertificate(
            "SMOOTH", multiplicity=1, tangent_cone=f.homogeneous_part(1),
            notes=["germ is smooth at the point"])
    mm, cone, is_power, L = multiplicity_and_cone(germ)
    notes = []
    if expected == "A1":
        if m != 2:
            return SingularityCertificate(
                "OTHER", multiplicity=m, tangent_cone=cone,
                reason=f"multiplicity {m}, expected 2")
        if is_power:
            return SingularityCertificate(
                "OTHER", multiplicity=2, tangent_cone=cone,
                reason="tangent cone is a repeated line, not two distinct "
                       "lines")
        return SingularityCertificate(
            "A1", multiplicity=2, tangent_cone=cone,
            notes=["cone discriminant nonzero: two distinct tangent lines"])

    m_want, b = _TYPE_DATA[expected]
    if m != m_want:
        return SingularityCertificate(
            "OTHER", multiplicity=m, tangent_cone=cone,
            reason=f"multiplicity {m}, expected {m_want}")
    if not is_power:
        return SingularityCertificate(
            "OTHER", multiplicity=m, tangent_cone=cone,
            reason="tangent cone is not a perfect power of a linear form")
    g = _straighten(f, L)
    crit = g.terms.get((0, b), g.field.zero())
    if not crit:
        return SingularityCertificate(
            "OTHER", multiplicity=m, tangent_cone=cone, cone_power_of=L,
            reason=f"v^{b} coefficient zero: degenerates beyond expected "
                   "type")
    nu = (m - 1) * (b - 1)
    notes.append(
        f"tangent cone is L^{m}; every monomial of the straightened germ "
        f"lies on or above the segment ({m},0)-(0,{b})")
    notes.append(
        f"gcd({m},{b})=1: no interior lattice points; Newton-nondegenerate "
        f"with Newton number {nu}; topological model u^{m} = v^{b}")
    return SingularityCertificate(
        expected, multiplicity=m, tangent_cone=cone, cone_power_of=L,
        newton_segment=((m, 0), (0, b)), newton_number=nu, notes=notes)


def _straighten(f: MultiPoly, L: MultiPoly) -> MultiPoly:
    """Linear change sending the line L to u (and a complement to v)."""
    u, v = f.vars
    cu = L.terms.get((1, 0), f.field.zero())
    cv = L.terms.get((0, 1), f.field.zero())
    U = MultiPoly.var(f.vars, u, f.field)
    V = MultiPoly.var(f.vars, v, f.field)
    if cu:
        # L = cu*u + cv*v -> u:  u = (U - cv*V)/cu, v = V
        return f.substitute({
            u: (U - MultiPoly.const(f.vars, cv, f.field) * V) *
            MultiPoly.const(f.vars, 1 / cu, f.field)})
    # L = cv*v: swap roles
    return f.substitute({u: V * MultiPoly.const(f.vars, 1 / cv, f.field),
                         v: U})


# ---------------------------------------------------------------------------
# integer-exponent branch expansions
# ---------------------------------------------------------------------------

def puiseux_branches(germ: CurveGerm, truncation: int = 8):
    """Truncated series for the branches of a germ, all assumed smooth.

    Branch exponents are restricted to integers; a germ needing fractional
    exponents is rejected.  Branch coefficients live in the germ's field or
    an extension adjoined on the way (`fields.adjoin_root`).

    Every branch is certified by its expansion path alone, with no
    substitution back into f.  The path u = v*(a1 + w1), w1 = v*(a2 + w2),
    ..., of T = `truncation` steps, each dividing out v^(m_i) with m_i the
    multiplicity at step i, ends at a sub-germ f_T that `_expand_branches`
    accepts only when it is smooth and transversal to the line v = 0, so
    f_T holds exactly one branch.  Setting w_T = 0 gives
    f(s(v), v) = v^M * f_T(0, v) with M = m_0 + ... + m_(T-1) >= T, and
    f_T(0, 0) = 0, so f(s(v), v) has order at least T + 1 in v
    (`BranchExpansion.residual_valuation` computes it).  Each branch is
    smooth, and the multiplicity of a germ is the sum of those of its
    branches, so it equals the branch count.

    Each level drops the terms that cannot reach a later cone (argued in
    `_expand_branches`), so every stop test and coefficient is that of the
    untruncated path above.
    """
    f = germ.f
    if not germ.on_curve():
        raise GermError("point not on curve")
    m = f.min_degree()
    cone = f.homogeneous_part(m)
    shear = None
    if not _cone_coeff(cone, m, 0):
        f, shear = _shear_away_vertical(f, m)
    branches = [BranchExpansion(f.vars, coeffs, field)
                for coeffs, field in _expand_branches(f, truncation)]
    return branches, shear


def _shear_away_vertical(f: MultiPoly, m: int):
    """Substitute v -> v + lam*u so no branch is tangent to the v-axis.

    The substitution maps the degree-m cone to cone(u, v + lam*u), whose
    u^m coefficient is cone(1, lam); lam is the least positive integer
    where that is nonzero, one of 1..m+1 since the cone has at most m
    roots.
    """
    u, v = f.vars
    cone = f.homogeneous_part(m)
    lam = next(lam for lam in count(1)
               if sum((c * lam ** e[1] for e, c in cone.terms.items()),
                      f.field.zero()))
    U = MultiPoly.var(f.vars, u, f.field)
    V = MultiPoly.var(f.vars, v, f.field)
    return f.substitute({v: V + Fraction(lam) * U}), Fraction(lam)


def _edge_roots(edge, field):
    """Distinct roots of an edge polynomial, as [(root, field)].

    Each irreducible factor has a root adjoined (`fields.adjoin_root`);
    a factor of degree > 1 gives all its roots in that one extension.
    None when the polynomial does not split that way, a factorization
    left unresolved or a refused extension included.
    """
    factors, unresolved = irreducible_factors(edge, field)
    if unresolved:
        return None
    out = []
    for part, _mult in factors:
        try:
            w, ext = fl.adjoin_root(part, field, _EXT_COUNTER)
        except FieldError:
            return None
        if ext is field:
            out.append((w, field))
            continue
        cofactor = fl.up_divmod([ext.coerce(c) for c in part],
                                [-w, ext.one()])[0]
        conjugates, unresolved = irreducible_factors(cofactor, ext)
        roots = [w] + [-q[0] for q, _mult in conjugates if len(q) == 2]
        if unresolved or len(roots) < fl.up_deg(part):
            # conjugate roots outside ext remain unaccounted
            return None
        out.extend((r, ext) for r in roots)
    return out


_EXT_COUNTER = [0]


def _expand_branches(f: MultiPoly, remaining: int):
    """Recursive integer-exponent expansion; returns [(coeff list, field)],
    one per branch, each list holding exactly `remaining` coefficients.

    Each level needs an edge polynomial cone(t, 1) of full degree m, so
    that no branch is tangent to the line v = 0.  A path stops only where
    that holds with m = 1: a smooth sub-germ transversal to v = 0, which
    is a single branch.
    """
    u, v = f.vars
    m = f.min_degree()
    cone = f.homogeneous_part(m)
    # edge polynomial cone(t, 1): directions u = t*v
    edge = fl.up_trim([_cone_coeff(cone, i, m - i) for i in range(m + 1)])
    if fl.up_deg(edge) != m:
        raise GermError(
            "fractional exponents required (branch tangent to the v-axis "
            "below the top level): out of scope")
    if remaining <= 0:
        if m == 1:
            return [([], f.field)]
        raise UnresolvedGerm("truncation too small to separate branches")
    roots = _edge_roots(edge, f.field)
    if roots is None:
        raise UnresolvedGerm(
            "branch tangent direction outside supported field extensions")
    # Only terms of degree <= m*(remaining + 1) can reach a cone on the
    # rest of the path.  Multiplicity never rises along a path, and a term
    # of degree d only reaches degrees >= d - m one level down, so k levels
    # down a dropped term lies in degrees > m*(remaining + 1 - k) >= m,
    # above that level's cone, for every k <= remaining.  Every cone, edge
    # polynomial, stop test and coefficient is that of the full expansion.
    bound = m * (remaining + 1)
    f = MultiPoly(f.vars, {e: c for e, c in f.terms.items()
                           if sum(e) <= bound}, f.field)
    out = []
    for a, field in roots:
        U = MultiPoly.var(f.vars, u, field)
        V = MultiPoly.var(f.vars, v, field)
        # u = v*(a + w); recurse on f(v*(a+w), v) / v^m in (w, v)
        sub = f.substitute({u: V * (U + MultiPoly.const(f.vars, a, field))})
        sub = _divide_out_v(sub, m)
        if sub.is_zero() or (0, 0) in sub.terms:
            raise GermError("internal: sub-germ does not vanish at origin")
        for tail, tfield in _expand_branches(sub, remaining - 1):
            out.append(([tfield.coerce(a)] + list(tail), tfield))
    return out


def _divide_out_v(f: MultiPoly, m: int) -> MultiPoly:
    terms = {}
    for e, c in f.terms.items():
        if e[1] < m:
            raise GermError("internal: expected divisibility by v^m")
        terms[(e[0], e[1] - m)] = c
    out = MultiPoly.zero(f.vars, f.field)
    out.terms = terms
    return out


# ---------------------------------------------------------------------------
# composite three-branch certificate
# ---------------------------------------------------------------------------

def certify_composite(germ: CurveGerm,
                      truncation: int = 8) -> SingularityCertificate:
    """Certificate for the three-smooth-branch type with contacts (2,2,3).

    Verdict COMPOSITE_3BRANCH iff the germ has exactly 3 smooth branches
    sharing one tangent line, and the sorted pairwise contact orders
    (valuations of branch differences) are (2, 2, 3).
    """
    branches, shear = puiseux_branches(germ, truncation)
    m, cone, is_power, L = multiplicity_and_cone(germ)
    notes = []
    if shear is not None:
        notes.append(f"internal shear v -> v + {shear}*u applied")
    if len(branches) != 3:
        return SingularityCertificate(
            "OTHER", multiplicity=m, tangent_cone=cone,
            reason=f"branch count {len(branches)}, expected 3", notes=notes)
    field = fl.common_field(*branches)
    slopes = [field.coerce(b.tangent_slope()) for b in branches]
    if not (slopes[0] == slopes[1] == slopes[2]):
        return SingularityCertificate(
            "OTHER", multiplicity=m, tangent_cone=cone,
            reason="branches do not share a tangent line", notes=notes)
    contacts = sorted(_contact_order(branches[i], branches[j], field)
                      for i in range(3) for j in range(i + 1, 3))
    # intersection of the common tangent line u = a1*v with the germ,
    # ord_v f(a1*v, v) in the frame of the branches (reported, not
    # adjudicated); before the shear v -> v + lam*u the line is
    # (u, v) = (a1*v, (1 + lam*a1)*v)
    u, v = germ.f.vars
    a1, V = slopes[0], MultiPoly.var(germ.f.vars, v, field)
    on_line = germ.f.to_field(field).substitute(
        {u: V * a1, v: V * (1 + (shear or 0) * a1)})
    notes.append(
        "the common tangent line is a component of the germ"
        if on_line.is_zero() else
        f"intersection of the common tangent line with the germ: "
        f"{on_line.min_degree()} (order of f along the line)")
    if contacts != [2, 2, 3]:
        return SingularityCertificate(
            "OTHER", multiplicity=m, tangent_cone=cone,
            contacts=tuple(contacts),
            reason=f"pairwise contacts {tuple(contacts)}, expected (2, 2, 3)",
            notes=notes)
    notes.append("3 smooth branches, common tangent, pairwise contacts "
                 "(2, 2, 3)")
    return SingularityCertificate(
        "COMPOSITE_3BRANCH", multiplicity=m, tangent_cone=cone,
        cone_power_of=L, contacts=(2, 2, 3), notes=notes)


def _contact_order(b1: BranchExpansion, b2: BranchExpansion, field):
    # Two branches leave the expansion tree at a node of depth < truncation
    # through distinct roots of its edge polynomial, so their coefficient
    # lists differ at the next index.
    return next(k for k, (c1, c2) in enumerate(zip(b1.coeffs, b2.coeffs),
                                               start=1)
                if field.coerce(c1) != field.coerce(c2))


# ---------------------------------------------------------------------------
# projective smoothness certificates
# ---------------------------------------------------------------------------

def certify_smooth_projective(f: MultiPoly):
    """Whether a homogeneous plane curve F is smooth, with an audit witness.

    The singular points are the common zeros of F_x, F_y, F_z, which lie
    on the curve by the Euler relation.  One pass over the disjoint cover
    of the plane by the point (1:0:0), the line z = 0 less that point and
    the chart z = 1 decides them exactly (README, "Smoothness").  The
    verdict is True, False, or None when a candidate y-coordinate has a
    factor left unresolved or one whose root the extension policy
    (`fields.adjoin_root`) refuses.
    """
    if len(f.vars) != 3:
        raise GermError("expected a polynomial in 3 variables")
    if not f.is_homogeneous():
        raise GermError("expected a homogeneous polynomial")
    witness = {"steps": [], "euler_note": (
        "common zeros of the partials lie on the curve by the Euler "
        "relation; checking the partials suffices")}

    def verdict(ok, note):
        witness["steps"].append(note)
        return ok, witness

    d, field = f.degree(), f.field
    if d in (0, 1):
        return verdict(True, "degree <= 1: a line is smooth")
    partials = [f.derivative(n) for n in f.vars]
    if not any(p.terms.get((d - 1, 0, 0)) for p in partials):
        return verdict(False, "the partials vanish at (1:0:0)")
    # points (t:1:0); a homogeneous partial has one term per power of t
    g = poly_gcd([[p.terms.get((k, d - 1 - k, 0), field.zero())
                   for k in range(d)] for p in partials], field)
    if fl.up_deg(g) != 0:
        return verdict(False, "the partials share a zero on the line z = 0")
    witness["steps"].append("no common zero of the partials on z = 0")
    # chart z = 1.  h has positive degree in x and h_y is nonzero: else F
    # lies in K[y, z] or K[x, z], and (1:0:0) or (0:1:0) was found singular
    h = dehomogenize(f, 2)
    x, y = h.vars
    chart = [h, h.derivative(x), h.derivative(y)]
    res = [resultant(h, p, x) if p.degree_in(x) > 0 else p
           for p in chart[1:]]
    if any(r.is_zero() for r in res):
        # h shares a factor of positive x-degree with a nonzero partial of
        # lower degree: h, hence F, is reducible
        return verdict(False, "zero resultant in x: F is reducible, hence "
                       "singular where its components meet")
    g = poly_gcd([r.univariate_coeffs(y) for r in res], field)
    if fl.up_deg(g) == 0:
        return verdict(True, "chart z = 1: the resultants in x have a "
                       "constant gcd in y; no common zero")
    parts, unresolved = irreducible_factors(g, field)
    decided = not unresolved
    for part, _mult in parts:
        try:
            r, _ext = fl.adjoin_root(part, field, _EXT_COUNTER)
        except FieldError:
            decided = False
            continue
        at_r = [p.substitute({y: r}) for p in chart]
        if fl.up_deg(poly_gcd([p.univariate_coeffs(x) for p in at_r],
                              at_r[0].field)) != 0:
            return verdict(False, f"chart z = 1: common zero of the "
                           f"partials at {y} = {r}")
    if not decided:
        return verdict(None, "chart z = 1: a candidate factor is unresolved "
                       "or beyond supported extensions; inconclusive")
    return verdict(True, "chart z = 1: no candidate y-value is a common zero")
