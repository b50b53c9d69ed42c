"""Sparse multivariate polynomials over Q or a number-field tower.

Terms are stored as a dict from exponent tuples to nonzero coefficients.
Coefficients are Fraction (over Q) or FieldElement.  Products and
substitutions go through one multiply-accumulate kernel
(`_multiply_accumulate`): coefficient products are summed as integers per
output monomial, and each sum is reduced once, into one Fraction or
through one pass of the field's reduction table.  Resultants use the
subresultant polynomial-remainder sequence over MultiPoly coefficients
(polynomials in the remaining variables) to keep coefficient growth under
control; gcds, squarefree decomposition and factoring are univariate views
of `factoring`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Mapping, Sequence

from . import factoring
from .fields import (QQ, FieldElement, FieldError, NumberField,
                     _contracted, _convolve, _expanded, common_field, tower,
                     up_deg, up_prem, up_trim)


class PolyError(ValueError):
    pass


class MultiPoly:
    __slots__ = ("vars", "terms", "field")

    def __init__(self, varnames: Sequence[str], terms: Mapping, field=QQ):
        self.vars = tuple(varnames)
        self.field = field
        clean = {}
        n = len(self.vars)
        for expo, c in terms.items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != n:
                raise PolyError("exponent vector length mismatch")
            c = field.coerce(c)
            if c:
                clean[expo] = clean.get(expo, field.zero()) + c
                if not clean[expo]:
                    del clean[expo]
        self.terms = clean

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, varnames, field=QQ):
        return cls(varnames, {}, field)

    @classmethod
    def const(cls, varnames, c, field=QQ):
        return cls(varnames, {(0,) * len(varnames): c}, field)

    @classmethod
    def var(cls, varnames, name, field=QQ):
        if name not in varnames:
            raise PolyError(f"unknown variable {name}")
        e = [0] * len(varnames)
        e[list(varnames).index(name)] = 1
        return cls(varnames, {tuple(e): field.one()}, field)

    # -- basics ------------------------------------------------------------
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def _compat(self, other):
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise PolyError(
                    f"variable mismatch: {self.vars} vs {other.vars}")
            if other.field is self.field:
                return self, other
            field = common_field(self, other)
            return self.to_field(field), other.to_field(field)
        if isinstance(other, (int, Fraction, FieldElement)):
            field = common_field(self, other)
            return self.to_field(field), MultiPoly.const(
                self.vars, field.coerce(other), field)
        return None

    def to_field(self, field):
        if field is self.field:
            return self
        return MultiPoly(self.vars,
                         {e: field.coerce(c) for e, c in self.terms.items()},
                         field)

    def __add__(self, other):
        pair = self._compat(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        terms = dict(a.terms)
        zero = a.field.zero()
        for e, c in b.terms.items():
            s = terms.get(e, zero) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        out = MultiPoly.zero(a.vars, a.field)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiPoly.zero(self.vars, self.field)
        out.terms = {e: -c for e, c in self.terms.items()}
        return out

    def __sub__(self, other):
        pair = self._compat(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._compat(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        out = MultiPoly.zero(a.vars, a.field)
        out.terms = _multiply_accumulate(
            a.field, [(e, c, b.terms) for e, c in a.terms.items()])
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PolyError("negative power")
        if not n:
            return MultiPoly.const(self.vars, 1, self.field)
        # square and multiply, with no product by the constant 1
        result, base = None, self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __eq__(self, other):
        try:
            pair = self._compat(other)
        except (PolyError, FieldError):
            return False
        if pair is None:
            return NotImplemented
        return pair[0].terms == pair[1].terms

    def __hash__(self):
        if any(any(e) for e in self.terms):
            return hash((self.vars, frozenset(self.terms.items())))
        # a constant equals, so hashes as, its coefficient
        return hash(next(iter(self.terms.values()), 0))

    # -- structure ---------------------------------------------------------
    def degree(self) -> int:
        """Max total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(expo) for expo in self.terms)

    def is_homogeneous(self) -> bool:
        return len({sum(expo) for expo in self.terms}) <= 1

    def homogeneous_part(self, d: int) -> "MultiPoly":
        out = MultiPoly.zero(self.vars, self.field)
        out.terms = {e: c for e, c in self.terms.items() if sum(e) == d}
        return out

    def min_degree(self) -> int:
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self._vidx(name)
        return max(e[i] for e in self.terms)

    def _vidx(self, name):
        try:
            return self.vars.index(name)
        except ValueError:
            raise PolyError(f"unknown variable {name}") from None

    def coeff_of(self, name: str, k: int) -> "MultiPoly":
        """Coefficient of name^k, as a polynomial in the same variable list."""
        i = self._vidx(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == k:
                e2 = list(e)
                e2[i] = 0
                terms[tuple(e2)] = c
        out = MultiPoly.zero(self.vars, self.field)
        out.terms = terms
        return out

    def derivative(self, name: str) -> "MultiPoly":
        i = self._vidx(name)
        terms = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            terms[tuple(e2)] = c * e[i]
        out = MultiPoly.zero(self.vars, self.field)
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    def substitute(self, assignments: Mapping) -> "MultiPoly":
        """Substitute variables by polynomials or constants.

        Values may be MultiPoly (all sharing one variable list) or field
        elements / rationals; every key must be a variable of this
        polynomial.  Unassigned variables must appear in the target
        variable list.
        """
        stray = sorted(set(assignments) - set(self.vars))
        if stray:
            raise PolyError(f"substitution for {stray}, which are not "
                            f"variables of {self.vars}")
        polys = [v for v in assignments.values() if isinstance(v, MultiPoly)]
        target_vars = polys[0].vars if polys else self.vars
        if any(p.vars != target_vars for p in polys):
            raise PolyError("assignment polynomials must share "
                            "one variable list")
        field = common_field(self, *assignments.values())
        images = []
        for name in self.vars:
            if name in assignments:
                v = assignments[name]
                if isinstance(v, MultiPoly):
                    images.append(v.to_field(field))
                else:
                    images.append(MultiPoly.const(
                        target_vars, field.coerce(v), field))
            else:
                images.append(MultiPoly.var(target_vars, name, field))
        # powers[i][k - 1] is images[i]^k, each one product from the last.
        # A one-term power shifts and scales a term; the other powers are
        # multiplied together, and every term goes to one accumulator.
        powers = [[p] for p in images]
        origin, one = (0,) * len(target_vars), field.one()
        unit, products = {origin: one}, []
        for e, c in self.terms.items():
            c, shift, rest = field.coerce(c), origin, None
            for pw, k in zip(powers, e):
                if not k:
                    continue
                while len(pw) < k:
                    pw.append(pw[-1] * pw[0])
                p = pw[k - 1]
                if len(p.terms) > 1:
                    rest = p if rest is None else rest * p
                    continue
                if not p.terms:
                    break
                (f, a), = p.terms.items()
                shift = tuple(map(add, shift, f))
                if a != one:
                    c = c * a
            else:
                products.append((shift, c,
                                 unit if rest is None else rest.terms))
        out = MultiPoly.zero(target_vars, field)
        out.terms = _multiply_accumulate(field, products)
        return out

    def eval_point(self, point: Mapping):
        """Full evaluation at a point; returns a field element."""
        res = self.substitute(dict(point))
        if res.vars and any(any(e) for e in res.terms):
            raise PolyError("evaluation left free variables")
        if not res.terms:
            return res.field.zero()
        return next(iter(res.terms.values()))

    # -- univariate views --------------------------------------------------
    def as_univariate(self, name: str) -> list:
        """Coefficient list in `name`; entries are MultiPoly in the rest."""
        d = self.degree_in(name)
        return [self.coeff_of(name, k) for k in range(d + 1)] if d >= 0 else []

    def univariate_coeffs(self, name: str) -> list:
        """Coefficient list when the polynomial involves only `name`."""
        i = self._vidx(name)
        for e in self.terms:
            if any(x for j, x in enumerate(e) if j != i):
                raise PolyError("polynomial is not univariate in " + name)
        d = self.degree_in(name)
        out = [self.field.zero()] * (d + 1)
        for e, c in self.terms.items():
            out[e[i]] = c
        return out

    @classmethod
    def from_univariate(cls, coeffs, varnames, name, field=QQ):
        i = list(varnames).index(name)
        terms = {}
        for k, c in enumerate(coeffs):
            e = [0] * len(varnames)
            e[i] = k
            terms[tuple(e)] = c
        return cls(varnames, terms, field)

    # -- display -----------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda t: (-sum(t[0]), tuple(-x for x in t[0])))

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"{v}^{k}" if k > 1 else v
                for v, k in zip(self.vars, e) if k)
            cs = str(c) if isinstance(c, Fraction) else f"({c})"
            if mono:
                parts.append(f"{cs}*{mono}" if cs not in ("1",) else mono)
            else:
                parts.append(cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.to_text()})"


def _multiply_accumulate(field, products):
    """The terms of the sum of c * x^e * q over the (e, c, q) of
    `products`, each q a term dict over `field`.

    Every coefficient product is an integer product, summed unreduced per
    output monomial, and each sum is reduced once.  Over Q the numerators
    of the c share one denominator and those of the q another, and each
    monomial becomes one Fraction.  Over a number field the coefficients
    are vectors on the field's expanded index (`fields._expanded`), and
    each monomial's sum goes through one reduction table and one gcd
    (`fields._contracted`).  The result equals the sum of the products
    taken one at a time, since both are the same normalised element.
    """
    rights = list({id(q): q for _e, _c, q in products}.values())
    coeffs = [c for _e, c, _q in products]
    qcoeffs = [c for q in rights for c in q.values()]
    number_field = isinstance(field, NumberField)
    flatten = _expanded if number_field else _numerators
    (lefts, dl), (flat, dr) = flatten(field, coeffs), flatten(field, qcoeffs)
    flat = iter(flat)
    spread = {id(q): [(e, next(flat)) for e in q] for q in rights}
    acc = {}
    if not number_field:
        for (e1, _c, q), u in zip(products, lefts):
            for e2, v in spread[id(q)]:
                e = tuple(map(add, e1, e2))
                acc[e] = acc.get(e, 0) + u * v
        return {e: Fraction(s, dl * dr) for e, s in acc.items() if s}
    width = field._width
    for (e1, _c, q), u in zip(products, lefts):
        for e2, v in spread[id(q)]:
            e = tuple(map(add, e1, e2))
            prod = acc.get(e)
            if prod is None:
                prod = acc[e] = [0] * width
            _convolve(prod, u, v)
    terms = {e: _contracted(field, prod, dl * dr) for e, prod in acc.items()}
    return {e: c for e, c in terms.items() if c}


def _numerators(_field, xs):
    """The rationals `xs` as integers over one denominator, the lcm of
    theirs: (numerators, den), as `fields._expanded` gives vectors."""
    den = lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


# ---------------------------------------------------------------------------
# exact division (multivariate, graded-lex leading terms)
# ---------------------------------------------------------------------------

def _grlex_key(e):
    return (sum(e), e)


def leading_term(p: MultiPoly):
    e = max(p.terms, key=_grlex_key)
    return e, p.terms[e]


def exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """a / b when b divides a exactly; raises PolyError otherwise."""
    if not b:
        raise PolyError("division by zero polynomial")
    if not a:
        return MultiPoly.zero(a.vars, a.field)
    a, b = a._compat(b)
    quot = MultiPoly.zero(a.vars, a.field)
    rem = a
    eb, cb = leading_term(b)
    while rem:
        ea, ca = leading_term(rem)
        de = tuple(x - y for x, y in zip(ea, eb))
        if any(x < 0 for x in de):
            raise PolyError("division is not exact")
        t = MultiPoly(a.vars, {de: ca / cb}, a.field)
        quot = quot + t
        rem = rem - t * b
    return quot


# ---------------------------------------------------------------------------
# resultants via subresultant PRS
# ---------------------------------------------------------------------------

def resultant_univ(A, B):
    """Resultant of two coefficient lists over `MultiPoly` (subresultant
    PRS).

    The coefficients are MultiPoly over one variable list and field, and
    the resultant is one too.  Both inputs must be nonzero.
    """
    A, B = up_trim(A), up_trim(B)
    if not A or not B:
        raise PolyError("resultant of zero polynomial")
    dA, dB = up_deg(A), up_deg(B)
    s = 1
    if dA < dB:
        A, B, dA, dB = B, A, dB, dA
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
    if dB == 0:
        # Res(A, b) = b^deg(A)
        res = B[0] ** dA
        return res if s == 1 else -res
    g = h = A[-1] ** 0
    while True:
        dA, dB = up_deg(A), up_deg(B)
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = up_prem(A, B)
        if not R:
            return MultiPoly.zero(g.vars, g.field)
        denom = g * h ** delta if delta else g
        A, B = B, [exact_div(c, denom) for c in R]
        g = A[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = exact_div(g ** delta, h ** (delta - 1))
        if up_deg(B) <= 0:
            break
    # res = lc(B)^deg(A) / h^(deg(A)-1)
    dA = up_deg(A)
    res = exact_div(B[0] ** dA, h ** (dA - 1))
    return res if s == 1 else -res


def resultant(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Resultant with respect to `name`, eliminating it."""
    f, g = f._compat(g)
    df, dg = f.degree_in(name), g.degree_in(name)
    if df <= 0 or dg <= 0:
        raise PolyError(
            f"both inputs must have positive degree in {name} "
            f"(got {df} and {dg})")
    A = f.as_univariate(name)
    B = g.as_univariate(name)
    return resultant_univ(A, B)


# ---------------------------------------------------------------------------
# univariate squarefree decomposition and factoring (`factoring`)
# ---------------------------------------------------------------------------

def _univariate(coeffs, f, name):
    return MultiPoly.from_univariate(coeffs, f.vars, name, f.field)


def squarefree_decomposition(f: MultiPoly, name: str):
    """Yun's algorithm (`factoring.squarefree_decomposition`) on f,
    univariate in `name`: f = c * prod f_i^i, f_i squarefree, pairwise
    coprime; returns (c, [(f_i, i), ...]) with each f_i monic.
    """
    lc, parts = factoring.squarefree_decomposition(f.univariate_coeffs(name),
                                                   f.field)
    return lc, [(_univariate(g, f, name), i) for g, i in parts]


def squarefree_part(f: MultiPoly, name: str) -> MultiPoly:
    _, parts = squarefree_decomposition(f, name)
    out = MultiPoly.const(f.vars, 1, f.field)
    for p, _ in parts:
        out = out * p
    return out


def factor_bounded(f: MultiPoly, name: str):
    """Irreducible factors of f over its field, with multiplicities.

    Returns (content, factors, unresolved).  The factorization is exact
    (`factoring.irreducible_factors`): `factors` lists (MultiPoly, mult)
    for the monic irreducible factors, and `unresolved` the parts the
    factorizer left unsplit at its recombination budget.
    """
    coeffs = f.univariate_coeffs(name)
    irreducible, unsplit = factoring.irreducible_factors(coeffs, f.field)
    return (coeffs[-1],
            [(_univariate(q, f, name), m) for q, m in irreducible],
            [(_univariate(q, f, name), m) for q, m in unsplit])


def dehomogenize(f: MultiPoly, i: int) -> MultiPoly:
    """The chart x_i = 1 of f: f with its i-th variable set to 1, as a
    polynomial in the remaining variables."""
    keep = [k for k in range(len(f.vars)) if k != i]
    terms = {}
    for e, c in f.terms.items():
        key = tuple(e[k] for k in keep)
        terms[key] = terms[key] + c if key in terms else c
    return MultiPoly(tuple(f.vars[k] for k in keep), terms, f.field)


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

def parse_poly(text: str, varnames: Sequence[str], field=QQ) -> MultiPoly:
    """Parse a polynomial expression with +, -, *, /, ^, parentheses,
    integer literals, the listed variables, and the field's tower
    generator names.  A sign negates the power that follows it, so -x^2
    and 2*-x^2 are -(x^2) and 2*(-(x^2)); every product is written with
    "*"."""
    tokens = _tokenize(text)
    parser = _Parser(tokens, varnames, field)
    poly = parser.parse_expr()
    parser.expect_end()
    return poly


def _tokenize(text):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*/^()":
            tokens.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(text[i:j])
            i = j
        else:
            raise PolyError(f"unexpected character {ch!r}")
    return tokens


class _Parser:
    def __init__(self, tokens, varnames, field):
        self.toks = tokens
        self.pos = 0
        self.vars = tuple(varnames)
        self.field = field
        # on a repeated name the outermost level wins
        self.gens = {f.name: field.coerce(f.gen()) for f in tower(field)}

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.pos += 1
        return t

    def expect_end(self):
        if self.peek() is not None:
            raise PolyError(f"trailing input at token {self.peek()!r}")

    def parse_expr(self):
        acc = self.parse_term()
        while self.peek() in ("+", "-"):
            op = self.next()
            term = self.parse_term()
            acc = acc + term if op == "+" else acc - term
        return acc

    def parse_term(self):
        acc = self.parse_factor()
        while True:
            t = self.peek()
            if t == "*":
                self.next()
                acc = acc * self.parse_factor()
            elif t == "/":
                self.next()
                d = self.parse_factor()
                if d.vars and any(any(e) for e in d.terms):
                    raise PolyError("division only by constants")
                c = next(iter(d.terms.values())) if d.terms else None
                if not c:
                    raise PolyError("division by zero")
                acc = acc * MultiPoly.const(self.vars, 1 / c, acc.field)
            else:
                return acc

    def parse_factor(self):
        # a sign negates the power that follows it: -x^2 and 2*-x^2 both
        # read x^2 first
        t = self.peek()
        if t in ("+", "-"):
            self.next()
            f = self.parse_factor()
            return -f if t == "-" else f
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            if self.peek() == "-":
                raise PolyError("negative exponents not supported")
            e = self.next()
            if not e or not e.isdigit():
                raise PolyError("expected integer exponent")
            return base ** int(e)
        return base

    def parse_atom(self):
        t = self.next()
        if t is None:
            raise PolyError("unexpected end of input")
        if t == "(":
            inner = self.parse_expr()
            if self.next() != ")":
                raise PolyError("missing closing parenthesis")
            return inner
        if t.isdigit():
            return MultiPoly.const(self.vars, Fraction(int(t)), self.field)
        if t in self.vars:
            return MultiPoly.var(self.vars, t, self.field)
        if t in self.gens:
            return MultiPoly.const(self.vars, self.gens[t], self.field)
        raise PolyError(f"unknown symbol {t!r}")
