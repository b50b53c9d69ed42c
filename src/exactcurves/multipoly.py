"""Sparse multivariate polynomials over Q or a number-field tower.

Terms are stored as a dict from exponent tuples to nonzero coefficients.
Coefficients are Fraction (over Q) or FieldElement.  Resultants use the
subresultant polynomial-remainder sequence to keep coefficient growth under
control; gcds and squarefree decomposition work on a univariate view.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .fields import (QQ, FieldElement, FieldError, common_field,
                     element_from_doc, element_to_doc, tower, up_deg, up_trim)


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
            if not isinstance(c, FieldElement):
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
        terms = {}
        zero = a.field.zero()
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                s = terms.get(e, zero) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        out = MultiPoly.zero(a.vars, a.field)
        out.terms = terms
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise PolyError("negative power")
        result = MultiPoly.const(self.vars, 1, self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        try:
            pair = self._compat(other)
        except (PolyError, FieldError):
            return False
        if pair is None:
            return NotImplemented
        return pair[0].terms == pair[1].terms

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    # -- structure ---------------------------------------------------------
    def degree(self, weights: Optional[Sequence[int]] = None) -> int:
        """Max (weighted) total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if weights is None:
            weights = (1,) * len(self.vars)
        return max(sum(w * e for w, e in zip(weights, expo))
                   for expo in self.terms)

    def is_homogeneous(self, weights: Optional[Sequence[int]] = None) -> bool:
        if not self.terms:
            return True
        if weights is None:
            weights = (1,) * len(self.vars)
        degs = {sum(w * e for w, e in zip(weights, expo))
                for expo in self.terms}
        return len(degs) == 1

    def homogeneous_part(self, d: int, weights=None) -> "MultiPoly":
        if weights is None:
            weights = (1,) * len(self.vars)
        terms = {e: c for e, c in self.terms.items()
                 if sum(w * x for w, x in zip(weights, e)) == d}
        out = MultiPoly.zero(self.vars, self.field)
        out.terms = terms
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
        elements / rationals.  Unassigned variables must appear in the target
        variable list.
        """
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
        out = MultiPoly.zero(target_vars, field)
        # Horner-free: power cache per variable
        pow_cache = [dict() for _ in self.vars]

        def power(i, k):
            if k == 0:
                return MultiPoly.const(target_vars, 1, field)
            if k in pow_cache[i]:
                return pow_cache[i][k]
            p = images[i] ** k
            pow_cache[i][k] = p
            return p

        for e, c in self.terms.items():
            term = MultiPoly.const(target_vars, field.coerce(c), field)
            for i, k in enumerate(e):
                if k:
                    term = term * power(i, k)
            out = out + term
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

def _prem(A, B):
    """Pseudo-remainder: lc(B)^(degA-degB+1) * A mod B (no fractions)."""
    A = list(A)
    dA, dB = up_deg(A), up_deg(B)
    lb = B[-1]
    k = dA - dB + 1
    while up_deg(up_trim(A)) >= dB and up_trim(A):
        A = up_trim(A)
        dA = up_deg(A)
        la = A[-1]
        A = [c * lb for c in A]
        shift = dA - dB
        for i in range(len(B)):
            A[shift + i] = A[shift + i] - la * B[i]
        A = A[:-1]
        k -= 1
    A = up_trim(A)
    # normalize remaining power of lb
    for _ in range(max(0, k)):
        A = [c * lb for c in A]
    return up_trim(A)


def _ring_exact_div_coeff(a, b):
    """Exact division of ring coefficients (MultiPoly or field element)."""
    if isinstance(a, MultiPoly):
        return exact_div(a, b)
    return a / b


def resultant_univ(A, B):
    """Resultant of two coefficient lists over a ring (subresultant PRS).

    Coefficient entries must support +, -, *, exact division and truthiness.
    Both inputs must be nonzero.
    """
    A, B = up_trim(A), up_trim(B)
    if not A or not B:
        raise PolyError("resultant of zero polynomial")
    dA, dB = up_deg(A), up_deg(B)
    if dA == 0 and dB == 0:
        return _ring_one_like(A[0])
    s = 1
    if dA < dB:
        A, B = B, A
        dA, dB = dB, dA
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
    if dB == 0:
        # Res(A, b) = b^deg(A)
        out = _ring_one_like(B[0])
        for _ in range(dA):
            out = out * B[0]
        return out if s == 1 else -out
    g = _ring_one_like(A[-1])
    h = _ring_one_like(A[-1])
    one = g
    while True:
        dA, dB = up_deg(A), up_deg(B)
        delta = dA - dB
        if dA % 2 == 1 and dB % 2 == 1:
            s = -s
        R = _prem(A, B)
        if not R:
            return _zero_like(A[-1])
        denom = g
        for _ in range(delta):
            denom = denom * h
        A, B = B, [_ring_exact_div_coeff(c, denom) for c in R]
        g = A[-1]
        if delta == 0:
            # h unchanged
            pass
        elif delta == 1:
            h = g
        else:
            # h = g^delta / h^(delta-1)
            num = one
            for _ in range(delta):
                num = num * g
            den = one
            for _ in range(delta - 1):
                den = den * h
            h = _ring_exact_div_coeff(num, den)
        if up_deg(B) <= 0:
            break
    dA = up_deg(A)
    lB = B[0]
    # res = lc(B)^deg(A) / h^(deg(A)-1)
    num = one
    for _ in range(dA):
        num = num * lB
    den = one
    for _ in range(dA - 1):
        den = den * h
    res = _ring_exact_div_coeff(num, den)
    return res if s == 1 else -res


def _ring_one_like(c):
    if isinstance(c, MultiPoly):
        return MultiPoly.const(c.vars, 1, c.field)
    if isinstance(c, FieldElement):
        return c.field.one()
    return Fraction(1)


def _zero_like(c):
    if isinstance(c, MultiPoly):
        return MultiPoly.zero(c.vars, c.field)
    if isinstance(c, FieldElement):
        return c.field.zero()
    return Fraction(0)


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


def sylvester_resultant(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Independent oracle: resultant as a Sylvester determinant (Bareiss)."""
    f, g = f._compat(g)
    A = f.as_univariate(name)
    B = g.as_univariate(name)
    m, n = len(A) - 1, len(B) - 1
    if m <= 0 or n <= 0:
        raise PolyError("positive degrees required")
    size = m + n
    zero = MultiPoly.zero(f.vars, f.field)
    M = [[zero] * size for _ in range(size)]
    for i in range(n):
        for j, c in enumerate(reversed(A)):
            M[i][i + j] = c
    for i in range(m):
        for j, c in enumerate(reversed(B)):
            M[n + i][i + j] = c
    return _bareiss_det(M)


def _bareiss_det(M):
    n = len(M)
    M = [row[:] for row in M]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not M[k][k]:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return _zero_like(M[0][0])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                val = M[i][j] * M[k][k] - M[i][k] * M[k][j]
                if prev is not None:
                    val = _ring_exact_div_coeff(val, prev)
                M[i][j] = val
        prev = M[k][k]
    det = M[n - 1][n - 1]
    return det if sign == 1 else -det


# ---------------------------------------------------------------------------
# univariate gcd / squarefree over a field
# ---------------------------------------------------------------------------

def poly_gcd_univ(f: MultiPoly, g: MultiPoly, name: str) -> MultiPoly:
    """Monic gcd of two polynomials univariate in `name`."""
    from . import fields as fl
    a = f.univariate_coeffs(name)
    b = g.univariate_coeffs(name) if g is not None else []
    gc = fl.up_gcd(a, b)
    return MultiPoly.from_univariate(gc, f.vars, name, f.field)


def squarefree_decomposition(f: MultiPoly, name: str):
    """Yun's algorithm: f = c * prod f_i^i, f_i squarefree, pairwise coprime.

    Returns (content, [(f_i, i), ...]) with each f_i monic in `name`.
    """
    from . import fields as fl
    coeffs = f.univariate_coeffs(name)
    coeffs = fl.up_trim(coeffs)
    if not coeffs:
        raise PolyError("zero polynomial")
    lc = coeffs[-1]
    monic = [c / lc for c in coeffs]
    d = fl.up_derivative(monic)
    a = fl.up_gcd(monic, d)
    if fl.up_deg(a) == 0:
        if fl.up_deg(monic) > 0:
            return lc, [(MultiPoly.from_univariate(
                monic, f.vars, name, f.field), 1)]
        return lc, []
    out = []
    b = fl.up_divmod(monic, a)[0]
    c = fl.up_divmod(d, a)[0]
    i = 1
    while fl.up_deg(b) > 0:
        dmb = fl.up_sub(c, fl.up_derivative(b))
        g = fl.up_gcd(b, dmb)
        if fl.up_deg(g) > 0:
            out.append((MultiPoly.from_univariate(
                g, f.vars, name, f.field), i))
        b = fl.up_divmod(b, g)[0]
        c = fl.up_divmod(dmb, g)[0]
        i += 1
    return lc, out


def squarefree_part(f: MultiPoly, name: str) -> MultiPoly:
    _, parts = squarefree_decomposition(f, name)
    out = MultiPoly.const(f.vars, 1, f.field)
    for p, _ in parts:
        out = out * p
    return out


# ---------------------------------------------------------------------------
# bounded-degree factor search over Q (univariate)
# ---------------------------------------------------------------------------

def factor_bounded(f: MultiPoly, name: str, cap: int = 2):
    """Irreducible factors of f over its field, with multiplicities.

    Returns (content, factors, unresolved).  The factorization is exact
    (`factoring.irreducible_factors`); `cap` only sorts its output:
    `factors` lists (MultiPoly, mult) for the monic irreducible factors of
    degree <= cap, and `unresolved` those of higher degree together with
    any part the factorizer left unsplit at its recombination budget.
    """
    from .factoring import irreducible_factors
    content, parts = squarefree_decomposition(f, name)
    factors, unresolved = [], []

    def poly(q):
        return MultiPoly.from_univariate(q, f.vars, name, f.field)
    for p, mult in parts:
        irreducible, unsplit = irreducible_factors(
            p.univariate_coeffs(name), f.field)
        for q in irreducible:
            (factors if up_deg(q) <= cap else unresolved).append(
                (poly(q), mult))
        unresolved += [(poly(q), mult) for q in unsplit]
    return content, factors, unresolved


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
    """Parse a polynomial expression with +, -, *, ^, parentheses, rational
    literals, the listed variables, and the field's tower generator names."""
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
        if ch in "+-*^()":
            tokens.append(ch)
            i += 1
        elif ch == "/":
            tokens.append("/")
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
        sign = 1
        t = self.peek()
        if t in ("+", "-"):
            self.next()
            sign = -1 if t == "-" else 1
        acc = self.parse_term()
        if sign < 0:
            acc = -acc
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
                inv = (1 / c) if isinstance(c, FieldElement) \
                    else Fraction(1) / c
                acc = acc * MultiPoly.const(self.vars, inv, acc.field)
            elif t is not None and (t[0].isalnum() or t in ("(",)):
                # implicit multiplication like 2x or x y
                acc = acc * self.parse_factor()
            else:
                return acc

    def parse_factor(self):
        base = self.parse_atom()
        if self.peek() == "^":
            self.next()
            sign = 1
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
        if t == "-":
            return -self.parse_atom()
        if t.isdigit():
            return MultiPoly.const(self.vars, Fraction(int(t)), self.field)
        if t in self.vars:
            return MultiPoly.var(self.vars, t, self.field)
        if t in self.gens:
            return MultiPoly.const(self.vars, self.gens[t], self.field)
        raise PolyError(f"unknown symbol {t!r}")


def poly_to_sparse(p: MultiPoly):
    """Canonical sparse serialization: sorted [[exponents], [coordinates]]."""
    return [[list(e), element_to_doc(c)] for e, c in p.sorted_terms()]


def poly_from_sparse(data, varnames, field=QQ) -> MultiPoly:
    return MultiPoly(varnames, {tuple(expo): element_from_doc(field, coords)
                                for expo, coords in data}, field)
