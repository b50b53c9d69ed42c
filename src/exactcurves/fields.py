"""Exact arithmetic over Q and over towers of number fields.

Supported domains: Q and short towers of number fields (at most three
extensions, e.g. Q -> Q[eta] -> Q[eta][zeta] -> one further bounded
extension), each level Q[a]/(p) given by a monic minimal
polynomial.  Elements are coordinate vectors in the
power basis 1, a, a^2, ...  All arithmetic is exact; no value is ever
represented in floating point.  Roots and square roots come from the
exact factorizer in `factoring` (Zassenhaus over Q, Trager's norm method
over towers).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence


class FieldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# generic univariate polynomial helpers (coefficient lists, index = degree)
#
# Coefficients are either Fraction or FieldElement; both support +,-,*,/ and
# are falsy exactly when zero, so the same code serves every level of the
# tower.
# ---------------------------------------------------------------------------

def up_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def up_deg(p):
    return len(p) - 1


def up_add(p, q):
    n = max(len(p), len(q))
    out = []
    for i in range(n):
        a = p[i] if i < len(p) else 0
        b = q[i] if i < len(q) else 0
        out.append(a + b)
    return up_trim(out)


def up_neg(p):
    return [-a for a in p]


def up_sub(p, q):
    return up_add(p, up_neg(q))


def up_mul(p, q, zero=Fraction(0)):
    if not p or not q:
        return []
    out = [zero] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = out[i + j] + a * b
    return up_trim(out)


def up_scale(p, c):
    return up_trim([a * c for a in p])


def up_divmod(p, q):
    """Euclidean division over a field; q must be nonzero."""
    q = up_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(p)
    d = len(q) - 1
    lead = q[-1]
    inv = Fraction(1) / lead
    quot = [0 * lead] * max(0, len(r) - d)
    while len(up_trim(r)) - 1 >= d and up_trim(r):
        r = up_trim(r)
        k = len(r) - 1 - d
        c = r[-1] * inv
        quot[k] = c
        for i in range(len(q)):
            r[k + i] = r[k + i] - c * q[i]
        r = r[:-1]
    return up_trim(quot), up_trim(r)


def up_monic(p):
    p = up_trim(p)
    if not p:
        return p
    inv = Fraction(1) / p[-1]
    return [a * inv for a in p]


def up_gcd(p, q):
    p, q = up_trim(p), up_trim(q)
    while q:
        p, q = q, up_divmod(p, q)[1]
    return up_monic(p)


def up_eval(p, x):
    acc = 0 * x if not isinstance(x, (int, Fraction)) else Fraction(0)
    for c in reversed(list(p)):
        acc = acc * x + c
    return acc


def up_derivative(p):
    return up_trim([p[i] * i for i in range(1, len(p))])


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class RationalField:
    """The field Q; elements are Fraction."""

    degree = 1
    base = None
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, FieldElement):
            # constant elements drop down
            c = x.as_base_constant()
            if c is not None:
                return self.coerce(c)
        raise FieldError(f"cannot coerce {x!r} into Q")

    def depth(self):
        return 0

    def total_degree(self):
        return 1

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class NumberField:
    """Q[a]/(p(a)) over a base field: Q or a tower of at most two
    extensions, so that towers reach at most three extensions over Q."""

    def __init__(self, varname: str, minpoly: Sequence, base=QQ):
        base_depth = base.depth()
        if base_depth >= 3:
            raise FieldError("tower depth exceeded (at most 3 extensions "
                             "over Q)")
        mp = up_trim([base.coerce(c) for c in minpoly])
        if len(mp) < 2:
            raise FieldError("minimal polynomial must have degree >= 1")
        if mp[-1] != base.one():
            raise FieldError("minimal polynomial must be monic")
        self.name = varname
        self.base = base
        self.minpoly = mp
        self.degree = len(mp) - 1
        # reduction table: a^d, ..., a^(2d-2) as coordinate vectors
        d = self.degree
        self._red = []
        cur = [-c for c in mp[:-1]]  # a^d
        for _ in range(d - 1):
            self._red.append(list(cur))
            shifted = [base.zero()] + cur
            top = shifted[d] if len(shifted) > d else base.zero()
            cur = [shifted[i] + top * (-mp[i]) for i in range(d)]

    def depth(self):
        return self.base.depth() + 1

    def total_degree(self):
        return self.degree * self.base.total_degree()

    def zero(self):
        return FieldElement(self, [self.base.zero()] * self.degree)

    def one(self):
        coords = [self.base.zero()] * self.degree
        coords[0] = self.base.one()
        return FieldElement(self, coords)

    def gen(self):
        if self.degree == 1:
            # degree-1 "extension": generator is the root itself
            return FieldElement(self, [-self.minpoly[0]])
        coords = [self.base.zero()] * self.degree
        coords[1] = self.base.one()
        return FieldElement(self, coords)

    def element(self, coords):
        coords = list(coords)
        if len(coords) != self.degree:
            raise FieldError(
                f"expected {self.degree} coordinates, got {len(coords)}")
        return FieldElement(self, [self.base.coerce(c) for c in coords])

    def coerce(self, x):
        """x itself when it lies in this field, else x embedded from the
        base field (so elements of every lower level of the tower, and
        rational constants of any field, come in)."""
        if isinstance(x, FieldElement) and x.field is self:
            return x
        coords = [self.base.coerce(x)] + [self.base.zero()] * (self.degree - 1)
        return FieldElement(self, coords)

    def __repr__(self):
        return f"NumberField({self.name}, deg {self.degree} over {self.base!r})"


class FieldElement:
    """Element of a NumberField as a power-basis coordinate vector."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        self.field = field
        self.coords = tuple(coords)

    # -- helpers -----------------------------------------------------------
    def _pair(self, other):
        """(self, other) in one field, the deeper of the two; None when
        `other` is no field value."""
        if isinstance(other, FieldElement):
            if other.field is self.field:
                return self, other
            field = common_field(self.field, other.field)
            return field.coerce(self), field.coerce(other)
        if isinstance(other, (int, Fraction)):
            return self, self.field.coerce(other)
        return None

    def as_base_constant(self):
        if all(not c for c in self.coords[1:]):
            return self.coords[0]
        return None

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return FieldElement(x.field,
                            [a + b for a, b in zip(x.coords, y.coords)])

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, [-a for a in self.coords])

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return FieldElement(x.field,
                            [a - b for a, b in zip(x.coords, y.coords)])

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        f = x.field
        d = f.degree
        zero = f.base.zero()
        prod = [zero] * (2 * d - 1)
        for i, a in enumerate(x.coords):
            if not a:
                continue
            for j, b in enumerate(y.coords):
                if b:
                    prod[i + j] = prod[i + j] + a * b
        out = list(prod[:d])
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if not c:
                continue
            red = f._red[k - d]
            for i in range(d):
                out[i] = out[i] + c * red[i]
        return FieldElement(f, out)

    __rmul__ = __mul__

    def inverse(self):
        """Extended Euclid on (minpoly, coords), keeping only the cofactor
        of the element: t*x = r (mod minpoly) throughout."""
        if not self:
            raise ZeroDivisionError("field element is zero")
        f = self.field
        r0, r1 = f.minpoly, up_trim(self.coords)
        t0, t1 = [], [f.base.one()]
        while up_deg(r1) > 0:
            quo, rem = up_divmod(r0, r1)
            r0, r1 = r1, rem
            t0, t1 = t1, up_sub(t0, up_mul(quo, t1))
        if not r1:
            raise FieldError("minimal polynomial not irreducible: "
                             "zero divisor encountered")
        coords = up_scale(t1, 1 / r1[0])
        coords += [f.base.zero()] * (f.degree - len(coords))
        return FieldElement(f, coords)

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return x * y.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparisons -------------------------------------------------------
    def __bool__(self):
        return any(bool(c) for c in self.coords)

    def __eq__(self, other):
        try:
            pair = self._pair(other)
        except FieldError:
            return False  # elements of unrelated towers
        if pair is None:
            return NotImplemented
        x, y = pair
        return x.coords == y.coords

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def __repr__(self):
        f = self.field
        terms = []
        for i, c in enumerate(self.coords):
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"({c})*{f.name}")
            else:
                terms.append(f"({c})*{f.name}^{i}")
        return " + ".join(terms) if terms else "0"


def tower(field):
    """The extension levels of `field`, the one over Q first (none for Q)."""
    levels = []
    while isinstance(field, NumberField):
        levels.append(field)
        field = field.base
    return levels[::-1]


def common_field(*items):
    """The one field all `items` meet in: the deepest among them.

    Items are fields, values carrying a `.field` (field elements,
    polynomials), ints and Fractions; the last two lie in Q.  Raises
    FieldError when an item lies outside the tower of that field.
    """
    fields = [x if isinstance(x, (RationalField, NumberField))
              else QQ if isinstance(x, (int, Fraction)) else x.field
              for x in items]
    top = max(fields, key=lambda f: f.depth(), default=QQ)
    levels = tower(top)
    for f in fields:
        if isinstance(f, NumberField) and f not in levels:
            raise FieldError(f"incompatible fields {f!r} and {top!r}")
    return top


# ---------------------------------------------------------------------------
# field construction / automorphisms
# ---------------------------------------------------------------------------

def field_create(minpoly: Sequence, base=QQ, varname: str = "a") -> NumberField:
    """Create Q[varname]/(minpoly) over `base` (Q or a tower of at most two
    extensions)."""
    return NumberField(varname, minpoly, base)


class FieldAutomorphism:
    """Automorphism of a tower field, given by images of tower generators.

    `gen_images[i]` is the image of the generator of the i-th tower level
    (innermost = level 0 over Q).  Construction checks that each image
    satisfies the corresponding minimal polynomial.
    """

    def __init__(self, field: NumberField, gen_images: Sequence[FieldElement]):
        levels = tower(field)
        if len(gen_images) != len(levels):
            raise FieldError("need one generator image per tower level")
        self.field = field
        self.gen_images = [field.coerce(g) for g in gen_images]
        self.levels = levels
        for lvl, img in zip(levels, self.gen_images):
            mp = [field.coerce(c) for c in lvl.minpoly]
            if up_eval(mp, img):
                raise FieldError(
                    f"image of {lvl.name} does not satisfy its minimal polynomial")

    def __call__(self, x) -> FieldElement:
        return self.apply(x)

    def apply(self, x) -> FieldElement:
        x = self.field.coerce(x)
        return self._apply_level(x, len(self.levels) - 1)

    def _apply_level(self, x, level):
        if not isinstance(x, FieldElement):
            return self.field.coerce(x)
        img = self.gen_images[level]
        acc = self.field.zero()
        for c in reversed(x.coords):
            acc = acc * img + self._apply_level(c, level - 1)
        return acc

    def order(self, cap: int = 24) -> int:
        """Multiplicative order of the automorphism on generators."""
        gens = [self.field.coerce(lvl.gen()) for lvl in self.levels]
        cur = list(gens)
        for n in range(1, cap + 1):
            cur = [self.apply(g) for g in cur]
            if cur == gens:
                return n
        raise FieldError(f"order exceeds cap {cap}")


# ---------------------------------------------------------------------------
# structured-document loading / element serialization
# ---------------------------------------------------------------------------

def field_from_doc(doc) -> NumberField:
    """Build a tower field from {"vars": [...], "minpolys": [...]}.

    Each minimal polynomial is given as text in a single variable, e.g.
    {"vars": ["eta", "zeta"],
     "minpolys": ["t^4-2*t^3+t^2-2*t-2", "z^2+z+1"]}.
    """
    from .multipoly import parse_poly
    names = list(doc["vars"])
    texts = list(doc["minpolys"])
    if len(names) != len(texts):
        raise FieldError("vars and minpolys must have equal length")
    field = QQ
    for name, text in zip(names, texts):
        var = _poly_text_variable(text)
        p = parse_poly(text, (var,), field)
        field = NumberField(name, p.univariate_coeffs(var), field)
    return field


def _poly_text_variable(text: str) -> str:
    names = set()
    cur = ""
    for ch in text + " ":
        if ch.isalpha() or ch == "_" or (cur and ch.isdigit()):
            cur += ch
        else:
            if cur and not cur.isdigit():
                names.add(cur)
            cur = ""
    if len(names) != 1:
        raise FieldError(
            f"expected exactly one variable in {text!r}, found {sorted(names)}")
    return names.pop()


def element_to_doc(x):
    """Coordinate-vector serialization: nested lists of rational strings."""
    if isinstance(x, (int, Fraction)):
        return str(Fraction(x))
    return [element_to_doc(c) for c in x.coords]


def element_from_doc(field, data):
    if isinstance(data, str):
        return Fraction(data)
    if not isinstance(field, NumberField):
        raise FieldError("coordinate nesting deeper than the field tower")
    return field.element([element_from_doc(field.base, c) for c in data])


# ---------------------------------------------------------------------------
# Sturm real-root counting (over Q)
# ---------------------------------------------------------------------------

def sturm_real_roots(f: Sequence[Fraction]) -> int:
    """Number of distinct real roots of a nonzero rational polynomial."""
    f = up_trim([Fraction(c) if isinstance(c, int) else c for c in f])
    if not f:
        raise FieldError("zero polynomial")
    if len(f) == 1:
        return 0
    # squarefree part
    g = up_gcd(f, up_derivative(f))
    if up_deg(g) > 0:
        f = up_divmod(f, g)[0]
    chain = [f, up_derivative(f)]
    while up_deg(chain[-1]) > 0:
        rem = up_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(up_neg(rem))
    if not chain[-1]:
        chain.pop()

    def sign_at_inf(p, positive):
        lc = p[-1]
        if positive:
            return 1 if lc > 0 else -1
        return (1 if lc > 0 else -1) * (1 if (len(p) - 1) % 2 == 0 else -1)

    def variations(signs):
        signs = [s for s in signs if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a * b < 0)

    vneg = variations([sign_at_inf(p, False) for p in chain])
    vpos = variations([sign_at_inf(p, True) for p in chain])
    return vneg - vpos


# ---------------------------------------------------------------------------
# exact roots, through the factorizer in `factoring`
# ---------------------------------------------------------------------------

def rational_roots(f) -> list[Fraction]:
    """All rational roots, in increasing order."""
    return sorted(roots_in_field(f, QQ))


def _fraction_sqrt(x: Fraction):
    if x < 0:
        return None
    from math import isqrt
    n, d = x.numerator, x.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def sqrt_in_field(e):
    """A square root of e in its own field, or None if there is none.

    Over Q this is the nonnegative root; over a tower, a root of t^2 - e.
    """
    if isinstance(e, (int, Fraction)):
        return _fraction_sqrt(Fraction(e))
    roots = roots_in_field([-e, e.field.zero(), e.field.one()], e.field)
    return roots[0] if roots else None


def roots_in_field(poly, field):
    """Roots in `field` of a univariate polynomial over `field`.

    The roots are the degree-1 factors of the exact factorization
    (`factoring.irreducible_factors`).  A factorization left unresolved
    raises FieldError instead of reporting roots as absent.
    """
    poly = up_trim([field.coerce(c) for c in poly])
    if not poly:
        raise FieldError("zero polynomial")
    if len(poly) <= 2:
        return [-poly[0] / poly[1]] if len(poly) == 2 else []
    from .factoring import irreducible_factors
    factors, unresolved = irreducible_factors(poly, field)
    if unresolved:
        raise FieldError("factorization left unresolved at the "
                         "recombination budget")
    return [-q[0] for q in factors if len(q) == 2]
