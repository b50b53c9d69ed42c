"""Exact arithmetic over Q and over towers of number fields.

Supported domains: Q and short towers of number fields (at most three
extensions, e.g. Q -> Q[eta] -> Q[eta][zeta] -> one further bounded
extension), each level Q[a]/(p) given by a monic minimal polynomial.
All arithmetic is exact; no value is ever represented in floating point.

An element of a tower is flat: one tuple of ints `num` and one positive
denominator `den`, in the product power basis of the whole tower.  With
levels eta, zeta, w of degrees d1, d2, d3, the basis element
eta^i * zeta^j * w^k sits at index i + d1*(j + d2*k), so an element of a
lower level keeps its vector, padded with zeros.  Elements are normalised
(gcd(den, *num) = 1), so equality and hashing compare tuples.  A product
is an integer convolution on the expanded index (`_expanded`,
`_convolve`), then one pass of the field's reduction table, built when
the field is created, and one gcd (`_contracted`).  Polynomial products
in `multipoly` sum the convolutions of all term pairs that land on one
output monomial and contract each sum once, so reduction happens once
per output coefficient, not once per pair.  The tower stays as metadata
(`name`, `base`, `minpoly`, `degree`, `tower`, `common_field`), and
`coords` is a read-only view: the coordinates over the base field in the
power basis 1, a, a^2, ..., Fractions over Q and base-field elements
above, sliced from `num`.  Printing reads that view.  An automorphism
(`FieldAutomorphism`) is Q-linear on the flat basis, so it is one integer
matrix over one denominator, built once from the generator images, and
applying it is one matrix-vector product on `num`.

Gcds, roots and square roots come from `factoring` (`poly_gcd`, and the
exact factorizer: Zassenhaus over Q, Trager's norm method over towers).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import gcd, lcm
from operator import mul
from typing import Sequence


class FieldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# generic univariate polynomial helpers (coefficient lists, index = degree)
#
# Coefficients are either Fraction or FieldElement; both support +,-,*,/ and
# are falsy exactly when zero, so the same code serves every level of the
# tower; up_add, up_sub, up_mul and up_prem also serve integers and
# polynomials.  Gcds live in `factoring.poly_gcd`, which picks per field.
# ---------------------------------------------------------------------------

def up_trim(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def up_deg(p):
    return len(p) - 1


def up_add(p, q):
    return up_trim([a + b for a, b in zip_longest(p, q, fillvalue=0)])


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
    r, d = up_trim(p), len(q) - 1
    inv = Fraction(1) / q[-1]
    quot = [0 * q[-1]] * max(0, len(r) - d)
    while len(r) > d:
        k = len(r) - 1 - d
        c = quot[k] = r[-1] * inv
        # the leading term cancels exactly; only the lower ones change
        for i in range(d):
            r[k + i] = r[k + i] - c * q[i]
        r = up_trim(r[:-1])
    return up_trim(quot), r


def up_monic(p):
    p = up_trim(p)
    if not p:
        return p
    inv = Fraction(1) / p[-1]
    return [a * inv for a in p]


def up_prem(A, B):
    """Pseudo-remainder lc(B)^(deg A - deg B + 1) * A mod B, without
    division."""
    A, lb = up_trim(A), B[-1]
    k = len(A) - len(B) + 1
    while len(A) >= len(B):
        la, shift = A[-1], len(A) - len(B)
        A = [c * lb for c in A]
        for i, b in enumerate(B):
            A[shift + i] = A[shift + i] - la * b
        A = up_trim(A[:-1])
        k -= 1
    for _ in range(k):
        A = [c * lb for c in A]
    return A


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
    # the flat-basis tables of the empty tower, which NumberField extends
    _size = 1
    _width = 1
    _spread = (0,)
    _monomials = (((1,), 1),)

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
            c = _lowest(x)
            if isinstance(c, Fraction):
                return c
        raise FieldError(f"cannot coerce {x!r} into Q")

    def depth(self):
        return 0

    def __repr__(self):
        return "QQ"


QQ = RationalField()


class NumberField:
    """Q[a]/(p(a)) over a base field: Q or a tower of at most two
    extensions, so that towers reach at most three extensions over Q.

    One table, built here, reduces every product.  Two flat vectors
    (see FieldElement) multiply first in the expanded basis, where the
    exponent of each level runs up to 2*d - 2; `_spread` gives the expanded
    index of each flat index, and `_rows` maps each expanded monomial
    outside the basis to its reduced integer vector over the common
    denominator `_den`.
    """

    def __init__(self, varname: str, minpoly: Sequence, base=QQ):
        if base.depth() >= 3:
            raise FieldError("tower depth exceeded (at most 3 extensions "
                             "over Q)")
        if varname in (f.name for f in tower(base)):
            raise FieldError(f"generator name {varname!r} already in the "
                             "tower")
        mp = up_trim([base.coerce(c) for c in minpoly])
        if len(mp) < 2:
            raise FieldError("minimal polynomial must have degree >= 1")
        if mp[-1] != base.one():
            raise FieldError("minimal polynomial must be monic")
        self.name = varname
        self.base = base
        self.minpoly = mp
        self.degree = d = len(mp) - 1
        self._below = tuple(tower(base))
        self._size = base._size * d
        width = base._width
        self._width = width * (2 * d - 1)
        # a sum of two exponents of a level stays below 2*d - 1, so the
        # expanded indices of two basis elements add without carry
        self._spread = tuple(s + width * k for k in range(d)
                             for s in base._spread)
        # every expanded monomial (base monomial times a^k, k <= 2d - 2),
        # with a^k over the base from a^d = -(mp[0] + ... + mp[d-1] a^(d-1))
        power = [base.one()] + [base.zero()] * (d - 1)
        below = [_raw(base, n, q) if isinstance(base, NumberField)
                 else Fraction(n[0], q) for n, q in base._monomials]
        monomials = []
        for _k in range(2 * d - 1):
            monomials += [self.element([m * c for c in power]) for m in below]
            top = power[-1]
            power = [(power[i - 1] if i else base.zero()) - top * mp[i]
                     for i in range(d)]
        # kept as (num, den): elements of this field held here would make
        # reference cycles, which only the cyclic collector frees
        self._monomials = [(m.num, m.den) for m in monomials]
        basis = set(self._spread)
        over = [(e, m) for e, m in enumerate(monomials) if e not in basis]
        self._den = lcm(*(m.den for _e, m in over))
        self._rows = [(e, tuple((i, c * (self._den // m.den))
                                for i, c in enumerate(m.num) if c))
                      for e, m in over]

    def depth(self):
        return len(self._below) + 1

    def zero(self):
        return _raw(self, (0,) * self._size, 1)

    def one(self):
        return _raw(self, (1,) + (0,) * (self._size - 1), 1)

    def gen(self):
        if self.degree == 1:
            # degree-1 "extension": generator is the root itself
            return self.coerce(-self.minpoly[0])
        n = self.base._size
        return _raw(self, (0,) * n + (1,) + (0,) * (self._size - n - 1), 1)

    def element(self, coords):
        """The element with these coordinates over the base field."""
        coords = [self.base.coerce(c) for c in coords]
        if len(coords) != self.degree:
            raise FieldError(
                f"expected {self.degree} coordinates, got {len(coords)}")
        parts = [(c.num, c.den) if isinstance(c, FieldElement)
                 else ((c.numerator,), c.denominator) for c in coords]
        den = lcm(*(q for _n, q in parts))
        return FieldElement(self, [a * (den // q) for n, q in parts
                                   for a in n], den)

    def coerce(self, x):
        """x as an element of this field: its own elements, rationals, and
        elements of any field whose value lies in a level of this tower
        (lower levels embed by zero padding, deeper ones drop their zero
        trailing blocks)."""
        if isinstance(x, FieldElement):
            if x.field is self:
                return x
            if x.field not in self._below:
                # deeper or unrelated: its value may still lie in this tower
                x = _lowest(x)
        if isinstance(x, FieldElement):
            if x.field is self or x.field in self._below:
                return _raw(self, x.num + (0,) * (self._size - len(x.num)),
                            x.den)
        elif isinstance(x, (int, Fraction)):
            return _raw(self, (x.numerator,) + (0,) * (self._size - 1),
                        x.denominator)
        raise FieldError(f"cannot coerce {x!r} into {self.name}")

    def __repr__(self):
        return f"NumberField({self.name}, deg {self.degree} over {self.base!r})"


class FieldElement:
    """Element of a NumberField: one integer vector `num` over one
    denominator `den`, in the power basis of the whole tower.

    With levels a1, ..., aL of degrees d1, ..., dL (a1 over Q), the basis
    element a1^i1 * ... * aL^iL sits at index i1 + d1*(i2 + d2*(i3 + ...)),
    so an element of a lower level has the same vector padded with zeros.
    Every element is normalised: den > 0 and gcd(den, *num) = 1, so equal
    values of one field have equal (num, den).  `coords` is the power-basis
    view over the base field, sliced from `num`.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num, den=1):
        if den != 1:
            g = gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = [c // g for c in num]
                den //= g
        self.field = field
        self.num = tuple(num)
        self.den = den

    @property
    def coords(self):
        """The coordinates over the base field: Fractions over Q, else
        elements of the base."""
        base, num, den = self.field.base, self.num, self.den
        if isinstance(base, RationalField):
            return tuple([Fraction(c, den) for c in num])
        n = base._size
        return tuple([FieldElement(base, num[i:i + n], den)
                      for i in range(0, len(num), n)])

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

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return _combine(x, y, 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.field, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return _combine(x, y, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field,
                                [c * other.numerator for c in self.num],
                                self.den * other.denominator)
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        f = x.field
        (vx,), dx = _expanded(f, (x,))
        (vy,), dy = _expanded(f, (y,))
        prod = [0] * f._width
        _convolve(prod, vx, vy)
        return _contracted(f, prod, dx * dy)

    __rmul__ = __mul__

    def inverse(self):
        """A value of a lower level is inverted there.  Over Q the
        multiplication matrix is solved over Z (`_inverse_over_q`); over a
        number field, extended Euclid on (minpoly, coords) keeps only the
        cofactor of the element: t*x = r (mod minpoly) throughout."""
        if not self:
            raise ZeroDivisionError("field element is zero")
        f = self.field
        low = _lowest(self)
        if low is not self:
            return f.coerce(1 / low)
        if isinstance(f.base, RationalField):
            return _inverse_over_q(self)
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
        return f.element(coords + [f.base.zero()] * (f.degree - len(coords)))

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
        return any(self.num)

    def __eq__(self, other):
        if isinstance(other, FieldElement) and other.field is self.field:
            return self.num == other.num and self.den == other.den
        try:
            pair = self._pair(other)
        except FieldError:
            # unrelated towers: the values can meet only where each is
            # taken down its tower
            x, y = _lowest(self), _lowest(other)
            return (x is not self or y is not other) and x == y
        if pair is None:
            return NotImplemented
        x, y = pair
        return x.num == y.num and x.den == y.den

    def __hash__(self):
        # equal values of different tower levels hash alike
        x = _lowest(self)
        if isinstance(x, FieldElement):
            return hash((id(x.field), x.num, x.den))
        return hash(x)

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


def _raw(field, num, den):
    """The FieldElement of a tuple `num` and `den` already normalised."""
    x = object.__new__(FieldElement)
    x.field, x.num, x.den = field, num, den
    return x


def _expanded(f, xs):
    """The elements `xs` of field f as integer vectors on the expanded
    index, over one denominator: (vectors, den) with den the lcm of their
    denominators.  A vector is the pair (indices, values) of its nonzero
    entries; two vectors convolve (`_convolve`) without carry."""
    den = lcm(*[x.den for x in xs])
    spread, out = f._spread, []
    for x in xs:
        s = den // x.den
        out.append(([a for a, u in zip(spread, x.num) if u],
                    [u * s for u in x.num if u]))
    return out, den


def _convolve(prod, x, y):
    """Add the product of the expanded vectors x and y into `prod`, a list
    of the field's `_width` integers: the sum of any number of products
    stays exact and unreduced until `_contracted`."""
    ia, ua = x
    ib, ub = y
    for a, u in zip(ia, ua):
        for b, v in zip(ib, ub):
            prod[a + b] += u * v


def _contracted(f, prod, den):
    """The normalised element of field f whose expanded vector is `prod`
    over `den`: one reduction table and one gcd."""
    out, scale = _reduced(f, prod)
    return FieldElement(f, out, den * scale)


def _reduced(f, prod):
    """The flat vector of the expanded vector `prod` of field f, times the
    factor it carries: f._den when a table row was used, else 1."""
    over = [(prod[e], row) for e, row in f._rows if prod[e]]
    scale = f._den if over else 1
    out = [prod[a] * scale for a in f._spread]
    for c, row in over:
        for i, r in row:
            out[i] += c * r
    return out, scale


def _inverse_over_q(x):
    """x^-1 for x in a field over Q, without fractions.

    x.num times a flat vector v is (M v) / f._den for the integer
    multiplication matrix M of x.num, so x^-1 is x.den * v for the v with
    M v = f._den * e_0.  Bareiss's fraction-free elimination leaves the
    determinant as the last pivot, and back substitution gives the integer
    vector det * v (Cramer's rule), every division exact."""
    f = x.field
    n, den = f._size, f._den
    cols = []
    for s in f._spread:
        prod = [0] * f._width
        for a, u in zip(f._spread, x.num):
            prod[a + s] = u
        out, scale = _reduced(f, prod)
        cols.append([c * (den // scale) for c in out])
    rows = [[col[i] for col in cols] + [den * (i == 0)] for i in range(n)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k]), None)
        if p is None:
            raise FieldError("minimal polynomial not irreducible: "
                             "zero divisor encountered")
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        for row in rows[k + 1:]:
            c = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (pivot[k] * row[j] - c * pivot[j]) // prev
        prev = pivot[k]
    y = [0] * n
    for i in reversed(range(n)):
        row = rows[i]
        y[i] = (prev * row[n] - sum(row[j] * y[j]
                                    for j in range(i + 1, n))) // row[i]
    return FieldElement(f, [c * x.den for c in y], prev)


def _combine(x, y, sign):
    """x + sign*y for elements of one field, over the lcm of their
    denominators."""
    p, q = x.den, y.den
    if p == q:
        return FieldElement(x.field, [a + sign * b
                                      for a, b in zip(x.num, y.num)], p)
    g = gcd(p, q)
    s, t = q // g, sign * (p // g)
    return FieldElement(x.field, [a * s + b * t
                                  for a, b in zip(x.num, y.num)], p * s)


def _lowest(x):
    """x as an element of the lowest level of its tower that holds it: a
    Fraction when it is rational."""
    if not isinstance(x, FieldElement):
        return x
    num = x.num
    n = len(num)
    while n > 1 and not num[n - 1]:
        n -= 1
    if n == 1:
        return Fraction(num[0], x.den)
    level = next(f for f in tower(x.field) if f._size >= n)
    return x if level is x.field else _raw(level, num[:level._size], x.den)


def tower(field):
    """The extension levels of `field`, the one over Q first (none for Q)."""
    if isinstance(field, RationalField):
        return []
    return [*field._below, field]


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


def fresh_name(field, counter):
    """The next generator name w<n> not taken in the tower of `field`;
    `counter` is a one-element list holding the last n, advanced in place."""
    taken = {f.name for f in tower(field)}
    counter[0] += 1
    while f"w{counter[0]}" in taken:
        counter[0] += 1
    return f"w{counter[0]}"


# Extension policy: the largest degree of an irreducible factor whose root
# is adjoined over a tower of depth 0, 1, 2 and 3 (the deepest one allowed).
_ADJOIN_MAX_DEGREE = (4, 2, 2, 1)


def adjoin_root(part, field, counter):
    """A root of the monic irreducible `part` over `field`, as (root, ext):
    ext is `field` when `part` is linear, else a new level over `field`
    named by `fresh_name` with `counter`, and generated by the root.
    Raises FieldError with the reason when the extension policy refuses."""
    d, depth = up_deg(part), field.depth()
    if d > _ADJOIN_MAX_DEGREE[depth]:
        raise FieldError(f"extension policy: no root of degree {d} is "
                         f"adjoined over a tower of depth {depth}")
    if d == 1:
        return -part[0], field
    ext = NumberField(fresh_name(field, counter), part, field)
    return ext.gen(), ext


# ---------------------------------------------------------------------------
# field construction / automorphisms
# ---------------------------------------------------------------------------

class FieldAutomorphism:
    """Automorphism of a tower field, given by images of tower generators.

    `gen_images[i]` is the image of the generator of the i-th tower level
    (innermost = level 0 over Q).  Construction checks that each image
    satisfies the corresponding minimal polynomial with its coefficients
    mapped through the images of the lower levels, so that the map is a
    homomorphism.

    The map is Q-linear on the flat basis (see FieldElement), so it is
    one integer matrix `_rows` over one denominator `_den`: column j is
    the image of basis element j, a1^i1 * ... * aL^iL, the product of
    powers of the generator images.  The columns are built level by
    level, and each level's minimal polynomial is mapped through the
    columns of the levels below.
    """

    def __init__(self, field: NumberField, gen_images: Sequence[FieldElement]):
        levels = tower(field)
        if len(gen_images) != len(levels):
            raise FieldError("need one generator image per tower level")
        self.field = field
        # the images of the flat basis of the levels done so far
        images = [field.one()]
        for lvl, img in zip(levels, gen_images):
            img = field.coerce(img)
            self._set_columns(images)
            if up_eval([self(c) for c in lvl.minpoly], img):
                raise FieldError(
                    f"image of {lvl.name} does not satisfy its minimal polynomial")
            images = [b * img ** k for k in range(lvl.degree)
                      for b in images]
        self._set_columns(images)

    def _set_columns(self, images):
        """Make `images` the columns of the matrix: the images of the first
        len(images) basis elements, which span the levels done so far."""
        self._den = den = lcm(*[b.den for b in images])
        cols = [[c * (den // b.den) for c in b.num] for b in images]
        self._rows = [tuple(row) for row in zip(*cols)]

    def __call__(self, x) -> FieldElement:
        x = self.field.coerce(x)
        num = x.num
        return FieldElement(self.field,
                            [sum(map(mul, row, num)) for row in self._rows],
                            self._den * x.den)


# ---------------------------------------------------------------------------
# structured-document loading
# ---------------------------------------------------------------------------

def field_from_doc(doc) -> NumberField:
    """Build a tower field from {"vars": [...], "minpolys": [...]}.

    Each minimal polynomial is given as text in one variable, the one
    identifier that names no generator of the levels below, whose names
    may appear in its coefficients, e.g.
    {"vars": ["eta", "zeta"],
     "minpolys": ["t^4-2*t^3+t^2-2*t-2", "z^2+z+1"]} or
    {"vars": ["a", "b"], "minpolys": ["t^2-2", "s^2-a"]}.
    """
    from .multipoly import _tokenize, parse_poly
    names = list(doc["vars"])
    texts = list(doc["minpolys"])
    if len(names) != len(texts):
        raise FieldError("vars and minpolys must have equal length")
    field = QQ
    for name, text in zip(names, texts):
        gens = {f.name for f in tower(field)}
        found = sorted({t for t in _tokenize(text)
                        if t.isidentifier() and t not in gens})
        if len(found) != 1:
            raise FieldError(
                f"expected exactly one variable in {text!r}, found {found}")
        p = parse_poly(text, tuple(found), field)
        field = NumberField(name, p.univariate_coeffs(found[0]), field)
    return field


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
    """Number of distinct real roots of a nonzero rational polynomial.

    The chain f, f', -rem, ... needs no squarefree step: it ends in
    g = gcd(f, f'), every member is g times a member of the Sturm chain of
    f/g, and g has one sign at each of -oo and +oo, so the sign
    variations there, and hence the count, are those of f/g.
    """
    f = up_trim([Fraction(c) if isinstance(c, int) else c for c in f])
    if not f:
        raise FieldError("zero polynomial")
    if len(f) == 1:
        return 0
    chain = [f, up_derivative(f)]
    while up_deg(chain[-1]) > 0:
        rem = up_divmod(chain[-2], chain[-1])[1]
        if not rem:
            break
        chain.append(up_neg(rem))

    def variations(at_plus_infinity):
        # sign of p at +oo is that of lc(p); at -oo it flips with odd degree
        signs = [(p[-1] > 0) == (at_plus_infinity or len(p) % 2 == 1)
                 for p in chain]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return variations(False) - variations(True)


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
    return [-q[0] for q, _mult in factors if len(q) == 2]
