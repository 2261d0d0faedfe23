"""Univariate polynomials over GF(q): arithmetic, gcd, and factorization.

Factorization runs squarefree decomposition, then distinct-degree splitting,
then equal-degree splitting (randomized for odd q, trace-map based in
characteristic 2).  Each factor call draws its splitting polynomials from
a fresh fixed-seed stream, and the monic factors are returned sorted by
(degree, encoding), so the result is unique and every run is identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import (
    BothZeroError,
    ConstantPolynomialError,
    FieldMismatchError,
    NotMonicError,
    ZeroPolynomialError,
)
from .fields import FiniteField


class Poly:
    """A polynomial stored as an ascending coefficient tuple, no trailing zeros."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FiniteField, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        q = field.q
        for c in cs:
            if type(c) is not int or not 0 <= c < q:
                raise ValueError(f"coefficient {c!r} is not an element encoding of {field}")
        self.field = field
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def t(cls, field):
        """The generator t of the polynomial ring."""
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _same_field(self, other):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        add = f.add
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
        return Poly(f, out)

    def __neg__(self):
        neg = self.field.neg
        return Poly(self.field, [neg(c) for c in self.coeffs])

    def __sub__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * max(0, len(b) - len(a))
        sub = f.sub
        for i, c in enumerate(b):
            out[i] = sub(out[i], c)
        return Poly(f, out)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_field(other)
        f = self.field
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(f)
        out = [0] * (len(a) + len(b) - 1)
        add, mul = f.add, f.mul
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add(out[i + j], mul(x, y))
        return Poly(f, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial powers are not defined")
        result = Poly.one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scale(self, c: int):
        """Multiply every coefficient by the field element c."""
        mul = self.field.mul
        return Poly(self.field, [mul(c, x) for x in self.coeffs])

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        self._same_field(other)
        if other.is_zero:
            raise ZeroPolynomialError("division by the zero polynomial")
        f = self.field
        db = other.degree
        if self.degree < db:
            return Poly.zero(f), self
        a = list(self.coeffs)
        bq = other.coeffs
        inv_lead = f.inv(bq[-1])
        sub, mul = f.sub, f.mul
        qcoeffs = [0] * (self.degree - db + 1)
        for i in range(self.degree - db, -1, -1):
            top = a[i + db]
            if top:
                c = mul(top, inv_lead)
                qcoeffs[i] = c
                for j in range(db + 1):
                    if bq[j]:
                        a[i + j] = sub(a[i + j], mul(c, bq[j]))
        return Poly(f, qcoeffs), Poly(f, a[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    # -- assorted -------------------------------------------------------------

    def monic(self):
        """Scale to leading coefficient 1; monic(0) is 0."""
        if self.is_zero or self.is_monic:
            return self
        return self.scale(self.field.inv(self.leading))

    def evaluate(self, x: int) -> int:
        """Horner evaluation at a field element."""
        f = self.field
        acc = 0
        add, mul = f.add, f.mul
        for c in reversed(self.coeffs):
            acc = add(mul(acc, x), c)
        return acc

    def derivative(self):
        f = self.field
        mul, from_int = f.mul, f.from_int
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(mul(from_int(i), self.coeffs[i]))
        return Poly(f, out)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "0"
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "t" if i == 1 else f"t^{i}"
                terms.append(base if c == 1 else f"{c}*{base}")
        return " + ".join(terms)


def encoding(f: Poly) -> int:
    """Canonical integer key: coefficients read as ascending base-q digits."""
    v = 0
    for c in reversed(f.coeffs):
        v = v * f.field.q + c
    return v


def gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    f._same_field(g)
    if f.is_zero and g.is_zero:
        raise BothZeroError("gcd(0, 0) is undefined")
    a, b = f, g
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _powmod(base: Poly, n: int, mod: Poly) -> Poly:
    result = Poly.one(base.field)
    base = base % mod
    while n:
        if n & 1:
            result = (result * base) % mod
        n >>= 1
        if n:
            base = (base * base) % mod
    return result


def _pth_root_poly(f: Poly) -> Poly:
    # Zero derivative in characteristic p means only powers of t^p occur.
    field = f.field
    p = field.p
    out = []
    for i in range(0, f.degree + 1, p):
        out.append(field.pth_root(f.coeffs[i]))
    return Poly(field, out)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic squarefree pairwise-coprime parts with multiplicities.

    f equals its leading coefficient times the product of part**mult.  When
    the running derivative vanishes the remainder is a perfect p-th power and
    is handled by taking coefficient-wise p-th roots.
    """
    if f.is_zero:
        raise ZeroPolynomialError("cannot decompose the zero polynomial")
    p = f.field.p
    work = f.monic()
    out: list[tuple[Poly, int]] = []
    if work.degree == 0:
        return out
    deriv = work.derivative()
    if deriv.is_zero:
        base = _pth_root_poly(work)
        return [(g, m * p) for g, m in squarefree_decomposition(base)]
    c = gcd(work, deriv)
    w = work // c
    i = 1
    while w.degree > 0:
        y = gcd(w, c)
        z = w // y
        if z.degree > 0:
            out.append((z, i))
        w = y
        c = c // y
        i += 1
    if c.degree > 0:
        base = _pth_root_poly(c)
        out.extend((g, m * p) for g, m in squarefree_decomposition(base))
    return out


def _distinct_degree(f: Poly) -> list[tuple[Poly, int]]:
    # f monic squarefree; returns (product of all irreducible factors of
    # degree d, d) pairs in increasing d.  On a squareful f the first pair
    # still holds a factor of the least degree, which is_irreducible needs.
    field = f.field
    q = field.q
    x = Poly.t(field)
    out = []
    rem = f
    h = x % rem
    d = 0
    while rem.degree >= 2 * (d + 1):
        d += 1
        h = _powmod(h, q, rem)
        g = gcd(h - x, rem)
        if g.degree > 0:
            out.append((g, d))
            rem = rem // g
            h = h % rem
    if rem.degree > 0:
        out.append((rem, rem.degree))
    return out


def _equal_degree(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    # f monic squarefree, every irreducible factor of degree d.
    if f.degree == d:
        return [f]
    field = f.field
    q = field.q
    exp = (q**d - 1) // 2 if q % 2 else None
    one = Poly.one(field)
    out = []
    stack = [f]
    while stack:
        h = stack.pop()
        if h.degree == d:
            out.append(h)
            continue
        split = None
        while split is None:
            a = Poly(field, [rng.randrange(q) for _ in range(h.degree)])
            if a.degree < 1:
                continue
            g = gcd(a, h)
            if 0 < g.degree < h.degree:
                split = g
                break
            if exp is not None:
                b = _powmod(a, exp, h)
                g = gcd(b - one, h)
            else:
                # Characteristic 2: the absolute trace splits the roots.
                tr = a
                cur = a
                for _ in range(field.e * d - 1):
                    cur = (cur * cur) % h
                    tr = tr + cur
                g = gcd(tr, h)
            if 0 < g.degree < h.degree:
                split = g
        stack.append(split)
        stack.append(h // split)
    return out


@dataclass(frozen=True)
class Factorization:
    """unit * product of factor**multiplicity, factors monic irreducible and
    sorted by (degree, canonical coefficient encoding)."""

    field: FiniteField
    unit: int
    factors: tuple[tuple[Poly, int], ...]

    def expand(self) -> Poly:
        out = Poly.constant(self.field, self.unit)
        for g, m in self.factors:
            out = out * g**m
        return out


def factor(f: Poly) -> Factorization:
    """Complete factorization into monic irreducibles with multiplicities."""
    if f.is_zero:
        raise ZeroPolynomialError("cannot factor the zero polynomial")
    if f.degree == 0:
        raise ConstantPolynomialError("cannot factor a constant")
    rng = random.Random(0)
    found = []
    for part, mult in squarefree_decomposition(f):
        for prod, d in _distinct_degree(part):
            for irr in _equal_degree(prod, d, rng):
                found.append((irr, mult))
    found.sort(key=lambda im: (im[0].degree, encoding(im[0])))
    return Factorization(f.field, f.leading, tuple(found))


def is_irreducible(f: Poly) -> bool:
    """Deterministic irreducibility test for a monic polynomial.

    f is irreducible exactly when it has no irreducible factor of degree
    at most deg(f)/2.  Distinct-degree factorization searches exactly those
    degrees and returns f whole when it finds none; a squareful f still
    shows the factor, so no squarefree input is needed.
    """
    if f.degree < 1:
        raise ConstantPolynomialError("irreducibility needs degree >= 1")
    if not f.is_monic:
        raise NotMonicError("irreducibility test expects a monic polynomial")
    return _distinct_degree(f) == [(f, f.degree)]
