"""Exact arithmetic in finite fields GF(p^e).

Field elements are plain integers in [0, q): the element with coefficient
vector (c_0, ..., c_{e-1}) over GF(p), ascending powers of the generator, is
encoded as c_0 + c_1*p + ... + c_{e-1}*p^(e-1).  Encodings 0 and 1 are the
additive and multiplicative identities, 0..p-1 is the prime subfield, and
enumerating by encoding gives the canonical element order used wherever a
construction has to pick "the first" scalars deterministically.

An extension field is defined modulo a monic irreducible of degree e over
GF(p); ``polys.is_irreducible`` both validates a supplied modulus and picks
the default one.  ``FiniteField.of_order`` turns a prime power q into GF(q).
Orders above 2^31 are rejected before any trial division.
"""

from __future__ import annotations

from functools import cache

from .errors import BadModulusError, DivisionByZeroError, FieldSizeError, NotPrimeError

# Extension fields up to this order get log/antilog tables.
_LOG_TABLE_LIMIT = 1 << 16
# Supported sizes: p < 2^31 and q <= 2^31.
_ORDER_LIMIT = 1 << 31


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending; empty for n < 2."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


@cache
def _prime_power(n):
    """(p, e) with n = p^e for a prime p, or None; n is divided once per
    process, so a field is rebuilt without any trial division."""
    primes = prime_divisors(n)
    if len(primes) != 1:
        return None
    p = primes[0]
    e = 1
    while p**e < n:
        e += 1
    return p, e


def is_prime(n: int) -> bool:
    """Primality by trial division, adequate for the supported range; each n
    is divided once per process."""
    return _prime_power(n) == (n, 1)


def _power(x, n, mul, one):
    """x**n for n >= 0 under mul by square-and-multiply, skipping the last square."""
    result = one
    while n:
        if n & 1:
            result = mul(result, x)
        n >>= 1
        if n:
            x = mul(x, x)
    return result


def _checked_modulus(p, e, modulus):
    """The supplied modulus as a tuple, if it is monic of degree e with
    integer coefficients in [0, p); irreducibility is proved later."""
    mod = tuple(modulus)
    if len(mod) != e + 1:
        raise BadModulusError(
            f"modulus must have degree {e}: expected {e + 1} coefficients, got {len(mod)}"
        )
    if any(type(c) is not int or not 0 <= c < p for c in mod):
        raise BadModulusError(f"modulus coefficients must be integers in [0, {p})")
    if mod[-1] != 1:
        raise BadModulusError("modulus must be monic")
    return mod


def _vector_ops(p, e, modulus):
    """(add, sub, neg, mul) of GF(p^e) computed on coefficient vectors."""
    if p == 2:
        mod_mask = 0
        for i, c in enumerate(modulus):
            if c:
                mod_mask |= 1 << i
        top = 1 << e

        def add(a, b):
            return a ^ b

        def neg(a):
            return a

        def mul(a, b):
            r = 0
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if a & top:
                    a ^= mod_mask
            return r

        return add, add, neg, mul

    def digits(x):
        out = []
        for _ in range(e):
            out.append(x % p)
            x //= p
        return out

    def enc(ds):
        v = 0
        for d in reversed(ds):
            v = v * p + d
        return v

    def add(a, b):
        return enc([(x + y) % p for x, y in zip(digits(a), digits(b))])

    def sub(a, b):
        return enc([(x - y) % p for x, y in zip(digits(a), digits(b))])

    def neg(a):
        return enc([(-x) % p for x in digits(a)])

    def mul(a, b):
        if a == 0 or b == 0:
            return 0
        da, db = digits(a), digits(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            if x:
                for j, y in enumerate(db):
                    if y:
                        prod[i + j] = (prod[i + j] + x * y) % p
        for i in range(2 * e - 2, e - 1, -1):
            c = prod[i]
            if c:
                prod[i] = 0
                off = i - e
                for j in range(e):
                    if modulus[j]:
                        prod[off + j] = (prod[off + j] - c * modulus[j]) % p
        return enc(prod[:e])

    return add, sub, neg, mul


@cache
def _arithmetic(p, e, modulus):
    """(modulus, add, sub, neg, mul, inv, div, log table or None) of GF(p^e),
    built once per field and process.

    A prime field takes modulus None.  An extension field takes a tuple from
    ``_checked_modulus``, whose irreducibility is proved here, or None for
    the default: the least monic irreducible of degree e, ordered by the
    encoding of its non-leading coefficients as ascending base-p digits.
    """
    if e == 1:
        def add(a, b):
            return (a + b) % p

        def sub(a, b):
            return (a - b) % p

        def neg(a):
            return (-a) % p

        def mul(a, b):
            return (a * b) % p

        def inv(a):
            if a % p == 0:
                raise DivisionByZeroError("inverse of zero")
            return pow(a, -1, p)

        def div(a, b):
            return mul(a, inv(b))

        return None, add, sub, neg, mul, inv, div, None

    if modulus is None:
        # Each candidate is proved once, and the default shares the entry of
        # its modulus written out; a failure is never cached.
        for c in range(p**e):
            try:
                return _arithmetic(p, e, tuple(c // p**i % p for i in range(e)) + (1,))
            except BadModulusError:
                pass
    # polys imports this module, so it can only be imported at call time
    from .polys import Poly, is_irreducible

    if not is_irreducible(Poly(FiniteField(p), modulus)):
        raise BadModulusError(f"modulus {list(modulus)} is reducible over GF({p})")
    q = p**e
    add, sub, neg, mul = _vector_ops(p, e, modulus)
    if q > _LOG_TABLE_LIMIT:
        def inv(a):
            if a == 0:
                raise DivisionByZeroError("inverse of zero")
            return _power(a, q - 2, mul, 1)

        def div(a, b):
            return mul(a, inv(b))

        return modulus, add, sub, neg, mul, inv, div, None

    # Log/antilog tables over the least primitive element g: log[g^i] = i,
    # and exp[i] = g^i for 0 <= i < 2(q - 1), so a sum of two logs needs
    # no reduction.  Encodings below p lie in the prime subfield, whose
    # orders divide p - 1 < q - 1, so the search starts at p.
    order = q - 1
    cofactors = [order // ell for ell in prime_divisors(order)]
    g = next(g for g in range(p, q) if all(_power(g, c, mul, 1) != 1 for c in cofactors))
    exp = [1] * (2 * order)
    for i in range(1, order):
        exp[i] = mul(exp[i - 1], g)
    exp[order:] = exp[:order]
    log = [0] * q
    for i in range(order):
        log[exp[i]] = i

    def mul(a, b):
        if a and b:
            return exp[log[a] + log[b]]
        return 0

    def inv(a):
        if a == 0:
            raise DivisionByZeroError("inverse of zero")
        return exp[order - log[a]]

    def div(a, b):
        if b == 0:
            raise DivisionByZeroError("inverse of zero")
        if a:
            return exp[log[a] - log[b] + order]
        return 0

    if p != 2:
        # Zech logarithms: g^zech[k] = 1 + g^k, or -1 where 1 + g^k = 0;
        # the table repeats with period q - 1, so log differences index
        # it directly.  -1 is g^((q - 1) / 2).
        half = order // 2
        zech = [0] * (2 * order)
        for k in range(order):
            x = exp[k]
            zech[k] = -1 if k == half else log[x + 1 if x % p != p - 1 else x + 1 - p]
        zech[order:] = zech[:order]

        def add(a, b):
            if a and b:
                la = log[a]
                z = zech[log[b] - la]
                return exp[la + z] if z >= 0 else 0
            return a or b

        def neg(a):
            if a:
                return exp[log[a] + half]
            return 0

        def sub(a, b):
            return add(a, exp[log[b] + half] if b else 0)

    return modulus, add, sub, neg, mul, inv, div, log


class FiniteField:
    """The finite field GF(p^e) operating on integer-encoded elements.

    Parameters
    ----------
    p : int
        Prime characteristic.
    e : int
        Extension degree; 1 gives the prime field.
    modulus : sequence of int, optional
        Ascending coefficients (length e+1, canonical in [0, p), monic) of an
        irreducible degree-e polynomial over GF(p).  Ignored when e == 1 and
        chosen automatically (least by encoding) when omitted.

    ``FiniteField.of_order(q)`` builds the same field from its order q.

    The arithmetic callables ``add``, ``sub``, ``neg``, ``mul``, ``inv`` and
    ``div`` are instance attributes, built once per process and shared by
    every instance of the same field, whether its modulus is the default or
    written out.  Prime fields compute mod p.  Extension
    fields with q <= 2^16 read log/antilog tables over their least primitive
    element (Huber, IEEE Trans. IT 36(4), 1990): mul, inv and div add or
    subtract logarithms, and add is XOR in characteristic 2 and a Zech
    logarithm lookup otherwise.  Larger fields compute on coefficient
    vectors, the arithmetic that also builds the tables.  Element encodings
    are not range-checked by the arithmetic itself; the containers
    (polynomials, matrices) validate at construction time.
    """

    __slots__ = ("p", "e", "q", "modulus", "add", "sub", "neg", "mul", "inv",
                 "div", "_log")

    def __init__(self, p, e=1, modulus=None):
        if not isinstance(p, int) or p < 2:
            raise NotPrimeError(p)
        if not isinstance(e, int) or isinstance(e, bool) or e < 1:
            raise FieldSizeError(f"extension degree must be a positive integer, got {e!r}")
        # Before is_prime, whose trial division would run for hours on a huge
        # p; as p >= 2, e > 31 alone puts q above the bound.
        if p >= _ORDER_LIMIT or e > 31 or p**e > _ORDER_LIMIT:
            raise FieldSizeError(f"field order {p}^{e} exceeds the supported bound 2^31")
        if not is_prime(p):
            raise NotPrimeError(p)
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            modulus = None  # a prime field ignores any supplied modulus
        elif modulus is not None:
            modulus = _checked_modulus(p, e, modulus)
        (self.modulus, self.add, self.sub, self.neg, self.mul, self.inv, self.div,
         self._log) = _arithmetic(p, e, modulus)

    @classmethod
    def of_order(cls, q):
        """GF(q) with the default modulus, for a prime power q."""
        if not isinstance(q, int) or isinstance(q, bool):
            raise NotPrimeError(q)
        if q > _ORDER_LIMIT:
            raise FieldSizeError(f"field order {q} exceeds the supported bound 2^31")
        power = _prime_power(q)
        if power is None:
            raise NotPrimeError(q)
        return cls(*power)

    # -- arithmetic -------------------------------------------------------

    def pow(self, a, n):
        """a raised to an integer power; negative exponents invert first."""
        if n < 0:
            a = self.inv(a)
            n = -n
        return _power(a, n, self.mul, 1)

    # -- encoding ---------------------------------------------------------

    def _element(self, x):
        """x itself if it encodes an element (an int, not a bool, in 0..q-1)."""
        if type(x) is not int or not 0 <= x < self.q:
            raise ValueError(f"{x!r} is not an element encoding of {self}")
        return x

    def coeffs(self, x):
        """Ascending coefficient vector of an encoded element."""
        x = self._element(x)
        out = []
        for _ in range(self.e):
            out.append(x % self.p)
            x //= self.p
        return tuple(out)

    def from_coeffs(self, cs):
        """Encode a coefficient vector (length e, entries in [0, p))."""
        cs = tuple(cs)
        if len(cs) != self.e:
            raise ValueError(f"expected {self.e} coefficients, got {len(cs)}")
        if any(type(c) is not int or not 0 <= c < self.p for c in cs):
            raise ValueError(f"coefficients must be integers in [0, {self.p})")
        v = 0
        for c in reversed(cs):
            v = v * self.p + c
        return v

    def from_int(self, n):
        """Image of an integer under Z -> GF(q); lands in the prime subfield."""
        return n % self.p

    def pth_root(self, x):
        """The unique p-th root of x (inverse of the Frobenius map)."""
        return self.pow(x, self.q // self.p)

    def elements(self):
        """All q elements, ascending by canonical encoding (0 first, then 1)."""
        return range(self.q)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FiniteField):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        if self.e == 1:
            return f"FiniteField({self.p})"
        return f"FiniteField({self.p}, {self.e})"

    def __str__(self):
        return f"GF({self.q})"
