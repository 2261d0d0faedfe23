"""Exact arithmetic in finite fields GF(p^e).

Field elements are plain integers in [0, q): the element with coefficient
vector (c_0, ..., c_{e-1}) over GF(p), ascending powers of the generator, is
encoded as c_0 + c_1*p + ... + c_{e-1}*p^(e-1).  Encodings 0 and 1 are the
additive and multiplicative identities, 0..p-1 is the prime subfield, and
enumerating by encoding gives the canonical element order used wherever a
construction has to pick "the first" scalars deterministically.
"""

from __future__ import annotations

from .errors import BadModulusError, DivisionByZeroError, NotPrimeError

# Extension fields up to this order get log/antilog tables.
_LOG_TABLE_LIMIT = 1 << 16
# Supported sizes: p < 2^31 and q <= 2^31.
_ORDER_LIMIT = 1 << 31


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for the supported range."""
    if n < 2:
        return False
    for d in (2, 3):
        if n % d == 0:
            return n == d
    d = 5
    while d * d <= n:
        if n % d == 0 or n % (d + 2) == 0:
            return False
        d += 6
    return True


def prime_divisors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# Polynomial arithmetic over GF(p) on raw coefficient lists.  Just enough to
# select and validate extension moduli; the general machinery lives in polys.

def _pp_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _pp_mulmod(a, b, f, p):
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    prod[i + j] = (prod[i + j] + ai * bj) % p
    deg_f = len(f) - 1
    for i in range(len(prod) - 1, deg_f - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            off = i - deg_f
            for j in range(deg_f):
                if f[j]:
                    prod[off + j] = (prod[off + j] - c * f[j]) % p
    del prod[deg_f:]
    return _pp_trim(prod)


def _pp_powmod(a, n, f, p):
    result = [1]
    base = _pp_mulmod(a, [1], f, p)
    while n:
        if n & 1:
            result = _pp_mulmod(result, base, f, p)
        n >>= 1
        if n:
            base = _pp_mulmod(base, base, f, p)
    return result


def _pp_sub(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, v in enumerate(a):
        out[i] = v
    for i, v in enumerate(b):
        out[i] = (out[i] - v) % p
    return _pp_trim(out)


def _pp_gcd(a, b, p):
    a, b = _pp_trim(list(a)), _pp_trim(list(b))
    while b:
        inv_lead = pow(b[-1], -1, p)
        deg_b = len(b) - 1
        r = list(a)
        while r and len(r) - 1 >= deg_b:
            c = (r[-1] * inv_lead) % p
            off = len(r) - 1 - deg_b
            for j in range(deg_b + 1):
                r[off + j] = (r[off + j] - c * b[j]) % p
            _pp_trim(r)
        a, b = b, r
    return a


def _pp_is_irreducible(f, p):
    # Rabin's test for monic f of degree m >= 1 over GF(p).
    m = len(f) - 1
    if m == 1:
        return True
    x = [0, 1]
    powers = {}
    h = x
    for i in range(1, m + 1):
        h = _pp_powmod(h, p, f, p)
        powers[i] = h
    if powers[m] != x:
        return False
    for ell in prime_divisors(m):
        g = _pp_gcd(_pp_sub(powers[m // ell], x, p), f, p)
        if len(g) - 1 != 0:
            return False
    return True


def _least_irreducible(p, e):
    # Least monic irreducible of degree e, ordered by the encoding of the
    # non-leading coefficients as ascending base-p digits.
    for c in range(p**e):
        digits = []
        x = c
        for _ in range(e):
            digits.append(x % p)
            x //= p
        f = digits + [1]
        if _pp_is_irreducible(f, p):
            return tuple(f)
    raise BadModulusError(f"no irreducible polynomial of degree {e} over GF({p})")


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

    The arithmetic callables ``add``, ``sub``, ``neg``, ``mul``, ``inv`` and
    ``div`` are bound per instance.  Prime fields compute mod p.  Extension
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
        if not isinstance(p, int) or not is_prime(p):
            raise NotPrimeError(p)
        if not isinstance(e, int) or e < 1:
            raise ValueError(f"extension degree must be a positive integer, got {e!r}")
        if p >= _ORDER_LIMIT:
            raise ValueError(f"characteristic {p} exceeds the supported bound 2^31")
        q = p**e
        if q > _ORDER_LIMIT:
            raise ValueError(f"field order {q} exceeds the supported bound 2^31")
        self.p = p
        self.e = e
        self.q = q
        if e == 1:
            self.modulus = None  # prime field: any supplied modulus is ignored
        elif modulus is None:
            self.modulus = _least_irreducible(p, e)
        else:
            mod = tuple(modulus)
            if len(mod) != e + 1:
                raise BadModulusError(
                    f"modulus must have degree {e}: expected {e + 1} coefficients, got {len(mod)}"
                )
            if any(not isinstance(c, int) or not 0 <= c < p for c in mod):
                raise BadModulusError(f"modulus coefficients must be integers in [0, {p})")
            if mod[-1] != 1:
                raise BadModulusError("modulus must be monic")
            if not _pp_is_irreducible(list(mod), p):
                raise BadModulusError(f"modulus {list(mod)} is reducible over GF({p})")
            self.modulus = mod
        self._install_ops()

    # -- arithmetic -------------------------------------------------------

    def _install_ops(self):
        p, e, q = self.p, self.e, self.q
        self._log = None
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

            self.add, self.sub, self.neg = add, sub, neg
            self.mul, self.inv, self.div = mul, inv, div
            return

        add, sub, neg, mul = _vector_ops(p, e, self.modulus)
        self.mul = mul
        if q > _LOG_TABLE_LIMIT:
            def inv(a):
                if a == 0:
                    raise DivisionByZeroError("inverse of zero")
                return self.pow(a, q - 2)

            def div(a, b):
                return mul(a, inv(b))

            self.add, self.sub, self.neg = add, sub, neg
            self.inv, self.div = inv, div
            return

        # Log/antilog tables over the least primitive element g: log[g^i] = i,
        # and exp[i] = g^i for 0 <= i < 2(q - 1), so a sum of two logs needs
        # no reduction.  Encodings below p lie in the prime subfield, whose
        # orders divide p - 1 < q - 1, so the search starts at p.
        order = q - 1
        cofactors = [order // ell for ell in prime_divisors(order)]
        g = next(g for g in range(p, q) if all(self.pow(g, c) != 1 for c in cofactors))
        exp = [1] * (2 * order)
        for i in range(1, order):
            exp[i] = mul(exp[i - 1], g)
        exp[order:] = exp[:order]
        log = [0] * q
        for i in range(order):
            log[exp[i]] = i
        self._log = log

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

        self.add, self.sub, self.neg = add, sub, neg
        self.mul, self.inv, self.div = mul, inv, div

    def pow(self, a, n):
        """a raised to an integer power; negative exponents invert first."""
        if n < 0:
            a = self.inv(a)
            n = -n
        result = 1
        mul = self.mul
        while n:
            if n & 1:
                result = mul(result, a)
            a = mul(a, a)
            n >>= 1
        return result

    # -- encoding ---------------------------------------------------------

    def coeffs(self, x):
        """Ascending coefficient vector of an encoded element."""
        if not isinstance(x, int) or not 0 <= x < self.q:
            raise ValueError(f"{x!r} is not an element encoding of {self}")
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
        if any(not isinstance(c, int) or not 0 <= c < self.p for c in cs):
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
