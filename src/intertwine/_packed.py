"""Gauss-Jordan elimination, Hessenberg reduction, matrix and polynomial
products, polynomial division, row updates and codeword rows, byte-packed
over small fields.

A row of m entries is one Python int made from m bytes, one byte per entry,
most significant first, so the entry in column c is
``(row >> 8 * (m - 1 - c)) & 255``.  A multiple of a row is the row's bytes
mapped through a 256-byte table with ``bytes.translate``.

* Characteristic 2 with q <= 256: adding two rows is one int XOR.
* Prime fields with p < 128: two rows add as ints without any carry between
  bytes, because a byte sum is at most 2(p - 1) <= 252; one ``translate``
  by the table of x mod p then reduces every byte.

Other fields do not qualify and keep the list loops in ``Matrix.rref``,
``Matrix.__mul__``, ``matrices._hessenberg``, ``Poly.__mul__`` and
``Poly.__divmod__``.  This is the
word-packed elimination of M4RI (Albrecht, Bard, Hart, ACM TOMS 2010) with
bytes for words.  A product sums up to 255 // (p - 1) prime-field rows
before it reduces, since no byte can pass 255 before then.

``_poly`` keeps a polynomial as one int of deg + 1 bytes, coefficient i in
byte i (little-endian), so a shift by 8 * i multiplies by t^i; products
and remainders are sums of shifted row multiples as above (schoolbook
multiplication and division, von zur Gathen and Gerhard, Modern Computer
Algebra, sections 2.3 and 2.4).

``_hessenberg`` reduces a square matrix to upper Hessenberg form by
similarity on one flat byte string: a column's row updates are one sum over
all the rows below the pivot, and its column updates sum the column slices
``flat[i::n]``.

``_axpy_ops`` gives the row updates x + c*y of the intertwiner solver in
``codes`` on the same rows, and plain lists for fields that do not qualify.

The codeword scan of ``codes.min_distance`` only adds rows and counts their
nonzero entries, so ``_row_ops`` packs any field with p < 128: an entry
becomes e bytes, one per GF(p) coefficient of its encoding, kept in e planes
of n bytes each, and rows add as prime-field rows do.  Characteristic 2 with
q <= 256 keeps one encoding byte per entry; fields with p >= 128 keep plain
lists.
"""

from __future__ import annotations

from functools import cache
from operator import xor


class _Scales(dict):
    """c -> 256-byte table of x -> c*x over one field, built from field.mul
    on first use.  Prime-field tables cover every byte value, so the table
    of 1 is x mod p."""

    def __init__(self, field):
        self.field = field

    def __missing__(self, c):
        f = self.field
        size = f.q if f.p == 2 else 256
        table = self[c] = bytes([f.mul(c, x) for x in range(size)]) + bytes(256 - size)
        return table


# Below this size the list loops in Poly are faster: setting up a packed
# product or division costs about as much as 32 field calls.  Keeping tiny
# operands there keeps the default-modulus search of ``fields`` as fast.
_POLY_MIN_PAIRS = 32


def _byte_field(field):
    """True when rows of the field pack one byte per entry: characteristic 2
    with q <= 256, or a prime field with p < 128."""
    p = field.p
    return p == 2 and field.q <= 256 or field.e == 1 and p < 128


@cache
def _scales(field):
    return _Scales(field)


def _rref(field, nrows, ncols, entries):
    """Reduced row echelon form of a row-major entry sequence.

    Returns (entries, rank, pivot_columns), or None when the field does not
    qualify (see ``_byte_field``).
    """
    if not _byte_field(field):
        return None
    neg, inv = field.neg, field.inv
    scale = _scales(field)
    reduce = None if field.p == 2 else scale[1]
    n, m = nrows, ncols
    flat = bytes(entries)
    rows = [int.from_bytes(flat[i * m:(i + 1) * m], "big") for i in range(n)]
    pivots = []
    r = 0
    for c in range(m):
        if r == n:
            break
        shift = 8 * (m - 1 - c)
        pr = next((i for i in range(r, n) if (rows[i] >> shift) & 255), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        top = rows[r].to_bytes(m, "big")
        pv = top[c]
        if pv != 1:
            top = top.translate(scale[inv(pv)])
            rows[r] = int.from_bytes(top, "big")
        # the multiple of the pivot row that clears column c, per multiplier
        scaled = {}
        for i in range(n):
            ci = (rows[i] >> shift) & 255
            if ci and i != r:
                add = scaled.get(ci)
                if add is None:
                    add = scaled[ci] = int.from_bytes(top.translate(scale[neg(ci)]), "big")
                if reduce is None:
                    rows[i] ^= add
                else:
                    rows[i] = int.from_bytes(
                        (rows[i] + add).to_bytes(m, "big").translate(reduce), "big")
        pivots.append(c)
        r += 1
    return b"".join([row.to_bytes(m, "big") for row in rows]), r, tuple(pivots)


def _matmul(field, n, m, k, a, b):
    """Entries of the n x k product of row-major a (n x m) and b (m x k).

    Row i of the product is the sum over t of a[i, t] times row t of b, each
    multiple made by one ``translate``.  Returns None when the field does not
    qualify (see ``_byte_field``).
    """
    if not _byte_field(field):
        return None
    scale = _scales(field)
    flat = bytes(b)
    brows = [flat[t * k:(t + 1) * k] for t in range(m)]
    out = []
    if field.p == 2:
        for i in range(n):
            acc = 0
            for c, brow in zip(a[i * m:(i + 1) * m], brows):
                if c:
                    acc ^= int.from_bytes(brow.translate(scale[c]), "big")
            out.append(acc.to_bytes(k, "big"))
        return b"".join(out)
    # A byte sum stays below 256 for up to 255 // (p - 1) terms, each at most
    # p - 1; after that the sum is reduced and counts as one term.
    reduce = scale[1]
    limit = 255 // (field.p - 1)
    for i in range(n):
        acc = terms = 0
        for c, brow in zip(a[i * m:(i + 1) * m], brows):
            if c:
                if terms == limit:
                    acc = int.from_bytes(acc.to_bytes(k, "big").translate(reduce), "big")
                    terms = 1
                acc += int.from_bytes(brow.translate(scale[c]), "big")
                terms += 1
        out.append(acc.to_bytes(k, "big").translate(reduce))
    return b"".join(out)


def _hessenberg(field, n, entries, transform):
    """(h, p) as ``matrices._hessenberg`` computes them: the rows of H as
    lists, and P's row-major entries when transform is true (else None).
    Returns None when the field does not qualify (see ``_byte_field``).

    H and P are flat bytearrays of n * n bytes.  At column j every multiplier
    u_i = h_ij / h_kj (k = j + 1) is read before any update: no column update
    touches column j, and the row update of row i is the only one to change
    h_ij.  The row updates row_i -= u_i row_k of H and of P are one sum over
    the rows below k, whose addend joins the multiples of row k; the column
    update col_k += sum_i u_i col_i sums the slices ``flat[i::n]``, reduced
    as in ``_matmul``.  Left and right updates commute, so H and P equal the
    list loop's entry for entry.
    """
    if not _byte_field(field):
        return None
    scale = _scales(field)
    reduce = None if field.p == 2 else scale[1]
    limit = 255 // (field.p - 1)
    flat = bytearray(entries)
    mats = [flat]
    if transform:
        pflat = bytearray(n * n)
        pflat[::n + 1] = b"\1" * n
        mats.append(pflat)
    for j in range(n - 2):
        k = j + 1
        below = flat[k * n + j::n]
        rest = below.lstrip(b"\0")
        if not rest:
            continue
        piv = k + len(below) - len(rest)
        lo, hi = k * n, (k + 1) * n
        if piv != k:
            for m in mats:
                m[lo:hi], m[piv * n:(piv + 1) * n] = m[piv * n:(piv + 1) * n], m[lo:hi]
            flat[k::n], flat[piv::n] = flat[piv::n], flat[k::n]
        iv = field.inv(flat[lo + j])
        col = flat[hi + j::n]
        if not col.lstrip(b"\0"):
            continue
        negu = col.translate(scale[field.neg(iv)])
        for m in mats:
            top = m[lo:hi]
            multiples = {c: top.translate(scale[c]) for c in set(negu)}
            addend = int.from_bytes(b"".join([multiples[c] for c in negu]), "big")
            size = len(m) - hi
            if reduce is None:
                m[hi:] = (int.from_bytes(m[hi:], "big") ^ addend).to_bytes(size, "big")
            else:
                total = int.from_bytes(m[hi:], "big") + addend
                m[hi:] = total.to_bytes(size, "big").translate(reduce)
        acc = int.from_bytes(flat[k::n], "big")
        terms = 1
        for i, c in enumerate(col.translate(scale[iv]), k + 1):
            if c:
                term = int.from_bytes(flat[i::n].translate(scale[c]), "big")
                if reduce is None:
                    acc ^= term
                    continue
                if terms == limit:
                    acc = int.from_bytes(acc.to_bytes(n, "big").translate(reduce), "big")
                    terms = 1
                acc += term
                terms += 1
        out = acc.to_bytes(n, "big")
        flat[k::n] = out if reduce is None else out.translate(reduce)
    h = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
    return h, (bytes(pflat) if transform else None)


def _poly(field, a, b, divide=False):
    """a * b, or with divide (quotient, remainder) of a by b, as bytes of
    ascending coefficients that may end in zeros; b is nonzero and, to
    divide, no longer than a.  Returns None when the field does not qualify
    (see ``_byte_field``) or the list loop makes at most _POLY_MIN_PAIRS
    coefficient products.

    A product adds the multiples c * b shifted by i for the nonzero
    coefficients c = a_i of the shorter factor; division subtracts one per
    quotient coefficient.  Prime-field sums are reduced as in ``_matmul``.
    """
    pairs = (len(a) - len(b) + 1) * len(b) if divide else len(a) * len(b)
    if pairs <= _POLY_MIN_PAIRS or not _byte_field(field):
        return None
    scale = _scales(field)
    reduce = None if field.p == 2 else scale[1]
    limit = 255 // (field.p - 1)
    if divide:
        size, db = len(a), len(b) - 1
        # the top byte x of the running remainder gives the quotient
        # coefficient quot[x] and the multiple sub[x] of b that clears it;
        # the dividend counts as one term
        inv = field.inv(b[-1])
        quot, sub = scale[inv], scale[field.neg(inv)]
        acc = int.from_bytes(bytes(a), "little")
        out = bytearray(size - db)
        steps = range(size - db - 1, -1, -1)
        terms = 1
    else:
        if len(a) > len(b):
            a, b = b, a
        size = len(a) + len(b) - 1
        acc = terms = 0
        steps = range(len(a))
    brow = bytes(b)
    rows = {}
    for i in steps:
        if divide:
            top = (acc >> 8 * (i + db)) & 255
            out[i] = quot[top]
            c = sub[top]
        else:
            c = a[i]
        if c:
            row = rows.get(c)
            if row is None:
                row = rows[c] = int.from_bytes(brow.translate(scale[c]), "little")
            if reduce is None:
                acc ^= row << 8 * i
                continue
            if terms == limit:
                acc = int.from_bytes(acc.to_bytes(size, "little").translate(reduce), "little")
                terms = 1
            acc += row << 8 * i
            terms += 1
    flat = acc.to_bytes(size, "little")
    if reduce is not None:
        flat = flat.translate(reduce)
    return (bytes(out), flat[:db]) if divide else flat


def _axpy_ops(field, n):
    """(pack, axpy, unpack) for vectors of n entries of the field.

    pack turns an entry sequence into a vector, axpy(x, c, y) is the vector
    x + c*y and unpack gives the entries back.  A field that qualifies (see
    ``_byte_field``) keeps a vector as one int of n bytes; any other keeps a
    list and calls the field per entry.
    """
    if not _byte_field(field):
        add, mul = field.add, field.mul

        def axpy(x, c, y):
            return [add(a, mul(c, b)) if b else a for a, b in zip(x, y)]

        return list, axpy, list
    scale = _scales(field)

    def pack(entries):
        return int.from_bytes(bytes(entries), "big")

    def unpack(x):
        return x.to_bytes(n, "big")

    if field.p == 2:
        def axpy(x, c, y):
            return x ^ int.from_bytes(y.to_bytes(n, "big").translate(scale[c]), "big")
    else:
        reduce = scale[1]

        def axpy(x, c, y):
            total = x + int.from_bytes(y.to_bytes(n, "big").translate(scale[c]), "big")
            return int.from_bytes(total.to_bytes(n, "big").translate(reduce), "big")

    return pack, axpy, unpack


def _row_ops(field, n):
    """(pack, add, weight) for rows of n entries of the field.

    pack turns an entry sequence into a row, add sums two rows and weight
    counts the nonzero entries of a row.
    """
    p, e = field.p, field.e
    if p >= 128:
        fadd = field.add
        return list, lambda x, y: [fadd(a, b) for a, b in zip(x, y)], lambda x: n - x.count(0)
    if p == 2 and field.q <= 256:
        return (lambda entries: int.from_bytes(bytes(entries), "big"), xor,
                lambda x: n - x.to_bytes(n, "big").count(0))
    size = e * n
    shifts = [8 * n * t for t in range(1, e)]

    def pack(entries):
        return int.from_bytes(
            b"".join(bytes([v // p**t % p for v in entries]) for t in range(e)), "big")

    def weight(x):
        # an entry is nonzero when any of its planes is; the OR of all planes
        # lands in the last n bytes
        folded = x
        for shift in shifts:
            folded |= x >> shift
        return n - folded.to_bytes(size, "big").count(0, size - n)

    reduce = bytes([x % p for x in range(256)])

    def add(x, y):
        # a byte sum is at most 2(p - 1) <= 252, so no byte carries
        return int.from_bytes((x + y).to_bytes(size, "big").translate(reduce), "big")

    return pack, add, weight
