"""Gauss-Jordan elimination, matrix products, row updates and codeword rows,
byte-packed over small fields.

A row of m entries is one Python int made from m bytes, one byte per entry,
most significant first, so the entry in column c is
``(row >> 8 * (m - 1 - c)) & 255``.  A multiple of a row is the row's bytes
mapped through a 256-byte table with ``bytes.translate``.

* Characteristic 2 with q <= 256: adding two rows is one int XOR.
* Prime fields with p < 128: two rows add as ints without any carry between
  bytes, because a byte sum is at most 2(p - 1) <= 252; one ``translate``
  by the table of x mod p then reduces every byte.

Other fields do not qualify and keep the list loops in ``Matrix.rref`` and
``Matrix.__mul__``.  This is the word-packed elimination of M4RI (Albrecht,
Bard, Hart, ACM TOMS 2010) with bytes for words.  A product sums up to
255 // (p - 1) prime-field rows before it reduces, since no byte can pass
255 before then.

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

from operator import xor

# field -> {c: 256-byte table of x -> c*x}, each built on first use from
# field.mul.  The tables depend on the field alone.
_SCALES = {}


def _byte_field(field):
    """True when rows of the field pack one byte per entry: characteristic 2
    with q <= 256, or a prime field with p < 128."""
    p = field.p
    return p == 2 and field.q <= 256 or field.e == 1 and p < 128


def _scaler(field):
    """The function c -> 256-byte table of x -> c*x, cached per field.

    Prime-field tables cover every byte value, so the table of 1 is x mod p.
    """
    scales = _SCALES.setdefault(field, {})
    mul = field.mul
    size = field.q if field.p == 2 else 256
    pad = bytes(256 - size)

    def scale(c):
        table = scales.get(c)
        if table is None:
            table = scales[c] = bytes([mul(c, x) for x in range(size)]) + pad
        return table

    return scale


def _rref(field, nrows, ncols, entries):
    """Reduced row echelon form of a row-major entry sequence.

    Returns (entries, rank, pivot_columns), or None when the field does not
    qualify (see ``_byte_field``).
    """
    if not _byte_field(field):
        return None
    neg, inv = field.neg, field.inv
    scale = _scaler(field)
    reduce = None if field.p == 2 else scale(1)
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
            top = top.translate(scale(inv(pv)))
            rows[r] = int.from_bytes(top, "big")
        # the multiple of the pivot row that clears column c, per multiplier
        scaled = {}
        for i in range(n):
            ci = (rows[i] >> shift) & 255
            if ci and i != r:
                add = scaled.get(ci)
                if add is None:
                    add = scaled[ci] = int.from_bytes(top.translate(scale(neg(ci))), "big")
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
    scale = _scaler(field)
    flat = bytes(b)
    brows = [flat[t * k:(t + 1) * k] for t in range(m)]
    out = []
    if field.p == 2:
        for i in range(n):
            acc = 0
            for c, brow in zip(a[i * m:(i + 1) * m], brows):
                if c:
                    acc ^= int.from_bytes(brow.translate(scale(c)), "big")
            out.append(acc.to_bytes(k, "big"))
        return b"".join(out)
    # A byte sum stays below 256 for up to 255 // (p - 1) terms, each at most
    # p - 1; after that the sum is reduced and counts as one term.
    reduce = scale(1)
    limit = 255 // (field.p - 1)
    for i in range(n):
        acc = terms = 0
        for c, brow in zip(a[i * m:(i + 1) * m], brows):
            if c:
                if terms == limit:
                    acc = int.from_bytes(acc.to_bytes(k, "big").translate(reduce), "big")
                    terms = 1
                acc += int.from_bytes(brow.translate(scale(c)), "big")
                terms += 1
        out.append(acc.to_bytes(k, "big").translate(reduce))
    return b"".join(out)


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
    scale = _scaler(field)

    def pack(entries):
        return int.from_bytes(bytes(entries), "big")

    def unpack(x):
        return x.to_bytes(n, "big")

    if field.p == 2:
        def axpy(x, c, y):
            return x ^ int.from_bytes(y.to_bytes(n, "big").translate(scale(c)), "big")
    else:
        reduce = scale(1)

        def axpy(x, c, y):
            total = x + int.from_bytes(y.to_bytes(n, "big").translate(scale(c)), "big")
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
