"""Gauss-Jordan elimination, Hessenberg reduction, matrix and polynomial
products and polynomial division over any finite field, on byte-packed rows
where the field allows.

``_format`` alone decides which fields get byte rows.  A row of m entries
is then one Python int made from m bytes, one byte per entry, most
significant first, so the entry in column c is
``(row >> 8 * (m - 1 - c)) & 255``.  A multiple of a row is the row's bytes
mapped through a 256-byte table with ``bytes.translate``.

* Characteristic 2 with q <= 256: adding two rows is one int XOR.
* Prime fields with p < 128: two rows add as ints without any carry between
  bytes, because a byte sum is at most 2(p - 1) <= 252; one ``translate``
  by the table of x mod p then reduces every byte.
* Characteristic 2 with 256 < q <= 2^12 (``_PLANES_LIMIT``): two byte
  planes, the high bytes of a row's entries before their low bytes, so
  rows still add by one XOR and a multiple is four ``translate``s, since an
  entry is x_lo + x_hi t^8 (``_planes`` holds these kernels and their
  tables, and is imported when ``_format`` first meets such a field).

For any other field ``_format`` gives None and each kernel runs its list
loop, which calls the field once per entry; the tests take the list loops
as the reference for every field.  This is the
word-packed elimination of M4RI (Albrecht, Bard, Hart, ACM TOMS 2010) with
bytes for words.  A product sums up to 255 // (p - 1) prime-field rows
before it reduces, since no byte can pass 255 before then.

``_poly`` keeps a polynomial as one int of deg + 1 bytes, coefficient i in
byte i (little-endian), so a shift by 8 * i multiplies by t^i; products
and remainders are sums of shifted row multiples as above (schoolbook
multiplication and division, von zur Gathen and Gerhard, Modern Computer
Algebra, sections 2.3 and 2.4).

``_hessenberg`` reduces the leading square block of a wide matrix [M | T]
to upper Hessenberg form by similarity on one flat byte string: a column's
row updates are one sum over all the rows below the pivot and over all
columns, and its column updates sum the column slices ``flat[i::w]`` of M.
Its tail is then P T, so a caller that needs P passes [M | I], the matrix
whose elimination gives an inverse.

``_matmul`` takes its right factor as a list of rows, so a caller that
keeps rows, such as the solver and the distance scan of ``codes``, passes
them as they are; ``_row`` makes a row in the kernels' format.
"""

from __future__ import annotations

from array import array
from functools import cache


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


# GF(2^e) with 256 < q <= _PLANES_LIMIT keeps its rows on two byte planes.
# Planes beat the list loops at every e from 9 to 16, cold and warm, but a
# field's tables reach 0.8 MB at 2^10, 3.2 MB at 2^12 and 54 MB at 2^16.
_PLANES_LIMIT = 1 << 12

# The module of the two-plane kernels, which ``_format`` imports when it
# first meets a field that takes them, so that no other process compiles it.
_planes = None


# Below this size the list loop of ``_poly`` is faster: setting up a packed
# product or division costs about as much as 32 field calls.  Keeping tiny
# operands there keeps the default-modulus search of ``fields`` as fast.
_POLY_MIN_PAIRS = 32


@cache
def _format(field):
    """(scale, reduce, limit) when rows of the field pack one byte per entry,
    characteristic 2 with q <= 256 or a prime field with p < 128; the
    field's ``_Planes`` when rows pack two byte planes, characteristic 2
    with 256 < q <= _PLANES_LIMIT; None for every other field.  The kernels
    tell the first two apart by ``type(fmt) is tuple``.

    scale maps c to the table of x -> c*x, reduce is the table of x mod p
    (None in characteristic 2, where rows add by XOR), and a byte sum of up
    to limit = 255 // (p - 1) prime-field terms, each at most p - 1, stays
    below 256.  On two planes the high bytes of a row's entries sit above
    their low bytes, and since a high byte x_hi stands for x_hi*t^8, the
    high plane is multiplied through the tables of c*t^8.
    """
    global _planes
    p = field.p
    if p == 2 and 256 < field.q <= _PLANES_LIMIT:
        from . import _planes
        return _planes._Planes(field)
    if not (p == 2 and field.q <= 256 or field.e == 1 and p < 128):
        return None
    scale = _Scales(field)
    return scale, None if p == 2 else scale[1], 255 // (p - 1)


def _rref(field, nrows, ncols, entries):
    """Reduced row echelon form of a row-major entry sequence: (entries,
    rank, pivot_columns)."""
    n, m = nrows, ncols
    pivots = []
    r = 0
    fmt = _format(field)
    if fmt is None:
        sub, mul, inv = field.sub, field.mul, field.inv
        rows = [list(entries[i * m:(i + 1) * m]) for i in range(n)]
        for c in range(m):
            if r == n:
                break
            pr = next((i for i in range(r, n) if rows[i][c]), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            pv = rows[r][c]
            if pv != 1:
                ip = inv(pv)
                rows[r] = [mul(ip, v) for v in rows[r]]
            top = rows[r]
            for i in range(n):
                if i != r and rows[i][c]:
                    ci = rows[i][c]
                    rowi = rows[i]
                    for j in range(c, m):
                        if top[j]:
                            rowi[j] = sub(rowi[j], mul(ci, top[j]))
            pivots.append(c)
            r += 1
        return [v for row in rows for v in row], r, tuple(pivots)
    if type(fmt) is not tuple:
        return _planes._rref_planes(field, fmt, n, m, entries)
    scale, reduce, _ = fmt
    neg, inv = field.neg, field.inv
    flat = bytes(entries)
    rows = [int.from_bytes(flat[i * m:(i + 1) * m], "big") for i in range(n)]
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


def _rref_cost(field, k, n):
    """What one ``_rref`` of k rows of n entries costs, counted in rows of a
    ``_matmul`` product over k rows: about k on list loops, where both call
    the field once per entry.  On packed rows the pivot search probes the
    columns one by one, against a few ``translate``s per product row: about
    n / 8 rows on byte rows, and n / 100 on two planes, whose product rows
    take four ``translate``s a term and count their zeros in an array (timed
    on constructed codes of 36 to 1024 columns)."""
    fmt = _format(field)
    if fmt is None:
        return k
    return max(k, n // (8 if type(fmt) is tuple else 100))


def _row(field, entries):
    """The entries as one row in the kernels' format: bytes on byte rows, an
    array("H") on two planes, else a list."""
    fmt = _format(field)
    if fmt is None:
        return list(entries)
    return bytes(entries) if type(fmt) is tuple else array("H", entries)


def _matmul(field, n, m, k, a, brows):
    """Entries of the n x k product of row-major a (n x m) and the m x k
    matrix whose rows, of k entries each, are brows.

    On byte rows, row i of the product is the sum over t of a[i, t] times
    row t, each multiple made by one ``translate``; a row that is already
    bytes is used as it is.
    """
    fmt = _format(field)
    if fmt is None:
        add, mul = field.add, field.mul
        out = [0] * (n * k)
        for i in range(n):
            arow = a[i * m:(i + 1) * m]
            base = i * k
            for t in range(m):
                c = arow[t]
                if c:
                    brow = brows[t]
                    for j in range(k):
                        if brow[j]:
                            out[base + j] = add(out[base + j], mul(c, brow[j]))
        return out
    if type(fmt) is not tuple:
        return _planes._matmul_planes(fmt, n, m, k, a, brows)
    scale, reduce, limit = fmt
    brows = [bytes(row) for row in brows]
    out = []
    if reduce is None:
        for i in range(n):
            acc = 0
            for c, brow in zip(a[i * m:(i + 1) * m], brows):
                if c:
                    acc ^= int.from_bytes(brow.translate(scale[c]), "big")
            out.append(acc.to_bytes(k, "big"))
        return b"".join(out)
    # after limit terms the sum is reduced and counts as one term
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


def _hessenberg(field, n, w, entries):
    """(h, tail): the rows of an upper Hessenberg H = P M P^-1 as lists, for M
    the leading n x n block of the n x w row-major entries [M | T], and the
    entries of P T in the kernels' row format.  A caller that needs P passes
    [M | I].

    For each column j, the first row at or below j + 1 with a nonzero entry
    in column j is swapped into row j + 1 (and the same columns swapped),
    then each lower row i loses u times row j + 1 while column j + 1 gains
    u times column i.  The row operations run over all w columns, so the
    tail collects P T; the column operations touch M alone.

    On byte rows [M | T] is one flat bytearray of n * w bytes.  At column j
    every multiplier u_i = h_ij / h_kj (k = j + 1) is read before any
    update: no column update touches column j, and the row update of row i
    is the only one to change h_ij.  The row updates row_i -= u_i row_k are
    one sum over the rows below k, whose addend joins the multiples of row
    k; the column update col_k += sum_i u_i col_i sums the slices
    ``flat[i::w]``, reduced as in ``_matmul``.  Left and right updates
    commute, so H and P T equal the list loop's entry for entry.
    """
    fmt = _format(field)
    if fmt is None:
        add, sub, mul, inv = field.add, field.sub, field.mul, field.inv
        h = [list(entries[i * w:(i + 1) * w]) for i in range(n)]
        for j in range(n - 2):
            piv = next((i for i in range(j + 1, n) if h[i][j]), None)
            if piv is None:
                continue
            k = j + 1
            if piv != k:
                h[piv], h[k] = h[k], h[piv]
                for row in h:
                    row[piv], row[k] = row[k], row[piv]
            top = h[k]
            iv = inv(top[j])
            for i in range(k + 1, n):
                row = h[i]
                if row[j]:
                    u = mul(row[j], iv)
                    for c in range(j, w):
                        if top[c]:
                            row[c] = sub(row[c], mul(u, top[c]))
                    for r in h:
                        if r[i]:
                            r[k] = add(r[k], mul(u, r[i]))
        return [row[:n] for row in h], [v for row in h for v in row[n:]]
    if type(fmt) is not tuple:
        return _planes._hessenberg_planes(field, fmt, n, w, entries)
    scale, reduce, limit = fmt
    flat = bytearray(entries)
    for j in range(n - 2):
        k = j + 1
        below = flat[k * w + j::w]
        rest = below.lstrip(b"\0")
        if not rest:
            continue
        piv = k + len(below) - len(rest)
        lo, hi = k * w, (k + 1) * w
        if piv != k:
            flat[lo:hi], flat[piv * w:(piv + 1) * w] = flat[piv * w:(piv + 1) * w], flat[lo:hi]
            flat[k::w], flat[piv::w] = flat[piv::w], flat[k::w]
        iv = field.inv(flat[lo + j])
        col = flat[hi + j::w]
        if not col.lstrip(b"\0"):
            continue
        negu = col.translate(scale[field.neg(iv)])
        top = flat[lo:hi]
        multiples = {c: top.translate(scale[c]) for c in set(negu)}
        addend = int.from_bytes(b"".join([multiples[c] for c in negu]), "big")
        size = len(flat) - hi
        if reduce is None:
            flat[hi:] = (int.from_bytes(flat[hi:], "big") ^ addend).to_bytes(size, "big")
        else:
            total = int.from_bytes(flat[hi:], "big") + addend
            flat[hi:] = total.to_bytes(size, "big").translate(reduce)
        acc = int.from_bytes(flat[k::w], "big")
        terms = 1
        for i, c in enumerate(col.translate(scale[iv]), k + 1):
            if c:
                term = int.from_bytes(flat[i::w].translate(scale[c]), "big")
                if reduce is None:
                    acc ^= term
                    continue
                if terms == limit:
                    acc = int.from_bytes(acc.to_bytes(n, "big").translate(reduce), "big")
                    terms = 1
                acc += term
                terms += 1
        out = acc.to_bytes(n, "big")
        flat[k::w] = out if reduce is None else out.translate(reduce)
    h = [list(flat[i * w:i * w + n]) for i in range(n)]
    return h, b"".join([flat[i * w + n:(i + 1) * w] for i in range(n)])


def _poly(field, a, b, divide=False):
    """a * b, or with divide (quotient, remainder) of a by b, as ascending
    coefficients that may end in zeros; b is nonzero and, to divide, no
    longer than a.  The list loop also takes operands for which it makes at
    most _POLY_MIN_PAIRS coefficient products.

    On byte rows a product adds the multiples c * b shifted by i for the
    nonzero coefficients c = a_i of the shorter factor; division subtracts
    one per quotient coefficient.  Prime-field sums are reduced as in
    ``_matmul``.
    """
    pairs = (len(a) - len(b) + 1) * len(b) if divide else len(a) * len(b)
    fmt = _format(field) if pairs > _POLY_MIN_PAIRS else None
    if fmt is None and divide:
        a = list(a)
        bq = b
        db = len(b) - 1
        inv_lead = field.inv(bq[-1])
        sub, mul = field.sub, field.mul
        qcoeffs = [0] * (len(a) - db)
        for i in range(len(a) - 1 - db, -1, -1):
            top = a[i + db]
            if top:
                c = mul(top, inv_lead)
                qcoeffs[i] = c
                for j in range(db + 1):
                    if bq[j]:
                        a[i + j] = sub(a[i + j], mul(c, bq[j]))
        return qcoeffs, a[:db]
    if fmt is None:
        out = [0] * (len(a) + len(b) - 1)
        add, mul = field.add, field.mul
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        out[i + j] = add(out[i + j], mul(x, y))
        return out
    if type(fmt) is not tuple:
        return _planes._poly_planes(field, fmt, a, b, divide)
    scale, reduce, limit = fmt
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
