"""The kernels of ``_packed`` on two byte planes, for GF(2^e) with
256 < q <= 2^16; ``_packed._format`` decides which fields take them.

A row of m entries is 2m bytes, the high bytes of its entries, most
significant first, before their low bytes.  As one int, two rows add by one
XOR, and the entry in column c is v = x & 255 | x >> (8m - 8) for
x = (row >> 8 * (m - 1 - c)) & (255 | 255 << 8m); as bytes it is two
indexings.  In the polynomial basis an entry is x_lo + x_hi t^8, so
c*x = c*x_lo + (c*t^8)*x_hi: a multiple is four ``translate``s through the
low-byte and high-byte tables of c and of c*t^8 (``_Planes``), the latter
being the tables of the multiplier c*t^8 itself.  This is the bitsliced
representation of M4RIE (Albrecht, ISSAC 2012) with bytes for bits, on the
byte rows of ``_packed``.  The kernels return entries as an array("H"),
which slices and counts like the bytes of ``_packed``'s byte rows.

These kernels live apart from ``_packed`` for two reasons.  Each module
stays small: when the package is compiled from source at import, compiling
the largest module sets the process's peak memory.  And ``_packed`` imports
this module only when ``_format`` first meets a two-plane field, so no
other process compiles it.
"""

from __future__ import annotations

import sys
from array import array

# The low and the high bytes of an array("H") of entries, as slices of its
# machine-order bytes.
_LO, _HI = slice(0, None, 2), slice(1, None, 2)
if sys.byteorder == "big":
    _LO, _HI = _HI, _LO


class _Planes(dict):
    """c -> (lo, hi, lo8, hi8) over GF(2^e), 256 < q <= 2^16: 256-byte tables of
    the low and the high byte of x -> c*x and of x -> c*t^8*x.  An entry
    x = x_lo + x_hi t^8 has c*x = c*x_lo + (c*t^8)*x_hi, so a multiple is
    four ``translate``s.  The pair of tables of c is built once per field,
    on first use, from GF(2)-linearity in c: it is the XOR of the pairs of
    the four-bit digits of c, read from lists made when the field is first
    used.  The pair of c*t^8 is shared with the multiplier c*t^8 itself."""

    def __init__(self, field):
        self.mul = field.mul
        self.pairs = {}
        # the pairs, each one int with the low-byte table first, of every
        # d * t^(4i) for d < 16, made by doubling over the powers of t
        self.digits = []
        for j in range(field.e):
            values = [0]
            for i in range(8):
                b = self.mul(1 << j, 1 << i)
                values += [v ^ b for v in values]
            raw = array("H", values).tobytes()
            pair = int.from_bytes(raw[_LO] + raw[_HI], "big")
            if j % 4 == 0:
                self.digits.append([0])
            self.digits[-1] += [v ^ pair for v in self.digits[-1]]

    def _pair(self, c):
        pair = self.pairs.get(c)
        if pair is None:
            acc = 0
            for i, part in enumerate(self.digits):
                acc ^= part[c >> 4 * i & 15]
            raw = acc.to_bytes(512, "big")
            pair = self.pairs[c] = raw[:256], raw[256:]
        return pair

    def __missing__(self, c):
        tables = self[c] = self._pair(c) + self._pair(self.mul(c, 256))
        return tables


def _times(tables, hi, lo, pad=b""):
    """c times the entries with planes hi and lo, for tables = planes[c]: one
    int whose high plane sits len(pad) + len(lo) bytes above its low plane,
    entries in the planes' byte order, most significant first."""
    tl, th, tl8, th8 = tables
    return (int.from_bytes(lo.translate(th) + pad + lo.translate(tl), "big")
            ^ int.from_bytes(hi.translate(th8) + pad + hi.translate(tl8), "big"))


def _wide(tables, hi, lo):
    """``_times`` as two halves of one int, c*x_lo above (c*t^8)*x_hi, whose
    sum is ``_fold``; a sum of products is folded once, at its end."""
    tl, th, tl8, th8 = tables
    return int.from_bytes(b"".join((lo.translate(th), lo.translate(tl),
                                    hi.translate(th8), hi.translate(tl8))), "big")


def _fold(wide, m):
    """The row of m entries that a sum of ``_wide`` products stands for."""
    return wide >> 16 * m ^ wide & ((1 << 16 * m) - 1)


def _split(entries):
    """(hi, lo): the high and the low bytes of 16-bit entries."""
    raw = array("H", entries).tobytes()
    return raw[_HI], raw[_LO]


def _join(hi, lo):
    """The entries, as an array("H"), whose high and low bytes are hi and lo."""
    raw = bytearray(2 * len(lo))
    raw[_HI], raw[_LO] = hi, lo
    return array("H", raw)


def _unrows(rows, m):
    """The entries of rows of m entries, each 2m bytes, high plane first."""
    return _join(b"".join([row[:m] for row in rows]), b"".join([row[m:] for row in rows]))


def _rref_planes(field, planes, n, m, entries):
    """``_rref`` on rows of two planes: row i is 2m bytes, its high plane
    before its low plane, so entry c is two indexings; a row is updated as
    one int XOR."""
    inv = field.inv
    hi, lo = _split(entries)
    rows = [hi[i * m:(i + 1) * m] + lo[i * m:(i + 1) * m] for i in range(n)]
    pivots = []
    r = 0
    for c in range(m):
        if r == n:
            break
        pr = next((i for i in range(r, n) if rows[i][c] or rows[i][m + c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        top = rows[r]
        pv = top[c] << 8 | top[m + c]
        # row r is zero left of column c, so only its columns c.. are scaled
        pad = bytes(c)
        if pv != 1:
            top = rows[r] = _times(planes[inv(pv)], top[c:m], top[m + c:], pad).to_bytes(
                2 * m, "big")
        thi, tlo = top[c:m], top[m + c:]
        # in characteristic 2 the multiple that clears column c is ci * row r
        scaled = {}
        for i, row in enumerate(rows):
            if (row[c] or row[m + c]) and i != r:
                ci = row[c] << 8 | row[m + c]
                add = scaled.get(ci)
                if add is None:
                    add = scaled[ci] = _times(planes[ci], thi, tlo, pad)
                rows[i] = (int.from_bytes(row, "big") ^ add).to_bytes(2 * m, "big")
        pivots.append(c)
        r += 1
    return _unrows(rows, m), r, tuple(pivots)


def _matmul_planes(planes, n, m, k, a, brows):
    """``_matmul`` on two planes: each product row is one sum of ``_wide``
    multiples of the rows, folded once."""
    brows = [_split(row) for row in brows]
    rows = []
    for i in range(n):
        acc = 0
        for c, (bhi, blo) in zip(a[i * m:(i + 1) * m], brows):
            if c:
                acc ^= _wide(planes[c], bhi, blo)
        rows.append(_fold(acc, k).to_bytes(2 * k, "big"))
    return _unrows(rows, k)


def _hessenberg_planes(field, planes, n, w, entries):
    """``_hessenberg`` on the two flat planes of [M | T], high and low bytes,
    with the same row and column updates as the byte path."""
    hi, lo = _split(entries)
    flat = (bytearray(hi), bytearray(lo))
    for j in range(n - 2):
        k = j + 1
        below = int.from_bytes(flat[0][k * w + j::w], "big") | int.from_bytes(
            flat[1][k * w + j::w], "big")
        if not below:
            continue
        piv = n - 1 - (below.bit_length() - 1) // 8
        top, end = k * w, (k + 1) * w
        if piv != k:
            for plane in flat:
                plane[top:end], plane[piv * w:(piv + 1) * w] = (
                    plane[piv * w:(piv + 1) * w], plane[top:end])
                plane[k::w], plane[piv::w] = plane[piv::w], plane[k::w]
        iv = field.inv(flat[0][top + j] << 8 | flat[1][top + j])
        size = n - 1 - k
        u = _times(planes[iv], flat[0][end + j::w], flat[1][end + j::w])
        if not u:
            continue
        us = u.to_bytes(2 * size, "big")
        us = [h << 8 | l for h, l in zip(us[:size], us[size:])]
        # row i below k loses u_i times row k: one XOR per plane
        thi, tlo = flat[0][top:end], flat[1][top:end]
        multiples = {0: (bytes(w), bytes(w))}
        for c in set(us):
            if c:
                row = _times(planes[c], thi, tlo).to_bytes(2 * w, "big")
                multiples[c] = row[:w], row[w:]
        for part, plane in enumerate(flat):
            addend = b"".join([multiples[c][part] for c in us])
            plane[end:] = (int.from_bytes(plane[end:], "big")
                           ^ int.from_bytes(addend, "big")).to_bytes(size * w, "big")
        # column k gains u_i times column i
        acc = int.from_bytes(flat[0][k::w] + flat[1][k::w], "big")
        for i, c in enumerate(us, k + 1):
            if c:
                acc ^= _wide(planes[c], flat[0][i::w], flat[1][i::w])
        col = _fold(acc, n).to_bytes(2 * n, "big")
        flat[0][k::w], flat[1][k::w] = col[:n], col[n:]
    ent = _join(*flat)
    rows = [ent[i * w:(i + 1) * w] for i in range(n)]
    return ([row[:n].tolist() for row in rows],
            array("H", b"".join([row[n:].tobytes() for row in rows])))


def _poly_planes(field, planes, a, b, divide):
    """``_poly`` on two planes: a polynomial of size coefficients is one int
    with coefficient i in byte i of its low plane and byte size + i of its
    high plane, so a shift by 8 * i still multiplies by t^i."""
    if not divide and len(a) > len(b):
        a, b = b, a
    size = len(a) if divide else len(a) + len(b) - 1
    mask = 255 | 255 << 8 * size
    hi, lo = _split(b)
    # reversed planes give a little-endian multiple from ``_times``
    hi, lo, pad = hi[::-1], lo[::-1], bytes(size - len(b))
    rows = {}
    if divide:
        db = len(b) - 1
        inv = field.inv(b[-1])
        ahi, alo = _split(a)
        acc = int.from_bytes(alo + ahi, "little")
        out = array("H", bytes(2 * (size - db)))
        for i in range(size - db - 1, -1, -1):
            x = (acc >> 8 * (i + db)) & mask
            if x:
                # the quotient coefficient and the multiple of b that clears
                # the top coefficient x
                top = x & 255 | x >> (8 * size - 8)
                step = rows.get(top)
                if step is None:
                    c = field.mul(top, inv)
                    step = rows[top] = c, _times(planes[c], hi, lo, pad)
                out[i] = step[0]
                acc ^= step[1] << 8 * i
    else:
        acc = 0
        for i, c in enumerate(a):
            if c:
                row = rows.get(c)
                if row is None:
                    row = rows[c] = _times(planes[c], hi, lo, pad)
                acc ^= row << 8 * i
    flat = acc.to_bytes(2 * size, "little")
    if divide:
        return out, _join(flat[size:size + db], flat[:db])
    return _join(flat[size:], flat[:size])
