"""Gauss-Jordan elimination on byte-packed rows over small fields.

A row of m entries is one Python int made from m bytes, one byte per entry,
most significant first, so the entry in column c is
``(row >> 8 * (m - 1 - c)) & 255``.  A multiple of a row is the row's bytes
mapped through a 256-byte table with ``bytes.translate``.

* Characteristic 2 with q <= 256: adding two rows is one int XOR.
* Prime fields with p < 128: two rows add as ints without any carry between
  bytes, because a byte sum is at most 2(p - 1) <= 252; one ``translate``
  by the table of x mod p then reduces every byte.

Other fields do not qualify and keep the list loop in ``Matrix.rref``.  This
is the word-packed elimination of M4RI (Albrecht, Bard, Hart, ACM TOMS 2010)
with bytes for words.
"""

from __future__ import annotations

# field -> {c: 256-byte table of x -> c*x}, each built on first use from
# field.mul.  The tables depend on the field alone.
_SCALES = {}


def _rref(field, nrows, ncols, entries):
    """Reduced row echelon form of a row-major entry sequence.

    Returns (entries, rank, pivot_columns), or None when the field is not
    of characteristic 2 with q <= 256 or prime with p < 128.
    """
    p, q = field.p, field.q
    if not (p == 2 and q <= 256 or field.e == 1 and p < 128):
        return None
    scales = _SCALES.setdefault(field, {})
    mul, neg, inv = field.mul, field.neg, field.inv
    # Prime-field tables cover every byte value, so the table of 1 is x mod p.
    size = q if p == 2 else 256
    pad = bytes(256 - size)

    def scale(c):
        table = scales.get(c)
        if table is None:
            table = scales[c] = bytes([mul(c, x) for x in range(size)]) + pad
        return table

    reduce = None if p == 2 else scale(1)
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
