"""Seeded inputs with planted answers for the three benchmark workloads.

Every request is built from a structure whose answer is known in closed
form before the package sees it: a pair (A, B) is a random conjugate of a
direct sum of generalized Jordan blocks, so its code dimension is
``sum over shared irreducibles p of deg(p) * sum_i lambda'_i mu'_i`` and its
spectral bounds follow from the block counts.  The package is used only to
build and serialize matrices; no expected value is read back from it.

The request mix of each workload is a fixed schedule of cells (field, shape,
kind).  The seed chooses what fills each cell: irreducibles, partitions,
conjugators, polynomial coefficients and certificate shapes.  Keeping the
schedule fixed keeps the cost of one cycle nearly the same for every seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field as dc_field

from intertwine import serialize
from intertwine.canonical import generalized_jordan_matrix
from intertwine.fields import FiniteField
from intertwine.matrices import Matrix, direct_sum
from intertwine.partitions import Partition
from intertwine.polys import Poly

FIELDS = {2: (2, 1), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2),
          16: (2, 4), 256: (2, 8), 1024: (2, 10)}

# The second pair of a `basis` request is (f(A), f(B)) for f = t^2 + 1, so
# the intersection code equals the code of (A, B).
SECOND_PAIR_POLY = (1, 0, 1)

# oracle: (q, kind, r, s) cells in three cost bands, 48 requests per cycle.
# The middle band (12 copies of one cell) holds the median and the top band
# (8 copies of the costliest cell) holds p90, so both percentiles sit among
# requests of one shape rather than in a gap between shapes.
ORACLE_CELLS = (
    [(2, "dim", r, s) for r, s in ((10, 12), (12, 10), (11, 13), (13, 11), (12, 14), (14, 12))]
    + [(2, "basis", r, s) for r, s in ((10, 12), (12, 10), (11, 11), (10, 13), (13, 10), (12, 12))]
    + [(5, "dim", r, s) for r, s in ((10, 11), (11, 10), (10, 12), (12, 10))]
    + [(16, "dim", 10, 10), (16, "dim", 11, 10)]
    + [(16, "dim", 13, 13)] * 12
    + [(5, "basis", r, s) for r, s in ((11, 14), (14, 11), (12, 13), (13, 12), (12, 14),
                                       (14, 12), (13, 13), (13, 14), (14, 13), (12, 12))]
    + [(16, "basis", 14, 14)] * 8
)
ORACLE_K = (10, 30)


# spectral: per field, four sharing pairs (formula, bounds, zero), four
# coprime pairs (zero) and four factor requests of fixed degree.
SPECTRAL_CELLS = {
    2: ([(24, 32), (40, 28), (32, 24), (28, 40)],
        [(32, 36), (28, 40), (36, 24), (40, 32)], (48, 64, 56, 40)),
    7: ([(32, 24), (28, 40), (40, 36), (24, 28)],
        [(36, 32), (40, 24), (24, 40), (32, 28)], (40, 56, 48, 64)),
    16: ([(24, 36), (40, 32), (32, 28), (36, 40)],
         [(28, 24), (32, 40), (40, 28), (24, 32)], (36, 52, 44, 60)),
    1024: ([(16, 24), (24, 20), (20, 16), (22, 18)],
           [(20, 16), (18, 22), (24, 24), (16, 20)], (32, 32, 34, 34)),
}

# certify: (command, q, k, r, s).  The seed swaps r and s of a `construct`
# cell, which keeps its cost; q^k runs from 2401 to 65536.  An `extremal`
# cell has r > s = k, so its certificate is transposed.  Its s is below
# 6 because extremal needs q >= k + 2, and s >= 6 would mean at least 8^6
# codewords per enumeration.
CERTIFY_CELLS = [
    ("construct", 7, 5, 8, 9), ("construct", 8, 4, 8, 10), ("construct", 9, 5, 6, 10),
    ("construct", 16, 4, 7, 9), ("construct", 256, 2, 6, 8), ("construct", 16, 3, 9, 10),
    ("extremal", 7, 4, 9, 4), ("extremal", 8, 5, 8, 5),
]


def make_field(q):
    p, e = FIELDS[q]
    return FiniteField(p, e)


# -- planted structures ---------------------------------------------------------

def conjugate(parts):
    """Conjugate partition as a list."""
    return [sum(1 for x in parts if x > i) for i in range(max(parts, default=0))]


def planted_dim(a, b):
    """sum over shared p of deg(p) * sum_i lambda'_i mu'_i."""
    total = 0
    for p, lam in a.items():
        mu = b.get(p)
        if mu is not None:
            total += (len(p) - 1) * sum(x * y for x, y in zip(conjugate(lam), conjugate(mu)))
    return total


def planted_bounds(a, b):
    """Spectral sandwich: per shared p, deg(p) * (#blocks product, weight product)."""
    lo = hi = 0
    for p, lam in a.items():
        mu = b.get(p)
        if mu is not None:
            d = len(p) - 1
            lo += d * len(lam) * len(mu)
            hi += d * sum(lam) * sum(mu)
    return lo, hi


def _has_root(field, coeffs):
    add, mul = field.add, field.mul
    for x in range(field.q):
        acc = 0
        for c in reversed(coeffs):
            acc = add(mul(acc, x), c)
        if acc == 0:
            return True
    return False


def irreducible_pool(field):
    """The first four, two and two monic irreducibles of degree 1, 2 and 3 in
    canonical order, binomials t^d + c excluded.

    A polynomial of degree at most 3 is irreducible exactly when it has no
    root, so the pool is found without calling the package's tests.  The
    binomials come first in canonical order, and in characteristic 2 every
    t^2 + c is a square whose root the search over GF(2^10) finds late.
    """
    q = field.q
    pool = []
    for d, want in ((1, 4), (2, 2), (3, 2)):
        found = 0
        for code in range(0 if d == 1 else q, q**d):
            coeffs = []
            for _ in range(d):
                coeffs.append(code % q)
                code //= q
            coeffs.append(1)
            if d == 1 or not _has_root(field, coeffs):
                pool.append(tuple(coeffs))
                found += 1
                if found == want:
                    break
    return pool


def random_partition(rng, weight):
    parts = []
    while weight:
        part = rng.randint(1, weight)
        parts.append(part)
        weight -= part
    return sorted(parts, reverse=True)


def random_structure(rng, pool, n, max_weight):
    """{irreducible: partition} with sum deg * weight = n, or None."""
    comps = {}
    left = n
    while left:
        cands = [p for p in pool if p not in comps and len(p) - 1 <= left]
        if not cands:
            return None
        p = rng.choice(cands)
        d = len(p) - 1
        comps[p] = random_partition(rng, rng.randint(1, min(max_weight, left // d)))
        left -= d * sum(comps[p])
    return comps


def cost_signature(comps):
    """sum over components of deg(p) + 2 * largest part.

    primary_decomposition evaluates p at the matrix (deg p products) and
    then walks the nullity chain (one rref and one product per step, as many
    steps as the largest part), so its cost grows with this number.
    """
    return sum(len(p) - 1 + 2 * max(lam) for p, lam in comps.items())


def signature_target(n):
    return n - n // 8 + 4


def plant_structures(rng, pool, r, s, *, coprime=False, k_range=(1, None), max_weight=6,
                     pin_cost=False):
    """Random structures for A (size r) and B (size s) with a planted answer.

    coprime: B uses no irreducible of A.  k_range bounds the planted
    dimension otherwise.  pin_cost keeps each cost_signature within 1 of
    signature_target, so that the cost of a cell that runs
    primary_decomposition varies little with the seed.
    """
    for _ in range(100000):
        a = random_structure(rng, pool, r, max_weight)
        if a is None or (pin_cost and abs(cost_signature(a) - signature_target(r)) > 1):
            continue
        b = random_structure(rng, [p for p in pool if p not in a] if coprime else pool,
                             s, max_weight)
        if b is None or (pin_cost and abs(cost_signature(b) - signature_target(s)) > 1):
            continue
        k = planted_dim(a, b)
        if coprime or (k >= k_range[0] and (k_range[1] is None or k <= k_range[1])):
            return a, b
    raise RuntimeError(f"no planted structure for r={r}, s={s}")


def random_conjugate(rng, field, comps):
    """A random conjugate of J, the direct sum of generalized Jordan blocks.

    J is conjugated by 4n random transvections I + c E_ij, each applied as a
    row and a column operation, which leaves the matrix about as dense as a
    random one at O(n^2) cost and without calling the package's elimination.
    """
    blocks = [generalized_jordan_matrix(Poly(field, p), Partition(lam))
              for p, lam in comps.items()]
    j = direct_sum(blocks)
    n = j.nrows
    e = list(j.entries)
    add, sub, mul = field.add, field.sub, field.mul
    for _ in range(4 * n):
        row, col = rng.sample(range(n), 2)
        c = rng.randrange(1, field.q)
        for t in range(n):
            e[row * n + t] = add(e[row * n + t], mul(c, e[col * n + t]))
        for t in range(n):
            e[t * n + col] = sub(e[t * n + col], mul(c, e[t * n + row]))
    return Matrix(field, n, n, e)


def second_pair_matrix(m):
    """f(M) for f = SECOND_PAIR_POLY, by Horner."""
    field, n = m.field, m.nrows
    acc = Matrix.zero(field, n, n)
    for c in reversed(SECOND_PAIR_POLY):
        acc = acc * m + Matrix.scalar(field, n, c)
    return acc


# -- requests ----------------------------------------------------------------------

@dataclass
class Step:
    """One request: a CLI argv or a library call, and its planted answer.

    ``out_file`` names a file the command writes instead of stdout;
    ``stdout_to`` saves stdout for a later step; ``extract`` copies keys of
    the output object into files for a later step.
    """

    id: str
    kind: str
    argv: list = dc_field(default_factory=list)
    call: str = ""
    files: tuple = ()
    expect: dict = dc_field(default_factory=dict)
    out_file: str = ""
    stdout_to: str = ""
    extract: dict = dc_field(default_factory=dict)

    def outputs(self):
        """The files this step writes."""
        return [p for p in (self.out_file, self.stdout_to, *self.extract.values()) if p]


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(obj, separators=(",", ":")))
    return path


def _write_matrix(path, m):
    return _write_json(path, serialize.matrix_to_json(m))


def gen_oracle(rng, outdir):
    units = []
    pools = {}
    for i, (q, kind, r, s) in enumerate(ORACLE_CELLS):
        field = make_field(q)
        pool = pools.setdefault(q, irreducible_pool(field))
        a_comps, b_comps = plant_structures(rng, pool, r, s, k_range=ORACLE_K)
        k = planted_dim(a_comps, b_comps)
        a = random_conjugate(rng, field, a_comps)
        b = random_conjugate(rng, field, b_comps)
        sid = f"{kind}-q{q}-{r}x{s}-{i}"
        files = [_write_matrix(os.path.join(outdir, f"{sid}-A.json"), a),
                 _write_matrix(os.path.join(outdir, f"{sid}-B.json"), b)]
        if kind == "dim":
            units.append([Step(sid, "dim", argv=["dim", *files], expect={"k": k})])
        else:
            files += [_write_matrix(os.path.join(outdir, f"{sid}-A2.json"), second_pair_matrix(a)),
                      _write_matrix(os.path.join(outdir, f"{sid}-B2.json"), second_pair_matrix(b))]
            units.append([Step(sid, "basis", argv=["basis", *files],
                               expect={"k": k, "r": r, "s": s})])
    return units


def gen_spectral(rng, outdir):
    units = []
    for q, (sharing, coprime, degrees) in SPECTRAL_CELLS.items():
        field = make_field(q)
        pool = irreducible_pool(field)
        for is_coprime, shapes in ((False, sharing), (True, coprime)):
            for r, s in shapes:
                a_comps, b_comps = plant_structures(rng, pool, r, s, coprime=is_coprime,
                                                    max_weight=8, pin_cost=not is_coprime)
                sid = f"q{q}-{r}x{s}-{'coprime' if is_coprime else 'shared'}"
                files = (
                    _write_matrix(os.path.join(outdir, f"{sid}-A.json"),
                                  random_conjugate(rng, field, a_comps)),
                    _write_matrix(os.path.join(outdir, f"{sid}-B.json"),
                                  random_conjugate(rng, field, b_comps)),
                )
                if not is_coprime:
                    lo, hi = planted_bounds(a_comps, b_comps)
                    units.append([Step(f"formula-{sid}", "formula", call="dimension_formula",
                                       files=files,
                                       expect={"k": planted_dim(a_comps, b_comps)})])
                    units.append([Step(f"bounds-{sid}", "bounds", call="spectral_bounds",
                                       files=files, expect={"lo": lo, "hi": hi})])
                units.append([Step(f"zero-{sid}", "zero", argv=["zero", *files],
                                   expect={"zero": is_coprime})])
        for j, deg in enumerate(degrees):
            coeffs = [rng.randrange(q) for _ in range(deg)] + [rng.randrange(1, q)]
            sid = f"q{q}-deg{deg}-{j}"
            path = _write_json(os.path.join(outdir, f"{sid}-poly.json"),
                               serialize.poly_to_json(Poly(field, coeffs)))
            units.append([Step(f"factor-{sid}", "factor", argv=["factor", path],
                               expect={"q": q, "coeffs": coeffs})])
    return units


def gen_certify(rng, outdir):
    units = []
    for i, (cmd, q, k, r, s) in enumerate(CERTIFY_CELLS):
        if cmd == "extremal":
            d = r
            make = ["extremal", str(r), str(s)]
        else:
            if rng.random() < 0.5:
                r, s = s, r
            d = (r // k) * s
            make = ["construct", str(r), str(s), str(k)]
        sid = f"{cmd}-q{q}-{r}x{s}-k{k}-{i}"
        path = {name: os.path.join(outdir, f"{sid}-{name}.json")
                for name in ("cert", "A", "B", "code")}
        expect = {"q": q, "r": r, "s": s, "k": k, "d": d, "transposed": cmd == "extremal"}
        units.append([
            Step(f"{sid}-construct", "construct",
                 argv=[*make, "--q", str(q), "--out", path["cert"]],
                 expect=expect, out_file=path["cert"],
                 extract={"A": path["A"], "B": path["B"]}),
            Step(f"{sid}-basis", "basis", argv=["basis", path["A"], path["B"]],
                 expect={"k": k, "r": r, "s": s}, stdout_to=path["code"]),
            Step(f"{sid}-mindist", "mindist", argv=["mindist", path["code"]], expect=expect),
            Step(f"{sid}-verify", "verify", argv=["verify", path["cert"]], expect=expect),
        ])
    return units


GENERATORS = {"oracle": gen_oracle, "spectral": gen_spectral, "certify": gen_certify}


def generate(workload, seed, outdir):
    """Write the inputs of one workload into outdir; return its request units.

    A unit is a list of steps run back to back (one step, except the
    certify pipelines).  The same (workload, seed) writes the same bytes.
    """
    os.makedirs(outdir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    units = GENERATORS[workload](rng, outdir)
    ids = [step.id for unit in units for step in unit]
    if len(set(ids)) != len(ids):
        raise RuntimeError(f"{workload}: request ids are not unique")
    return units


def inputs_digest(outdir, units):
    """sha256 over every input file and every step, with outdir elided."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read() + b"\0")
    for unit in units:
        for step in unit:
            h.update(repr(vars(step)).replace(outdir, "").encode())
    return h.hexdigest()
