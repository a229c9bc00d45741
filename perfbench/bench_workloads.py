"""The benchmark's workloads: seeded request lists, the timed operation and
the output checks.

Each workload's request list holds the same multiset of shapes for every
seed; the seed draws the 48-bit modulus, the coefficients and the order.
So every seed asks for the same work, and a run that executes whole passes
of the list measures the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

MODULUS_BITS = 48
# Outputs of products with len(f) * len(g) at or below this are compared
# with the schoolbook oracle; larger ones are checked by evaluation.
ORACLE_MAX_WORK = 4096
CHECK_POINTS = 2
BIVARIATE_SHAPES = ((32, 32), (64, 16), (16, 64))
BIVARIATE_METHODS = ("bks_standard", "bks_reciprocal", "bks_negated",
                     "bks_four")


@dataclass(frozen=True)
class Request:
    """One multiplication.  For ``mod_mul`` f and g are coefficient tuples,
    constant term first; for a bivariate method they are BiPoly rows
    (f[i][j] is the coefficient of x**i * y**j)."""

    f: tuple
    g: tuple
    method: str = "mod_mul"

    def shape_key(self) -> tuple:
        """Sort key by work, then shape: equal for requests of one shape."""
        if self.method == "mod_mul":
            lens = (len(self.f), len(self.g))
        else:
            lens = (len(self.f), len(self.f[0]))
        return (lens[0] * lens[1], self.method, lens)


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    modulus: int
    requests: tuple[Request, ...]
    points: tuple[tuple[int, int], ...]   # evaluation points (x, y) mod n
    forced_shapes: int                   # shapes timed under each variant


def _zn_short():
    # Every (len f, len g) pair in 8..64 once: AUTO picks ks1 or ks3.
    return [(a, b) for a in range(8, 65) for b in range(8, 65)]


def _zn_long():
    # The paper's regime: balanced and long, AUTO always picks ks4.
    return [(n, n) for n in (1024, 2048, 4096)] * 2


def _zn_unbalanced():
    # One long operand, one short, each side long for half the pairs.
    return [(long, short) if short % 32 else (short, long)
            for long in (4096, 8192) for short in range(16, 257, 16)]


def _zn_bivariate():
    return [(shape, method) for shape in BIVARIATE_SHAPES
            for method in BIVARIATE_METHODS]


# name -> (shape generator, odd modulus, shapes timed under each variant)
_SPECS = {
    "zn-short": (_zn_short, False, 256),
    "zn-long": (_zn_long, False, 3),
    "zn-unbalanced": (_zn_unbalanced, False, 8),
    "zn-bivariate": (_zn_bivariate, True, 12),
}
NAMES = tuple(_SPECS)


def _coeffs(rng, n: int, length: int) -> tuple[int, ...]:
    return tuple(rng.randrange(n) for _ in range(length))


def generate(name: str, seed: int) -> Workload:
    """The request list of workload ``name``; same seed, same list."""
    try:
        shapes_of, odd, forced = _SPECS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; one of {NAMES}")
    rng = random.Random(f"{name}/{seed}")
    n = rng.getrandbits(MODULUS_BITS) | (1 << (MODULUS_BITS - 1)) | int(odd)
    shapes = shapes_of()
    rng.shuffle(shapes)
    requests = []
    for shape in shapes:
        if name == "zn-bivariate":
            (lx, ly), method = shape
            f = tuple(_coeffs(rng, n, ly) for _ in range(lx))
            g = tuple(_coeffs(rng, n, ly) for _ in range(lx))
            requests.append(Request(f, g, method))
        else:
            requests.append(Request(_coeffs(rng, n, shape[0]),
                                    _coeffs(rng, n, shape[1])))
    points = tuple((rng.randrange(2, n), rng.randrange(2, n))
                   for _ in range(CHECK_POINTS))
    return Workload(name, seed, n, tuple(requests), points, forced)


def distinct_shapes(requests) -> list[int]:
    """Index of the first request of each shape, smallest work first."""
    first = {}
    for i, req in enumerate(requests):
        first.setdefault(req.shape_key(), i)
    return [first[key] for key in sorted(first)]


def spread(indices: list[int], k: int) -> list[int]:
    """k entries evenly spaced over ``indices`` (all of them if k >= len)."""
    if k >= len(indices):
        return list(indices)
    return [indices[j * len(indices) // k] for j in range(k)]


def make_call(km, workload: Workload, variant):
    """The timed operation: from plain coefficient tuples to the result's
    coefficients.  Module attributes are looked up per call so a tracer
    can wrap them."""
    mp = km.modpoly
    n = workload.modulus

    def uni(a, b):
        return mp.mod_mul(mp.ModPoly(a, n), mp.ModPoly(b, n), variant).coeffs

    if workload.name != "zn-bivariate":
        return lambda req: uni(req.f, req.g)

    bp = km.bipoly
    ring = bp.ring_zmod(n)

    def bivariate(req):
        reduce = getattr(bp, req.method)
        return reduce(bp.BiPoly(req.f), bp.BiPoly(req.g), ring, uni).coeffs

    return bivariate


def _horner(coeffs, r: int, n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * r + c) % n
    return acc


def _in_range(coeffs, n: int) -> bool:
    return all(type(c) is int and 0 <= c < n for c in coeffs)


def check(km, workload: Workload, req: Request, out) -> bool:
    """True when ``out`` is the product of ``req``.

    Small univariate products are compared with the schoolbook oracle;
    the rest must satisfy h(r) = f(r) * g(r) mod n at the workload's
    seeded points, with the right length and every coefficient in [0, n).
    """
    n = workload.modulus
    if not isinstance(out, tuple):
        return False
    if req.method == "mod_mul":
        if len(out) != len(req.f) + len(req.g) - 1 or not _in_range(out, n):
            return False
        if len(req.f) * len(req.g) <= ORACLE_MAX_WORK:
            mp = km.modpoly
            want = km.oracle.schoolbook_mod(mp.ModPoly(req.f, n),
                                            mp.ModPoly(req.g, n))
            return out == want.coeffs
        return all(_horner(out, r, n)
                   == _horner(req.f, r, n) * _horner(req.g, r, n) % n
                   for r, _ in workload.points)
    lx, ly = len(req.f), len(req.f[0])
    if len(out) != 2 * lx - 1 or any(
            not isinstance(row, tuple) or len(row) != 2 * ly - 1
            or not _in_range(row, n) for row in out):
        return False

    def value(rows, x, y):
        return _horner([_horner(row, y, n) for row in rows], x, n)

    return all(value(out, x, y) == value(req.f, x, y) * value(req.g, x, y) % n
               for x, y in workload.points)
