"""Bivariate multiplication in R[x, y] reduced to univariate products in
R[x], over any commutative ring supplying the needed operations.

Chunk j of an operand holds the x-coefficients of y**j.  The standard
substitution evaluates at y = x**N with N wide enough that output chunks
never touch.  The reciprocal variant adds y = x**(-N) (the chunks reversed)
with N half as wide and peels overlapping output chunks apart; the negated
variant adds y = -x**N and splits even from odd output chunks by a half-sum
and half-difference (this needs exact halving in the ring); the four-point
variant combines both at a quarter of the width.  The univariate product
is a required callback: any R[x] product that agrees with schoolbook
convolution, such as the reference ``oracle.uni_schoolbook(ring,
operator.mul)``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

__all__ = ["RingOps", "BiPoly", "MissingHalveError", "ring_z", "ring_zmod",
           "bks_standard", "bks_reciprocal", "bks_negated", "bks_four"]

UniMul = Callable[[Sequence[Any], Sequence[Any]], Sequence[Any]]


class MissingHalveError(ValueError):
    """The ring has no exact halving, so this variant cannot run (doubling
    is not injective, e.g. Z/nZ with even n)."""


@dataclass(frozen=True)
class RingOps:
    """Operation table for a commutative ring's additive structure.

    ``halve`` is the inverse of doubling where that map is injective; leave
    it None otherwise.
    """

    zero: Any
    add: Callable[[Any, Any], Any]
    sub: Callable[[Any, Any], Any]
    halve: Optional[Callable[[Any], Any]] = None


def _halve_int(a: int) -> int:
    if a & 1:
        raise ValueError("halving an odd integer is not exact")
    return a >> 1


def ring_z() -> RingOps:
    """The integers."""
    return RingOps(zero=0, add=operator.add, sub=operator.sub,
                   halve=_halve_int)


def ring_zmod(n: int) -> RingOps:
    """Integers mod n for a word-sized n >= 2; halving exists only for odd n."""
    n = operator.index(n)
    if n < 2:
        raise ValueError("modulus must be >= 2")
    halve = None
    if n % 2 == 1:
        inv2 = (n + 1) // 2
        halve = lambda a: (a * inv2) % n
    return RingOps(zero=0,
                   add=lambda a, b: (a + b) % n,
                   sub=lambda a, b: (a - b) % n,
                   halve=halve)


@dataclass(frozen=True)
class BiPoly:
    """Dense bivariate polynomial: coeffs[i][j] is the coefficient of
    x**i * y**j.  Lengths are declared by the array shape, not inferred."""

    coeffs: tuple[tuple[Any, ...], ...]

    def __post_init__(self):
        coeffs = tuple(tuple(row) for row in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs or not coeffs[0]:
            raise ValueError("both lengths must be >= 1")
        width = len(coeffs[0])
        if any(len(row) != width for row in coeffs):
            raise ValueError("coefficient array must be rectangular")

    @property
    def lx(self) -> int:
        return len(self.coeffs)

    @property
    def ly(self) -> int:
        return len(self.coeffs[0])


def _ychunks(p: BiPoly) -> list[tuple[Any, ...]]:
    # chunk j is the x-coefficient vector of y**j
    return list(zip(*p.coeffs))


def _from_ychunks(chunks) -> BiPoly:
    return BiPoly(tuple(zip(*chunks)))


def _check_shapes(f: BiPoly, g: BiPoly) -> None:
    if f.lx != g.lx or f.ly != g.ly:
        raise ValueError("inputs must share both lengths")


def _require_halve(ring: RingOps) -> None:
    if ring.halve is None:
        raise MissingHalveError("ring does not support exact halving")


def _place(chunks, spacing, length, zero):
    # chunk k at k*spacing in a vector of ``length`` entries; with spacing at
    # least the chunk length no two chunks touch, so no ring call is needed.
    vec = [zero] * length
    for k, chunk in enumerate(chunks):
        vec[k * spacing:k * spacing + len(chunk)] = chunk
    return vec


def _evaluations(chunks, spacing, ring):
    # The chunk sequence at y = +-x**spacing.  Where chunks cannot touch,
    # both are placements, with the odd chunks negated at -y.  Otherwise
    # they are E(y**2) +- y*O(y**2), with E and O the even and odd chunks: E
    # is plain placement at 2*spacing, and only adding and subtracting the
    # shifted odd chunks costs ring calls.
    length = spacing * (len(chunks) - 1) + len(chunks[0])
    if spacing >= len(chunks[0]):
        sub, zero = ring.sub, ring.zero
        signed = [[sub(zero, c) for c in chunk] if k % 2 else chunk
                  for k, chunk in enumerate(chunks)]
        return (_place(chunks, spacing, length, zero),
                _place(signed, spacing, length, zero))
    pos = _place(chunks[0::2], 2 * spacing, length, ring.zero)
    neg = list(pos)
    for k in range(1, len(chunks), 2):
        for t, c in enumerate(chunks[k], k * spacing):
            pos[t] = ring.add(pos[t], c)
            neg[t] = ring.sub(neg[t], c)
    return pos, neg


def _sign_split(pos, neg, shift, ring):
    # The products a at +y and b at -y give the even-index chunks as their
    # half-sum and the odd-index ones as their half-difference over y, whose
    # first ``shift`` entries are zero.  With exact halving
    # (a-b)/2 = (a+b)/2 - b, one call per entry; over Z, a+b and a-b have
    # the same parity, so halving the sum rejects what halving the
    # difference would.
    halve, add = ring.halve, ring.add
    even = [halve(add(a, b)) for a, b in zip(pos, neg)]
    return even, list(map(ring.sub, even[shift:], neg[shift:]))


def _split_chunks(vec, spacing, chunk_len, count):
    return [vec[k * spacing:k * spacing + chunk_len] for k in range(count)]


def _interleave(even, odd):
    # even has one chunk more than odd
    return [c for pair in zip(even, odd) for c in pair] + even[len(odd):]


def _overlap_recover(fwd, rev, count, spacing, chunk_len, ring):
    """Peel overlapped chunks off the forward and reversed sums.

    Chunk k starts at k*spacing in ``fwd`` and at (count-1-k)*spacing in
    ``rev``, and overlaps only its neighbours, in their last and first
    ``chunk_len - spacing`` entries.  So its first ``spacing`` entries are
    the forward sum less chunk k-1's tail, and the rest are the reversed
    sum less chunk k-1's head.
    """
    over = chunk_len - spacing
    sub = ring.sub
    out = []
    for k in range(count):
        low = k * spacing
        high = (count - k) * spacing    # entry ``spacing`` of chunk k in rev
        chunk = [*fwd[low:low + min(spacing, chunk_len)],
                 *rev[high:high + over]]
        if k:
            prev = out[-1]
            for t in range(over):
                chunk[t] = sub(chunk[t], prev[spacing + t])
                chunk[spacing + t] = sub(chunk[spacing + t], prev[t])
        out.append(chunk)
    return out


def bks_standard(f: BiPoly, g: BiPoly, ring: RingOps,
                 mul: UniMul) -> BiPoly:
    """One univariate product of length 2*Lx*Ly - Lx - Ly + 1; operand and
    output chunks land in disjoint windows, so no ring call is made."""
    _check_shapes(f, g)
    lx, ly = f.lx, f.ly
    spacing = 2 * lx - 1
    length = spacing * (ly - 1) + lx
    prod = mul(_place(_ychunks(f), spacing, length, ring.zero),
               _place(_ychunks(g), spacing, length, ring.zero))
    return _from_ychunks(_split_chunks(prod, spacing, spacing, 2 * ly - 1))


def bks_reciprocal(f: BiPoly, g: BiPoly, ring: RingOps,
                   mul: UniMul) -> BiPoly:
    """Two univariate products of length Lx*Ly, of the chunks in forward and
    in reversed order, then the overlap recovery: 2*(Lx-1) subtractions per
    output chunk after the first."""
    _check_shapes(f, g)
    lx, ly = f.lx, f.ly
    chunks_f, chunks_g = _ychunks(f), _ychunks(g)
    prod_fwd = mul(_place(chunks_f, lx, lx * ly, ring.zero),
                   _place(chunks_g, lx, lx * ly, ring.zero))
    prod_rev = mul(_place(chunks_f[::-1], lx, lx * ly, ring.zero),
                   _place(chunks_g[::-1], lx, lx * ly, ring.zero))
    return _from_ychunks(_overlap_recover(prod_fwd, prod_rev, 2 * ly - 1, lx,
                                          2 * lx - 1, ring))


def bks_negated(f: BiPoly, g: BiPoly, ring: RingOps,
                mul: UniMul) -> BiPoly:
    """Two univariate products of length Lx*Ly, at y = x**Lx and y = -x**Lx;
    one sign split gives the even output chunks from their half-sum and the
    odd ones from their half-difference.  Operand chunks do not touch, so
    only negating the odd ones and the split cost ring calls."""
    _check_shapes(f, g)
    _require_halve(ring)
    lx, ly = f.lx, f.ly
    pos_f, neg_f = _evaluations(_ychunks(f), lx, ring)
    pos_g, neg_g = _evaluations(_ychunks(g), lx, ring)
    even, odd = _sign_split(mul(pos_f, pos_g), mul(neg_f, neg_g), lx, ring)
    return _from_ychunks(_interleave(
        _split_chunks(even, 2 * lx, 2 * lx - 1, ly),
        _split_chunks(odd, 2 * lx, 2 * lx - 1, ly - 1)))


def bks_four(f: BiPoly, g: BiPoly, ring: RingOps,
             mul: UniMul) -> BiPoly:
    """Four univariate products of length ceil(Lx/2)*(Ly-1) + Lx, at
    y = +-x**N and, through the reversed chunk order, y = +-x**(-N), with
    N = ceil(Lx/2); reversed operands multiply to the reversed product, so
    no sign fix-up is needed.  A sign split per direction and an overlap
    recovery per part give the output chunks.  From Lx = 2 on, chunks
    overlap already in the operands, so adding the odd chunks costs ring
    calls."""
    _check_shapes(f, g)
    _require_halve(ring)
    lx, ly = f.lx, f.ly
    n = (lx + 1) // 2

    def points(chunks):
        return (_evaluations(chunks, n, ring)
                + _evaluations(chunks[::-1], n, ring))

    pos, neg, rpos, rneg = (mul(a, b) for a, b in
                            zip(points(_ychunks(f)), points(_ychunks(g))))
    fwd_even, fwd_odd = _sign_split(pos, neg, n, ring)
    rev_even, rev_odd = _sign_split(rpos, rneg, n, ring)
    return _from_ychunks(_interleave(
        _overlap_recover(fwd_even, rev_even, ly, 2 * n, 2 * lx - 1, ring),
        _overlap_recover(fwd_odd, rev_odd, ly - 1, 2 * n, 2 * lx - 1, ring)))
