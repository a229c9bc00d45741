"""Multiplication of natural numbers on 64-bit limbs over plain Python ints:
CPython's own multiply, split by Toom-4 on large balanced operands, or when
counted, classical and Karatsuba.

An m-limb number is one whose bit length lies in (64(m-1), 64m]; the
multiplies below count their work in those limbs, while the values
themselves stay ordinary ints, so addition and shifting run at C speed.
Packing coefficients into these ints, and reading them back, is pack's.

A product that no one counts runs CPython's own multiply, whatever the
config: ``mul`` and ``mul_signed`` given no ``MulStats`` make one native
product, unless both operands have at least ``_TOOM_MIN_BITS`` bits and
the longer has fewer than ``_TOOM_MAX_SKEW`` times the shorter's.  Then
Toom-4 splits it into seven products of a quarter the size, and each part
takes the same choice again, down to native leaves.  Counted, it is
plain Karatsuba over ``_classical_int`` leaves: ``mul`` given a MulStats,
like ``mul_karatsuba`` always, recurses by the three-product split until
an operand has at most ``_KARATSUBA_THRESHOLD`` (16) limbs, and every
product it does not split, like every ``mul_classical`` call and every
counted product under ``classical_only``, is a classical leaf that counts
exactly m*n word products for an m-limb by n-limb product (``MulStats``)
and makes one native product.  Every machine product is a call of
``_native_mul``.  No option picks between the two: a count needs the
counted recursion, and an uncounted call gains nothing from it.

All functions are pure, except that a multiply adds its word products to
the MulStats counter it is given.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import ClassVar

LIMB_BITS = 64
_LIMB_MASK = (1 << LIMB_BITS) - 1

__all__ = [
    "LIMB_BITS",
    "MulStats",
    "MulConfig",
    "DEFAULT_MUL_CONFIG",
    "mul",
    "mul_classical",
    "mul_karatsuba",
    "mul_signed",
]


@dataclass
class MulStats:
    """Counter of single-word x single-word products performed.

    Monotonically non-decreasing while in use; pass a fresh one per
    measurement.
    """

    limb_products: int = 0


# Karatsuba's leaves: a product with an operand of at most this many limbs.
_KARATSUBA_THRESHOLD = 16


@dataclass(frozen=True, kw_only=True)
class MulConfig:
    """Multiplication dispatch policy.

    ``classical_only`` makes every counted product one classical leaf, so
    word-product counts follow the m*n law exactly; otherwise a counted
    product runs Karatsuba down to the constant ``karatsuba_threshold``
    limbs.  Uncounted products ignore the config.
    """

    karatsuba_threshold: ClassVar[int] = _KARATSUBA_THRESHOLD
    classical_only: bool = False


DEFAULT_MUL_CONFIG = MulConfig()


# --- multiplication ---------------------------------------------------------


# Every machine product of the multiplies below is a call of this name, so a
# fault injected here reaches all of them.
_native_mul = operator.mul


def _classical_int(x: int, y: int, stats: MulStats | None = None) -> int:
    # Schoolbook's cost: an m x n product counts exactly m*n word products.
    # Nothing times a counted product, so the machine may compute it by any
    # algorithm.
    if stats is not None:
        xl = (x.bit_length() + LIMB_BITS - 1) // LIMB_BITS
        yl = (y.bit_length() + LIMB_BITS - 1) // LIMB_BITS
        stats.limb_products += xl * yl
    return _native_mul(x, y)


def _karatsuba_int(x: int, y: int, stats: MulStats | None, threshold: int) -> int:
    # Split both operands at half the longer one's limbs (odd lengths round
    # up): x = x0 + x1*B, y = y0 + y1*B with B = 2**shift, and
    # x*y = z0 + z1*B + z2*B^2 with z1 = (x0+x1)(y0+y1) - z0 - z2.
    xl = (x.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    yl = (y.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    if xl <= threshold or yl <= threshold:
        return _classical_int(x, y, stats)
    shift = (max(xl, yl) + 1) // 2 * LIMB_BITS
    x1, y1 = x >> shift, y >> shift
    x0, y0 = x - (x1 << shift), y - (y1 << shift)
    z0 = _karatsuba_int(x0, y0, stats, threshold)
    z2 = _karatsuba_int(x1, y1, stats, threshold)
    z1 = _karatsuba_int(x0 + x1, y0 + y1, stats, threshold) - z0 - z2
    return z0 + (z1 << shift) + (z2 << (2 * shift))


# An uncounted product whose operands both have at least _TOOM_MIN_BITS
# bits, and whose longer one has fewer than _TOOM_MAX_SKEW times the
# shorter's, splits by Toom-4 into seven products of a quarter the size:
# n**1.404, where CPython's own multiply is Karatsuba, n**1.585.  Any other
# product is one native product; a lopsided one takes CPython's own lopsided
# path.  Time of one split, its parts through the gates below, over one
# native product (CPython 3.11, interleaved medians of 61, three runs;
# balanced operands of the given bits):
#
#   bits   14k  16k  18k  20k  22k  23k  24k  25k  26k  27k  28k  29k  30k  32k
#   split 0.99 1.00 0.99 0.96 0.95 0.95 0.94 0.91 0.89 0.93 0.92 0.91 0.89 0.86
#         1.03 0.99 1.02 0.98 0.94 0.94 0.91 0.93 0.94 0.95 0.91 0.85 0.94 0.89
#         1.01 0.99 0.98 0.95 0.94 0.94 0.94 0.87 0.95 0.91 0.91 0.92 0.91 0.94
#
# The split is even up to 18k, wins by 5-9% at 22k-24k and by 5-15% from
# 25k.  The cutoff sits at 26k, from where the split wins in every run.
# By the longer operand's bits over the shorter's, at a shorter one of 30k /
# 55k / 110k bits (medians of 41, two runs):
#
#   longer/shorter  1.0  1.25 1.5  1.75 1.95 2.0  2.25 2.5
#   30k            0.90 0.86 0.90 1.03 1.06 1.10 1.06 1.11
#                  0.90 0.87 0.90 0.95 1.05 1.09 1.05 1.11
#   55k            0.86 0.83 0.84 0.91 0.95 0.98 1.07 1.00
#                  0.86 0.83 0.85 0.93 0.93 0.97 1.01 0.98
#   110k           0.77 0.73 0.74 0.82 0.86 0.88 0.92 0.87
#                  0.75 0.72 0.73 0.78 0.85 0.89 0.93 0.92
#
# The skew gate sits at 2, where the split stops winning at 55k.  Near the
# cutoff it loses by up to 6% from 1.75, and at 110k it still wins at 2.5;
# one gate for every size sits between them.  At the workloads' balanced
# product sizes the whole recursion read 0.91 at 28.5k bits, 0.88-0.89 at
# 41.5k, 0.86-0.87 at 55k, 0.74-0.77 at 110.6k (two levels deep from 104k)
# and 0.69-0.72 at 221k.
_TOOM_MIN_BITS = 26_000
_TOOM_MAX_SKEW = 2


def _toom_int(x: int, y: int) -> int:
    # Toom-4 on large balanced products, one native product on the rest.  A
    # product below the cutoff returns after one compare.
    xb, yb = x.bit_length(), y.bit_length()
    if (xb < _TOOM_MIN_BITS or yb < _TOOM_MIN_BITS
            or xb >= _TOOM_MAX_SKEW * yb or yb >= _TOOM_MAX_SKEW * xb):
        return _native_mul(x, y)
    return _toom4_int(x, y, (max(xb, yb) + 3) // 4)


def _toom4_int(x: int, y: int, k: int) -> int:
    # Split both naturals at k bits into four parts, x = x0 + x1*B + x2*B^2
    # + x3*B^3 with B = 2**k, evaluate at 0, 1, -1, 2, -2, 1/2 (scaled by 8,
    # so the product's value there is scaled by 64) and infinity, multiply
    # pointwise through ``_toom_int`` (at -1 and -2 through ``mul_signed``,
    # uncounted) and interpolate by Bodrato's sequence, as in GMP's
    # mpn_toom_interpolate_7pts: exact divisions by 2, 4, 3, 9 and 15, small
    # multiples, shifts and adds.  On entry w1 .. w5 hold the values at -2,
    # 1, -1, 2 and 1/2; on exit each wi is the coefficient of B**i.
    mask = (1 << k) - 1
    x0, x1, x2, x3 = x & mask, x >> k & mask, x >> 2 * k & mask, x >> 3 * k
    y0, y1, y2, y3 = y & mask, y >> k & mask, y >> 2 * k & mask, y >> 3 * k
    xe, xo, ye, yo = x0 + x2, x1 + x3, y0 + y2, y1 + y3
    xe2, xo2 = x0 + (x2 << 2), (x1 + (x3 << 2)) << 1
    ye2, yo2 = y0 + (y2 << 2), (y1 + (y3 << 2)) << 1
    w0 = _toom_int(x0, y0)
    w1 = mul_signed(xe2 - xo2, ye2 - yo2)
    w2 = _toom_int(xe + xo, ye + yo)
    w3 = mul_signed(xe - xo, ye - yo)
    w4 = _toom_int(xe2 + xo2, ye2 + yo2)
    w5 = _toom_int((x0 << 3) + (x1 << 2) + (x2 << 1) + x3,
                   (y0 << 3) + (y1 << 2) + (y2 << 1) + y3)
    w6 = _toom_int(x3, y3)
    w5 += w4
    w1 = (w4 - w1) >> 1
    w4 -= w0
    w4 = ((w4 - w1) >> 2) - (w6 << 4)
    w3 = (w2 - w3) >> 1
    w2 -= w3
    w5 -= 65 * w2
    w2 -= w6 + w0
    w5 = (w5 + 45 * w2) >> 1
    w4 = (w4 - w2) // 3
    w2 -= w4
    w1 = w5 - w1
    w5 = (w5 - (w3 << 3)) // 9
    w3 -= w5
    w1 = (w1 // 15 + w5) >> 1
    w5 -= w1
    return (w0 + (w1 << k) + (w2 << 2 * k) + (w3 << 3 * k) + (w4 << 4 * k)
            + (w5 << 5 * k) + (w6 << 6 * k))


def _mul_int(x: int, y: int, stats: MulStats | None,
             config: MulConfig | None) -> int:
    # A product that no one counts runs the Toom-4 split over native
    # products, or for short or lopsided operands is one native product.
    # Counting runs the explicit Karatsuba recursion, or under
    # classical_only one classical leaf.  No config means the default.
    if stats is None:
        return _toom_int(x, y)
    if config is not None and config.classical_only:
        return _classical_int(x, y, stats)
    return _karatsuba_int(x, y, stats, _KARATSUBA_THRESHOLD)


def _naturals(a: int, b: int) -> tuple[int, int]:
    a, b = operator.index(a), operator.index(b)
    if a < 0 or b < 0:
        raise ValueError("operands must be natural numbers")
    return a, b


def mul(a: int, b: int, stats: MulStats | None = None,
        config: MulConfig | None = None) -> int:
    """a * b for naturals.  Uncounted, one native product, or Toom-4 over
    native products on large balanced operands; counted into
    ``stats``, the classical path at or below ``_KARATSUBA_THRESHOLD`` limbs
    (or always, under ``classical_only``) and Karatsuba above it."""
    return _mul_int(*_naturals(a, b), stats, config)


def mul_classical(a: int, b: int, stats: MulStats | None = None) -> int:
    """Product of naturals at schoolbook's cost: counts exactly
    limbs(a)*limbs(b) word products, and makes one native product."""
    return _classical_int(*_naturals(a, b), stats)


def mul_karatsuba(a: int, b: int, stats: MulStats | None = None) -> int:
    """Three-product recursion on naturals; a product with an operand of at
    most ``_KARATSUBA_THRESHOLD`` (16) limbs is a classical leaf."""
    return _karatsuba_int(*_naturals(a, b), stats, _KARATSUBA_THRESHOLD)


def mul_signed(a: int, b: int, stats: MulStats | None = None,
               config: MulConfig | None = None) -> int:
    """a * b for signed ints: the sign times ``mul``'s product of the
    magnitudes."""
    a, b = operator.index(a), operator.index(b)
    product = _mul_int(abs(a), abs(b), stats, config)
    return -product if (a < 0) != (b < 0) else product
