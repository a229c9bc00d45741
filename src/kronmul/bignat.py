"""Multiplication of natural numbers on 64-bit limbs over plain Python ints:
CPython's own multiply, split by Toom-3 or Toom-4 on large balanced
operands, or when counted, classical and Karatsuba.

An m-limb number is one whose bit length lies in (64(m-1), 64m]; the
multiplies below count their work in those limbs, while the values
themselves stay ordinary ints, so addition, shifting and byte-aligned
digit packing run at C speed.

A product that no one counts runs CPython's own multiply, whatever the
config: ``mul`` and ``mul_signed`` given no ``MulStats`` make one native
product, unless both operands have at least ``_TOOM_MIN_BITS`` bits and
the longer has fewer than ``_TOOM_MAX_SKEW`` times the shorter's.  Then
Toom-3 splits it into five products of a third the size, or, from
``_TOOM4_MIN_BITS`` on the shorter side and below ``_TOOM4_MAX_SKEW``
times it on the longer, Toom-4 into seven of a quarter the size; each
part takes the same choice again, down to native leaves.  Counted, it is
plain Karatsuba over ``_classical_int`` leaves: ``mul`` given a MulStats,
like ``mul_karatsuba`` always, recurses by the three-product split down to
a limb-count threshold, and every product it does not split, like every
``mul_classical`` call and every counted product under
``classical_only``, is a classical leaf that counts exactly m*n word
products for an m-limb by n-limb product (``MulStats``) and makes one
native product.  Every machine product is a call of
``_native_mul``.

All functions are pure, except that a multiply adds its word products to
the MulStats counter it is given.
"""

from __future__ import annotations

import functools
import operator
import struct
from dataclasses import dataclass
from itertools import chain, repeat

LIMB_BITS = 64
_LIMB_MASK = (1 << LIMB_BITS) - 1

__all__ = [
    "LIMB_BITS",
    "BigNat",
    "MulStats",
    "MulConfig",
    "DEFAULT_MUL_CONFIG",
    "mul",
    "mul_classical",
    "mul_karatsuba",
    "mul_signed",
    "to_digits",
    "from_digits",
]


@dataclass
class MulStats:
    """Counter of single-word x single-word products performed.

    Monotonically non-decreasing while in use; ``reset`` between
    measurements.
    """

    limb_products: int = 0

    def reset(self) -> None:
        self.limb_products = 0


@dataclass(frozen=True)
class MulConfig:
    """Multiplication dispatch policy.

    ``karatsuba_threshold`` is the limb count (an integer >= 1) at or below
    which the counted Karatsuba makes a product a classical leaf; a 1-limb
    operand cannot be split, so a smaller threshold would recurse forever.
    ``classical_only`` makes every counted product one classical leaf, so
    word-product counts follow the m*n law exactly.  Both shape counted
    products only: ``mul`` given no ``MulStats`` runs the native multiply,
    split by Toom-3 or Toom-4 on large balanced operands, whatever the config
    (``mul_karatsuba`` recurses by the threshold, counted or not).
    """

    karatsuba_threshold: int = 16
    classical_only: bool = False

    def __post_init__(self):
        threshold = operator.index(self.karatsuba_threshold)
        if threshold < 1:
            raise ValueError("karatsuba_threshold must be >= 1")
        object.__setattr__(self, "karatsuba_threshold", threshold)


DEFAULT_MUL_CONFIG = MulConfig()


class BigNat(int):
    """A natural number: an ``int`` that refuses negatives and non-integers.

    It adds no arithmetic of its own; operators return plain ints.
    """

    __slots__ = ()

    def __new__(cls, value: int = 0):
        value = operator.index(value)
        if value < 0:
            raise ValueError("BigNat cannot be negative")
        return super().__new__(cls, value)


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


# An uncounted product whose shorter operand has at least _TOOM_MIN_BITS
# bits, and whose longer one has fewer than _TOOM_MAX_SKEW times as many,
# splits by Toom-3 into five products of a third the size: n**1.465, where
# CPython's own multiply is Karatsuba, n**1.585.  Any other product is one
# native product; a lopsided one takes CPython's own lopsided path.  Time of
# one split, with native leaves, over one native product (CPython 3.11,
# interleaved medians of 41 runs; balanced operands of the given bits):
#
#   bits    20k  22k  23k  24k  25k  26k  27k  28k  29k  30k
#   split  1.00 0.96 0.95 0.98 1.02 0.92 0.91 0.92 0.91 0.88
#
# Time of the whole recursion over one native product at ks3's and ks4's
# product sizes for a 48-bit modulus and L = 1024 / 2048 / 4096, and at
# twice the largest, two runs: 0.87-0.89 at 54k bits, 0.86-0.88 at 55k,
# 0.83-0.85 at 110k and 0.81-0.83 at 221k (two levels deep from 78k bits).
# With no skew gate, by the longer operand's bits over the shorter's, at a
# shorter one of 30k / 55k / 110k bits (31 runs):
#
#   longer/shorter  1.0  1.5  1.75 2.0  2.25 2.5  3.0
#   30k            0.99 0.91 0.95 1.06 1.03 1.21 1.29
#   55k            0.89 0.80 0.93 1.00 1.04 1.09 1.28
#   110k           0.77 0.80 0.85 1.04 0.92 1.02 1.20
#
# At 1.95 the gated split read 1.03-1.04, 0.96-0.97 and 0.90-0.93.  Cells
# of a second run on the same shared 2-vCPU host moved by up to 0.05, so
# both gates sit where the split stops losing.
#
# Above Toom-3, a product whose shorter operand has at least _TOOM4_MIN_BITS
# bits, and whose longer one has fewer than _TOOM4_MAX_SKEW times as many,
# splits by Toom-4 into seven products of a quarter the size, n**1.404; its
# parts take the ladder again, so at ks4's 110.6k-bit products of L = 4096
# they split by Toom-3 over native leaves.  Time over one native product of
# the Toom-3 ladder alone and of one Toom-4 split on top of it, balanced
# operands of the given bits (interleaved medians of 31 runs, two runs):
#
#   bits      60k  70k  80k  90k  100k 111k 150k 221k 442k
#   Toom-3   0.94 1.00 0.88 0.82 0.89 0.84 0.94 0.82 0.72
#            0.87 0.94 0.90 0.85 0.83 0.82 0.91 0.80 0.83
#   Toom-4   0.88 0.88 0.81 0.78 0.87 0.75 0.75 0.68 0.59
#            0.86 0.85 0.85 0.85 0.83 0.76 0.75 0.74 0.68
#
# The whole ladder with these constants read 0.76-0.77 at 111k, 0.69 at
# 221k and 0.54-0.61 at 442k.  Toom-4 wins from 60k on, and at 54k-55k
# it is about even with Toom-3.  The cutoff sits at 80k, above three times
# Toom-3's cutoff, so every product that Toom-3 split two levels deep
# still does; no product of the benchmark's workloads lies between 55k
# bits and ks3's 108.6k at L = 2048.  Time of Toom-4 over Toom-3
# with no Toom-4 skew gate, by the longer operand's bits over the
# shorter's, two runs:
#
#   longer/shorter  1.0  1.25 1.4  1.5  1.6  1.75 1.95
#   80k            0.91 0.98 0.88 1.00 1.04 0.78 1.02
#                  0.89 0.95 0.93 1.02 1.06 0.87 1.02
#   111k           0.95 1.01 0.88 1.01 1.00 1.01 0.94
#                  0.98 0.98 0.90 1.00 1.05 1.01 0.91
#
# Toom-4 stops winning at 1.5, so products from there to Toom-3's gate
# keep Toom-3.
_TOOM_MIN_BITS = 26_000
_TOOM_MAX_SKEW = 2
_TOOM4_MIN_BITS = 80_000
_TOOM4_MAX_SKEW = 1.5


def _toom_int(x: int, y: int) -> int:
    # The ladder: Toom-4 on the largest balanced products, Toom-3 on the
    # other large balanced ones, one native product on the rest.  A product
    # below the Toom-3 cutoff returns after one compare.
    xb, yb = x.bit_length(), y.bit_length()
    if (xb < _TOOM_MIN_BITS or yb < _TOOM_MIN_BITS
            or xb >= _TOOM_MAX_SKEW * yb or yb >= _TOOM_MAX_SKEW * xb):
        return _native_mul(x, y)
    if (xb >= _TOOM4_MIN_BITS and yb >= _TOOM4_MIN_BITS
            and xb < _TOOM4_MAX_SKEW * yb and yb < _TOOM4_MAX_SKEW * xb):
        return _toom4_int(x, y, (max(xb, yb) + 3) // 4)
    return _toom3_int(x, y, (max(xb, yb) + 2) // 3)


def _toom_signed(x: int, y: int) -> int:
    product = _toom_int(abs(x), abs(y))
    return -product if (x < 0) != (y < 0) else product


def _toom3_int(x: int, y: int, k: int) -> int:
    # Split both naturals at k bits, x = x0 + x1*B + x2*B^2 with B = 2**k,
    # evaluate at 0, 1, -1, -2 and infinity, multiply pointwise through the
    # ladder (magnitudes only) and interpolate by Bodrato's sequence: one
    # exact division by 3, two by 2, shifts and adds.
    mask = (1 << k) - 1
    x0, x1, x2 = x & mask, x >> k & mask, x >> 2 * k
    y0, y1, y2 = y & mask, y >> k & mask, y >> 2 * k
    xs, ys = x0 + x2, y0 + y2
    xm, ym = xs - x1, ys - y1
    r0 = _toom_int(x0, y0)
    r1 = _toom_int(xs + x1, ys + y1)
    rm1 = _toom_signed(xm, ym)
    rm2 = _toom_signed(((xm + x2) << 1) - x0, ((ym + y2) << 1) - y0)
    rinf = _toom_int(x2, y2)
    r3 = (rm2 - r1) // 3
    r1 = (r1 - rm1) >> 1
    r2 = rm1 - r0
    r3 = ((r2 - r3) >> 1) + (rinf << 1)
    r2 += r1 - rinf
    r1 -= r3
    return r0 + (r1 << k) + (r2 << 2 * k) + (r3 << 3 * k) + (rinf << 4 * k)


def _toom4_int(x: int, y: int, k: int) -> int:
    # Split both naturals at k bits into four parts, x = x0 + x1*B + x2*B^2
    # + x3*B^3 with B = 2**k, evaluate at 0, 1, -1, 2, -2, 1/2 (scaled by 8,
    # so the product's value there is scaled by 64) and infinity, multiply
    # pointwise through the ladder (magnitudes only) and interpolate by
    # Bodrato's sequence for these points, as in GMP's
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
    w1 = _toom_signed(xe2 - xo2, ye2 - yo2)
    w2 = _toom_int(xe + xo, ye + yo)
    w3 = _toom_signed(xe - xo, ye - yo)
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


def _mul_int(x: int, y: int, stats: MulStats | None, config: MulConfig) -> int:
    # A product that no one counts runs the Toom ladder over native
    # products, or for short or lopsided operands is one native product.
    # Counting runs the explicit Karatsuba recursion, or under
    # classical_only one classical leaf.
    if stats is None:
        return _toom_int(x, y)
    if config.classical_only:
        return _classical_int(x, y, stats)
    return _karatsuba_int(x, y, stats, config.karatsuba_threshold)


def _naturals(a: int, b: int) -> tuple[int, int]:
    a, b = operator.index(a), operator.index(b)
    if a < 0 or b < 0:
        raise ValueError("operands must be natural numbers")
    return a, b


def mul(a: int, b: int, stats: MulStats | None = None,
        config: MulConfig | None = None) -> int:
    """a * b for naturals.  Uncounted, one native product, or Toom-3 or
    Toom-4 over native products on large balanced operands; counted into
    ``stats``, the classical path at or below the configured limb-count
    threshold (or always, under ``classical_only``) and Karatsuba above
    it."""
    if config is None:
        config = DEFAULT_MUL_CONFIG
    return _mul_int(*_naturals(a, b), stats, config)


def mul_classical(a: int, b: int, stats: MulStats | None = None) -> int:
    """Product of naturals at schoolbook's cost: counts exactly
    limbs(a)*limbs(b) word products, and makes one native product."""
    return _classical_int(*_naturals(a, b), stats)


def mul_karatsuba(a: int, b: int, stats: MulStats | None = None,
                  config: MulConfig | None = None) -> int:
    """Three-product recursion on naturals; a product with an operand of at
    most the threshold's limbs is a classical leaf."""
    if config is None:
        config = DEFAULT_MUL_CONFIG
    return _karatsuba_int(*_naturals(a, b), stats,
                          config.karatsuba_threshold)


def mul_signed(a: int, b: int, stats: MulStats | None = None,
               config: MulConfig | None = None) -> int:
    """a * b for signed ints: the sign times ``mul``'s product of the
    magnitudes."""
    a, b = operator.index(a), operator.index(b)
    if config is None:
        config = DEFAULT_MUL_CONFIG
    product = _mul_int(abs(a), abs(b), stats, config)
    return -product if (a < 0) != (b < 0) else product


# --- base-2^N digit packing -------------------------------------------------
#
# A digit vector of k digits takes one of four paths.
#
# Below _GROUP_MIN_DIGITS digits, plain shifts: packing is Horner's rule
# (acc = acc << width | digit, most significant digit first) and unpacking
# one shift and mask per digit.  Their bit work grows as k**2 * width, but
# at these counts their small fixed cost wins.  Timed one blit at a time
# (CPython 3.11, best of 40 runs) at widths 48, 100 and 141, they beat the
# group forms below 48 digits and lose from about 56 on; at 100 bits,
# packing 32 digits took 6.0 us by Horner against 8.6 us in groups, 64
# digits 18.3 against 9.5 us, and unpacking 32 digits 7.3 against 9.2 us,
# 96 digits 35.9 against 21.2 us.
#
# From the cutoff on, groups of eight width-bit digits, which always span
# exactly `width` bytes: a vector packs as the join of its groups' bytes
# and unpacks group by group from one byte string, O(k*width) bit work
# overall with no repeated big shifts.
#
# Widths 8..64 can go by digit phase instead (strided fields).  Let d be
# the smallest power of two whose d*width bits fill a whole number gap >= 8
# of bytes (width 54: d = 4, gap = 27).  The digits i = r (mod d) of phase
# r then sit `gap` bytes apart, each at bit r*width of its gap-byte group.
# So one struct call writes phase r as little-endian 64-bit fields, each
# followed by gap - 8 pad bytes; one int.from_bytes reads it, and one shift
# by r*width and one OR put it in place.  Unpacking phase r is
# ((value >> r*width) & P).to_bytes(...), read back by one unpack_from, with
# P the width-bit mask repeated every gap bytes.  That is about four C-level
# calls per phase and no Python step per digit.  But each phase converts
# the whole vector's bytes, so d phases cost d passes, and struct converts a
# digit wider than one CPython digit (30 bits) by a slower general path.
#
# So the fields win where d is small or the digits are narrow.  Time of the
# groups over the fields (CPython 3.11, best of 9 runs) at 48 / 128 / 384 /
# 1024 / 4096 digits:
#
#   width (d)   pack                          unpack
#   64 (1)      2.32 2.56 2.48 2.10 1.93      1.96 2.37 2.89 3.24 2.83
#   48 (2)      1.45 1.60 1.72 1.56 1.32      1.57 2.09 2.56 2.88 3.09
#   54 (4)      0.93 1.05 1.14 1.16 1.04      1.09 1.43 1.78 2.01 2.10
#   62 (4)      1.00 1.13 1.30 1.31 1.26      0.95 1.37 1.73 1.78 1.93
#    8 (8)      0.72 1.15 2.18 2.48 2.83      0.68 1.51 2.70 3.39 4.09
#   29 (8)      -    1.02 1.19 -    -         -    1.01 1.50 -    -
#   51 (8)      0.59 0.74 0.76 0.81 0.87      0.60 0.92 1.25 1.39 1.38
#   63 (8)      0.53 0.64 0.81 0.84 0.84      0.58 0.76 1.12 1.17 1.21
#
# Hence the cutoffs below: d <= 4 (the even widths 16..64) from 48 digits;
# d = 8 at widths up to 30 from 128 digits; and the wider d = 8 widths from
# 384 digits, for unpacking only.
#
# Widths above 64 go wide from _WIDE_MIN_DIGITS digits on.  Unpacking at a
# width of a whole number nb of bytes is one to_bytes of the value, one
# struct of nb-byte string fields per block and one map(int.from_bytes)
# over them, with no Python step per digit.  Any other width unpacks at
# twice the width and splits each pair by two maps, & mask and >> width:
# one level at widths 4 (mod 8), two at 2 (mod 4), three at odd widths.
# That split beat two masked phases (d = 2) at width 100 too: 179 against
# 215 ns/digit at 2087 digits.  Joining pairs to pack costs as much as the groups, so
# packing writes the digits into the width-bit slots as the 64-bit fields
# above, at widths divisible by 4 (d <= 2).  That holds digits below 2**64
# only, such as the coefficients that ks1 and ks3 pack on the mod path; a
# larger one (from_digits, the overlap recovery) makes struct raise, and
# the vector goes by groups.  Time of the groups over the wide path (best
# of 15, CPython 3.11) at 48 / 128 / 384 / 1024 / 4096 digits, and the
# wide path's ns/digit at 4096:
#
#   unpack       48   128   384  1024  4096   ns   pack, 64-bit digits
#    65 (odd)   0.73 0.99 1.13 1.20 1.27  115   -
#    68         1.04 1.27 1.35 1.42 1.47  106   1.30 1.59 1.84 1.90 1.76
#   100         1.05 1.27 1.31 1.44 1.39  115   1.29 1.56 1.73 1.78 1.59
#   102 (d = 4) 0.86 1.30 1.66 1.48 1.32  124   0.81 0.98 1.11 1.17 1.11
#   104         1.46 1.62 1.74 1.80 1.73   92   2.02 2.28 2.46 2.39 2.15
#   136         1.46 1.62 1.73 1.74 1.70   99   2.02 2.23 2.44 2.49 2.17
#   141 (odd)   0.76 1.01 1.12 1.19 1.24  137   0.43 0.50 0.57 0.59 0.58
#
# A second run on the same shared 2-vCPU host moved single cells by up to
# 0.3 (65 at 384 digits read 0.92).  The pack rows at 102 and 141 time
# fields at d = 4 and 8, which the wide path does not take.  The cutoff
# sits at 384 digits, past every crossover, and keeps short vectors, with
# their many distinct counts, off the struct cache.
#
# The groups take the rest.  Both field kinds move in blocks of at most
# _FIELD_BLOCK fields, each kind through its own cache of 64 structs at
# about 36 bytes per field with the format text: at most 2.3 MB each.
#
# Every digit must lie in [0, 2**width).  _pack_ints does not check, and its
# paths differ on an oversized digit (on the fields, its extra bits OR
# into its neighbour, and from 2**64 on struct raises), but every caller
# ensures it (CoeffVec bounds with pack's width check, from_digits,
# OverlapDigits, unpacked digits), and a check would cost on every blit.

_GROUP_MIN_DIGITS = 48
_WIDE_MIN_DIGITS = 384
_FIELD_BLOCK = 1024


def _field_layout(width: int) -> tuple[int, int]:
    # (d, gap) as above.
    d = 1
    while d * width % 8 or d * width < 64:
        d *= 2
    return d, d * width // 8


_FIELD_LAYOUTS = {w: _field_layout(w) for w in range(8, 65)}
# The digit counts from which the fields beat the groups, by width.
_FIELD_PACK_MIN_DIGITS = {w: 48 if d <= 4 else 128
                          for w, (d, _) in _FIELD_LAYOUTS.items()
                          if d <= 4 or w <= 30}
_FIELD_UNPACK_MIN_DIGITS = {w: _FIELD_PACK_MIN_DIGITS.get(w, 384)
                            for w in _FIELD_LAYOUTS}


@functools.lru_cache(maxsize=64)
def _fields(gap: int, n: int) -> struct.Struct:
    # n little-endian 64-bit fields, each followed by gap - 8 pad bytes.
    return struct.Struct("<" + f"Q{gap - 8}x" * n)


@functools.lru_cache(maxsize=64)
def _byte_fields(nb: int, n: int) -> struct.Struct:
    # n byte strings of nb bytes each, back to back.
    return struct.Struct(f"{nb}s" * n)


def _field_bytes(digits: list[int], gap: int) -> bytes:
    # The digits as fields `gap` bytes apart, one struct call per block.
    if len(digits) <= _FIELD_BLOCK:
        return _fields(gap, len(digits)).pack(*digits)
    return b"".join(_field_bytes(digits[q:q + _FIELD_BLOCK], gap)
                    for q in range(0, len(digits), _FIELD_BLOCK))


def _field_digits(raw: bytes, gap: int, n: int, fields=_fields):
    # The n fields `gap` bytes apart in raw, as a tuple or an iterator: ints,
    # or with fields=_byte_fields the gap-byte strings.
    if n <= _FIELD_BLOCK:
        return fields(gap, n).unpack_from(raw)
    return chain.from_iterable(
        fields(gap, min(n - q, _FIELD_BLOCK)).unpack_from(raw, q * gap)
        for q in range(0, n, _FIELD_BLOCK))


def _pack_fields(values, width: int) -> int:
    d, gap = _FIELD_LAYOUTS.get(width) or _field_layout(width)
    acc = int.from_bytes(_field_bytes(values[0::d], gap), "little")
    for r in range(1, d):
        acc |= int.from_bytes(_field_bytes(values[r::d], gap),
                              "little") << r * width
    return acc


def _unpack_fields(value: int, width: int, count: int) -> list[int]:
    d, gap = _FIELD_LAYOUTS[width]
    n = -(-count // d)
    mask = int.from_bytes(((1 << width) - 1).to_bytes(gap, "little") * n,
                          "little")
    out = [0] * (n * d)
    for r in range(d):
        raw = ((value >> r * width) & mask).to_bytes(n * gap, "little")
        out[r::d] = _field_digits(raw, gap, n)
    del out[count:]
    return out


def _unpack_wide(value: int, width: int, count: int) -> list[int]:
    if width % 8:
        pairs = _unpack_wide(value, 2 * width, -(-count // 2))
        out = [0] * (2 * len(pairs))
        out[0::2] = map(operator.and_, pairs, repeat((1 << width) - 1))
        out[1::2] = map(operator.rshift, pairs, repeat(width))
        del out[count:]
        return out
    nb = width // 8
    raw = value.to_bytes(nb * count, "little")
    return list(map(int.from_bytes,
                    _field_digits(raw, nb, count, _byte_fields),
                    repeat("little")))


def _pack_ints(values, width: int) -> int:
    if width < 1:
        raise ValueError("digit width must be >= 1")
    if len(values) < _GROUP_MIN_DIGITS:
        acc = 0
        for v in reversed(values):
            acc = acc << width | v
        return acc
    cutoff = _FIELD_PACK_MIN_DIGITS.get(width)
    if cutoff is not None and len(values) >= cutoff:
        return _pack_fields(values, width)
    if (width > LIMB_BITS and width % 4 == 0
            and len(values) >= _WIDE_MIN_DIGITS):
        try:
            return _pack_fields(values, width)
        except struct.error:
            pass  # a digit of 2**64 or more: no 64-bit field holds it
    values = list(values)
    values += [0] * (-len(values) % 8)
    s1, s2, s3, s4, s5, s6, s7 = range(width, 8 * width, width)
    it = iter(values)
    return int.from_bytes(b"".join(
        (a | b << s1 | c << s2 | d << s3 | e << s4 | f << s5 | g << s6
         | h << s7).to_bytes(width, "little")
        for a, b, c, d, e, f, g, h in zip(it, it, it, it, it, it, it, it)),
        "little")


def _unpack_ints(value: int, width: int, count: int) -> list[int]:
    if width < 1:
        raise ValueError("digit width must be >= 1")
    if count < 0:
        raise ValueError("digit count must be >= 0")
    if value < 0:
        raise ValueError("cannot split a negative value into digits")
    if value.bit_length() > width * count:
        raise ValueError(f"value does not fit in {count} digits of {width} bits")
    if count < _GROUP_MIN_DIGITS:
        mask = (1 << width) - 1
        return [value >> s & mask for s in range(0, width * count, width)]
    cutoff = _FIELD_UNPACK_MIN_DIGITS.get(width)
    if cutoff is not None and count >= cutoff:
        return _unpack_fields(value, width, count)
    if width > LIMB_BITS and count >= _WIDE_MIN_DIGITS:
        return _unpack_wide(value, width, count)
    ngroups = (count + 7) // 8
    raw = value.to_bytes(ngroups * width, "little")
    mask = (1 << width) - 1
    out: list[int] = []
    for g in range(0, ngroups * width, width):
        acc = int.from_bytes(raw[g:g + width], "little")
        for _ in range(8):
            out.append(acc & mask)
            acc >>= width
    del out[count:]
    return out


def to_digits(a: int, width_bits: int, count: int) -> list[int]:
    """Split a natural into `count` base-2^width digits, least significant
    first.

    Errors if the value does not fit in `count` digits.
    """
    return _unpack_ints(operator.index(a), width_bits, count)


def from_digits(digits, width_bits: int) -> int:
    """Sum of digits[i] * 2**(i*width_bits); inverse of ``to_digits``."""
    vals = []
    for i, d in enumerate(digits):
        d = operator.index(d)
        if not 0 <= d < (1 << width_bits):
            raise ValueError(f"digit {i} outside [0, 2**{width_bits})")
        vals.append(d)
    return _pack_ints(vals, width_bits)
