"""Multiplication of natural numbers on 64-bit limbs over plain Python ints:
CPython's own multiply, split by Toom-4 on large balanced operands, or when
counted, classical and Karatsuba.

An m-limb number is one whose bit length lies in (64(m-1), 64m]; the
multiplies below count their work in those limbs, while the values
themselves stay ordinary ints, so addition, shifting and byte-aligned
digit packing run at C speed.

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
from typing import ClassVar

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


def _toom_signed(x: int, y: int) -> int:
    product = _toom_int(abs(x), abs(y))
    return -product if (x < 0) != (y < 0) else product


def _toom4_int(x: int, y: int, k: int) -> int:
    # Split both naturals at k bits into four parts, x = x0 + x1*B + x2*B^2
    # + x3*B^3 with B = 2**k, evaluate at 0, 1, -1, 2, -2, 1/2 (scaled by 8,
    # so the product's value there is scaled by 64) and infinity, multiply
    # pointwise through ``_toom_int`` (magnitudes only) and interpolate by
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


# --- repeated-field masks ---------------------------------------------------
#
# ks3's and ks4's odd slots at +-2**N, a phase of the strided unpack and the
# packed reduction's fields are each masked by a W-bit field repeated every
# s bits.  One store keeps them by (builder, *its arguments), so two kinds
# never collide.  An entry holds a power-of-two count of fields and serves
# any shorter request, as every caller only ANDs with a mask or first cuts
# the one it adds; a longer request replaces it.  A new key past _MASK_KEYS
# empties the store, and an entry whose first, widest mask has more than
# _MASK_MAX_BITS bits is built for its call and not kept: at worst 32
# entries of two 128 KB masks, 8 MB.  That keeps every mask of up to 8192
# coefficients at a 48-bit modulus (ks3 at 8192x256: 4096 x 208 bits).
_MASK_KEYS = 32
_MASK_MAX_BITS = 1 << 20
_masks: dict[tuple, tuple] = {}


def _masks_for(key: tuple, fields: int) -> tuple:
    """(count, *key[0](count, *key[1:])), count a power of two >= fields."""
    entry = _masks.get(key)
    if entry is not None and entry[0] >= fields:
        return entry
    count = 1 << (fields - 1).bit_length()
    entry = count, *key[0](count, *key[1:])
    if entry[1].bit_length() <= _MASK_MAX_BITS:
        if key not in _masks and len(_masks) >= _MASK_KEYS:
            _masks.clear()
        _masks[key] = entry
    return entry


def _repeated(field: int, stride: int, count: int) -> int:
    # `field` in each of `count` (a power of two) slots `stride` bits apart.
    for _ in range(count.bit_length() - 1):
        field |= field << stride
        stride *= 2
    return field


def _odd_slots(count: int, width: int) -> tuple[int]:
    # Every odd slot of `width` bits among 2*count.
    return _repeated(((1 << width) - 1) << width, 2 * width, count),


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


def _phase_masks(count: int, width: int) -> tuple[int]:
    # A phase of _unpack_fields: `width` bits in each of `count` gaps.
    return _repeated((1 << width) - 1, 8 * _FIELD_LAYOUTS[width][1], count),


def _unpack_fields(value: int, width: int, count: int) -> list[int]:
    d, gap = _FIELD_LAYOUTS[width]
    n = -(-count // d)
    _, mask = _masks_for((_phase_masks, width), n)
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


# --- digits reduced mod n ---------------------------------------------------
#
# _unpack_mod returns the digits of a packed vector reduced mod n, with a
# fixed number of C-level big-int operations per vector in place of one
# Python `%` per digit, which for a divisor of two CPython digits (over 30
# bits) runs CPython's general long division, about 110 ns each.  The
# unreduced digits are never built.  With W the width and b = n.bit_length(),
# so 2**(b-1) <= n < 2**b:
#
# 1. One mask and one shift split the even- and odd-index digits into two
#    sub-vectors of W-bit fields at stride 2W.  The steps below run on
#    each.
# 2. Barrett: with m = 2**W // n, each field A < 2**W gets the estimate
#    q' = (A*m) >> W of q = A // n.  A*m < 2**(2W) / n <= 2**(2W-b+1)
#    <= 2**(2W), so the products of all fields come from one packed
#    multiply by m without reaching the next field, and q' < 2**(W-b+1)
#    <= 2**W is read with step 1's mask: the next field's product starts at
#    bit W.  A*m/2**W lies in (A/n - 1, A/n], so q' is q-1 or q, and
#    A - q'*n lies in [0, 2n): one packed multiply by n and one
#    subtraction, with no borrow between fields.
# 3. One conditional subtraction for all fields: adding 2**b - n to a
#    field r < 2n gives less than n + 2**b <= 2**(b+1), with bit b set
#    exactly when r >= n; that bit, times n, is subtracted.  After >> b it
#    is bit 0, and the next field starts at 2W-b >= W, so the mask reads it.
# 4. The fields, now below n < 2**64, are read in order by one pass of
#    little-endian `Q` pairs: the odd sub-vector is shifted up by 64 bits
#    only and or-ed onto the even one, so each field of 2W >= 128 bits
#    holds an even digit in its low 64 bits and the next odd digit in the
#    64 above.  The pairs sit gap bytes apart in d phases, (d, gap) =
#    _field_layout(2W), kept with the masks: one at W = 0 (mod 4), two at
#    W = 2 (mod 4), four at odd W; phase r is the vector shifted down by
#    r*2W.  Below W = 64 the two sub-vectors are or-ed back at stride W and
#    go by _unpack_ints, as their digits are below n <= 2**W.
#
# That is about a dozen linear big-int operations, plus d to_bytes and
# struct passes, against _unpack_ints and a `%` per digit.  ks3's output
# length from which it wins, ksint._PACKED_MOD_MIN_COEFFS = 40, was read
# from ks3 `mod_mul` calls at a 48-bit modulus, the new path over the old
# (medians of 15 interleaved batches, CPython 3.11, shared 2-core host;
# two phases at e = 2 and 6, one at e = 4):
#
#   shape    3x3  9x9 16x16 9x32 16x32 4x40 4x64 33x33 48x48 64x64
#   e         2    4    4    4    4     2    2    6     6     6
#   k         5   17   31   40   47    43   67   65    95   127
#   new/old 1.40 1.05 0.95 0.92 0.89  0.99 0.89 0.91  0.87  0.85
#
# One phase wins from about 30 coefficients; two are even at about 43 and
# win from about 65.  The cutoff sits between them, and ks3 at odd e never
# takes this path.  Cells move by about 0.05 between runs.


def _mod_masks(count: int, width: int, n: int) -> tuple:
    # (mask, fix, m, (d, gap)) for `count` fields, as _unpack_mod reads them.
    ones = _repeated(1, 2 * width, count)
    return (ones * ((1 << width) - 1), ones * ((1 << n.bit_length()) - n),
            (1 << width) // n, _field_layout(2 * width))


@functools.lru_cache(maxsize=64)
def _pair_fields(gap: int, n: int) -> struct.Struct:
    # n pairs of little-endian 64-bit fields, each pair followed by gap - 16
    # pad bytes.
    return struct.Struct("<" + f"QQ{gap - 16}x" * n)


def _unpack_mod(value: int, width: int, count: int, n: int) -> list[int]:
    """The `count` base-2**width digits of ``value``, each reduced mod n,
    for 2 <= n < 2**64 and n.bit_length() <= width; raises ValueError as
    _unpack_ints does when ``value`` is negative or does not fit."""
    if value < 0:
        raise ValueError("cannot split a negative value into digits")
    if value.bit_length() > width * count:
        raise ValueError(f"value does not fit in {count} digits of {width} bits")
    stride = 2 * width
    fields = (count + 1) // 2
    slots, mask, fix, m, (d, gap) = _masks_for((_mod_masks, width, n),
                                               fields)
    # fix is added, so it drops its surplus fields first.
    fix >>= (slots - fields) * stride
    b = n.bit_length()
    even, odd = value & mask, value >> width & mask
    even -= (even * m >> width & mask) * n
    odd -= (odd * m >> width & mask) * n
    even -= (even + fix >> b & mask) * n
    odd -= (odd + fix >> b & mask) * n
    if width < 64:
        return _unpack_ints(even | odd << width, width, count)
    c = even | odd << 64
    groups = -(-fields // d)
    out = [0] * (2 * d * groups)
    for r in range(d):
        raw = (c >> r * stride).to_bytes(groups * gap, "little")
        pairs = tuple(_field_digits(raw, gap, groups, _pair_fields))
        out[2 * r::2 * d] = pairs[0::2]
        out[2 * r + 1::2 * d] = pairs[1::2]
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
