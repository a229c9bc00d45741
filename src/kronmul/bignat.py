"""Multiplication of natural numbers on 64-bit limbs over plain Python ints:
CPython's own multiply, or when counted, classical and Karatsuba.

An m-limb number is one whose bit length lies in (64(m-1), 64m]; the
multiplies below count their work in those limbs, while the values
themselves stay ordinary ints, so addition, shifting and byte-aligned
digit packing run at C speed.

A product that no one counts is one native product: ``mul`` and
``mul_signed`` given no ``MulStats`` run CPython's own multiply, whatever
the config.  Counted, it is plain Karatsuba over ``_classical_int`` leaves:
``mul`` given a MulStats, like ``mul_karatsuba`` always, recurses by the
three-product split down to a limb-count threshold, and every product it
does not split, like every ``mul_classical`` call and every counted product
under ``classical_only``, is a classical leaf that counts exactly m*n word
products for an m-limb by n-limb product (``MulStats``) and makes one
native product.  Every machine product is a call of ``_native_mul``.

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
    products only: ``mul`` given no ``MulStats`` makes one native product
    whatever the config (``mul_karatsuba`` recurses by the threshold,
    counted or not).
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


def _mul_int(x: int, y: int, stats: MulStats | None, config: MulConfig) -> int:
    # A product that no one counts is one native product: CPython's own
    # multiply, Karatsuba included.  Counting runs the explicit recursion,
    # or under classical_only one classical leaf.
    if stats is None:
        return _native_mul(x, y)
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
    """a * b for naturals.  Uncounted, one native product; counted into
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
