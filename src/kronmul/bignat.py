"""Counted multiplication of natural numbers on 64-bit limbs, classical and
Karatsuba, over plain Python ints.

An m-limb number is one whose bit length lies in (64(m-1), 64m]; the
multiplies below count their work in those limbs, while the values
themselves stay ordinary ints, so addition, shifting and byte-aligned
digit packing run at C speed.

Multiplication is not delegated wholesale.  ``mul_karatsuba`` runs the
explicit three-product recursion in Python down to a configurable limb-count
threshold, and every product it does not split, like every ``mul_classical``
call, is a schoolbook leaf that counts exactly m*n word products for an
m-limb by n-limb product (``MulStats``).  A leaf runs as native products,
which CPython computes with the same quadratic algorithm in C while the
smaller operand fits under its schoolbook cutoff (32 limbs at 30-bit
digits).  A larger leaf cuts its smaller operand into blocks of that many
limbs, one native product each, so the interpreter never applies its own
Karatsuba inside a leaf.  A split decides for each of its three
sub-products whether it is a leaf and runs a single-block leaf itself;
every other leaf runs in ``_classical_int``.  Every machine product is a
call of ``_native_mul``.  Where the leaves run does not change the counts.

All functions are pure, except that a multiply adds its word products to
the MulStats counter it is given.
"""

from __future__ import annotations

import operator
import struct
import sys
from dataclasses import dataclass

LIMB_BITS = 64
_LIMB_BYTES = LIMB_BITS // 8
_LIMB_MASK = (1 << LIMB_BITS) - 1
# CPython multiplies schoolbook in C (x_mul) while the smaller operand has at
# most KARATSUBA_CUTOFF = 70 digits; this many 64-bit limbs always fit.
_NATIVE_SCHOOLBOOK_LIMBS = 70 * sys.int_info.bits_per_digit // LIMB_BITS
_BLOCK_BITS = _NATIVE_SCHOOLBOOK_LIMBS * LIMB_BITS
_BLOCK_MASK = (1 << _BLOCK_BITS) - 1

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
    which products run classically; a 1-limb operand cannot be split, so a
    smaller threshold would recurse forever.  ``classical_only`` forces the
    quadratic path regardless of size, which makes word-product counts
    follow the m*n law exactly.
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
    # Schoolbook: an m x n product costs exactly m*n word products.  CPython
    # runs this very algorithm in C for each block of the smaller operand,
    # since a block never exceeds the native cutoff.
    xl = (x.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    yl = (y.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    if stats is not None:
        stats.limb_products += xl * yl
    if xl > yl:
        x, y, xl = y, x, yl
    if xl <= _NATIVE_SCHOOLBOOK_LIMBS:
        return _native_mul(x, y)
    acc = 0
    for shift in range(0, xl * LIMB_BITS, _BLOCK_BITS):
        acc += _native_mul((x >> shift) & _BLOCK_MASK, y) << shift
    return acc


def _karatsuba_int(x: int, y: int, stats: MulStats | None, threshold: int) -> int:
    xl = (x.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    yl = (y.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    if xl <= threshold or yl <= threshold:
        return _classical_int(x, y, stats)
    return _karatsuba_split(x, y, xl, yl, stats, threshold)


def _karatsuba_split(x: int, y: int, xl: int, yl: int,
                     stats: MulStats | None, threshold: int) -> int:
    # Split both operands at half the longer one (odd lengths round up):
    # x = x0 + x1*B, y = y0 + y1*B with B = 2**shift, then
    # x*y = z0 + ((z0+z2) - (x0-x1)(y0-y1))*B + z2*B^2 in the three-product
    # form z1 = (x0+x1)(y0+y1) - z0 - z2.  (A conditional, not max(): this
    # runs once per internal node.)
    shift = ((xl if xl > yl else yl) + 1) // 2 * LIMB_BITS
    x1 = x >> shift
    x0 = x - (x1 << shift)
    y1 = y >> shift
    y0 = y - (y1 << shift)
    # Each sub-product a*b splits again, or is a leaf run right here and
    # counted as _classical_int counts it: natively up to the cutoff, else
    # (only at thresholds above the cutoff) by _classical_int's blocks.
    # The three are written out: a call per sub-product, one Python frame
    # per leaf, cost about 2% of perfbench's zn-long throughput.
    a, b = x0, y0
    al = (a.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    bl = (b.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    if al > threshold and bl > threshold:
        z0 = _karatsuba_split(a, b, al, bl, stats, threshold)
    else:
        if stats is not None:
            stats.limb_products += al * bl
        z0 = (_native_mul(a, b) if al <= _NATIVE_SCHOOLBOOK_LIMBS
              or bl <= _NATIVE_SCHOOLBOOK_LIMBS
              else _classical_int(a, b, None))
    a, b = x1, y1
    al = (a.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    bl = (b.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    if al > threshold and bl > threshold:
        z2 = _karatsuba_split(a, b, al, bl, stats, threshold)
    else:
        if stats is not None:
            stats.limb_products += al * bl
        z2 = (_native_mul(a, b) if al <= _NATIVE_SCHOOLBOOK_LIMBS
              or bl <= _NATIVE_SCHOOLBOOK_LIMBS
              else _classical_int(a, b, None))
    a, b = x0 + x1, y0 + y1
    al = (a.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    bl = (b.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    if al > threshold and bl > threshold:
        z1 = _karatsuba_split(a, b, al, bl, stats, threshold)
    else:
        if stats is not None:
            stats.limb_products += al * bl
        z1 = (_native_mul(a, b) if al <= _NATIVE_SCHOOLBOOK_LIMBS
              or bl <= _NATIVE_SCHOOLBOOK_LIMBS
              else _classical_int(a, b, None))
    z1 -= z0 + z2
    return z0 + (z1 << shift) + (z2 << (2 * shift))


def _mul_int(x: int, y: int, stats: MulStats | None, config: MulConfig) -> int:
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
    """a * b for naturals, dispatching to the classical path at or below the
    configured limb-count threshold and to Karatsuba above it."""
    if config is None:
        config = DEFAULT_MUL_CONFIG
    return _mul_int(*_naturals(a, b), stats, config)


def mul_classical(a: int, b: int, stats: MulStats | None = None) -> int:
    """Quadratic schoolbook product of naturals; counts exactly
    limbs(a)*limbs(b)."""
    return _classical_int(*_naturals(a, b), stats)


def mul_karatsuba(a: int, b: int, stats: MulStats | None = None,
                  config: MulConfig | None = None) -> int:
    """Three-product recursion on naturals; falls back to classical below
    the threshold."""
    if config is None:
        config = DEFAULT_MUL_CONFIG
    return _karatsuba_int(*_naturals(a, b), stats,
                          config.karatsuba_threshold)


def mul_signed(a: int, b: int, stats: MulStats | None = None,
               config: MulConfig | None = None) -> int:
    """a * b for signed ints: the sign times the counted product of the
    magnitudes."""
    a, b = operator.index(a), operator.index(b)
    if config is None:
        config = DEFAULT_MUL_CONFIG
    product = _mul_int(abs(a), abs(b), stats, config)
    return -product if (a < 0) != (b < 0) else product


# --- base-2^N digit packing -------------------------------------------------
#
# A digit vector of k digits takes one of three paths.
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
# From _LANE_MIN_DIGITS digits on, widths 8..56 go by digit phase instead
# (the lane path).  Digits i = r (mod 8) sit `width` bytes apart, each at
# byte r*width // 8 and bit r*width % 8 of its group.  A width of at most
# 56 keeps shift + width <= 63, so each digit lies inside the 64-bit lane
# that starts at its byte; a width of at least 8 keeps the lanes of one
# phase from overlapping.  So a phase moves as 8 strided byte-slice copies
# (one per lane byte) plus one whole-buffer shift and mask: about 100
# C-level calls for all digits instead of one Python step per digit.
# Below the lane cutoff, and at other widths, the groups win on fixed cost.
#
# Every digit must lie in [0, 2**width).  _pack_ints does not check, and its
# three paths differ on an oversized digit, but every caller ensures it
# (CoeffVec bounds with pack's width check, from_digits, OverlapDigits,
# unpacked digits), and a check would cost on every blit.

_LANE_WIDTHS = range(8, 57)
_LANE_MIN_DIGITS = 384
_GROUP_MIN_DIGITS = 48


def _pack_lanes(values: list[int], width: int) -> int:
    # Pads `values` in place: _pack_ints hands over its own copy.
    ngroups = (len(values) + 7) // 8
    values += [0] * (8 * ngroups - len(values))
    span = (ngroups - 1) * width + 1
    to_lanes = struct.Struct(f"<{ngroups}Q").pack
    # Only the bytes a digit touches are written.  Phases r and r+2 never
    # share a byte (width >= 8), so the even and the odd phases fill one
    # buffer each, and the two add bit-disjointly.
    bufs = [bytearray(ngroups * width + _LIMB_BYTES) for _ in range(2)]
    for r in range(8):
        byte, shift = divmod(r * width, 8)
        lanes = int.from_bytes(to_lanes(*values[r::8]), "little") << shift
        lanes = lanes.to_bytes(ngroups * _LIMB_BYTES, "little")
        buf = bufs[r & 1]
        for k in range((shift + width + 7) // 8):
            buf[byte + k:byte + k + span:width] = lanes[k::8]
    return (int.from_bytes(bufs[0], "little")
            + int.from_bytes(bufs[1], "little"))


def _unpack_lanes(value: int, width: int, count: int) -> list[int]:
    ngroups = (count + 7) // 8
    nbytes = ngroups * _LIMB_BYTES
    # Padded so that the last lane of every phase can read 8 bytes.
    raw = value.to_bytes(ngroups * width + _LIMB_BYTES, "little")
    span = (ngroups - 1) * width + 1
    mask = int.from_bytes(((1 << width) - 1).to_bytes(_LIMB_BYTES, "little")
                          * ngroups, "little")
    from_lanes = struct.Struct(f"<{ngroups}Q").unpack
    lanes = bytearray(nbytes)
    out = [0] * (8 * ngroups)
    for r in range(8):
        byte, shift = divmod(r * width, 8)
        for k in range(8):
            lanes[k::8] = raw[byte + k:byte + k + span:width]
        phase = (int.from_bytes(lanes, "little") >> shift) & mask
        out[r::8] = from_lanes(phase.to_bytes(nbytes, "little"))
    del out[count:]
    return out


def _pack_ints(values, width: int) -> int:
    if width < 1:
        raise ValueError("digit width must be >= 1")
    values = list(values)
    if len(values) < _GROUP_MIN_DIGITS:
        acc = 0
        for v in reversed(values):
            acc = acc << width | v
        return acc
    if len(values) >= _LANE_MIN_DIGITS and width in _LANE_WIDTHS:
        return _pack_lanes(values, width)
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
    if value.bit_length() > width * count:
        raise ValueError(f"value does not fit in {count} digits of {width} bits")
    if count < _GROUP_MIN_DIGITS:
        mask = (1 << width) - 1
        return [value >> s & mask for s in range(0, width * count, width)]
    if count >= _LANE_MIN_DIGITS and width in _LANE_WIDTHS:
        return _unpack_lanes(value, width, count)
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
    a = operator.index(a)
    if a < 0:
        raise ValueError("cannot split a negative value into digits")
    return _unpack_ints(a, width_bits, count)


def from_digits(digits, width_bits: int) -> int:
    """Sum of digits[i] * 2**(i*width_bits); inverse of ``to_digits``."""
    vals = []
    for i, d in enumerate(digits):
        d = operator.index(d)
        if not 0 <= d < (1 << width_bits):
            raise ValueError(f"digit {i} outside [0, 2**{width_bits})")
        vals.append(d)
    return _pack_ints(vals, width_bits)
