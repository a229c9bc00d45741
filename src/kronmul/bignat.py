"""Arbitrary-precision natural numbers on 64-bit limbs, with instrumented
classical and Karatsuba multiplication.

A BigNat is logically a little-endian vector of 64-bit limbs (the
most-significant limb of a nonzero value is nonzero; zero is the empty
vector).  The digits are held in a Python int, which makes addition,
subtraction, shifting and byte-aligned digit packing linear-time at C speed;
the ``limbs`` view is derived on demand and is normalized by construction.

Multiplication is not delegated wholesale.  ``mul_karatsuba`` runs the
explicit three-product recursion in Python down to a configurable limb-count
threshold, and every product it does not split, like every ``mul_classical``
call, is a schoolbook leaf that counts exactly m*n word products for an
m-limb by n-limb product (``MulStats``).  A leaf whose smaller operand fits
under CPython's own schoolbook cutoff (32 limbs at 30-bit digits) runs as a
native ``x * y``, which is the same quadratic algorithm in C; larger leaves
run one limb row at a time, so the interpreter never applies its own
Karatsuba inside a leaf.  Where the leaves run does not change the counts.

All operations are pure, except that a multiply adds its word products to
the MulStats counter it is given.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass

LIMB_BITS = 64
_LIMB_BYTES = LIMB_BITS // 8
_LIMB_MASK = (1 << LIMB_BITS) - 1
# CPython multiplies schoolbook in C (x_mul) while the smaller operand has at
# most KARATSUBA_CUTOFF = 70 digits; this many 64-bit limbs always fit.
_NATIVE_SCHOOLBOOK_LIMBS = 70 * sys.int_info.bits_per_digit // LIMB_BITS

__all__ = [
    "LIMB_BITS",
    "BigNat",
    "SignedBig",
    "MulStats",
    "MulConfig",
    "DEFAULT_MUL_CONFIG",
    "UnderflowError",
    "add",
    "sub",
    "mul",
    "mul_classical",
    "mul_karatsuba",
    "mul_signed",
    "shl_bits",
    "shr_bits",
    "shr_bits_exact",
    "to_digits",
    "from_digits",
]


class UnderflowError(ArithmeticError):
    """Natural-number subtraction would go below zero."""


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

    ``karatsuba_threshold`` is the limb count at or below which products run
    classically; ``classical_only`` forces the quadratic path regardless of
    size, which makes word-product counts follow the m*n law exactly.
    """

    karatsuba_threshold: int = 16
    classical_only: bool = False


DEFAULT_MUL_CONFIG = MulConfig()


def _nlimbs(value: int) -> int:
    return (value.bit_length() + LIMB_BITS - 1) // LIMB_BITS


def _limbs_of(value: int) -> tuple[int, ...]:
    if value == 0:
        return ()
    n = _nlimbs(value)
    return struct.unpack(f"<{n}Q", value.to_bytes(n * _LIMB_BYTES, "little"))


class BigNat:
    """An immutable natural number (>= 0)."""

    __slots__ = ("_v",)

    def __init__(self, value: int = 0):
        value = getattr(value, "_v", value)
        if not isinstance(value, int):
            raise TypeError(f"BigNat value must be an int, got {type(value).__name__}")
        if value < 0:
            raise ValueError("BigNat cannot be negative")
        object.__setattr__(self, "_v", value)

    @classmethod
    def from_limbs(cls, limbs) -> "BigNat":
        """Build from little-endian 64-bit words; high zero limbs are stripped."""
        value = 0
        for i, w in enumerate(limbs):
            w = int(w)
            if not 0 <= w <= _LIMB_MASK:
                raise ValueError(f"limb {i} out of range for {LIMB_BITS}-bit words")
            value |= w << (i * LIMB_BITS)
        return cls(value)

    @classmethod
    def from_decimal(cls, text: str) -> "BigNat":
        text = text.strip()
        if not text.isdigit():
            raise ValueError(f"not a decimal natural number: {text!r}")
        return cls(int(text))

    def to_decimal(self) -> str:
        return str(self._v)

    @property
    def limbs(self) -> tuple[int, ...]:
        """Little-endian 64-bit limb vector; empty for zero."""
        return _limbs_of(self._v)

    def limb_count(self) -> int:
        return _nlimbs(self._v)

    def bit_length(self) -> int:
        return self._v.bit_length()

    def __int__(self) -> int:
        return self._v

    __index__ = __int__

    def __bool__(self) -> bool:
        return bool(self._v)

    def __eq__(self, other) -> bool:
        if isinstance(other, BigNat):
            return self._v == other._v
        if isinstance(other, int):
            return self._v == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._v)

    def _cmp_value(self, other) -> int:
        if isinstance(other, BigNat):
            return other._v
        if isinstance(other, int):
            return other
        return NotImplemented

    def __lt__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is NotImplemented else self._v < v

    def __le__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is NotImplemented else self._v <= v

    def __gt__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is NotImplemented else self._v > v

    def __ge__(self, other):
        v = self._cmp_value(other)
        return NotImplemented if v is NotImplemented else self._v >= v

    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __lshift__(self, k: int):
        return shl_bits(self, k)

    def __rshift__(self, k: int):
        return shr_bits(self, k)

    def __repr__(self) -> str:
        return f"BigNat({self._v})"

    def __str__(self) -> str:
        return str(self._v)


def _coerce(value) -> BigNat:
    if isinstance(value, BigNat):
        return value
    if isinstance(value, int):
        return BigNat(value)
    raise TypeError(f"expected BigNat or int, got {type(value).__name__}")


class SignedBig:
    """Sign-and-magnitude integer: a BigNat magnitude plus a negative flag.

    Zero is never marked negative.
    """

    __slots__ = ("magnitude", "negative")

    def __init__(self, magnitude: BigNat, negative: bool = False):
        magnitude = _coerce(magnitude)
        object.__setattr__(self, "magnitude", magnitude)
        object.__setattr__(self, "negative", bool(negative) and bool(magnitude))

    def __setattr__(self, name, value):
        raise AttributeError("SignedBig is immutable")

    @classmethod
    def from_int(cls, value: int) -> "SignedBig":
        return cls(BigNat(abs(value)), value < 0)

    @property
    def value(self) -> int:
        v = int(self.magnitude)
        return -v if self.negative else v

    def __int__(self) -> int:
        return self.value

    def __eq__(self, other) -> bool:
        if isinstance(other, SignedBig):
            return self.value == other.value
        if isinstance(other, (int, BigNat)):
            return self.value == int(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.value)

    def __neg__(self) -> "SignedBig":
        return SignedBig(self.magnitude, not self.negative)

    def __add__(self, other: "SignedBig") -> "SignedBig":
        return SignedBig.from_int(self.value + other.value)

    def __sub__(self, other: "SignedBig") -> "SignedBig":
        return SignedBig.from_int(self.value - other.value)

    def halve_exact(self) -> "SignedBig":
        v = self.value
        if v & 1:
            raise ValueError("halving an odd value is not exact")
        return SignedBig.from_int(v >> 1)

    def to_bignat(self) -> BigNat:
        if self.negative:
            raise ValueError("negative value cannot become a BigNat")
        return self.magnitude

    def __repr__(self) -> str:
        return f"SignedBig({self.value})"


# --- addition / subtraction / shifts ---------------------------------------


def add(a: BigNat, b: BigNat) -> BigNat:
    """a + b."""
    return BigNat(_coerce(a)._v + _coerce(b)._v)


def sub(a: BigNat, b: BigNat) -> BigNat:
    """a - b; raises UnderflowError when a < b."""
    av, bv = _coerce(a)._v, _coerce(b)._v
    if av < bv:
        raise UnderflowError("natural subtraction underflow")
    return BigNat(av - bv)


def shl_bits(a: BigNat, k: int) -> BigNat:
    """a * 2**k."""
    if k < 0:
        raise ValueError("shift count must be non-negative")
    return BigNat(_coerce(a)._v << k)


def shr_bits(a: BigNat, k: int) -> BigNat:
    """floor(a / 2**k)."""
    if k < 0:
        raise ValueError("shift count must be non-negative")
    return BigNat(_coerce(a)._v >> k)


def shr_bits_exact(a: BigNat, k: int) -> BigNat:
    """a / 2**k, requiring every discarded bit to be zero."""
    if k < 0:
        raise ValueError("shift count must be non-negative")
    av = _coerce(a)._v
    if av & ((1 << k) - 1):
        raise ValueError(f"inexact shift: low {k} bits are not all zero")
    return BigNat(av >> k)


# --- multiplication ---------------------------------------------------------


def _classical_int(x: int, y: int, stats: MulStats | None = None) -> int:
    # Schoolbook: an m x n product costs exactly m*n word products.  Below
    # the native cutoff CPython runs this very algorithm in C; above it, one
    # shifted row (a 1-limb x n-limb product) per limb of the smaller operand.
    xl = (x.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    yl = (y.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    if stats is not None:
        stats.limb_products += xl * yl
    if xl > yl:
        x, y, xl, yl = y, x, yl, xl
    if xl <= _NATIVE_SCHOOLBOOK_LIMBS:
        return x * y
    words = struct.unpack(f"<{xl}Q", x.to_bytes(xl * _LIMB_BYTES, "little"))
    acc = 0
    shift = 0
    for w in words:
        acc += (w * y) << shift
        shift += LIMB_BITS
    return acc


def _karatsuba_int(x: int, y: int, stats: MulStats | None, threshold: int) -> int:
    xl = (x.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    yl = (y.bit_length() + LIMB_BITS - 1) // LIMB_BITS
    if xl <= threshold or yl <= threshold:
        return _classical_int(x, y, stats)
    # Split both operands at half the longer one (odd lengths round up):
    # x = x0 + x1*B, y = y0 + y1*B with B = 2**shift, then
    # x*y = z0 + ((z0+z2) - (x0-x1)(y0-y1))*B + z2*B^2 in the three-product
    # form z1 = (x0+x1)(y0+y1) - z0 - z2.
    shift = (max(xl, yl) + 1) // 2 * LIMB_BITS
    x1 = x >> shift
    x0 = x - (x1 << shift)
    y1 = y >> shift
    y0 = y - (y1 << shift)
    z0 = _karatsuba_int(x0, y0, stats, threshold)
    z2 = _karatsuba_int(x1, y1, stats, threshold)
    z1 = _karatsuba_int(x0 + x1, y0 + y1, stats, threshold) - z0 - z2
    return z0 + (z1 << shift) + (z2 << (2 * shift))


def _mul_int(x: int, y: int, stats: MulStats | None, config: MulConfig) -> int:
    if config.classical_only:
        return _classical_int(x, y, stats)
    return _karatsuba_int(x, y, stats, config.karatsuba_threshold)


def mul(a: BigNat, b: BigNat, stats: MulStats | None = None,
        config: MulConfig | None = None) -> BigNat:
    """a * b, dispatching to the classical path at or below the configured
    limb-count threshold and to Karatsuba above it."""
    if config is None:
        config = DEFAULT_MUL_CONFIG
    return BigNat(_mul_int(_coerce(a)._v, _coerce(b)._v, stats, config))


def mul_classical(a: BigNat, b: BigNat, stats: MulStats | None = None) -> BigNat:
    """Quadratic schoolbook product; counts exactly limbs(a)*limbs(b)."""
    return BigNat(_classical_int(_coerce(a)._v, _coerce(b)._v, stats))


def mul_karatsuba(a: BigNat, b: BigNat, stats: MulStats | None = None,
                  config: MulConfig | None = None) -> BigNat:
    """Three-product recursion; falls back to classical below the threshold."""
    if config is None:
        config = DEFAULT_MUL_CONFIG
    return BigNat(_karatsuba_int(_coerce(a)._v, _coerce(b)._v, stats,
                                 config.karatsuba_threshold))


def mul_signed(a: SignedBig, b: SignedBig, stats: MulStats | None = None,
               config: MulConfig | None = None) -> SignedBig:
    """Signed product via the instrumented magnitude multiply."""
    return SignedBig(mul(a.magnitude, b.magnitude, stats, config),
                     a.negative ^ b.negative)


# --- base-2^N digit packing -------------------------------------------------
#
# Groups of eight width-bit digits always span exactly `width` bytes, so a
# digit vector packs into (and unpacks from) a byte buffer with whole-group
# blits: O(k*width) bit work overall, no repeated big shifts.


def _pack_ints(values, width: int) -> int:
    if width < 1:
        raise ValueError("digit width must be >= 1")
    values = list(values)
    if not values:
        return 0
    ngroups = (len(values) + 7) // 8
    buf = bytearray(ngroups * width)
    pos = 0
    for start in range(0, len(values), 8):
        acc = 0
        shift = 0
        for v in values[start:start + 8]:
            acc |= v << shift
            shift += width
        buf[pos:pos + width] = acc.to_bytes(width, "little")
        pos += width
    return int.from_bytes(buf, "little")


def _unpack_ints(value: int, width: int, count: int) -> list[int]:
    if width < 1:
        raise ValueError("digit width must be >= 1")
    if count < 0:
        raise ValueError("digit count must be >= 0")
    if value.bit_length() > width * count:
        raise ValueError(f"value does not fit in {count} digits of {width} bits")
    if count == 0:
        return []
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


def to_digits(a: BigNat, width_bits: int, count: int) -> list[BigNat]:
    """Split into `count` base-2^width digits, least significant first.

    Errors if the value does not fit in `count` digits.
    """
    return [BigNat(d) for d in _unpack_ints(_coerce(a)._v, width_bits, count)]


def from_digits(digits, width_bits: int) -> BigNat:
    """Sum of digits[i] * 2**(i*width_bits); inverse of ``to_digits``."""
    vals = []
    for i, d in enumerate(digits):
        d = int(d)
        if not 0 <= d < (1 << width_bits):
            raise ValueError(f"digit {i} too large for width {width_bits}")
        vals.append(d)
    return BigNat(_pack_ints(vals, width_bits))
