"""Every base-2**N layout of the package: coefficient vectors packed into
evaluated integers in linear time, over the digit layer that ksint's outputs
read too (the blits, the mask store, the packed reduction, to_digits).

pack(v, N) is v's value at 2**N, pack_reversed the normalized value at
2**(-N) (coefficient reversal), and the negated variants the values at
-2**N and -2**(-N), which may be negative.  Every pack returns a plain int.

Packing is byte-blitting, not repeated shift-and-add, so it runs in time
linear in the output size.  Chunk widths below the coefficient bound are
allowed down to half the bound.  There, and for the negated packs, one
blit (_even_odd_at, which ksint's ks4 also calls) writes the even- and
odd-index parts at width 2N, where every digit fits as 2N >= b, and the
value at +-X, X = 2**N, is E(X**2) +- X*O(X**2).  For N >= b the positive
packs fit in the nominal N*(L-1)+b bits, and all-max inputs fill them
exactly.  In the overlapped regime N < b they carry at most one bit past
that span, and all-max inputs with L >= 2 carry exactly one: their value
V = (2**b-1) * sum(2**(iN)) satisfies
    V >= (2**b-1) * 2**(N(L-2)) * (2**N+1) >= 2**(N(L-1)+b)   (as b > N)
    V <  2**(N(L-1)+b) / (1 - 2**-N)       <= 2**(N(L-1)+b+1)
and the upper bound holds for every input.
"""

from __future__ import annotations

import functools
import operator
import struct
from dataclasses import dataclass
from itertools import chain, repeat

__all__ = ["CoeffVec", "pack", "pack_reversed", "pack_negated",
           "pack_negated_reversed", "to_digits", "from_digits"]


@dataclass(frozen=True, init=False)
class CoeffVec:
    """Dense coefficient vector over the naturals, constant term first.

    Every coefficient satisfies 0 <= c < 2**width_bound_bits; the length is
    at least 1 (declare trailing zeros explicitly, lengths are not inferred).
    """

    coeffs: tuple[int, ...]
    width_bound_bits: int

    def __init__(self, coeffs, width_bound_bits):
        coeffs = tuple(map(operator.index, coeffs))
        bound = operator.index(width_bound_bits)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "width_bound_bits", bound)
        if len(coeffs) < 1:
            raise ValueError("a coefficient vector has length >= 1")
        if bound < 1:
            raise ValueError("width bound must be >= 1")
        if min(coeffs) < 0 or max(coeffs).bit_length() > bound:
            i = next(i for i, c in enumerate(coeffs)
                     if c < 0 or c.bit_length() > bound)
            raise ValueError(f"coefficient {i} outside [0, 2**{bound})")

    def __len__(self) -> int:
        return len(self.coeffs)


def _validated(coeffs: tuple[int, ...], bound: int) -> CoeffVec:
    # A CoeffVec over coefficients already known to satisfy the invariant.
    v = object.__new__(CoeffVec)
    object.__setattr__(v, "coeffs", coeffs)
    object.__setattr__(v, "width_bound_bits", bound)
    return v


def _check_width(v: CoeffVec, width_bits: int) -> None:
    if 2 * width_bits < v.width_bound_bits:
        raise ValueError(
            f"chunk width {width_bits} below half the coefficient bound "
            f"{v.width_bound_bits}")


def _even_odd_at(coeffs, width_bits: int) -> tuple[int, int]:
    # E(X**2) and X*O(X**2), X = 2**width_bits, for E and O the even- and
    # odd-index parts of coeffs, so that the value at +-X is their sum or
    # difference.  Precondition: 2*width_bits >= the coefficient bound, so
    # every digit fits its double-width slot.
    return (_pack_ints(coeffs[0::2], 2 * width_bits),
            _pack_ints(coeffs[1::2], 2 * width_bits) << width_bits)


def _value_at_pow2(coeffs, width_bits: int, bound: int) -> int:
    # sum(c_i * 2**(i*width)); a single blit when chunks cannot overlap.
    if width_bits >= bound:
        return _pack_ints(coeffs, width_bits)
    even, odd = _even_odd_at(coeffs, width_bits)
    return even + odd


def pack(v: CoeffVec, width_bits: int) -> int:
    """Value of v at 2**width_bits."""
    _check_width(v, width_bits)
    return _value_at_pow2(v.coeffs, width_bits, v.width_bound_bits)


def pack_reversed(v: CoeffVec, width_bits: int) -> int:
    """Value of the reversed vector at 2**width_bits, i.e. the value of v at
    2**(-width_bits) normalized by 2**(width_bits*(L-1))."""
    _check_width(v, width_bits)
    return _value_at_pow2(v.coeffs[::-1], width_bits, v.width_bound_bits)


def pack_negated(v: CoeffVec, width_bits: int) -> int:
    """Value of v at -2**width_bits: even part minus shifted odd part."""
    _check_width(v, width_bits)
    even, odd = _even_odd_at(v.coeffs, width_bits)
    return even - odd


def pack_negated_reversed(v: CoeffVec, width_bits: int) -> int:
    """Value of v at -2**(-width_bits), normalized by 2**(width_bits*(L-1)).

    Equals (-1)**(L-1) times the negated pack of the reversed vector: the
    sign of each reversed chunk follows its original index, so the result
    flips sign for even lengths.
    """
    _check_width(v, width_bits)
    even, odd = _even_odd_at(v.coeffs[::-1], width_bits)
    return even - odd if len(v.coeffs) % 2 else odd - even


# --- repeated-field masks ---------------------------------------------------
#
# ks3's and ks4's odd slots at +-2**N, a phase of the strided unpack, the
# overlap recovery's fields and range check, and the packed reduction's
# fields are each masked by a W-bit field repeated every s bits.  One store
# keeps them by (builder, *its arguments), so two kinds never collide.  An
# entry holds a power-of-two count of fields and serves any shorter
# request, as every caller only ANDs with a mask or first cuts the one it
# adds; a longer request replaces it.  A new key past _MASK_KEYS
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


def _overlap_masks(count: int, width: int, bound_bits: int) -> tuple[int, int]:
    # For `count` fields of 2*width bits, as the overlap recovery reads them:
    # each field's low half, and its check mask, which holds each field's
    # bits from bound_bits up when bound_bits < 2*width and each field's
    # bit 0 otherwise.
    ones = _repeated(1, 2 * width, count)
    check = (ones * ((1 << 2 * width) - (1 << bound_bits))
             if bound_bits < 2 * width else ones)
    return ones * ((1 << width) - 1), check


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
_FIELD_BITS = 64  # a struct "Q" field


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
    if (width > _FIELD_BITS and width % 4 == 0
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
    if width > _FIELD_BITS and count >= _WIDE_MIN_DIGITS:
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
# 4. The fields, now below n < 2**64, are read in order by one struct pass
#    of little-endian `Q` pairs: the odd sub-vector is shifted up by 64 bits
#    only and or-ed onto the even one, so each field of 2W >= 128 bits
#    holds an even digit in its low 64 bits and the next odd digit in the
#    64 above.  At W = 2 (mod 4) every other field starts half a byte past
#    a byte; adding those fields times 15 moves them up 4 bits, into spare
#    bits.  Below W = 64, and at odd W, the sub-vectors are or-ed back at
#    stride W and go by _unpack_ints, as their digits are below n <= 2**W.
#
# Masks, fix and m come from the store under (_mod_masks, W, n), the odd
# fields under (_odd_slots, 2W).  That is about a dozen linear big-int
# operations and one struct pass, against _unpack_ints and a `%` per digit.
# ksint's output reader takes this path at every length, though short
# vectors lose, as ks3 `mod_mul` calls at a 48-bit modulus show, this path
# over the `%` one (medians of 15 interleaved batches, CPython 3.11, shared
# 2-core host; at e = 2 and 6 by two struct passes, 8 us where the masked
# add and one pass take 6 on 40 digits at W = 102):
#
#   shape    3x3  9x9 16x16 9x32 16x32 4x40 4x64 33x33 48x48 64x64
#   e         2    4    4    4    4     2    2    6     6     6
#   k         5   17   31   40   47    43   67   65    95   127
#   new/old 1.40 1.05 0.95 0.92 0.89  0.99 0.89 0.91  0.87  0.85
#
# One phase wins from about 30 coefficients; two are even at about 43 and
# win from about 65.  AUTO needs no cutoff: its ks3 outputs at even e have
# 29 or more at e = 4 (one phase), and only e = 2 (shorter length 3 or 4)
# reads short two-phase vectors, 1.13 at 3x21, in shapes no workload
# sends; ks2 and ks4 run longer still.  Cells move by about 0.05.


def _mod_masks(count: int, width: int, n: int) -> tuple:
    # (mask, fix, m) for `count` fields, as _unpack_mod reads them.
    ones = _repeated(1, 2 * width, count)
    return (ones * ((1 << width) - 1), ones * ((1 << n.bit_length()) - n),
            (1 << width) // n)


@functools.lru_cache(maxsize=64)
def _pair_fields(gap: int, n: int) -> struct.Struct:
    # n groups, gap bytes apart, of two pairs of little-endian 64-bit
    # fields, the second pair on the first byte at or past half the gap.
    half = (gap + 1) // 2
    return struct.Struct("<" + f"QQ{half - 16}xQQ{gap - half - 16}x" * n)


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
    slots, mask, fix, m = _masks_for((_mod_masks, width, n), fields)
    # fix is added, so it drops its surplus fields first.
    fix >>= (slots - fields) * stride
    b = n.bit_length()
    even, odd = value & mask, value >> width & mask
    even -= (even * m >> width & mask) * n
    odd -= (odd * m >> width & mask) * n
    even -= (even + fix >> b & mask) * n
    odd -= (odd + fix >> b & mask) * n
    if width < 64 or width % 2:
        return _unpack_ints(even | odd << width, width, count)
    c = even | odd << 64
    if width % 4:
        _, odd_fields = _masks_for((_odd_slots, stride), fields // 2)
        c += (c & odd_fields) * 15
    groups = -(-fields // 2)    # two fields, 2*stride bits, a struct group
    raw = c.to_bytes(groups * stride // 4, "little")
    out = list(_field_digits(raw, stride // 4, groups, _pair_fields))
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
