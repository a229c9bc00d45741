"""Multiplication in (Z/nZ)[x] for word-sized n.

``mod_mul`` decides three things.  It lifts the inputs to integer
polynomials as they are, checking nothing again: each coefficient was
checked once, when the caller built its ``ModPoly``.  It takes the
coefficient bit bound from the modulus (bit length of n - 1), not from the
actual coefficients, so the packed widths depend only on (lengths,
modulus).  And it picks the Kronecker substitution variant, AUTO's choice
depending only on the two lengths, through two fixed length bands measured
on the bench grid (the comment above ``_KS1_MAX_LENGTH``).  The variant
gets the modulus as a private keyword and returns the product reduced mod
n, its output held to the same bound; ksint's docstring says where each
variant checks and reduces.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass

from .bignat import MulConfig, MulStats
from .ksint import ks1_mul, ks2_mul, ks3_mul, ks4_mul
from .pack import _validated

__all__ = ["ModPoly", "Variant", "mod_mul", "choose_variant"]

_WORD_BITS = 64


class Variant(enum.Enum):
    KS1 = "ks1"
    KS2 = "ks2"
    KS3 = "ks3"
    KS4 = "ks4"
    AUTO = "auto"


_VARIANT_FUNCS = {
    Variant.KS1: ks1_mul,
    Variant.KS2: ks2_mul,
    Variant.KS3: ks3_mul,
    Variant.KS4: ks4_mul,
}


@dataclass(frozen=True)
class ModPoly:
    """Dense polynomial over Z/nZ, constant term first, n in one machine word."""

    coeffs: tuple[int, ...]
    modulus: int

    def __post_init__(self):
        coeffs = tuple(map(operator.index, self.coeffs))
        n = operator.index(self.modulus)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "modulus", n)
        if n < 2:
            raise ValueError("modulus must be >= 2")
        if n.bit_length() > _WORD_BITS:
            raise ValueError(f"modulus must fit in {_WORD_BITS} bits")
        if len(coeffs) < 1:
            raise ValueError("a polynomial has length >= 1")
        if min(coeffs) < 0 or max(coeffs) >= n:
            i = next(i for i, c in enumerate(coeffs) if not 0 <= c < n)
            raise ValueError(f"coefficient {i} outside [0, {n})")

    def __len__(self) -> int:
        return len(self.coeffs)


# AUTO's length bands.  ``_KS1_MAX_LENGTH`` bounds the *longer* operand: up
# to it a single product beats the extra pack/unpack work of the multipoint
# variants.  ``_KS3_MAX_LENGTH`` bounds the *shorter* operand: ks4 runs only
# when both operands are longer.  ks4's quarter width ceil((2b+e)/4) saves
# on the products only as e = ceil(log2 of the shorter length) grows, while
# its four blits per operand and its two overlap reconstructions scale with
# the output length, which the longer operand sets; a long-by-short product
# pays those linear stages for little saving.
#
# _KS1_MAX_LENGTH is read from BENCH_native.json, on CPython's multiply, and
# _KS3_MAX_LENGTH from three runs of the same grid and three of a denser one
# (lengths 2100 to 3200 in steps of 100) on an earlier ladder of Toom-3
# from 26k bits and Toom-4 from 80k bits over it; BENCH_toom4.json is a
# fourth run of the grid on that ladder, made after the move
# (``kronmul bench --json``: 48-bit modulus, ``MulConfig()`` uncounted,
# median of 21 interleaved repetitions, CPython 3.11 on a shared 2-core
# host).  Counted calls use the same bands, so counting never changes the
# variant:
#
# - 20: ks3/ks1 is 1.21 at 8x8, 1.13 at 12x12, 1.00 at 16x16, 0.99 at 17x17
#   and 20x20 (ties within the cells' spread), then 0.96 at 23x23 and 0.98
#   at 24x24.  With a short side it is 0.97 at 8x48 and 8x64.
# - 2800: on the ladder, ks3's products reached the Toom-4 cutoff from
#   about 1,510 terms, ks4's only from about 2,960, so ks3 won well past
#   1800.  Over three grid runs, ks3/ks4 is 0.90 to 0.95 from 1024x1024 to
#   1800x1800 and 0.92 to 0.94 at 2000x2000 and 2204x2204, so ks3 is
#   fastest there in every run.  Over the three dense runs it is 0.87 to
#   1.00 from 2100 to 2500 (ks3 fastest in every run), 0.96 to 1.02 at
#   2600, 0.91 to 1.05 at 2700 and 0.96 to 0.98 at 2800 (ks3 fastest in
#   every run); from 2900 to 3200 it reads 0.93 to 1.13, ks4 fastest in six
#   of twelve cells.  In the grid runs it is 1.01 to 1.03 at 3060x3060 and
#   1.07 to 1.13 at 4249x4249.  On today's single Toom-4 split from 26k
#   bits, ks3's products reach the cutoff from about 490 terms and ks4's
#   from about 960.  In BENCH_toom4_only.json, one grid run on it, ks3/ks4
#   is 0.77 to 0.98 from 520x520 to 1587x1587, 1.01 to 1.02 at 1800x1800
#   and 2000x2000, 0.93 at 2204x2204, 0.97 at 3060x3060 and 1.08 at
#   4249x4249; the band was not re-read on it.
#
# The crossovers depend on the machine and on the multiply.  Each band keys
# on one length, so no pair of constants fits every shape: with a side of 8,
# ks3 overtakes ks1 only once the other side reaches about 48.
_KS1_MAX_LENGTH = 20
_KS3_MAX_LENGTH = 2800


def choose_variant(len_f: int, len_g: int) -> Variant:
    """AUTO's variant for operands of these lengths, in either order: ks1
    while the longer is at most ``_KS1_MAX_LENGTH``, ks4 once the shorter
    exceeds ``_KS3_MAX_LENGTH``, ks3 in between (the comment above those
    constants gives the measurements)."""
    len_f, len_g = operator.index(len_f), operator.index(len_g)
    if len_f < 1 or len_g < 1:
        raise ValueError("lengths must be >= 1")
    if max(len_f, len_g) <= _KS1_MAX_LENGTH:
        return Variant.KS1
    if min(len_f, len_g) <= _KS3_MAX_LENGTH:
        return Variant.KS3
    return Variant.KS4


def _reduced(coeffs: tuple[int, ...], n: int) -> ModPoly:
    # A ModPoly over coefficients already known to lie in [0, n).
    p = object.__new__(ModPoly)
    object.__setattr__(p, "coeffs", coeffs)
    object.__setattr__(p, "modulus", n)
    return p


def mod_mul(f: ModPoly, g: ModPoly, variant: Variant = Variant.AUTO, *,
            stats: MulStats | None = None,
            config: MulConfig | None = None) -> ModPoly:
    """f * g mod n; the result has length len(f) + len(g) - 1."""
    if f.modulus != g.modulus:
        raise ValueError("modulus mismatch")
    n = f.modulus
    coeff_bits = max(1, (n - 1).bit_length())
    if variant is Variant.AUTO:
        variant = choose_variant(len(f), len(g))
    try:
        multiply = _VARIANT_FUNCS[variant]
    except KeyError:
        raise TypeError(f"variant must be a Variant, not {variant!r}") from None
    # 0 <= c < n gives c.bit_length() <= (n - 1).bit_length() = coeff_bits.
    product = multiply(_validated(f.coeffs, coeff_bits),
                       _validated(g.coeffs, coeff_bits),
                       stats=stats, config=config, _modulus=n)
    return _reduced(product.coeffs, n)
