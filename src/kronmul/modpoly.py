"""Multiplication in (Z/nZ)[x] for word-sized n.

Inputs are lifted to integer polynomials, multiplied with one of the
Kronecker substitution variants, and reduced coefficient by coefficient.
The coefficient bit bound is taken from the modulus (bit length of n - 1),
not from the actual coefficients, so the packed widths depend only on
(lengths, modulus) and AUTO's variant choice only on the two lengths.

Each coefficient is checked once per direction: on the way in when the
caller builds a ``ModPoly``, and on the way out when the variant builds its
product ``CoeffVec``.  ``mod_mul`` lifts and reduces without checking again,
since both steps keep the values in range by construction.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from itertools import repeat

from .bignat import MulConfig, MulStats
from .ksint import ks1_mul, ks2_mul, ks3_mul, ks4_mul
from .pack import _validated

__all__ = ["ModPoly", "Variant", "AutoThresholds", "DEFAULT_THRESHOLDS",
           "mod_mul", "choose_variant"]

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


@dataclass(frozen=True)
class AutoThresholds:
    """Length bands for AUTO variant selection.

    ``ks1_max_length`` bounds the *longer* operand: up to it a single
    product beats the extra pack/unpack work of the multipoint variants.
    ``ks3_max_length`` bounds the *shorter* operand: ks4 runs only when
    both operands are longer.  ks4's quarter width ceil((2b+e)/4) saves
    on the products only as e = ceil(log2 of the shorter length) grows,
    while its four blits per operand and its two overlap reconstructions
    scale with the output length, which the longer operand sets; a
    long-by-short product pays those linear stages for little saving.

    ``ks1_max_length`` is read from ``BENCH_native.json``, on CPython's
    multiply, and ``ks3_max_length`` from three runs of the same grid and
    three of a denser one (lengths 2100 to 3200 in steps of 100) on the
    Toom-4 and Toom-3 splits over it; ``BENCH_toom4.json`` is a fourth run
    of the grid, made after the move (``kronmul bench --json``: 48-bit
    modulus, ``MulConfig()`` uncounted, median of 21 interleaved
    repetitions, CPython 3.11 on a shared 2-core host).  Counted calls use the same
    table, so counting never changes the variant:

    - ks1_max_length = 20: ks3/ks1 is 1.21 at 8x8, 1.13 at 12x12, 1.00 at
      16x16, 0.99 at 17x17 and 20x20 (ties within the cells' spread), then
      0.96 at 23x23 and 0.98 at 24x24.  With a short side it is 0.97 at
      8x48 and 8x64.
    - ks3_max_length = 2800: ks3's products reach the Toom-4 cutoff from
      about 1,510 terms, ks4's only from about 2,960, so ks3 wins well
      past 1800.  Over three grid runs, ks3/ks4 is 0.90 to 0.95 from
      1024x1024 to 1800x1800 and 0.92 to 0.94 at 2000x2000 and 2204x2204,
      so ks3 is fastest there in every run.  Over the three dense runs it
      is 0.87 to 1.00 from 2100 to 2500 (ks3 fastest in every run), 0.96
      to 1.02 at 2600, 0.91 to 1.05 at 2700 and 0.96 to 0.98 at 2800 (ks3
      fastest in every run); from 2900 to 3200 it reads 0.93 to 1.13,
      ks4 fastest in six of twelve cells.  In the grid runs it is 1.01 to
      1.03 at 3060x3060 and 1.07 to 1.13 at 4249x4249.

    The crossovers depend on the machine and on the multiply.  Each band
    keys on one length, so no pair of constants fits every shape: with a
    side of 8, ks3 overtakes ks1 only once the other side reaches about
    48.
    """

    ks1_max_length: int = 20
    ks3_max_length: int = 2800


DEFAULT_THRESHOLDS = AutoThresholds()


def choose_variant(len_f: int, len_g: int,
                   thresholds: AutoThresholds | None = None) -> Variant:
    """AUTO's variant for operands of these lengths, in either order: ks1
    while the longer is at most ``ks1_max_length``, ks4 once the shorter
    exceeds ``ks3_max_length``, ks3 in between (``AutoThresholds`` says why)."""
    len_f, len_g = operator.index(len_f), operator.index(len_g)
    if len_f < 1 or len_g < 1:
        raise ValueError("lengths must be >= 1")
    t = thresholds or DEFAULT_THRESHOLDS
    if max(len_f, len_g) <= t.ks1_max_length:
        return Variant.KS1
    if min(len_f, len_g) <= t.ks3_max_length:
        return Variant.KS3
    return Variant.KS4


def _reduced(coeffs: tuple[int, ...], n: int) -> ModPoly:
    # A ModPoly over coefficients already known to lie in [0, n).
    p = object.__new__(ModPoly)
    object.__setattr__(p, "coeffs", coeffs)
    object.__setattr__(p, "modulus", n)
    return p


def mod_mul(f: ModPoly, g: ModPoly, variant: Variant = Variant.AUTO, *,
            thresholds: AutoThresholds | None = None,
            stats: MulStats | None = None,
            config: MulConfig | None = None) -> ModPoly:
    """f * g mod n; the result has length len(f) + len(g) - 1."""
    if f.modulus != g.modulus:
        raise ValueError("modulus mismatch")
    n = f.modulus
    coeff_bits = max(1, (n - 1).bit_length())
    if variant is Variant.AUTO:
        variant = choose_variant(len(f), len(g), thresholds)
    # 0 <= c < n gives c.bit_length() <= (n - 1).bit_length() = coeff_bits.
    product = _VARIANT_FUNCS[variant](_validated(f.coeffs, coeff_bits),
                                      _validated(g.coeffs, coeff_bits),
                                      stats=stats, config=config)
    return _reduced(tuple(map(operator.mod, product.coeffs, repeat(n))),
                    n)
