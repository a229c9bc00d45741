"""Linear-time packing of coefficient vectors into evaluated integers.

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

import operator
from dataclasses import dataclass

from .bignat import _pack_ints

__all__ = ["CoeffVec", "pack", "pack_reversed", "pack_negated",
           "pack_negated_reversed"]


@dataclass(frozen=True)
class CoeffVec:
    """Dense coefficient vector over the naturals, constant term first.

    Every coefficient satisfies 0 <= c < 2**width_bound_bits; the length is
    at least 1 (declare trailing zeros explicitly, lengths are not inferred).
    """

    coeffs: tuple[int, ...]
    width_bound_bits: int

    def __post_init__(self):
        coeffs = tuple(map(operator.index, self.coeffs))
        bound = operator.index(self.width_bound_bits)
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
