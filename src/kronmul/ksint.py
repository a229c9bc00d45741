"""Integer Kronecker substitution: four ways to multiply dense non-negative
integer polynomials through big-integer products.

Writing b for the coefficient bit bound, L for the shorter input length and
e = ceil(log2 L), the variants evaluate at:

  ks1:  2**N with N = 2b+e            (one product, no output overlap)
  ks2:  2**N and 2**(-N), N = b+ceil(e/2)   (two half-width products;
        output chunks overlap and are separated by the carry
        reconstruction below)
  ks3:  2**N and -2**N, same N        (two products; even/odd output parts
        split by half-sum and half-difference)
  ks4:  all four of +-2**N, +-2**(-N) with N = ceil((2b+e)/4) (four
        quarter-width products; even/odd split first, then the overlap
        reconstruction on each part)

The overlapped reconstruction recovers values h_i < 2**N * (2**N - 1) from
the base-2**N digits of sum(h_i * 2**(i*N)) and of the same sum taken over
the reversed sequence.  Each h_i splits into a low digit and a high digit;
the low digits stream in order through the forward digits and the high
digits through the reversed digits, with one carry bit per stream resolved
per step.

The two (or four) inner products of ks2/ks3/ks4 are independent; pass
``parallel=True`` to run them in threads.  Results are bit-identical either
way, and word-product counts are accumulated per product and summed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

from .bignat import (BigNat, MulConfig, MulStats, SignedBig, _unpack_ints,
                     mul, mul_signed)
# ks3 and ks4 evaluate through pack and pack_reversed of the even/odd parts.
# perfbench's tracer wraps all four pack names in this namespace, so the
# negated ones stay imported.
from .pack import (CoeffVec, pack, pack_negated, pack_negated_reversed,
                   pack_reversed)

__all__ = ["KsParams", "OverlapDigits", "ReconstructionError",
           "derive_params", "ks1_mul", "ks2_mul", "ks3_mul", "ks4_mul",
           "reconstruct_overlapped"]


class ReconstructionError(ArithmeticError):
    """The overlapped digit streams are inconsistent (precondition violated)."""


@dataclass(frozen=True)
class KsParams:
    """Derived evaluation parameters for one multiplication.

    ``log2_min_len`` is the headroom needed because up to min(len_f, len_g)
    coefficient products stack into one output coefficient.  The three
    widths are the per-variant chunk sizes: full (2b+e), half (b+ceil(e/2),
    shared by the reciprocal and negated variants) and quarter
    (ceil((2b+e)/4)).
    """

    len_f: int
    len_g: int
    coeff_bits: int
    log2_min_len: int
    width_full: int
    width_half: int
    width_quarter: int

    @property
    def out_len(self) -> int:
        return self.len_f + self.len_g - 1

    @property
    def out_bound_bits(self) -> int:
        # every output coefficient is < 2**(2b+e)
        return self.width_full

    def coeff_product_bound(self) -> int:
        """Largest possible output coefficient: min(L) * (2**b - 1)**2."""
        top = (1 << self.coeff_bits) - 1
        return min(self.len_f, self.len_g) * top * top


def derive_params(len_f: int, len_g: int, coeff_bits: int) -> KsParams:
    """Compute chunk widths for inputs of the given lengths and bit bound."""
    if len_f < 1 or len_g < 1:
        raise ValueError("polynomial lengths must be >= 1")
    if coeff_bits < 1:
        raise ValueError("coefficient bit bound must be >= 1")
    e = (min(len_f, len_g) - 1).bit_length()
    full = 2 * coeff_bits + e
    return KsParams(
        len_f=len_f,
        len_g=len_g,
        coeff_bits=coeff_bits,
        log2_min_len=e,
        width_full=full,
        width_half=coeff_bits + (e + 1) // 2,
        width_quarter=(full + 3) // 4,
    )


@dataclass(frozen=True)
class OverlapDigits:
    """Digit streams feeding the overlap reconstruction.

    ``forward_digits`` are the base-2**width digits, least significant
    first, of sum(h_i * 2**(i*width)).  ``reversed_digits`` come from the
    sum over the reversed coefficient order and are listed most significant
    first, so that reversed_digits[i] sits opposite forward position i.
    Both streams carry one more digit than there are coefficients.
    """

    forward_digits: tuple[int, ...]
    reversed_digits: tuple[int, ...]
    width_bits: int

    def __post_init__(self):
        object.__setattr__(self, "forward_digits",
                           tuple(int(d) for d in self.forward_digits))
        object.__setattr__(self, "reversed_digits",
                           tuple(int(d) for d in self.reversed_digits))
        if self.width_bits < 1:
            raise ValueError("digit width must be >= 1")
        if len(self.forward_digits) != len(self.reversed_digits):
            raise ValueError("digit streams must have equal length")
        if len(self.forward_digits) < 2:
            raise ValueError("need at least two digits per stream")
        top = 1 << self.width_bits
        for d in self.forward_digits + self.reversed_digits:
            if not 0 <= d < top:
                raise ValueError("digit out of range")

    @property
    def coeff_count(self) -> int:
        return len(self.forward_digits) - 1


def _reconstruct(fwd, rev, width):
    """Solve the two overlapped digit streams for the coefficients.

    Returns (coeffs, forward_carries, reverse_carries).  Each coefficient is
    lo + 2**width * hi with lo < 2**width and hi < 2**width - 1; the hi
    bound is what makes the reverse-stream carry decidable by a single
    comparison per step.
    """
    count = len(fwd) - 1
    base = 1 << width
    mask = base - 1
    lo = [0] * count
    hi = [0] * count
    fwd_carries = [0] * (count + 1)
    rev_carries = [0] * count
    lo[0] = fwd[0]
    for j in range(count - 1):
        carry_r = 1 if lo[j] > rev[j + 1] else 0
        rev_carries[j] = carry_r
        h = (rev[j] - (lo[j - 1] if j else 0) - carry_r) & mask
        if h >= mask:
            raise ReconstructionError("high digit out of range")
        hi[j] = h
        carry_f = fwd_carries[j]
        nxt = (fwd[j + 1] - h - carry_f) & mask
        lo[j + 1] = nxt
        t = h + nxt + carry_f - fwd[j + 1]
        if t == 0:
            fwd_carries[j + 1] = 0
        elif t == base:
            fwd_carries[j + 1] = 1
        else:
            raise ReconstructionError("forward carry out of range")
    h = (rev[count - 1] - (lo[count - 2] if count >= 2 else 0)) & mask
    if h >= mask:
        raise ReconstructionError("high digit out of range")
    hi[count - 1] = h
    if lo[count - 1] != rev[count]:
        raise ReconstructionError("digit streams disagree")
    if h + fwd_carries[count - 1] != fwd[count]:
        raise ReconstructionError("top digit mismatch")
    coeffs = [lo[i] | (hi[i] << width) for i in range(count)]
    return coeffs, fwd_carries, rev_carries


def reconstruct_overlapped(d: OverlapDigits, *, with_carries: bool = False):
    """Recover the coefficients behind two overlapped packings.

    With ``with_carries`` also returns the per-step carry bits of each
    stream (all 0 or 1 for consistent inputs; inconsistency raises
    ReconstructionError).
    """
    coeffs, fwd_c, rev_c = _reconstruct(list(d.forward_digits),
                                        list(d.reversed_digits),
                                        d.width_bits)
    out = CoeffVec(tuple(coeffs), 2 * d.width_bits)
    if with_carries:
        return out, fwd_c, rev_c
    return out


def _run_products(jobs, stats, config, parallel):
    # Each job is fn(stats, config) -> result; independent, so each gets its
    # own counter and the totals are summed afterwards.
    locals_ = [MulStats() if stats is not None else None for _ in jobs]
    if parallel and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
            futures = [pool.submit(job, s, config)
                       for job, s in zip(jobs, locals_)]
            results = [f.result() for f in futures]
    else:
        results = [job(s, config) for job, s in zip(jobs, locals_)]
    if stats is not None:
        stats.limb_products += sum(s.limb_products for s in locals_)
    return results


def _params_for(f: CoeffVec, g: CoeffVec) -> KsParams:
    return derive_params(len(f), len(g),
                         max(f.width_bound_bits, g.width_bound_bits))


def ks1_mul(f: CoeffVec, g: CoeffVec, *, stats: MulStats | None = None,
            config: MulConfig | None = None) -> CoeffVec:
    """Standard substitution: one full-width product, direct unpack."""
    p = _params_for(f, g)
    n = p.width_full
    prod = mul(pack(f, n), pack(g, n), stats, config)
    coeffs = _unpack_ints(int(prod), n, p.out_len)
    return CoeffVec(tuple(coeffs), p.out_bound_bits)


def _overlap_unpack(fwd: int, rev: int, width: int, count: int) -> list[int]:
    # The `count` coefficients behind a forward and a reversed overlapped
    # packing at `width`; each value spans count + 1 digits.
    fwd_digits = _unpack_ints(fwd, width, count + 1)
    rev_digits = _unpack_ints(rev, width, count + 1)
    rev_digits.reverse()
    coeffs, _, _ = _reconstruct(fwd_digits, rev_digits, width)
    return coeffs


def ks2_mul(f: CoeffVec, g: CoeffVec, *, stats: MulStats | None = None,
            config: MulConfig | None = None,
            parallel: bool = False) -> CoeffVec:
    """Reciprocal variant: forward and reversed half-width products, then
    carry reconstruction of the overlapped output chunks."""
    p = _params_for(f, g)
    n = p.width_half
    f_fwd, g_fwd = pack(f, n), pack(g, n)
    f_rev, g_rev = pack_reversed(f, n), pack_reversed(g, n)
    prod_fwd, prod_rev = _run_products(
        [lambda s, c: mul(f_fwd, g_fwd, s, c),
         lambda s, c: mul(f_rev, g_rev, s, c)],
        stats, config, parallel)
    coeffs = _overlap_unpack(int(prod_fwd), int(prod_rev), n, p.out_len)
    return CoeffVec(tuple(coeffs), p.out_bound_bits)


def _interleave(even: list[int], odd: list[int]) -> tuple[int, ...]:
    out = [0] * (len(even) + len(odd))
    out[0::2] = even
    out[1::2] = odd
    return tuple(out)


def _evaluations(v: CoeffVec, n: int, reciprocal: bool) -> list[int]:
    """v at 2**n and -2**n and, if ``reciprocal``, at 2**(-n) and -2**(-n)
    (normalized by 2**(n*(L-1))), from one blit per even/odd part and point.

    With E and O the even and odd parts, v(+-X) = E(X**2) +- X*O(X**2).
    Reversing puts the part holding v's last coefficient at the bottom and
    leaves the other one factor X up.
    """
    even, odd = v.even_odd()
    w = 2 * n
    e = int(pack(even, w))
    o = int(pack(odd, w)) << n if odd is not None else 0
    values = [e + o, e - o]
    if reciprocal:
        e = int(pack_reversed(even, w))
        o = int(pack_reversed(odd, w)) if odd is not None else 0
        if len(v) % 2:
            o <<= n
        else:
            e <<= n
        values += [e + o, e - o]
    return values


def _signed_products(f_vals, g_vals, stats, config, parallel) -> list[int]:
    # Pointwise products of the evaluations, through the counted multiply.
    jobs = [partial(mul_signed, SignedBig.from_int(x), SignedBig.from_int(y))
            for x, y in zip(f_vals, g_vals)]
    return [r.value for r in _run_products(jobs, stats, config, parallel)]


def _shr_exact(v: int, k: int) -> int:
    # v / 2**k where the products' parity makes the division exact.
    assert v >= 0 and not v & ((1 << k) - 1), "inexact half-sum"
    return v >> k


def ks3_mul(f: CoeffVec, g: CoeffVec, *, stats: MulStats | None = None,
            config: MulConfig | None = None,
            parallel: bool = False) -> CoeffVec:
    """Negated variant: products at +-2**N; the half-sum holds the even-index
    output coefficients and the half-difference the odd ones."""
    p = _params_for(f, g)
    n = p.width_half
    pos, neg = _signed_products(_evaluations(f, n, False),
                                _evaluations(g, n, False),
                                stats, config, parallel)
    k = p.out_len
    even = _unpack_ints(_shr_exact(pos + neg, 1), 2 * n, (k + 1) // 2)
    odd = _unpack_ints(_shr_exact(pos - neg, n + 1), 2 * n, k // 2)
    return CoeffVec(_interleave(even, odd), p.out_bound_bits)


def _four_point_safe(p: KsParams) -> bool:
    # The two reconstructions run at digit width w = 2*width_quarter and need
    # every output coefficient below 2**w * (2**w - 1).  This always holds:
    # with L = min length, 2**e >= L and 2w >= 2b+e, so t = 2**w satisfies
    # t*t - t >= 2**(2b+e) - 2**(b+e/2), while
    # L*(2**b-1)**2 <= 2**(2b+e) - 2**(b+e+1) + 2**e, and
    # 2**(b+e/2) + 2**e < 2**(b+e+1) for every b >= 1, e >= 0.
    w = 2 * p.width_quarter
    return p.coeff_product_bound() < (1 << w) * ((1 << w) - 1)


def ks4_mul(f: CoeffVec, g: CoeffVec, *, stats: MulStats | None = None,
            config: MulConfig | None = None,
            parallel: bool = False) -> CoeffVec:
    """Four-point variant: quarter-width products at +-2**N and +-2**(-N),
    even/odd split by half-sums, then one overlap reconstruction per part."""
    p = _params_for(f, g)
    assert _four_point_safe(p)
    if p.out_len == 1:
        prod = mul(BigNat(f.coeffs[0]), BigNat(g.coeffs[0]), stats, config)
        return CoeffVec((int(prod),), p.out_bound_bits)
    n = p.width_quarter
    fwd, neg, rev, nrev = _signed_products(_evaluations(f, n, True),
                                           _evaluations(g, n, True),
                                           stats, config, parallel)
    k = p.out_len
    # The reversed half-sums are normalized by 2**(n*(k-1)); aligning them
    # with the reversed packings of the even/odd output parts (normalized by
    # 2**(2n*(part_len-1))) leaves one stray factor 2**n on the part whose
    # length rounds down.
    w = 2 * n
    even = _overlap_unpack(_shr_exact(fwd + neg, 1),
                           _shr_exact(rev + nrev, 1 + n * (1 - k % 2)),
                           w, (k + 1) // 2)
    odd = _overlap_unpack(_shr_exact(fwd - neg, n + 1),
                          _shr_exact(rev - nrev, 1 + n * (k % 2)),
                          w, k // 2)
    return CoeffVec(_interleave(even, odd), p.out_bound_bits)
