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

The overlapped reconstruction recovers values h_i < X*(X-1), X = 2**N,
from F = sum(h_i * X**i) and the base-X digits of the same sum taken over
the reversed sequence.  Listing those digits most significant first gives
the digits of an integer R~, and X*F - R~ = (X**2 - 1) * Q exactly, where
Q's base-X digits q_i are each h_i's high digit plus one carry bit of the
reversed stream.  So one exact division by X**2 - 1 yields every q_i, and
h_i = X*q_i + r_{i+1} - q_{i+1} with r the reversed digits (q past the top
is 0): no carry is chased digit by digit.  The h_i of one parity of i are
computed at once, as the 2N-bit fields of one packed integer cut from Q
and R~ by masks, and checked there too: one range check, which also takes
the caller's output bound.  ks2 and ks4 pass 2**(2b+e), so their output is
checked there, once.  ks1 unpacks at 2b+e bits, the bound itself, and so
does ks3 at even e (2N = 2b+e), so their digits need no check; ks3 at odd
e, one bit wider, has its digits checked as a CoeffVec.

Given a modulus (the private keyword ``_modulus``, which ``mod_mul``
passes), every variant returns its coefficients reduced by it.  ks2, ks3
and ks4 end in one reader, ``_read``: it reads the even- and odd-index
coefficients, packed apart, reduced while still packed (pack._unpack_mod)
at every length, and weaves them into order.  ks3 at odd e reads them
unreduced, checks them as a CoeffVec and reduces them one `%` at a time,
as ks1 does.  ks4 reads each of its parts so; its 1x1 product is ks1's.

Each call starts from its shape's plan, ``_plan(len f, len g, bit bound)``,
a bounded cache (4096) of five small ints: the three widths, the output
length and whether ks3 checks (odd e).  It holds no mask and no modulus:
pack's store keys masks on width and modulus, so a plan serves them all.

ks3 and ks4 evaluate each operand at +-2**N the same way.  At N >= b
the slots cannot overlap and one blit does: masking the odd slots of
x = v(2**N) gives the odd terms' sum, so v(-2**N) = x - 2*(x & mask), with
the mask from pack's store.  That is always ks3's case, and ks4's when
e >= 2b-3.  Below b the slots overlap, and pack._even_odd_at blits the
even and odd parts at 2N instead, v(+-X) = E(X**2) +- X*O(X**2); their
digits fit, as ks4's quarter width has 2N >= b + e/2.  ks4 evaluates and
splits the reversed operands the same way: they multiply to the reversed
product, so no sign fix-up is needed, and for an even output length its
even and odd parts trade places.

The two (or four) inner products of ks2/ks3/ks4 run one after another
and add their word products straight into the caller's ``stats``.  Run in
threads, they gave no measurable gain under the interpreter lock (ks4:
9.4 -> 10.2 ms at L=512, 160 -> 145 ms at L=4096, within noise), so there
is no option for it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import repeat

from .bignat import MulConfig, MulStats, mul, mul_signed
# ks3 and ks4 blit through pack from the bound up and through pack's one
# even/odd blit below it; ks2 also through pack_reversed.  perfbench's
# tracer wraps all four pack names in this namespace, so the negated ones
# stay imported.
from .pack import (CoeffVec, _even_odd_at, _masks_for, _odd_slots,
                   _overlap_masks, _pack_ints, _unpack_ints, _unpack_mod,
                   _validated, pack, pack_negated, pack_negated_reversed,
                   pack_reversed)

__all__ = ["KsParams", "ReconstructionError", "derive_params", "ks1_mul",
           "ks2_mul", "ks3_mul", "ks4_mul"]


class ReconstructionError(ArithmeticError):
    """The products spell no output in range: one of them is corrupted."""


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

    def coeff_product_bound(self) -> int:
        """Largest possible output coefficient: min(L) * (2**b - 1)**2."""
        top = (1 << self.coeff_bits) - 1
        return min(self.len_f, self.len_g) * top * top


def derive_params(len_f: int, len_g: int, coeff_bits: int) -> KsParams:
    """Compute chunk widths for inputs of the given lengths and bit bound."""
    len_f, len_g = operator.index(len_f), operator.index(len_g)
    coeff_bits = operator.index(coeff_bits)
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


def _overlap_unpack(fwd: int, rev: int, width: int, count: int,
                    bound_bits: int) -> tuple[int, int]:
    """The `count` values h_j < min(X*(X-1), 2**bound_bits), X = 2**width,
    whose forward packing at `width` is ``fwd`` and whose reversed packing
    is ``rev``, each packing spanning count + 1 digits, as two integers
    packed at 2*width bits for ``_read``: the h_j at even j and those at odd
    j.  Raises ReconstructionError when no such values exist (ValueError
    when ``rev`` does not fit in count + 1 digits).  The caller passes its
    own output bound (ks2 and ks4: width_full), so this range check is the
    only check of the output; any bound_bits >= 2*width checks the
    recovery's range alone.
    """
    # Let r be rev's digits, most significant first, and R~ = sum(r_j X**j).
    # Packing h_j = lo_j + X*hi_j (lo_j < X, hi_j <= X-2) in reverse makes
    # r_j = lo_{j-1} + hi_j + g_j - X*g_{j-1}, with g_j the carry into
    # position j from j+1 and g_{-1} = g_count = lo_{-1} = hi_count = 0.
    # Then X*fwd - R~ = (X**2-1)*Q with Q = sum(q_j X**j), q_j = hi_j + g_j
    # <= X-1, and r_{j+1} = lo_j + q_{j+1} - X*g_j gives
    # h_j = X*q_j + r_{j+1} - q_{j+1}.
    #
    # Conversely, if the division is exact, 0 <= Q < X**count and every h_j
    # lies in [0, X*(X-1)), the h_j reproduce both packings.  Reducing the
    # identity mod X gives q_0 = Q mod X = r_0 (so that needs no check of
    # its own), and sum(h_j X**j) = X*Q + (R~ - r_0 - Q + q_0)/X = fwd.
    # For the reversed packing of h, let g'_j be its carries and show
    # q_j = hi_j + g'_j by downward induction: at j = count both sides are
    # 0; if it holds at j+1, position j+1 sums lo_j + hi_{j+1} + g'_{j+1} =
    # lo_j + q_{j+1} = X*(q_j - hi_j) + r_{j+1}, so its digit is r_{j+1}
    # (0 <= r_{j+1} < X) and it carries g'_j = q_j - hi_j.  At j = 0 the top
    # digit is q_0 = r_0 < X, so nothing carries past it and the reversed
    # packing is rev.  The check below accepts a subset of [0, X*(X-1)), so
    # all of this holds for it.
    #
    # The h_j of one parity of j are computed at once, as the 2w-bit fields
    # (w = width) of S = A - C: A's field is A_j = X*q_j + r_{j+1} < X**2
    # and C's is C_j = q_{j+1} < X, each cut from Q and R~ by the mask of
    # every field's low half.  Where no field borrows, each field of S is
    # exactly h_j.  The lowest field that borrows has A_j < C_j and holds
    # 2**(2w) + A_j - C_j >= X**2 - X + 1, so its high half is X-1: it is
    # at least X*(X-1), and a borrow out of the top field also makes S
    # negative.  So S >= 0 with no field at or past min(X*(X-1),
    # 2**bound_bits) holds exactly when every h_j lies in range.  The masks
    # hold count // 2 + 1 fields or more, so that r_count, which the last
    # odd j reads at even count, is cut; past the count, A and C are 0.
    r = _unpack_ints(rev, width, count + 1)
    r.reverse()
    r = _pack_ints(r, width)
    q, rem = divmod((fwd << width) - r, (1 << 2 * width) - 1)
    if rem:
        raise ReconstructionError("digit streams disagree")
    if q < 0 or q.bit_length() > width * count:
        raise ReconstructionError("high digits out of range")
    t = min(bound_bits, 2 * width)
    fields = count // 2 + 1
    slots, low, check = _masks_for((_overlap_masks, width, t), fields)
    if t == 2 * width:
        # check is added below, so it drops its surplus fields first.
        check >>= (slots - fields) * 2 * width
    q_even, q_odd = q & low, q >> width & low
    r_even, r_odd = r & low, r >> width & low
    parts = ((q_even << width) + r_odd - q_odd,
             (q_odd << width) + (r_even >> 2 * width)
             - (q_even >> 2 * width))
    for s in parts:
        # Below 2*width bits the bound is 2**t: no field has a bit from t
        # up.  Otherwise it is X*(X-1): no field's high half is X-1, that
        # is, adding 1 to it carries into bit w.
        if s < 0 or (s & check if t < 2 * width
                     else (s >> width & low) + check >> width & check):
            raise ReconstructionError("coefficient out of range")
    return parts


def _read(parts, width: int, count: int, modulus: int | None) -> list[int]:
    """The `count` values packed at `width` bits, even-index ones in parts[0]
    and odd ones in parts[1], in order; reduced packed mod modulus, if any."""
    even, odd = parts
    k = (count + 1) // 2
    out = [0] * count
    if modulus is None:
        out[0::2] = _unpack_ints(even, width, k)
        out[1::2] = _unpack_ints(odd, width, count - k)
    else:
        out[0::2] = _unpack_mod(even, width, k, modulus)
        out[1::2] = _unpack_mod(odd, width, count - k, modulus)
    return out


# (width_full, width_half, width_quarter, out_len, whether ks3's digits are
# a bit past the bound), at about 250 bytes with its key: at most 1 MB.
@functools.lru_cache(maxsize=4096)
def _plan(len_f: int, len_g: int, bits: int) -> tuple:
    p = derive_params(len_f, len_g, bits)
    assert _four_point_safe(p)   # ks4's reconstruction bound
    return (p.width_full, p.width_half, p.width_quarter, p.out_len,
            2 * p.width_half > p.width_full)


def _reduce(coeffs, modulus: int | None):
    # coeffs reduced one `%` at a time when a modulus is given.
    if modulus is None:
        return tuple(coeffs)
    return tuple(map(operator.mod, coeffs, repeat(modulus)))


def ks1_mul(f: CoeffVec, g: CoeffVec, *, stats: MulStats | None = None,
            config: MulConfig | None = None,
            _modulus: int | None = None) -> CoeffVec:
    """Standard substitution: one full-width product, direct unpack."""
    n, _, _, k, _ = _plan(len(f.coeffs), len(g.coeffs),
                          max(f.width_bound_bits, g.width_bound_bits))
    prod = mul(pack(f, n), pack(g, n), stats, config)
    # The digits are below 2**width_full, the output bound itself.
    return _validated(_reduce(_unpack_ints(prod, n, k), _modulus), n)


def ks2_mul(f: CoeffVec, g: CoeffVec, *, stats: MulStats | None = None,
            config: MulConfig | None = None,
            _modulus: int | None = None) -> CoeffVec:
    """Reciprocal variant: forward and reversed half-width products, then
    the overlap recovery of the output chunks, read reduced while packed
    when given a modulus."""
    full, n, _, k, _ = _plan(len(f.coeffs), len(g.coeffs),
                             max(f.width_bound_bits, g.width_bound_bits))
    prod_fwd = mul(pack(f, n), pack(g, n), stats, config)
    prod_rev = mul(pack_reversed(f, n), pack_reversed(g, n), stats, config)
    parts = _overlap_unpack(prod_fwd, prod_rev, n, k, full)
    return _validated(tuple(_read(parts, 2 * n, k, _modulus)), full)


def _plus_minus(v: CoeffVec, n: int) -> tuple[int, int]:
    """v at 2**n and -2**n.

    With n >= v's bound the slots of x = v(2**n) never overlap, so one blit
    does: x & mask over the odd slots is the odd terms' sum, and
    v(-2**n) = x - 2*(x & mask).  Below the bound pack's even/odd blit
    gives E(X**2) and X*O(X**2), X = 2**n, whose sum and difference are
    v(+-X); its precondition 2n >= the bound holds at ks4's quarter width.
    """
    if n >= v.width_bound_bits:
        x = pack(v, n)
        _, mask = _masks_for((_odd_slots, n), len(v) // 2)
        return x, x - ((x & mask) << 1)
    even, odd = _even_odd_at(v.coeffs, n)
    return even + odd, even - odd


def _shr_exact(v: int, k: int) -> int:
    # v / 2**k where the products' parity makes the division exact; a
    # corrupted product breaks that, and must not be truncated.
    if v < 0 or v & ((1 << k) - 1):
        raise ReconstructionError("inexact half-sum")
    return v >> k


def _half_products(f: CoeffVec, g: CoeffVec, n: int, stats,
                   config) -> tuple[int, int]:
    # The even- and odd-index parts E and O of f*g at 2**(2n), from its
    # values E +- X*O at +-X = +-2**n: the half-sum, and the half-difference
    # shifted down by n more.  Both products are counted into stats if given.
    (f_pos, f_neg), (g_pos, g_neg) = _plus_minus(f, n), _plus_minus(g, n)
    plus = mul_signed(f_pos, g_pos, stats, config)
    minus = mul_signed(f_neg, g_neg, stats, config)
    return _shr_exact(plus + minus, 1), _shr_exact(plus - minus, 1 + n)


def ks3_mul(f: CoeffVec, g: CoeffVec, *, stats: MulStats | None = None,
            config: MulConfig | None = None,
            _modulus: int | None = None) -> CoeffVec:
    """Negated variant: products at +-2**N; the half-sum holds the even-index
    output coefficients and the half-difference the odd ones.  Given a
    modulus, the coefficients come back reduced by it; at even e they are
    reduced while still packed."""
    full, n, _, k, check = _plan(len(f.coeffs), len(g.coeffs),
                                 max(f.width_bound_bits, g.width_bound_bits))
    parts = _half_products(f, g, n, stats, config)  # n >= b: one blit
    # The digits are below 2**(2n) = 2**(2b + 2*ceil(e/2)): at even e that is
    # the output bound 2**(2b+e) itself, so no digit can fail it.  At odd e a
    # CoeffVec checks them against the bound before `%` reduces them.
    if check:
        checked = CoeffVec(_read(parts, 2 * n, k, None), full)
        return _validated(_reduce(checked.coeffs, _modulus), full)
    return _validated(tuple(_read(parts, 2 * n, k, _modulus)), full)


def _four_point_safe(p: KsParams) -> bool:
    # The two reconstructions run at digit width w = 2*width_quarter and need
    # every output coefficient below 2**w * (2**w - 1).  This always holds:
    # with L = min length, 2**e >= L and 2w >= 2b+e, so t = 2**w satisfies
    # t*t - t >= 2**(2b+e) - 2**(b+e/2), while
    # L*(2**b-1)**2 <= 2**(2b+e) - 2**(b+e+1) + 2**e, and
    # 2**(b+e/2) + 2**e < 2**(b+e+1) for every b >= 1, e >= 0.
    w = 2 * p.width_quarter
    return p.coeff_product_bound() < (1 << w) * ((1 << w) - 1)


def _reversed(v: CoeffVec) -> CoeffVec:
    return _validated(v.coeffs[::-1], v.width_bound_bits)


def ks4_mul(f: CoeffVec, g: CoeffVec, *, stats: MulStats | None = None,
            config: MulConfig | None = None,
            _modulus: int | None = None) -> CoeffVec:
    """Four-point variant: ks3's half-sum split at quarter width N, on the
    operands and on their reversals (their values at +-2**(-N)), then ks2's
    overlap reconstruction on the even part and on the odd part, read
    reduced as ks2's is."""
    full, _, n, k, _ = _plan(len(f.coeffs), len(g.coeffs),
                             max(f.width_bound_bits, g.width_bound_bits))
    if k == 1:
        # Nothing to split: ks1's one product, read at the bound itself.
        return ks1_mul(f, g, stats=stats, config=config, _modulus=_modulus)
    even, odd = _half_products(f, g, n, stats, config)
    # The reversed operands multiply to the reversed product.  Its even part
    # is the reversed even part of f*g for odd k, and the reversed odd part
    # for even k.
    even_rev, odd_rev = _half_products(_reversed(f), _reversed(g), n, stats,
                                       config)
    if k % 2 == 0:
        even_rev, odd_rev = odd_rev, even_rev
    # Each part's recovery splits it by parity again: the even part's into
    # the coefficients at 0 and 2 (mod 4), the odd part's at 1 and 3.
    w = 2 * n
    out = [0] * k
    out[0::2] = _read(_overlap_unpack(even, even_rev, w, (k + 1) // 2, full),
                      2 * w, (k + 1) // 2, _modulus)
    out[1::2] = _read(_overlap_unpack(odd, odd_rev, w, k // 2, full), 2 * w,
                      k // 2, _modulus)
    return _validated(tuple(out), full)
