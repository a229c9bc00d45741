import math
import random

import pytest

from kronmul import ksint
from kronmul.bignat import MulConfig, MulStats
from kronmul.ksint import (ReconstructionError, _four_point_safe,
                           _overlap_unpack, _plus_minus, _read, _reversed,
                           _shr_exact, derive_params, ks1_mul, ks2_mul,
                           ks3_mul, ks4_mul)
from kronmul.oracle import schoolbook_z
from kronmul.pack import (_FIELD_UNPACK_MIN_DIGITS, _MASK_KEYS,
                          _MASK_MAX_BITS, CoeffVec, _masks, _masks_for,
                          _odd_slots, pack, pack_negated,
                          pack_negated_reversed, pack_reversed)

# A digit count past every width's strided-field cutoff.
_FIELD_COUNT = max(_FIELD_UNPACK_MIN_DIGITS.values())


class SubInt(int):
    """An int subclass, which every public boundary turns into plain int."""


F_EXAMPLE = CoeffVec((274, 610, 887, 621), 10)
G_EXAMPLE = CoeffVec((553, 298, 424, 790), 10)
H_EXAMPLE = (151522, 418982, 788467, 1082839, 1043046, 964034, 490590)

ALL_VARIANTS = [ks1_mul, ks2_mul, ks3_mul, ks4_mul]


def random_vec(rng, length, bound):
    return CoeffVec(tuple(rng.randrange(1 << bound) for _ in range(length)),
                    bound)


def test_derive_params_examples():
    p = derive_params(4, 4, 10)
    assert p.log2_min_len == 2
    assert (p.width_full, p.width_half, p.width_quarter) == (22, 11, 6)
    p1 = derive_params(1, 1, 7)
    assert p1.log2_min_len == 0
    assert p1.width_full == 14
    assert derive_params(5, 3, 7).log2_min_len == 2
    # bound check behind that choice: at most min(L) products stack
    assert 3 * (2**7 - 1) ** 2 < 2**2 * 2**14


def test_derive_params_invariants():
    rng = random.Random(0)
    for _ in range(500):
        len_f = rng.randrange(1, 600)
        len_g = rng.randrange(1, 600)
        b = rng.randrange(1, 70)
        p = derive_params(len_f, len_g, b)
        e = p.log2_min_len
        assert p.width_full >= 2 * b
        assert p.width_half >= b
        assert 4 * p.width_quarter >= 2 * b + e
        assert 2 * p.width_half >= 2 * b + e
        assert p.coeff_product_bound() <= (1 << e) * \
            ((1 << (2 * b)) - (1 << (b + 1)) + 1)


def test_derive_params_rejects_bad_input():
    with pytest.raises(ValueError):
        derive_params(0, 1, 4)
    with pytest.raises(ValueError):
        derive_params(1, 1, 0)
    # Integers only: no fractional widths from a float bound or length.
    for args in ((3, 3, 2.5), (3.0, 3, 2), (3, "3", 2), (3, 3, 2.0)):
        with pytest.raises(TypeError):
            derive_params(*args)
    p = derive_params(SubInt(3), True, SubInt(2))
    assert all(type(x) is int for x in (p.len_f, p.len_g, p.coeff_bits,
                                        p.width_half))


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_worked_example(variant):
    assert variant(F_EXAMPLE, G_EXAMPLE).coeffs == H_EXAMPLE


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_zero_and_single(variant):
    zeros = CoeffVec((0, 0, 0), 5)
    g = CoeffVec((7, 21, 30), 5)
    assert variant(zeros, g).coeffs == (0,) * 5
    assert variant(CoeffVec((9,), 4), CoeffVec((13,), 4)).coeffs == (117,)


def test_output_coefficient_bound():
    rng = random.Random(1)
    for _ in range(100):
        b = rng.randrange(1, 20)
        f = random_vec(rng, rng.randrange(1, 20), b)
        g = random_vec(rng, rng.randrange(1, 20), b)
        bound = min(len(f), len(g)) * ((1 << b) - 1) ** 2
        for c in ks1_mul(f, g).coeffs:
            assert c <= bound


def shift_pack(values, width):
    return sum(h << (i * width) for i, h in enumerate(values))


def packings(values, width):
    # The forward and the reversed packing of values, by plain shifts.
    return shift_pack(values, width), shift_pack(values[::-1], width)


def recover(fwd, rev, width, count, bound_bits, modulus=None):
    # _overlap_unpack's two packed parity classes, read as ks2 reads them.
    parts = _overlap_unpack(fwd, rev, width, count, bound_bits)
    return _read(parts, 2 * width, count, modulus)


def test_reconstruct_single_coefficient():
    # 21 at width 3 packs to the digits (5, 2) either way round.
    assert recover(shift_pack((5, 2), 3), shift_pack((5, 2), 3), 3, 1,
                   6) == [21]


def test_reconstruct_traced_example():
    # from f = (3, 2), g = (1, 3): h = (3, 11, 6), whose forward packing at
    # width 3 has the digits (3, 3, 7, 0) and whose reversed one (6, 3, 4,
    # 0), least significant first
    assert recover(shift_pack((3, 3, 7, 0), 3), shift_pack((6, 3, 4, 0), 3),
                   3, 3, 6) == [3, 11, 6]


def test_reconstruct_round_trip_randomized():
    rng = random.Random(5)
    for _ in range(2000):
        width = rng.randrange(2, 64)
        count = rng.randrange(1, 40)
        top = (1 << width) * ((1 << width) - 1)
        values = [rng.randrange(top) for _ in range(count)]
        assert recover(*packings(values, width), width, count,
                       2 * width) == values


def test_reconstruct_extreme_values():
    # All-zero values and every value at the limit X*(X-1) - 1, at every
    # width for one coefficient and, at field widths, past the field cutoffs.
    cases = [(width, 1) for width in range(1, 129)]
    cases += [(width, _FIELD_COUNT) for width in (8, 16, 54, 56)]
    for width, count in cases:
        limit = (1 << width) * ((1 << width) - 1) - 1
        for values in ([0] * count, [limit] * count):
            got = recover(*packings(values, width), width, count, 2 * width)
            assert got == values, (width, count)


def test_reconstruct_rejects_out_of_range_values():
    # one value at 2**width * (2**width - 1) breaks the high-digit range
    width = 4
    top = (1 << width) * ((1 << width) - 1)
    with pytest.raises(ReconstructionError):
        recover(*packings([top, 3], width), width, 2, 2 * width)


def test_reconstruct_rejects_inconsistent_streams():
    # One case per check at width 3 (X = 8), with F's digits least
    # significant first and R~'s digits (the reversed packing's, most
    # significant first) read as an integer: X*F - R~ = 8 is not a multiple
    # of X**2 - 1; X*F - R~ = 63 * 8 and -63 put the quotient above
    # X**count and below 0; X*F - R~ = 63 * 40 gives h_0 = -5, h_1 = 40,
    # which pack to both streams but are not naturals.
    for fwd, rev in (((1, 0), (0, 0)), ((7, 7), (0, 0)), ((0, 0), (7, 7)),
                     ((3, 7, 4), (0, 0, 0))):
        with pytest.raises(ReconstructionError):
            recover(shift_pack(fwd, 3), shift_pack(rev[::-1], 3), 3,
                    len(fwd) - 1, 6)


def test_overlap_unpack_single_bit_flips():
    # A flip moves X*F - R~ by a power of two, which the odd X**2 - 1 never
    # divides, so the remainder check rejects every one of them.  A flip in
    # the reversed packing past its count + 1 digits fails its unpacking
    # first.
    rng = random.Random(8)
    cases = [(width, count) for width in (1, 2, 3, 8, 17, 54)
             for count in (1, 2, 5)] + [(54, _FIELD_COUNT)]
    for width, count in cases:
        top = (1 << width) * ((1 << width) - 1)
        nbits = width * (count + 1)
        bits = (range(nbits + 2) if count < 100
                else rng.sample(range(nbits), 48))
        for values in ([rng.randrange(top) for _ in range(count)],
                       [0] * count, [top - 1] * count):
            packed = packings(values, width)
            assert recover(*packed, width, count, 2 * width) == values
            for side in (0, 1):
                for bit in bits:
                    pair = list(packed)
                    pair[side] ^= 1 << bit
                    past = side == 1 and bit >= nbits
                    with pytest.raises(ValueError if past
                                       else ReconstructionError):
                        recover(*pair, width, count, 2 * width)


def test_overlap_unpack_caller_bound():
    # The caller's bound 2**t folds into the range check, for t on both
    # sides of 2*width: a largest value of min(2**t, X*(X-1)) - 1 comes
    # back, exactly that bound raises, at the first, a middle and the last
    # position of either parity.  From t = 2*width on the bound is the
    # recovery's own limit X*(X-1).
    for width, count in ((1, 3), (3, 1), (9, 5), (27, 4), (54, _FIELD_COUNT)):
        limit = (1 << width) * ((1 << width) - 1)
        for t in sorted({0, 1, width, 2 * width - 2, 2 * width - 1,
                         2 * width, 2 * width + 1, 2 * width + 9}):
            bound = min(1 << t, limit)
            for at in {0, 1, count // 2, count - 2, count - 1} & set(
                    range(count)):
                for top in (bound - 1, bound):
                    values = [0] * count
                    values[at] = top
                    packed = packings(values, width)
                    if top < bound:
                        assert recover(*packed, width, count, t) == values
                    else:
                        with pytest.raises(ReconstructionError,
                                           match="out of range"):
                            recover(*packed, width, count, t)
        values = [limit - 1] * count
        packed = packings(values, width)
        assert recover(*packed, width, count, 2 * width + 1) == values


def test_overlap_unpack_rejects_borrowing_fields():
    # Streams that agree but spell a negative h_j = X*q_j + r_{j+1} -
    # q_{j+1}, built from Q's digits q and R~'s digits r (R~ the reversed
    # stream's digits read least significant first; r_0 = q_0): q_j =
    # r_{j+1} = 0 and q_{j+1} = c >= 1 make h_j = -c and h_{j+1} = X*c.
    # Packed, h_j's field borrows.  Each must raise, at every position that
    # can borrow (all but the last) and on both sides of the bound 2*width;
    # with r_{j+1} = c the same streams spell h_j = 0 and come back.
    def streams(q, r, width):
        x = 1 << width
        fwd, rem = divmod(shift_pack(r, width)
                          + (x * x - 1) * shift_pack(q, width), x)
        assert rem == 0
        return fwd, shift_pack(r[::-1], width)

    for width, count in ((1, 2), (2, 3), (3, 4), (8, 9), (54, 65),
                         (54, _FIELD_COUNT)):
        x = 1 << width
        for j in {0, 1, count // 2, count - 2} & set(range(count - 1)):
            for c in {1, x - 1}:
                q, r = [0] * count, [0] * (count + 1)
                q[j + 1] = c
                for t in (width + 1, 2 * width - 1, 2 * width,
                          2 * width + 3):
                    if x * c >= min(1 << t, x * (x - 1)):
                        continue  # h_{j+1} alone would fail the bound
                    with pytest.raises(ReconstructionError,
                                       match="out of range"):
                        recover(*streams(q, r, width), width, count, t)
                    r[j + 1] = c
                    want = [0] * count
                    want[j + 1] = x * c
                    assert recover(*streams(q, r, width), width, count,
                                   t) == want
                    r[j + 1] = 0


@pytest.mark.parametrize("modulus", [2, 3, 2**63, 2**64 - 59])
def test_overlap_unpack_reduces_mod_n(modulus):
    # Given a modulus, both parity classes come back reduced by it, equal
    # to the recovered values taken mod n, and corrupted streams raise as
    # they do without one.
    rng = random.Random(modulus)
    for width in (1, 2, 3, 31, 32, 33, 54, 63, 64, 65):
        if modulus.bit_length() > 2 * width:
            continue
        limit = (1 << width) * ((1 << width) - 1)
        for count in (1, 2, 3, 4, 40, 41, 129):
            values = [rng.choice((0, limit - 1, rng.randrange(limit)))
                      for _ in range(count)]
            packed = packings(values, width)
            for t in (2 * width - 1, 2 * width):
                if max(values) >> t:
                    continue
                assert recover(*packed, width, count, t, modulus) == [
                    v % modulus for v in values]
            with pytest.raises(ReconstructionError):
                recover(packed[0] ^ 1, packed[1], width, count, 2 * width,
                        modulus)


def _corrupted(monkeypatch, name, products):
    # ksint's multiply `name` returns the given products in turn.
    queue = iter(products)
    monkeypatch.setattr(ksint, name, lambda *args: next(queue))


def test_ks2_ks4_reject_products_past_the_output_bound(monkeypatch):
    # Products whose streams agree but spell an output coefficient in
    # [2**width_full, X*(X-1)) must raise, not return: the bound that ks2
    # and ks4 pass to the overlap recovery is their only output check.  At
    # lengths 2 and b = 4, width_full = 9 and the recoveries' X*(X-1) is
    # 32*31 (ks2) and 64*63 (ks4).
    f = g = CoeffVec((15, 15), 4)
    p = derive_params(2, 2, 4)
    assert p.width_full == 9
    for middle in (2**9 - 1, 2**9):
        h = [5, middle, 7]
        # ks2: the products at 2**N and at 2**(-N) pack h and reversed h.
        n = p.width_half
        assert 2**9 < (1 << n) * ((1 << n) - 1)
        _corrupted(monkeypatch, "mul",
                   [shift_pack(h, n), shift_pack(h[::-1], n)])
        # ks4: the signed products at +-2**N, then those of the reversed
        # operands, hold the even part E and the odd part O at 2**(2N):
        # v(+-2**N) = E +- 2**N * O.
        n = p.width_quarter
        w = 2 * n
        assert 2**9 < (1 << w) * ((1 << w) - 1)
        even, odd = shift_pack(h[0::2], w), shift_pack(h[1::2], w)
        even_rev = shift_pack(h[0::2][::-1], w)
        ks4_products = [even + (odd << n), even - (odd << n),
                        even_rev + (odd << n), even_rev - (odd << n)]
        if middle < 2**9:
            assert ks2_mul(f, g).coeffs == tuple(h)
            _corrupted(monkeypatch, "mul_signed", ks4_products)
            assert ks4_mul(f, g).coeffs == tuple(h)
        else:
            with pytest.raises(ReconstructionError, match="out of range"):
                ks2_mul(f, g)
            _corrupted(monkeypatch, "mul_signed", ks4_products)
            with pytest.raises(ReconstructionError, match="out of range"):
                ks4_mul(f, g)


def test_ks1_rejects_a_product_too_wide_for_its_digits(monkeypatch):
    # ks1 unpacks at width_full, the output bound itself, so no digit can
    # fail the bound and it builds no product CoeffVec.  A corrupted
    # product past out_len digits, or negative, still raises from the
    # unpack, with or without a modulus; one that fits reads as digits
    # below the bound.  ks4 at 1x1 makes ks1's one product and must read the
    # same products alike.  At b = 4 and lengths 2, width_full = 9 and
    # out_len = 3; at lengths 1, width_full = 8 and out_len = 1.
    two, one = CoeffVec((15, 15), 4), CoeffVec((15,), 4)
    for f, variants, shape in ((two, (ks1_mul,), (9, 3)),
                               (one, (ks1_mul, ks4_mul), (8, 1))):
        p = derive_params(len(f), len(f), 4)
        assert (p.width_full, p.out_len) == shape
        top = p.width_full * p.out_len
        digit = (1 << p.width_full) - 1
        for modulus in (None, 7, 2**63):
            for variant in variants:
                for product, error in ((1 << top, "does not fit"),
                                       (-1, "negative")):
                    _corrupted(monkeypatch, "mul", [product])
                    with pytest.raises(ValueError, match=error):
                        variant(f, f, _modulus=modulus)
                _corrupted(monkeypatch, "mul", [(1 << top) - 1])
                got = variant(f, f, _modulus=modulus)
                want = (digit % (modulus or digit + 1),) * p.out_len
                assert got.coeffs == want
                assert got.width_bound_bits == p.width_full


def test_ks3_rejects_digits_past_the_output_bound(monkeypatch):
    # ks3 unpacks at 2*width_half = 2b + 2*ceil(e/2) bits.  At odd e that is
    # one bit past width_full, so exact half-sums can still spell a digit
    # of 2**width_full, and its product CoeffVec must raise.  At even e the
    # unpack width is width_full itself: such a digit carries into the next
    # one, and at the top it does not fit, so the unpack raises.
    def products(h, n):
        # v(+-2**n) = E +- 2**n * O, with E and O the even and odd parts
        # of h packed at 2n bits: both halvings are exact.
        even, odd = shift_pack(h[0::2], 2 * n), shift_pack(h[1::2], 2 * n)
        return [even + (odd << n), even - (odd << n)]

    f = g = CoeffVec((15, 15), 4)    # e = 1
    p = derive_params(2, 2, 4)
    assert (p.width_full, 2 * p.width_half) == (9, 10)
    for middle in (2**9 - 1, 2**9):
        h = [5, middle, 7]
        _corrupted(monkeypatch, "mul_signed", products(h, p.width_half))
        if middle < 2**9:
            assert ks3_mul(f, g).coeffs == tuple(h)
        else:
            with pytest.raises(ValueError, match=r"outside \[0, 2\*\*9\)"):
                ks3_mul(f, g)
    f = g = CoeffVec((15, 15, 15), 4)    # e = 2
    p = derive_params(3, 3, 4)
    assert (p.width_full, 2 * p.width_half) == (10, 10)
    for top in (2**10 - 1, 2**10):
        h = [5, 6, 7, 8, top]
        _corrupted(monkeypatch, "mul_signed", products(h, p.width_half))
        if top < 2**10:
            assert ks3_mul(f, g).coeffs == tuple(h)
        else:
            with pytest.raises(ValueError, match="does not fit"):
                ks3_mul(f, g)
    _corrupted(monkeypatch, "mul_signed",
               products([5, 6, 2**10, 8, 9], p.width_half))
    assert ks3_mul(f, g).coeffs == (5, 6, 0, 8, 10)


def test_reader_checks_odd_e_digits_before_reducing(monkeypatch):
    # Given a modulus, ks3 at odd e reads its halves through the output
    # reader with its check: a digit of exactly 2**width_full, which the
    # unpack at width_full + 1 bits lets through, must raise before it is
    # reduced, at 40 coefficients as at 3.  At lengths 20 and 21 and b = 4,
    # e = 5, width_full = 13 and the unpack width is 14.
    f, g = CoeffVec((15,) * 20, 4), CoeffVec((15,) * 21, 4)
    p = derive_params(20, 21, 4)
    assert (p.width_full, 2 * p.width_half, p.out_len) == (13, 14, 40)
    n = p.width_half
    rng = random.Random(40)
    for modulus in (11, 2**63):
        for digit in (2**13 - 1, 2**13):
            h = [rng.randrange(2**13) for _ in range(40)]
            h[17] = digit
            even, odd = shift_pack(h[0::2], 2 * n), shift_pack(h[1::2], 2 * n)
            _corrupted(monkeypatch, "mul_signed",
                       [even + (odd << n), even - (odd << n)])
            if digit < 2**13:
                assert ks3_mul(f, g, _modulus=modulus).coeffs == tuple(
                    v % modulus for v in h)
            else:
                with pytest.raises(ValueError,
                                   match=r"coefficient 17 outside"):
                    ks3_mul(f, g, _modulus=modulus)


def test_shr_exact_rejects_inexact_half_sums():
    # A corrupted ks3/ks4 product leaves an odd or a negative half-sum.  It
    # must raise, under python -O too, rather than truncate.
    assert _shr_exact(12, 2) == 3
    for v, k in ((3, 1), (-4, 1), ((1 << 70) + 32, 6)):
        with pytest.raises(ReconstructionError, match="inexact"):
            _shr_exact(v, k)


def test_overlap_digits_validation():
    # What the packed entry rejects: a reversed packing that is negative
    # cannot be split into digits, nor any packing at width 0; a negative
    # forward packing fails the remainder check, or, where X*F - R~ is a
    # multiple of X**2 - 1, the quotient's range.
    with pytest.raises(ValueError, match="negative"):
        recover(21, -1, 3, 1, 6)
    with pytest.raises(ValueError, match="width"):
        recover(0, 0, 0, 1, 0)
    for fwd in (-1, -63):
        with pytest.raises(ReconstructionError):
            recover(fwd, 0, 3, 1, 6)


def test_packed_operand_lengths_max_input():
    # all-max inputs fill the nominal span exactly at full and half widths;
    # the quarter width overlaps and carries one extra bit when it is
    # narrower than the coefficients
    for b in (1, 4, 17, 48):
        for length in (1, 2, 5, 100):
            p = derive_params(length, length, b)
            top = (1 << b) - 1
            v = CoeffVec((top,) * length, b)
            for width in (p.width_full, p.width_half):
                assert pack(v, width).bit_length() == \
                    width * (length - 1) + b
            nominal = p.width_quarter * (length - 1) + b
            expect = nominal + (1 if p.width_quarter < b and length > 1
                                else 0)
            assert pack(v, p.width_quarter).bit_length() == expect


def test_exhaustive_tiny_inputs():
    vecs = [CoeffVec((c0,), 3) for c0 in range(8)]
    vecs += [CoeffVec((c0, c1), 3) for c0 in range(8) for c1 in range(8)]
    rng = random.Random(6)
    sample = rng.sample([(f, g) for f in vecs for g in vecs], 400)
    for f, g in sample:
        want = schoolbook_z(f, g).coeffs
        for variant in ALL_VARIANTS:
            assert variant(f, g).coeffs == want


def test_four_point_bound_always_holds():
    # ks4 asserts its reconstruction bound instead of falling back to ks1;
    # check it where it is tightest, at lengths 2**e and 2**e + 1
    for e in range(40):
        for length in (1 << e, (1 << e) + 1):
            for b in range(1, 257):
                for len_f, len_g in ((length, length), (length, 3 * length)):
                    p = derive_params(len_f, len_g, b)
                    assert _four_point_safe(p), (b, len_f, len_g)


def _horner(coeffs, x):
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _assert_plus_minus_packs(v, n):
    # v and its reversal at +-2**n against Horner's rule and against the
    # whole-vector packs, which share the even/odd blit below the bound;
    # the reversal at -2**n is the negated reversed pack up to (-1)**(L-1).
    sign = -1 if len(v) % 2 == 0 else 1
    x = 1 << n
    for w in (v, _reversed(v)):
        assert _plus_minus(w, n) == (_horner(w.coeffs, x),
                                     _horner(w.coeffs, -x))
    assert _plus_minus(v, n) == (pack(v, n), pack_negated(v, n))
    assert _plus_minus(_reversed(v), n) == (
        pack_reversed(v, n), sign * pack_negated_reversed(v, n))


@pytest.mark.parametrize("b", [1, 4, 48, 64])
def test_split_evaluations_match_whole_vector_packs(b):
    # The evaluations of ks4 (the quarter width, below the bound or not)
    # and of ks3 (the half width, never below it) must reproduce every
    # whole-vector pack, for odd and even lengths and beside an operand of
    # length 1
    rng = random.Random(b)
    top = (1 << b) - 1
    for length in range(1, 10):
        for other in (1, length):
            p = derive_params(length, other, b)
            for coeffs in ((top,) * length,
                           tuple(rng.randrange(top + 1) for _ in range(length))):
                v = CoeffVec(coeffs, b)
                assert p.width_half >= b
                for n in (p.width_quarter, p.width_half):
                    _assert_plus_minus_packs(v, n)


def test_plus_minus_on_both_sides_of_the_bound():
    # One blit with the odd-slot mask from the bound up, the even/odd split
    # below it, down to half the bound.
    for coeffs in ((5, 7, 6), (7, 7, 7, 7), (6,)):
        v = CoeffVec(coeffs, 3)
        for n in (2, 3, 4):
            _assert_plus_minus_packs(v, n)


def test_odd_slot_mask_cache():
    # ks3's and ks4's odd-slot masks live in pack's one mask store, keyed
    # on width: a short mask, then a longer one that replaces it, then the
    # short request again, which reads the longer entry.
    _masks.clear()
    rng = random.Random(61)
    key = (_odd_slots, 61)

    def odd_slots(count):
        v = CoeffVec(tuple(rng.getrandbits(61) for _ in range(count)), 61)
        assert _plus_minus(v, 61) == (pack(v, 61), pack_negated(v, 61))

    odd_slots(3)
    odd_slots(40)
    entry = _masks[key]
    assert entry[0] * 2 >= 40
    odd_slots(3)
    assert _masks[key] is entry and list(_masks) == [key]
    # A new key past the key limit empties the store first.
    _masks.clear()
    for width in range(1000, 1000 + _MASK_KEYS):
        _masks_for((_odd_slots, width), 1)
    odd_slots(3)
    assert list(_masks) == [key]
    # A mask past the bit bound is built for the call and not kept.
    odd_slots((_MASK_MAX_BITS // 122 + 1) * 2)
    assert _masks[key][0] * 122 <= _MASK_MAX_BITS


@pytest.mark.parametrize("b,len_f,len_g", [
    (1, 1, 1), (1, 1, 9), (1, 7, 2), (1, 33, 5),
    (64, 1, 1), (64, 1, 17), (64, 40, 3), (64, 130, 257)])
def test_ks3_edge_shapes_against_oracle(b, len_f, len_g):
    # b = 1 and b = 64 (a 64-bit modulus), L = 1 and unequal lengths in
    # either order, all-max and random coefficients.
    rng = random.Random(b * 1000 + len_f * 10 + len_g)
    top = (1 << b) - 1
    for draw in (lambda: top, lambda: rng.randrange(top + 1)):
        f = CoeffVec(tuple(draw() for _ in range(len_f)), b)
        g = CoeffVec(tuple(draw() for _ in range(len_g)), b)
        assert ks3_mul(f, g).coeffs == schoolbook_z(f, g).coeffs


# Word products per variant (ks1, ks2, ks3, ks4) under the default config
# and under classical_only, on operands drawn in this order from
# random.Random(31) with every coefficient in [1, 2**b): for each b, the
# shapes 1x1, 1xL, Lx1, unequal and balanced.
PINNED_SHAPES = [(1, 1), (1, 40), (40, 1), (5, 23), (300, 17), (64, 64),
                 (300, 300)]
PINNED_VARIANT_COUNTS = {
    "default": [
        (1, 2, 2, 1), (2, 2, 2, 4), (2, 2, 2, 4), (2, 4, 4, 4),
        (66, 76, 57, 40), (64, 32, 32, 16), (1521, 1292, 1292, 900),
        (1, 2, 2, 1), (60, 60, 60, 64), (60, 60, 60, 64), (245, 144, 144, 120),
        (10058, 6706, 6692, 3936), (4568, 3005, 3046, 2244),
        (59139, 40516, 40471, 27062),
        (1, 2, 2, 1), (79, 80, 80, 84), (79, 80, 80, 84), (470, 288, 288, 208),
        (14382, 9370, 9400, 6400), (6372, 4196, 4162, 2922),
        (76247, 52852, 52986, 36381)],
    "classical": [
        (1, 2, 2, 1), (2, 2, 2, 4), (2, 2, 2, 4), (2, 4, 4, 4),
        (66, 76, 57, 40), (64, 32, 32, 16), (2704, 1682, 1682, 900),
        (1, 2, 2, 1), (60, 60, 60, 64), (60, 60, 60, 64), (245, 144, 144, 120),
        (12298, 6706, 6692, 3936), (10404, 5202, 5202, 2916),
        (242064, 124002, 124002, 64516),
        (1, 2, 2, 1), (79, 80, 80, 84), (79, 80, 80, 84), (470, 288, 288, 208),
        (21805, 11340, 11340, 6400), (17689, 8978, 8978, 4900),
        (412164, 209952, 209952, 108900)],
}


def test_variant_word_products_pinned():
    configs = {"default": MulConfig(),
               "classical": MulConfig(classical_only=True)}
    counts = {name: [] for name in configs}
    rng = random.Random(31)
    for b in (1, 48, 64):
        for len_f, len_g in PINNED_SHAPES:
            f = CoeffVec(tuple(rng.randrange(1, 1 << b) for _ in range(len_f)),
                         b)
            g = CoeffVec(tuple(rng.randrange(1, 1 << b) for _ in range(len_g)),
                         b)
            want = schoolbook_z(f, g).coeffs
            for name, config in configs.items():
                row = []
                for variant in ALL_VARIANTS:
                    stats = MulStats()
                    assert variant(f, g, stats=stats,
                                   config=config).coeffs == want
                    row.append(stats.limb_products)
                counts[name].append(tuple(row))
    assert counts == PINNED_VARIANT_COUNTS


def test_word_products_follow_the_width_model():
    # The paper's cost model: a balanced product of n-bit operands costs
    # n**alpha word products, alpha = 2 classical and log2(3) Karatsuba, so
    # ks2 and ks3, two products at half of ks1's width N1, cost
    # 2 * (N2/N1)**alpha of ks1, and ks4, four at a quarter,
    # 4 * (N4/N1)**alpha.  N1 is derive_params' full width 2b+e, and
    # N2 = ceil(N1/2) and N4 = ceil(N1/4), so a variant run at another width
    # shows here as a cost off the model.  Measured over predicted ks1/ks_i
    # on all-maximal operands reads 0.994-1.000 for classical ks2 and ks3
    # (only limb rounding moves them) and 0.879-1.028 elsewhere: ks4's
    # quarter width rounds up and, below b, its evaluation carries a bit,
    # and Karatsuba's splits round to limbs.
    tolerance = {("classical", "ks2"): 0.01, ("classical", "ks3"): 0.01}
    configs = {"classical": (MulConfig(classical_only=True), 2.0),
               "karatsuba": (MulConfig(), math.log2(3))}
    for b in (8, 20, 48, 64):
        for length in (160, 1024):
            v = CoeffVec(((1 << b) - 1,) * length, b)
            n1 = derive_params(length, length, b).width_full
            for name, (config, alpha) in configs.items():
                counts = []
                for variant in ALL_VARIANTS:
                    stats = MulStats()
                    variant(v, v, stats=stats, config=config)
                    counts.append(stats.limb_products)
                for (label, products), count in zip(
                        (("ks2", 2), ("ks3", 2), ("ks4", 4)), counts[1:]):
                    width = -(-n1 // products)
                    predicted = 1 / (products * (width / n1) ** alpha)
                    ratio = counts[0] / count / predicted
                    off = tolerance.get((name, label), 0.15)
                    assert abs(ratio - 1) <= off, (name, label, b, length,
                                                   ratio)
