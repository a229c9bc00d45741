import random

import pytest

from kronmul import bignat, ksint
from kronmul.bignat import (_FIELD_UNPACK_MIN_DIGITS, BigNat, MulConfig,
                            MulStats)
from kronmul.ksint import (OverlapDigits, ReconstructionError,
                           _four_point_safe, _overlap_unpack, _plus_minus,
                           _reversed, _shr_exact, derive_params, ks1_mul,
                           ks2_mul, ks3_mul, ks4_mul, reconstruct_overlapped)
from kronmul.oracle import schoolbook_z
from kronmul.pack import (CoeffVec, pack, pack_negated, pack_negated_reversed,
                          pack_reversed)

# A digit count past every width's strided-field cutoff.
_FIELD_COUNT = max(_FIELD_UNPACK_MIN_DIGITS.values())

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
    p = derive_params(BigNat(3), True, BigNat(2))
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


def test_reconstruct_single_coefficient():
    d = OverlapDigits((5, 2), (2, 5), 3)
    assert reconstruct_overlapped(d).coeffs == (21,)


def test_reconstruct_traced_example():
    # from f = (3, 2), g = (1, 3): h = (3, 11, 6)
    d = OverlapDigits((3, 3, 7, 0), (0, 4, 3, 6), 3)
    coeffs, fwd_carries, rev_carries = reconstruct_overlapped(
        d, with_carries=True)
    assert coeffs.coeffs == (3, 11, 6)
    assert fwd_carries == [0, 0, 0, 0]
    assert rev_carries == [0, 0, 0]
    assert (fwd_carries, rev_carries) == stream_carries([3, 11, 6], 3)


def shift_pack(values, width):
    return sum(h << (i * width) for i, h in enumerate(values))


def make_overlap_digits(values, width):
    # independent construction of the two digit streams by plain shifts
    count = len(values)
    fwd_val = shift_pack(values, width)
    rev_val = shift_pack(values[::-1], width)
    mask = (1 << width) - 1
    fwd = [(fwd_val >> (i * width)) & mask for i in range(count + 1)]
    rev = [(rev_val >> (i * width)) & mask for i in range(count + 1)]
    rev.reverse()
    return OverlapDigits(tuple(fwd), tuple(rev), width)


def stream_carries(values, width):
    # The carries of both packings, by column addition of each value's low
    # digit lo_i and high digit hi_i.  Forward digit i sums lo_i, hi_{i-1}
    # and the carry from digit i-1; reversed position j sums lo_{j-1}, hi_j
    # and the carry from position j+1.
    count = len(values)
    base = 1 << width
    lo = [h % base for h in values] + [0]
    hi = [h // base for h in values] + [0]
    fwd, carry = [], 0
    for i in range(count + 1):
        carry = (lo[i] + (hi[i - 1] if i else 0) + carry) // base
        fwd.append(carry)
    rev, carry = [0] * count, 0
    for j in range(count, 0, -1):
        carry = (lo[j - 1] + hi[j] + carry) // base
        rev[j - 1] = carry
    return fwd, rev


def test_reconstruct_round_trip_randomized():
    rng = random.Random(5)
    for _ in range(2000):
        width = rng.randrange(2, 64)
        count = rng.randrange(1, 40)
        top = (1 << width) * ((1 << width) - 1)
        values = [rng.randrange(top) for _ in range(count)]
        got, fwd_c, rev_c = reconstruct_overlapped(
            make_overlap_digits(values, width), with_carries=True)
        assert list(got.coeffs) == values
        assert (fwd_c, rev_c) == stream_carries(values, width)
        assert set(fwd_c) <= {0, 1} and set(rev_c) <= {0, 1}
        assert fwd_c[0] == 0 and fwd_c[-1] == 0 and rev_c[-1] == 0


def test_reconstruct_extreme_values():
    # All-zero values and every value at the limit X*(X-1) - 1, at every
    # width for one coefficient and, at field widths, past the field cutoffs.
    cases = [(width, 1) for width in range(1, 129)]
    cases += [(width, _FIELD_COUNT) for width in (8, 16, 54, 56)]
    for width, count in cases:
        limit = (1 << width) * ((1 << width) - 1) - 1
        for values in ([0] * count, [limit] * count):
            got, fwd_c, rev_c = reconstruct_overlapped(
                make_overlap_digits(values, width), with_carries=True)
            assert list(got.coeffs) == values, (width, count)
            assert (fwd_c, rev_c) == stream_carries(values, width)


def test_reconstruct_rejects_out_of_range_values():
    # one value at 2**width * (2**width - 1) breaks the high-digit range
    width = 4
    top = (1 << width) * ((1 << width) - 1)
    with pytest.raises(ReconstructionError):
        reconstruct_overlapped(make_overlap_digits([top, 3], width))


def test_reconstruct_rejects_inconsistent_streams():
    # One case per check at width 3 (X = 8), with R~ the reversed digits
    # read as an integer: X*F - R~ = 8 is not a multiple of X**2 - 1;
    # X*F - R~ = 63 * 8 and -63 put the quotient above X**count and below
    # 0; X*F - R~ = 63 * 40 gives h_0 = -5, h_1 = 40, which pack to both
    # streams but are not naturals.
    for fwd, rev in (((1, 0), (0, 0)), ((7, 7), (0, 0)), ((0, 0), (7, 7)),
                     ((3, 7, 4), (0, 0, 0))):
        with pytest.raises(ReconstructionError):
            reconstruct_overlapped(OverlapDigits(fwd, rev, 3))


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
            packed = (shift_pack(values, width),
                      shift_pack(values[::-1], width))
            assert _overlap_unpack(*packed, width, count, top) == values
            for side in (0, 1):
                for bit in bits:
                    pair = list(packed)
                    pair[side] ^= 1 << bit
                    past = side == 1 and bit >= nbits
                    with pytest.raises(ValueError if past
                                       else ReconstructionError):
                        _overlap_unpack(*pair, width, count, top)


def test_overlap_unpack_caller_bound():
    # The caller's bound folds into the range check: a largest value of
    # bound - 1 comes back, exactly bound raises.  A bound past X*(X-1)
    # leaves the recovery's own limit.
    for width, count in ((3, 1), (9, 5), (27, 4), (54, _FIELD_COUNT)):
        limit = (1 << width) * ((1 << width) - 1)
        for bound in (1, 1 << (2 * width - 1), limit - 1):
            for top in (bound - 1, bound):
                values = [0] * count
                values[count // 2] = top
                packed = (shift_pack(values, width),
                          shift_pack(values[::-1], width))
                if top < bound:
                    assert _overlap_unpack(*packed, width, count,
                                           bound) == values
                else:
                    with pytest.raises(ReconstructionError,
                                       match="out of range"):
                        _overlap_unpack(*packed, width, count, bound)
        values = [limit - 1] * count
        packed = shift_pack(values, width), shift_pack(values[::-1], width)
        assert _overlap_unpack(*packed, width, count, limit << 1) == values


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


def test_shr_exact_rejects_inexact_half_sums():
    # A corrupted ks3/ks4 product leaves an odd or a negative half-sum.  It
    # must raise, under python -O too, rather than truncate.
    assert _shr_exact(12, 2) == 3
    for v, k in ((3, 1), (-4, 1), ((1 << 70) + 32, 6)):
        with pytest.raises(ReconstructionError, match="inexact"):
            _shr_exact(v, k)


def test_overlap_digits_validation():
    with pytest.raises(ValueError):
        OverlapDigits((1,), (1,), 3)
    with pytest.raises(ValueError):
        OverlapDigits((1, 2), (1,), 3)
    with pytest.raises(ValueError):
        OverlapDigits((8, 0), (0, 8), 3)
    with pytest.raises(ValueError):
        OverlapDigits((1, 0), (0, -1), 3)
    # Integers only: no truncated floats or parsed strings.
    for fwd, rev in (((1.5, 0), (0, 1)), ((1, 0), ("0", 1))):
        with pytest.raises(TypeError):
            OverlapDigits(fwd, rev, 3)
    for width in (3.0, "3"):
        with pytest.raises(TypeError):
            OverlapDigits((1, 0), (0, 1), width)
    d = OverlapDigits((True, BigNat(7)), (0, False), BigNat(3))
    assert d.forward_digits == (1, 7) and d.reversed_digits == (0, 0)
    assert type(d.width_bits) is int
    assert all(type(x) is int for x in d.forward_digits + d.reversed_digits)


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
    # ks3's and ks4's odd-slot masks live in bignat's one mask store, keyed
    # on width: a short mask, then a longer one that replaces it, then the
    # short request again, which reads the longer entry.
    bignat._masks.clear()
    rng = random.Random(61)
    key = (bignat._odd_slots, 61)

    def odd_slots(count):
        v = CoeffVec(tuple(rng.getrandbits(61) for _ in range(count)), 61)
        assert _plus_minus(v, 61) == (pack(v, 61), pack_negated(v, 61))

    odd_slots(3)
    odd_slots(40)
    entry = bignat._masks[key]
    assert entry[0] * 2 >= 40
    odd_slots(3)
    assert bignat._masks[key] is entry and list(bignat._masks) == [key]
    # A new key past the key limit empties the store first.
    bignat._masks.clear()
    for width in range(1000, 1000 + bignat._MASK_KEYS):
        bignat._masks_for((bignat._odd_slots, width), 1)
    odd_slots(3)
    assert list(bignat._masks) == [key]
    # A mask past the bit bound is built for the call and not kept.
    odd_slots((bignat._MASK_MAX_BITS // 122 + 1) * 2)
    assert bignat._masks[key][0] * 122 <= bignat._MASK_MAX_BITS


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
