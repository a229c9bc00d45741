import random

import pytest

from kronmul.bignat import MulConfig, MulStats
from kronmul.ksint import (OverlapDigits, ReconstructionError, _evaluations,
                           _four_point_safe, derive_params, ks1_mul, ks2_mul,
                           ks3_mul, ks4_mul, reconstruct_overlapped)
from kronmul.oracle import schoolbook_z
from kronmul.pack import (CoeffVec, pack, pack_negated, pack_negated_reversed,
                          pack_reversed)

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


@pytest.mark.parametrize("variant", [ks2_mul, ks3_mul, ks4_mul])
def test_variants_match_oracle_randomized(variant):
    rng = random.Random(2)
    for _ in range(250):
        b = rng.randrange(1, 49)
        f = random_vec(rng, rng.randrange(1, 40), b)
        g = random_vec(rng, rng.randrange(1, 40), b)
        assert variant(f, g).coeffs == schoolbook_z(f, g).coeffs


def test_parallel_is_bit_identical():
    rng = random.Random(3)
    for variant in (ks2_mul, ks3_mul, ks4_mul):
        for _ in range(20):
            b = rng.randrange(1, 33)
            f = random_vec(rng, rng.randrange(1, 50), b)
            g = random_vec(rng, rng.randrange(1, 50), b)
            assert variant(f, g, parallel=True).coeffs == \
                variant(f, g, parallel=False).coeffs


def test_parallel_stats_sum_matches_sequential():
    rng = random.Random(4)
    f = random_vec(rng, 40, 30)
    g = random_vec(rng, 40, 30)
    cfg = MulConfig(classical_only=True)
    seq, par = MulStats(), MulStats()
    ks4_mul(f, g, stats=seq, config=cfg)
    ks4_mul(f, g, stats=par, config=cfg, parallel=True)
    assert seq.limb_products == par.limb_products > 0


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


def make_overlap_digits(values, width):
    # independent construction of the two digit streams by plain shifts
    count = len(values)
    fwd_val = sum(h << (i * width) for i, h in enumerate(values))
    rev_val = sum(h << ((count - 1 - i) * width)
                  for i, h in enumerate(values))
    mask = (1 << width) - 1
    fwd = [(fwd_val >> (i * width)) & mask for i in range(count + 1)]
    rev = [(rev_val >> (i * width)) & mask for i in range(count + 1)]
    rev.reverse()
    return OverlapDigits(tuple(fwd), tuple(rev), width)


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
        assert set(fwd_c) <= {0, 1} and set(rev_c) <= {0, 1}
        assert fwd_c[0] == 0 and rev_c[-1] == 0


def test_reconstruct_rejects_out_of_range_values():
    # one value at 2**width * (2**width - 1) breaks the high-digit range
    width = 4
    top = (1 << width) * ((1 << width) - 1)
    with pytest.raises(ReconstructionError):
        reconstruct_overlapped(make_overlap_digits([top, 3], width))


def test_overlap_digits_validation():
    with pytest.raises(ValueError):
        OverlapDigits((1,), (1,), 3)
    with pytest.raises(ValueError):
        OverlapDigits((1, 2), (1,), 3)
    with pytest.raises(ValueError):
        OverlapDigits((8, 0), (0, 8), 3)


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


@pytest.mark.parametrize("b", [1, 4, 48, 64])
def test_split_evaluations_match_whole_vector_packs(b):
    # the even/odd split must reproduce every whole-vector pack, for odd
    # and even lengths and beside an operand of length 1
    rng = random.Random(b)
    top = (1 << b) - 1
    for length in range(1, 10):
        for other in (1, length):
            p = derive_params(length, other, b)
            for coeffs in ((top,) * length,
                           tuple(rng.randrange(top + 1) for _ in range(length))):
                v = CoeffVec(coeffs, b)
                nq, nh = p.width_quarter, p.width_half
                assert _evaluations(v, nq, True) == [
                    int(pack(v, nq)), pack_negated(v, nq).value,
                    int(pack_reversed(v, nq)),
                    pack_negated_reversed(v, nq).value]
                assert _evaluations(v, nh, False) == [
                    int(pack(v, nh)), pack_negated(v, nh).value]
