import random
import sys

import pytest

from kronmul import bignat
from kronmul.bignat import (BigNat, MulConfig, MulStats, SignedBig,
                            UnderflowError, add, from_digits, mul,
                            mul_classical, mul_karatsuba, mul_signed,
                            shl_bits, shr_bits, shr_bits_exact, sub,
                            to_digits)


def test_add_examples():
    assert add(BigNat(0), BigNat(0)) == 0
    carried = add(BigNat(2**64 - 1), BigNat(1))
    assert carried == 2**64
    assert carried.limbs == (0, 1)
    big = BigNat.from_decimal("621000088700006100000274")
    assert add(big, BigNat(1)).to_decimal() == "621000088700006100000275"


def test_sub_examples():
    assert sub(BigNat(5), BigNat(5)) == 0
    assert sub(BigNat(5), BigNat(5)).limbs == ()
    assert sub(BigNat(2**64), BigNat(1)) == 2**64 - 1
    a = BigNat.from_decimal("490686413831542917850889971522")
    assert sub(a, BigNat(151522)).to_decimal() == \
        "490686413831542917850889820000"


def test_sub_underflow():
    with pytest.raises(UnderflowError):
        sub(BigNat(1), BigNat(2))


def test_mul_example():
    a = BigNat.from_decimal("621000088700006100000274")
    b = BigNat.from_decimal("790000042400002980000553")
    want = "490590096403410430461082839078846704189820151522"
    assert mul(a, b).to_decimal() == want
    assert mul(BigNat(0), b) == 0


def test_classical_identity_and_widening():
    assert mul_classical(BigNat(1), BigNat(12345)) == 12345
    a = 2**64 - 1
    assert mul_classical(BigNat(a), BigNat(a)) == a * a


def test_classical_count_is_m_times_n():
    rng = random.Random(0)
    for _ in range(50):
        m = rng.randrange(0, 20)
        n = rng.randrange(0, 20)
        a = rng.getrandbits(m * 64 - rng.randrange(64)) if m else 0
        b = rng.getrandbits(n * 64 - rng.randrange(64)) if n else 0
        stats = MulStats()
        mul_classical(BigNat(a), BigNat(b), stats)
        an = (a.bit_length() + 63) // 64
        bn = (b.bit_length() + 63) // 64
        assert stats.limb_products == an * bn


def test_karatsuba_equals_classical():
    rng = random.Random(1)
    cfg = MulConfig(karatsuba_threshold=2)
    for _ in range(1000):
        a = rng.getrandbits(rng.randrange(1, 64 * 64))
        b = rng.getrandbits(rng.randrange(1, 64 * 64))
        assert mul_karatsuba(BigNat(a), BigNat(b), config=cfg) == \
            mul_classical(BigNat(a), BigNat(b)) == a * b


def test_karatsuba_hundred_limb_pair():
    rng = random.Random(2)
    a = rng.getrandbits(100 * 64)
    b = rng.getrandbits(100 * 64)
    assert mul_karatsuba(BigNat(a), BigNat(b)) == \
        mul_classical(BigNat(a), BigNat(b))


def test_karatsuba_saves_word_products():
    rng = random.Random(3)
    a = BigNat(rng.getrandbits(128 * 64))
    b = BigNat(rng.getrandbits(128 * 64))
    s_classical, s_karatsuba = MulStats(), MulStats()
    mul_classical(a, b, s_classical)
    mul_karatsuba(a, b, s_karatsuba)
    assert s_karatsuba.limb_products < s_classical.limb_products


def test_mul_dispatch_threshold():
    rng = random.Random(4)
    a = BigNat(rng.getrandbits(40 * 64))
    b = BigNat(rng.getrandbits(40 * 64))
    forced = MulStats()
    mul(a, b, forced, MulConfig(classical_only=True))
    assert forced.limb_products == 40 * 40
    split = MulStats()
    mul(a, b, split, MulConfig(karatsuba_threshold=16))
    assert split.limb_products < forced.limb_products


# Word products of `mul` under the default config, recorded when every leaf
# ran the Python row loop: threshold-straddling pairs, balanced pairs up to
# 512 limbs and unbalanced pairs, on operands drawn from random.Random(20260).
PINNED_PAIRS = ([(a, b) for a in (14, 16, 17, 18) for b in (14, 15, 16, 17, 18)]
                + [(a, b) for a in (31, 32, 33, 34)
                   for b in (16, 31, 32, 33, 34)]
                + [(n, n) for n in (48, 64, 100, 129, 256, 333, 512)]
                + [(3200, 20), (20, 3200), (1000, 40), (513, 17), (700, 33)])
PINNED_COUNTS = [
    196, 210, 224, 238, 252, 224, 240, 256, 272, 288, 238, 255, 272, 226,
    243, 252, 270, 288, 234, 252, 496, 737, 768, 676, 690, 512, 768, 768,
    692, 715, 528, 676, 692, 708, 732, 544, 698, 707, 732, 695, 1396, 2230,
    4415, 6614, 19884, 27921, 60150, 55657, 55677, 28824, 7232, 16320]


def full_limbs(rng, limbs):
    return rng.getrandbits(limbs * 64) | (1 << (limbs * 64 - 1))


def test_mul_word_products_pinned():
    rng = random.Random(20260)
    counts = []
    for a, b in PINNED_PAIRS:
        x, y = full_limbs(rng, a), full_limbs(rng, b)
        stats = MulStats()
        assert mul(BigNat(x), BigNat(y), stats) == x * y
        counts.append(stats.limb_products)
    assert counts == PINNED_COUNTS


def test_native_schoolbook_cutoff():
    if sys.int_info.bits_per_digit == 30:
        assert bignat._NATIVE_SCHOOLBOOK_LIMBS == 32
    assert bignat._NATIVE_SCHOOLBOOK_LIMBS * 64 <= \
        70 * sys.int_info.bits_per_digit


@pytest.mark.parametrize("xl, yl", [(32, 32), (32, 500), (33, 33), (40, 33),
                                    (7, 3200)])
def test_classical_leaf_value_and_count(xl, yl):
    # either side of the native cutoff: the product and the m*n count
    rng = random.Random(xl * 1000 + yl)
    x, y = full_limbs(rng, xl), full_limbs(rng, yl)
    stats = MulStats()
    assert bignat._classical_int(x, y, stats) == x * y
    assert stats.limb_products == xl * yl


def test_classical_only_row_loop():
    rng = random.Random(200)
    x, y = full_limbs(rng, 200), full_limbs(rng, 200)
    stats = MulStats()
    assert mul(BigNat(x), BigNat(y), stats,
               MulConfig(classical_only=True)) == x * y
    assert stats.limb_products == 200 * 200


def test_ring_axioms_randomized():
    rng = random.Random(5)
    for _ in range(10_000):
        a = rng.getrandbits(rng.randrange(1, 512))
        b = rng.getrandbits(rng.randrange(1, 512))
        c = rng.getrandbits(rng.randrange(1, 512))
        an, bn, cn = BigNat(a), BigNat(b), BigNat(c)
        assert add(an, bn) == add(bn, an)
        assert add(add(an, bn), cn) == add(an, add(bn, cn))
        assert mul(an, add(bn, cn)) == add(mul(an, bn), mul(an, cn))


def test_results_are_normalized():
    ops = [add(BigNat(2**64 - 1), BigNat(1)),
           sub(BigNat(2**70), BigNat(2**70)),
           mul(BigNat(2**63), BigNat(2)),
           shr_bits(BigNat(2**64), 64)]
    for r in ops:
        assert r.limbs == () or r.limbs[-1] != 0


def test_shifts():
    assert shl_bits(BigNat(5), 0) == 5
    assert shl_bits(BigNat(1), 70) == 2**70
    assert shr_bits(BigNat(2**70 + 2**3), 3) == 2**67 + 1
    assert shr_bits_exact(BigNat(2**70 + 2**3), 3) == 2**67 + 1
    with pytest.raises(ValueError):
        shr_bits_exact(BigNat(5), 1)


def test_digit_examples():
    assert to_digits(BigNat(0), 7, 3) == [0, 0, 0]
    assert to_digits(BigNat(475), 3, 4) == [3, 3, 7, 0]
    assert 475 == 3 + 3 * 8 + 7 * 64
    assert to_digits(BigNat(197121), 8, 3) == [1, 2, 3]
    assert from_digits([], 8) == 0
    assert from_digits([1, 2, 3], 8) == 197121
    assert from_digits([3, 3, 7, 0], 3) == 475


def test_digit_errors():
    with pytest.raises(ValueError):
        to_digits(BigNat(256), 8, 1)
    with pytest.raises(ValueError):
        from_digits([256], 8)


def test_digit_round_trip_randomized():
    rng = random.Random(6)
    for _ in range(2000):
        width = rng.randrange(1, 130)
        count = rng.randrange(0, 50)
        digits = [rng.randrange(1 << width) for _ in range(count)]
        packed = from_digits(digits, width)
        assert to_digits(packed, width, count) == digits


def test_from_limbs_normalizes():
    assert BigNat.from_limbs([1, 2, 0, 0]).limbs == (1, 2)
    assert BigNat.from_limbs([]).limbs == ()
    with pytest.raises(ValueError):
        BigNat.from_limbs([2**64])


def test_decimal_round_trip():
    v = BigNat.from_decimal("123456789012345678901234567890")
    assert v.to_decimal() == "123456789012345678901234567890"
    with pytest.raises(ValueError):
        BigNat.from_decimal("-3")
    with pytest.raises(ValueError):
        BigNat(-1)


def test_signed_big():
    assert SignedBig.from_int(-5).value == -5
    assert SignedBig.from_int(0).negative is False
    assert SignedBig(BigNat(0), True).negative is False
    a = SignedBig.from_int(-6)
    b = SignedBig.from_int(10)
    assert (a + b).value == 4
    assert (a - b).value == -16
    assert (-a).value == 6
    assert a.halve_exact().value == -3
    with pytest.raises(ValueError):
        SignedBig.from_int(3).halve_exact()
    with pytest.raises(ValueError):
        a.to_bignat()
    assert b.to_bignat() == 10
    assert mul_signed(a, b).value == -60
    assert mul_signed(a, a).value == 36
