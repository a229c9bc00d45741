import random

import pytest

from kronmul import bignat
from kronmul.bignat import (BigNat, MulConfig, MulStats, from_digits, mul,
                            mul_classical, mul_karatsuba, mul_signed,
                            to_digits)


def test_mul_example():
    a = 621000088700006100000274
    b = 790000042400002980000553
    want = 490590096403410430461082839078846704189820151522
    assert mul(a, b) == want
    assert mul(0, b) == 0


def test_classical_identity_and_widening():
    assert mul_classical(1, 12345) == 12345
    a = 2**64 - 1
    assert mul_classical(a, a) == a * a


def test_classical_count_is_m_times_n():
    rng = random.Random(0)
    for _ in range(50):
        m = rng.randrange(0, 20)
        n = rng.randrange(0, 20)
        a = rng.getrandbits(m * 64 - rng.randrange(64)) if m else 0
        b = rng.getrandbits(n * 64 - rng.randrange(64)) if n else 0
        stats = MulStats()
        mul_classical(a, b, stats)
        an = (a.bit_length() + 63) // 64
        bn = (b.bit_length() + 63) // 64
        assert stats.limb_products == an * bn


def test_karatsuba_equals_classical():
    rng = random.Random(1)
    cfg = MulConfig(karatsuba_threshold=2)
    for _ in range(1000):
        a = rng.getrandbits(rng.randrange(1, 64 * 64))
        b = rng.getrandbits(rng.randrange(1, 64 * 64))
        assert mul_karatsuba(a, b, config=cfg) == mul_classical(a, b) == a * b


def test_karatsuba_hundred_limb_pair():
    rng = random.Random(2)
    a = rng.getrandbits(100 * 64)
    b = rng.getrandbits(100 * 64)
    assert mul_karatsuba(a, b) == mul_classical(a, b)


def test_karatsuba_saves_word_products():
    rng = random.Random(3)
    a = rng.getrandbits(128 * 64)
    b = rng.getrandbits(128 * 64)
    s_classical, s_karatsuba = MulStats(), MulStats()
    mul_classical(a, b, s_classical)
    mul_karatsuba(a, b, s_karatsuba)
    assert s_karatsuba.limb_products < s_classical.limb_products


def test_mul_dispatch_threshold():
    rng = random.Random(4)
    a = rng.getrandbits(40 * 64)
    b = rng.getrandbits(40 * 64)
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


def _reference_karatsuba(x, y, stats, threshold):
    # The plain three-product recursion: every node recomputes its limb
    # counts and every leaf is one counted x * y.
    xl, yl = (x.bit_length() + 63) // 64, (y.bit_length() + 63) // 64
    if xl <= threshold or yl <= threshold:
        stats.limb_products += xl * yl
        return x * y
    shift = (max(xl, yl) + 1) // 2 * 64
    x1, y1 = x >> shift, y >> shift
    x0, y0 = x - (x1 << shift), y - (y1 << shift)
    z0 = _reference_karatsuba(x0, y0, stats, threshold)
    z2 = _reference_karatsuba(x1, y1, stats, threshold)
    z1 = _reference_karatsuba(x0 + x1, y0 + y1, stats, threshold) - z0 - z2
    return z0 + (z1 << shift) + (z2 << (2 * shift))


@pytest.mark.parametrize("threshold", [1, 2, 16, 32, 33, 40])
def test_karatsuba_matches_reference_recursion(monkeypatch, threshold):
    rng = random.Random(threshold)
    pairs = [(full_limbs(rng, a), full_limbs(rng, b))
             for a, b in [(3, 3), (20, 20), (41, 41), (67, 67), (90, 45),
                          (3200, 20), (20, 3200)]]
    pairs.append((0, full_limbs(rng, 100)))
    # The low half's top limbs are zero, so it is shorter than the split.
    pairs.append((full_limbs(rng, 60) << (64 * 30) | rng.getrandbits(64),
                  full_limbs(rng, 60)))
    # All-ones halves of `threshold` limbs sum to threshold + 1 limbs, so
    # the sum child splits where its addends are leaves.
    ones = (1 << (2 * threshold * 64)) - 1
    pairs.append((ones, ones))
    # Either side of a split whose three children are all leaves: half of
    # 2*threshold - 2 limbs is below the threshold, half of 2*threshold - 1
    # is not.
    pairs += [(full_limbs(rng, n), full_limbs(rng, n))
              for n in (2 * threshold - 2, 2 * threshold - 1) if n > 0]
    limbs = []

    def recorded(x, y):
        limbs.append(tuple((v.bit_length() + 63) // 64 for v in (x, y)))
        return x * y

    def leaves(x, y, stats):
        # The operand limbs of each machine product, in order.
        limbs.clear()
        assert bignat._karatsuba_int(x, y, stats, threshold) == x * y
        return limbs[:]

    monkeypatch.setattr(bignat, "_native_mul", recorded)
    for x, y in pairs:
        got, want = MulStats(), MulStats()
        counted = leaves(x, y, got)
        assert _reference_karatsuba(x, y, want, threshold) == x * y
        assert got.limb_products == want.limb_products
        # Counting does not change the tree or its leaves.
        assert leaves(x, y, None) == counted


@pytest.mark.parametrize("xl, yl", [(32, 32), (32, 500), (33, 33), (40, 33),
                                    (7, 3200), (64, 64), (65, 65), (33, 3200),
                                    (0, 40)])
def test_classical_leaf_value_and_count(xl, yl):
    # small, large and lopsided leaves, and a zero operand: the product and
    # the m*n count
    rng = random.Random(xl * 1000 + yl)
    x = full_limbs(rng, xl) if xl else 0
    y = full_limbs(rng, yl)
    stats = MulStats()
    assert bignat._classical_int(x, y, stats) == x * y
    assert stats.limb_products == xl * yl


def test_classical_only_row_loop():
    rng = random.Random(200)
    x, y = full_limbs(rng, 200), full_limbs(rng, 200)
    stats = MulStats()
    assert mul(x, y, stats, MulConfig(classical_only=True)) == x * y
    assert stats.limb_products == 200 * 200


@pytest.mark.parametrize("config", [MulConfig(), MulConfig(1),
                                    MulConfig(40),
                                    MulConfig(classical_only=True)],
                         ids=["thr16", "thr1", "thr40", "classical"])
@pytest.mark.parametrize("xl, yl", [(1, 1), (16, 17), (200, 200),
                                    (33, 3200)])
def test_uncounted_mul_is_one_native_product(monkeypatch, config, xl, yl):
    # No MulStats: CPython's multiply, whatever the config, through the one
    # name the self-test corrupts.
    made = 0

    def counted(x, y):
        nonlocal made
        made += 1
        return x * y

    monkeypatch.setattr(bignat, "_native_mul", counted)
    rng = random.Random(xl * yl)
    x, y = full_limbs(rng, xl), full_limbs(rng, yl)
    assert mul(x, y, config=config) == x * y
    assert mul_signed(-x, y, config=config) == -x * y
    assert made == 2


TOOM = bignat._TOOM_MIN_BITS
TOOM4 = bignat._TOOM4_MIN_BITS


@pytest.mark.parametrize("xbits, ybits, calls", [
    (TOOM - 1, TOOM - 1, 1),       # below the cutoff
    (TOOM - 1, 3 * TOOM // 2, 1),  # the shorter side below it
    (TOOM, TOOM, 5),               # at it: one split into native leaves
    (2 * TOOM - 1, TOOM, 5),       # just inside the skew gate
    (TOOM, 2 * TOOM, 1),           # just outside: CPython's lopsided path
    (3 * TOOM, 3 * TOOM, 25),      # every part at the cutoff: two levels
    # The Toom-4 gates.  An all-ones x has x(-1) = 0 under Toom-4, a
    # product below every cutoff, and its other points split again.
    (TOOM4 - 1, TOOM4, 21),        # the shorter side below: Toom-3
    (TOOM4, TOOM4, 7),             # at it: one split into native leaves
    (TOOM4, 3 * TOOM4 // 2 - 1, 27),  # just inside the skew gate
    (3 * TOOM4 // 2, TOOM4, 17),   # at the skew bound: Toom-3
    (4 * TOOM4, 4 * TOOM4, 43),    # every part at the cutoff: 6 * 7 + 1
])
def test_uncounted_toom3_native_products(monkeypatch, xbits, ybits, calls):
    # All-ones operands, whose parts and evaluations are full-width and
    # carry furthest: five native products per level of a Toom-3 split and
    # seven of a Toom-4 one, one outside their gates, whatever the config;
    # signs only flip the product.
    made = 0

    def counted(x, y):
        nonlocal made
        made += 1
        return x * y

    monkeypatch.setattr(bignat, "_native_mul", counted)
    x, y = (1 << xbits) - 1, (1 << ybits) - 1
    for config in (MulConfig(), MulConfig(1), MulConfig(classical_only=True)):
        made = 0
        assert mul(x, y, config=config) == x * y
        assert made == calls
        assert mul_signed(-x, y, config=config) == -x * y
        assert mul_signed(-x, -y, config=config) == x * y
        assert made == 3 * calls


def test_ring_axioms_randomized():
    # the counted multiply against int addition, small enough to split
    rng = random.Random(5)
    cfg = MulConfig(karatsuba_threshold=1)
    for _ in range(10_000):
        a = rng.getrandbits(rng.randrange(1, 512))
        b = rng.getrandbits(rng.randrange(1, 512))
        c = rng.getrandbits(rng.randrange(1, 512))
        assert mul(a, b, config=cfg) == mul(b, a, config=cfg)
        assert mul(mul(a, b, config=cfg), c, config=cfg) == \
            mul(a, mul(b, c, config=cfg), config=cfg)
        assert mul(a, b + c, config=cfg) == \
            mul(a, b, config=cfg) + mul(a, c, config=cfg)


def test_results_are_normalized():
    # plain ints out, whatever int-like operands went in
    x, y = BigNat(2**64 - 1), True
    results = [mul(x, y), mul_classical(x, y), mul_karatsuba(x, y),
               mul_signed(x, -2), mul_signed(-1, False),
               from_digits([1, 2], 8)]
    results += to_digits(BigNat(197121), 8, 3)
    assert all(type(r) is int for r in results)
    assert results == [2**64 - 1] * 3 + [2 - 2**65, 0, 513, 1, 2, 3]


def test_digit_examples():
    assert to_digits(0, 7, 3) == [0, 0, 0]
    assert to_digits(475, 3, 4) == [3, 3, 7, 0]
    assert 475 == 3 + 3 * 8 + 7 * 64
    assert to_digits(197121, 8, 3) == [1, 2, 3]
    assert from_digits([], 8) == 0
    assert from_digits([1, 2, 3], 8) == 197121
    assert from_digits([3, 3, 7, 0], 3) == 475


def test_digit_errors():
    with pytest.raises(ValueError):
        to_digits(256, 8, 1)
    with pytest.raises(ValueError):
        to_digits(-1, 8, 1)
    with pytest.raises(ValueError):
        from_digits([256], 8)
    with pytest.raises(ValueError):
        from_digits([1, -1], 8)
    # digits are integers: no truncated floats or parsed strings
    for digits in ([2.7, 1], ["3"]):
        with pytest.raises(TypeError):
            from_digits(digits, 8)
    with pytest.raises(TypeError):
        to_digits(2.0, 8, 1)


def _reference_pack(digits, width):
    # Concatenated binary text, most significant digit first.
    text = "".join(format(d, f"0{width}b") for d in reversed(digits))
    return int(text or "0", 2)


@pytest.mark.parametrize("width", [1, 7, 8, 9, 15, 16, 17, 54, 55, 56, 57,
                                   62, 63, 64, 108, 130, 141])
def test_digit_blits_match_reference(width):
    # Covers the plain shifts below _GROUP_MIN_DIGITS digits, the groups
    # from there on and, at widths 8..64 from their field cutoff on, the
    # strided fields, each side of every cutoff, with partial and whole last
    # groups and phases.  4097 digits split each phase into more than one
    # block of fields where d <= 4, as 1025 do where d = 1.  141 = 2*64 + 13
    # is ks1's full width for 64-bit coefficients and a shorter operand of up
    # to 8192 terms.
    rng = random.Random(width)
    top = (1 << width) - 1
    cutoffs = {bignat._GROUP_MIN_DIGITS,
               *bignat._FIELD_UNPACK_MIN_DIGITS.values()}
    counts = [0, 1, 7, 8, 9, 1025, 4097]
    counts += [c + k for c in cutoffs for k in (-1, 0, 1)]
    for count in counts:
        for digits in ([rng.randrange(top + 1) for _ in range(count)],
                       [top] * count):
            value = _reference_pack(digits, width)
            assert bignat._pack_ints(digits, width) == value
            assert bignat._unpack_ints(value, width, count) == digits
        with pytest.raises(ValueError, match="value does not fit"):
            bignat._unpack_ints(1 << (width * count), width, count)


@pytest.mark.parametrize("width", [65, 100, 104, 128, 136, 160])
def test_wide_digit_round_trips(width):
    # The wide path's edges: one digit short of its cutoff and at it, and
    # one block of byte-string fields and one digit past it (1024 / 1025
    # digits at whole-byte widths, pairs at 2049 digits of width 100).
    # Full-width digits pack by groups, 64-bit ones by fields where the
    # width is divisible by 4.
    assert bignat._WIDE_MIN_DIGITS == 384 and bignat._FIELD_BLOCK == 1024
    rng = random.Random(width)
    for count in (383, 384, 1024, 1025, 2049):
        for bits in (width, 64):
            digits = [rng.getrandbits(bits) for _ in range(count)]
            packed = from_digits(digits, width)
            assert packed == _reference_pack(digits, width)
            assert to_digits(packed, width, count) == digits


@pytest.mark.parametrize("width, count", [(100, 384), (104, 1025),
                                          (136, 2049)])
def test_wide_pack_digit_bound(monkeypatch, width, count):
    # Digits up to 2**64 - 1 pack through 64-bit fields; a last digit of
    # 2**64 sends the whole vector to the groups.
    ran = []
    fields = bignat._pack_fields

    def recorded(values, w):
        out = fields(values, w)
        ran.append(w)
        return out

    monkeypatch.setattr(bignat, "_pack_fields", recorded)
    rng = random.Random(count)
    digits = [rng.getrandbits(64) for _ in range(count)]
    for top, by_fields in ((2**64 - 1, True), (2**64, False)):
        digits[-1] = top
        ran.clear()
        assert bignat._pack_ints(digits, width) == \
            _reference_pack(digits, width)
        assert ran == [width] * by_fields


@pytest.mark.parametrize("width, count", [(8, 3), (100, 48), (54, 48),
                                          (100, 384)])
def test_unpack_rejects_negative_values(width, count):
    # One case per path: plain shifts, groups, strided fields, wide.  The
    # shifts would read -5 as [251, 255, 255] at width 8, the fields as
    # garbage.
    with pytest.raises(ValueError, match="negative"):
        bignat._unpack_ints(-5, width, count)


def test_field_layouts():
    # d is the least power of two with d*width a whole number gap >= 8 of
    # bytes; 54 is ks4's width on a 48-bit modulus.
    assert bignat._FIELD_LAYOUTS[54] == (4, 27)
    for width, (d, gap) in bignat._FIELD_LAYOUTS.items():
        assert d * width == 8 * gap and gap >= 8
        assert d == 1 or (d // 2 * width) % 8 or d // 2 * width < 64


def test_decimal_round_trip():
    text = "123456789012345678901234567890"
    assert str(BigNat(int(text))) == text
    assert BigNat(True) == 1 and BigNat() == 0
    with pytest.raises(ValueError):
        BigNat(-1)
    for bad in (2.0, "3"):
        with pytest.raises(TypeError):
            BigNat(bad)


def test_signed_big():
    # mul_signed multiplies magnitudes through the counted path
    for a, b in ((-6, 10), (-6, -6), (6, -10), (0, -5), (-5, 0)):
        stats = MulStats()
        assert mul_signed(a, b, stats) == a * b
        assert stats.limb_products == (1 if a and b else 0)
    x, y = -(2**200 + 3), 2**150 + 7
    stats = MulStats()
    assert mul_signed(x, y, stats, MulConfig(classical_only=True)) == x * y
    assert stats.limb_products == 4 * 3


def test_naturals_only():
    for fn in (mul, mul_classical, mul_karatsuba):
        for a, b in ((-1, 5), (5, -1), (-2, -3)):
            with pytest.raises(ValueError):
                fn(a, b)
        with pytest.raises(TypeError):
            fn(2.0, 3)


def test_mul_config_validates_threshold():
    # a threshold below 1 never stops splitting 1-limb operands
    for threshold in (0, -1):
        with pytest.raises(ValueError):
            MulConfig(karatsuba_threshold=threshold)
    for threshold in (1.5, "16"):
        with pytest.raises(TypeError):
            MulConfig(karatsuba_threshold=threshold)
    config = MulConfig(karatsuba_threshold=BigNat(3))
    assert type(config.karatsuba_threshold) is int
