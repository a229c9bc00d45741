import dataclasses
import random

import pytest

from kronmul import bignat, pack
from kronmul.bignat import (DEFAULT_MUL_CONFIG, MulConfig, MulStats, mul,
                            mul_classical, mul_karatsuba, mul_signed)
from kronmul.pack import from_digits, to_digits


class SubInt(int):
    """An int subclass, which every public boundary turns into plain int."""


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
    # at threshold 2, through the recursion's private argument
    rng = random.Random(1)
    for _ in range(1000):
        a = rng.getrandbits(rng.randrange(1, 64 * 64))
        b = rng.getrandbits(rng.randrange(1, 64 * 64))
        assert (bignat._karatsuba_int(a, b, None, 2) == mul_classical(a, b)
                == a * b)


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
    mul(a, b, split, MulConfig())
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
        assert mul(x, y, stats) == x * y
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


@pytest.mark.parametrize("config, threshold", [
    (MulConfig(), None), (MulConfig(), 1), (MulConfig(), 40),
    (MulConfig(classical_only=True), None)],
    ids=["thr16", "thr1", "thr40", "classical"])
@pytest.mark.parametrize("xl, yl", [(1, 1), (16, 17), (200, 200),
                                    (33, 3200)])
def test_uncounted_mul_is_one_native_product(monkeypatch, config, threshold,
                                             xl, yl):
    # No MulStats: CPython's multiply, whatever the config or the Karatsuba
    # threshold (patched here, since no caller can set it), through the one
    # name the self-test corrupts.
    if threshold is not None:
        monkeypatch.setattr(bignat, "_KARATSUBA_THRESHOLD", threshold)
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


@pytest.mark.parametrize("xbits, ybits, calls", [
    (TOOM - 1, TOOM - 1, 1),       # below the cutoff
    (TOOM - 1, 3 * TOOM // 2, 1),  # the shorter side below it
    (TOOM, TOOM, 7),               # at it: one split into native leaves
    (2 * TOOM - 1, TOOM, 7),       # just inside the skew gate
    (TOOM, 2 * TOOM, 1),           # just outside: CPython's lopsided path
    (3 * TOOM, 3 * TOOM, 7),       # parts of 3/4 the cutoff: one level
    # Parts at the cutoff split again, except x(-1), which is 0 for an
    # all-ones x: a product below every cutoff.
    (4 * TOOM, 4 * TOOM, 43),      # 6 * 7 + 1
])
def test_uncounted_toom_native_products(monkeypatch, xbits, ybits, calls):
    # All-ones operands, whose parts and evaluations are full-width and
    # carry furthest: seven native products per level of the Toom-4 split,
    # one outside its gates, whatever the config; signs only flip the
    # product.
    made = 0

    def counted(x, y):
        nonlocal made
        made += 1
        return x * y

    monkeypatch.setattr(bignat, "_native_mul", counted)
    x, y = (1 << xbits) - 1, (1 << ybits) - 1
    for config in (MulConfig(), MulConfig(classical_only=True)):
        made = 0
        assert mul(x, y, config=config) == x * y
        assert made == calls
        assert mul_signed(-x, y, config=config) == -x * y
        assert mul_signed(-x, -y, config=config) == x * y
        assert made == 3 * calls


def test_ring_axioms_randomized():
    # the Karatsuba recursion at threshold 1 against int addition, on
    # operands small enough to split
    rng = random.Random(5)

    def kmul(x, y):
        return bignat._karatsuba_int(x, y, None, 1)

    for _ in range(10_000):
        a = rng.getrandbits(rng.randrange(1, 512))
        b = rng.getrandbits(rng.randrange(1, 512))
        c = rng.getrandbits(rng.randrange(1, 512))
        assert kmul(a, b) == kmul(b, a)
        assert kmul(kmul(a, b), c) == kmul(a, kmul(b, c))
        assert kmul(a, b + c) == kmul(a, b) + kmul(a, c)


def test_results_are_normalized():
    # plain ints out, whatever int-like operands went in
    x, y = SubInt(2**64 - 1), True
    results = [mul(x, y), mul_classical(x, y), mul_karatsuba(x, y),
               mul_signed(x, -2), mul_signed(-1, False),
               from_digits([1, 2], 8)]
    results += to_digits(SubInt(197121), 8, 3)
    assert all(type(r) is int for r in results)
    assert results == [2**64 - 1] * 3 + [2 - 2**65, 0, 513, 1, 2, 3]


# pack's digit layer: to_digits, from_digits, and the blits, mask store and
# packed reduction under them.


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
    cutoffs = {pack._GROUP_MIN_DIGITS,
               *pack._FIELD_UNPACK_MIN_DIGITS.values()}
    counts = [0, 1, 7, 8, 9, 1025, 4097]
    counts += [c + k for c in cutoffs for k in (-1, 0, 1)]
    for count in counts:
        for digits in ([rng.randrange(top + 1) for _ in range(count)],
                       [top] * count):
            value = _reference_pack(digits, width)
            assert pack._pack_ints(digits, width) == value
            assert pack._unpack_ints(value, width, count) == digits
        with pytest.raises(ValueError, match="value does not fit"):
            pack._unpack_ints(1 << (width * count), width, count)


@pytest.mark.parametrize("width", [65, 100, 104, 128, 136, 160])
def test_wide_digit_round_trips(width):
    # The wide path's edges: one digit short of its cutoff and at it, and
    # one block of byte-string fields and one digit past it (1024 / 1025
    # digits at whole-byte widths, pairs at 2049 digits of width 100).
    # Full-width digits pack by groups, 64-bit ones by fields where the
    # width is divisible by 4.
    assert pack._WIDE_MIN_DIGITS == 384 and pack._FIELD_BLOCK == 1024
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
    fields = pack._pack_fields

    def recorded(values, w):
        out = fields(values, w)
        ran.append(w)
        return out

    monkeypatch.setattr(pack, "_pack_fields", recorded)
    rng = random.Random(count)
    digits = [rng.getrandbits(64) for _ in range(count)]
    for top, by_fields in ((2**64 - 1, True), (2**64, False)):
        digits[-1] = top
        ran.clear()
        assert pack._pack_ints(digits, width) == \
            _reference_pack(digits, width)
        assert ran == [width] * by_fields


@pytest.mark.parametrize("width, count", [(8, 3), (100, 48), (54, 48),
                                          (100, 384)])
def test_unpack_rejects_negative_values(width, count):
    # One case per path: plain shifts, groups, strided fields, wide.  The
    # shifts would read -5 as [251, 255, 255] at width 8, the fields as
    # garbage.
    with pytest.raises(ValueError, match="negative"):
        pack._unpack_ints(-5, width, count)


def test_field_layouts():
    # d is the least power of two with d*width a whole number gap >= 8 of
    # bytes; 54 is ks4's width on a 48-bit modulus.
    assert pack._FIELD_LAYOUTS[54] == (4, 27)
    for width, (d, gap) in pack._FIELD_LAYOUTS.items():
        assert d * width == 8 * gap and gap >= 8
        assert d == 1 or (d // 2 * width) % 8 or d // 2 * width < 64


# Moduli for the packed reduction: 2 and 3, every power of two (whose
# bit_length is one past its coefficient bound), 2**(b-1) + 1 (Barrett's
# largest estimates for its bit length) and 2**b - 1 for b = 1..64, and
# 2**64 - 59.
MOD_MODULI = sorted({2, 3, 2**64 - 59}
                    | {m for b in range(1, 65)
                       for m in (2**b, 2**(b - 1) + 1, 2**b - 1)
                       if 2 <= m < 2**64})


def _mod_widths(n):
    # W = n.bit_length(), where the reduction's one W-bit mask has no bit
    # to spare (over MOD_MODULI, at every residue mod 4); the least width
    # of each residue 0 and 2 (mod 4) that holds n; the first of each
    # residue from 64 on (the paired struct read: one phase at 0, two at 2,
    # four at odd widths); and 2W < 64.
    low = n.bit_length()
    widths = {low, low + (-low) % 4, low + (2 - low) % 4, 65, 67,
              max(64, low + (-low) % 4), max(66, low + (2 - low) % 4)}
    if low < 32:
        widths.add(max(low, 30))
    return sorted(widths)


def _mod_digits(rng, n, width, count):
    # Digits 0, n-1, n, exact multiples k*n (Barrett's estimate is one short
    # on some, so the correction runs), 2**width - 1, and random ones.
    top = (1 << width) - 1
    edges = [0, n - 1, n, top // n * n, n * (top // n // 2 + 1), top]
    return [edges[i % 6] if i % 7 else rng.randrange(top + 1)
            for i in range(count)]


@pytest.mark.parametrize("n", MOD_MODULI)
def test_unpack_mod_matches_reduced_digits(monkeypatch, n):
    # Each read runs twice: as called, and over a store whose entries claim
    # twice their fields, the true fix in the upper half and every field
    # below it poisoned.  A read that cuts the fix it
    # adds to its own field count, so as to add no more than it reads,
    # never meets the poison.
    rng = random.Random(n)
    reads = []
    for width in _mod_widths(n):
        for count in (1, 2, 7, 39, 40, 41):
            digits = _mod_digits(rng, n, width, count)
            value = _reference_pack(digits, width)
            want = [d % n for d in pack._unpack_ints(value, width, count)]
            assert pack._unpack_mod(value, width, count, n) == want, (
                width, count)
            reads.append((value, width, count, want))
    masks_for = pack._masks_for

    def longer(key, fields):
        entry = masks_for(key, fields)
        if key[0] is not pack._mod_masks:
            return entry
        slots, mask, fix, m = entry
        return 2 * slots, mask, fix << slots * 2 * key[1] | mask, m

    monkeypatch.setattr(pack, "_masks_for", longer)
    for value, width, count, want in reads:
        assert pack._unpack_mod(value, width, count, n) == want, (width, count)


@pytest.mark.parametrize("n, width", [
    (n, width) for n in (2, 3, 2**20 + 1, 2**47 + 1, 2**64 - 59)
    for width in (30, 64, 65, 66, 100, 102, 136)
    if n.bit_length() <= width])
def test_unpack_mod_long_vectors(n, width):
    # Counts about the struct block of 1024 fields or pairs, at one, two
    # and four phases.
    rng = random.Random(width)
    for count in (1023, 1024, 1025, 2049, 4097):
        digits = _mod_digits(rng, n, width, count)
        value = _reference_pack(digits, width)
        assert pack._unpack_mod(value, width, count, n) == [
            d % n for d in digits], count


@pytest.mark.parametrize("width, count", [(30, 3), (100, 40), (102, 41),
                                          (136, 1025)])
def test_unpack_mod_rejects_what_unpack_rejects(width, count):
    n = 2**29 - 3
    for value in (-1, -(1 << width), 1 << width * count):
        with pytest.raises(ValueError):
            pack._unpack_ints(value, width, count)
        with pytest.raises(ValueError):
            pack._unpack_mod(value, width, count, n)
    top = (1 << width * count) - 1
    assert pack._unpack_mod(top, width, count, n) == [
        ((1 << width) - 1) % n] * count


def _assert_mask_store_site(call, keys, stride, per_field, short, longer):
    # At one call site of the mask store, whose reads take the entries of
    # `keys`, its own first: a short request, a longer one and the short one
    # again read right, the last through the longer entry; a new key past
    # the key limit empties the store, and a mask past the bit bound is
    # built for its call and not kept.
    key = keys[0]
    pack._masks.clear()
    call(short)
    call(longer)
    entry = pack._masks[key]
    assert entry[0] * per_field >= longer
    call(short)
    assert pack._masks[key] is entry and list(pack._masks) == keys
    pack._masks.clear()
    for width in range(1000, 1000 + pack._MASK_KEYS):
        pack._masks_for((pack._odd_slots, width), 1)
    call(short)
    assert list(pack._masks) == keys
    past = (pack._MASK_MAX_BITS // stride + 1) * per_field
    call(past)
    assert pack._masks[key][0] * stride <= pack._MASK_MAX_BITS


def test_phase_mask_cache():
    # The strided unpack's phase masks live in the one mask store, keyed on
    # width, which holds at worst two masks at the bit bound per key.
    assert pack._MASK_KEYS * 2 * pack._MASK_MAX_BITS // 8 <= 8 << 20
    rng = random.Random(54)

    def phases(count):
        digits = [rng.getrandbits(54) for _ in range(count)]
        assert pack._unpack_ints(_reference_pack(digits, 54), 54,
                                 count) == digits

    # 54-bit digits: four to a 216-bit field.
    _assert_mask_store_site(phases, [(pack._phase_masks, 54)], 216, 4,
                            48, 4097)


def test_mod_mask_cache():
    # The packed reduction's masks live in the mask store per (width, n).
    rng = random.Random(7)
    n = 2**47 + 1

    def reduced(count):
        digits = _mod_digits(rng, n, 102, count)
        assert pack._unpack_mod(_reference_pack(digits, 102), 102, count,
                                n) == [d % n for d in digits]

    # 102-bit digits: two to a 204-bit field, whose odd fields the pair read
    # moves onto a byte by the second entry.
    _assert_mask_store_site(reduced, [(pack._mod_masks, 102, n),
                                      (pack._odd_slots, 204)], 204, 2,
                            40, 1025)


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


def test_mul_config_has_one_keyword_field():
    # The Karatsuba threshold is a constant: a config that tries to set it,
    # or passes classical_only by position, is refused.
    assert [f.name for f in dataclasses.fields(MulConfig)] == [
        "classical_only"]
    for args, kwargs in (((40,), {}), ((), {"karatsuba_threshold": 40})):
        with pytest.raises(TypeError):
            MulConfig(*args, **kwargs)
    assert DEFAULT_MUL_CONFIG.karatsuba_threshold == 16
    assert MulConfig(classical_only=True).classical_only
