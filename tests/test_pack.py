import random

import pytest

from kronmul.bignat import BigNat, to_digits
from kronmul.pack import (CoeffVec, pack, pack_negated,
                          pack_negated_reversed, pack_reversed)


def eval_at(coeffs, x):
    # direct signed evaluation, the oracle for every packing below
    return sum(c * x**i for i, c in enumerate(coeffs))


def test_coeffvec_validation():
    with pytest.raises(ValueError):
        CoeffVec((), 4)
    with pytest.raises(ValueError):
        CoeffVec((16,), 4)
    with pytest.raises(ValueError):
        CoeffVec((-1,), 4)
    v = CoeffVec((0, 15), 4)
    assert len(v) == 2
    with pytest.raises(ValueError, match=r"coefficient 1 outside \[0, 2\*\*4\)"):
        CoeffVec((3, 16, 2), 4)
    with pytest.raises(ValueError, match=r"coefficient 2 outside"):
        CoeffVec((3, 1, -2, 99), 4)
    # Integers only: no truncated floats or parsed strings.
    for bad in ((2.7,), (1, "3")):
        with pytest.raises(TypeError):
            CoeffVec(bad, 2)
    for bound in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            CoeffVec((3,), bound)
    v = CoeffVec((True, BigNat(3)), 2)
    assert v.coeffs == (1, 3) and all(type(c) is int for c in v.coeffs)
    assert type(CoeffVec((1,), BigNat(2)).width_bound_bits) is int


def test_pack_examples():
    assert pack(CoeffVec((0,), 4), 9) == 0
    assert pack(CoeffVec((1, 2, 3), 8), 8) == 197121
    v = CoeffVec((274, 610, 887, 621), 10)
    packed = pack(v, 12)
    assert to_digits(packed, 12, 4) == list(v.coeffs)


def test_pack_width_precondition():
    with pytest.raises(ValueError):
        pack(CoeffVec((255,), 8), 3)  # below half the bound
    # overlapped mode, down to half the bound, still evaluates exactly
    v = CoeffVec((135, 200, 77), 8)
    assert pack(v, 5) == eval_at(v.coeffs, 2**5)


def test_pack_reversed_examples():
    assert pack_reversed(CoeffVec((9,), 4), 6) == 9
    assert pack_reversed(CoeffVec((1, 2, 3), 8), 8) == 66051
    assert 66051 == 1 * 2**16 + 2 * 2**8 + 3
    pal = CoeffVec((7, 3, 7), 3)
    assert pack_reversed(pal, 5) == pack(pal, 5)


def test_packs_return_plain_ints():
    v = CoeffVec((3, 2, 1, 7), 4)
    for fn in (pack, pack_reversed, pack_negated, pack_negated_reversed):
        for width in (2, 4, 9):
            assert type(fn(v, width)) is int


def test_pack_negated_examples():
    assert pack_negated(CoeffVec((11,), 4), 4) == 11
    assert pack_negated(CoeffVec((3, 2, 1), 4), 4) == 227
    assert 227 == 3 - 2 * 16 + 1 * 256


def test_pack_negated_reversed_examples():
    assert pack_negated_reversed(CoeffVec((11,), 4), 4) == 11
    assert pack_negated_reversed(CoeffVec((3, 2, 1), 4), 4) == 737
    assert 737 == 1 - 2 * 16 + 3 * 256


def test_round_trip_with_digits():
    rng = random.Random(17)
    for _ in range(400):
        bound = rng.randrange(1, 30)
        length = rng.randrange(1, 30)
        coeffs = tuple(rng.randrange(1 << bound) for _ in range(length))
        v = CoeffVec(coeffs, bound)
        width = rng.randrange(bound, bound + 12)
        assert to_digits(pack(v, width), width, length) == list(coeffs)


def test_reversal_involution():
    rng = random.Random(18)
    for _ in range(200):
        bound = rng.randrange(1, 24)
        coeffs = tuple(rng.randrange(1 << bound)
                       for _ in range(rng.randrange(1, 16)))
        v = CoeffVec(coeffs, bound)
        width = bound + 2
        reversed_v = CoeffVec(coeffs[::-1], bound)
        assert pack_reversed(reversed_v, width) == pack(v, width)


def test_even_odd_sign_identity():
    # pack(v) + pack_negated(v) = 2 * pack(even part at double width)
    rng = random.Random(19)
    for _ in range(200):
        bound = rng.randrange(1, 24)
        coeffs = tuple(rng.randrange(1 << bound)
                       for _ in range(rng.randrange(1, 16)))
        v = CoeffVec(coeffs, bound)
        width = bound + rng.randrange(0, 6)
        even = CoeffVec(coeffs[0::2], bound)
        total = pack(v, width) + pack_negated(v, width)
        assert total == 2 * pack(even, 2 * width)


def test_bit_length_bound_and_equality():
    rng = random.Random(20)
    for _ in range(300):
        bound = rng.randrange(1, 24)
        length = rng.randrange(1, 16)
        coeffs = tuple(rng.randrange(1 << bound) for _ in range(length))
        width = rng.randrange(bound, bound + 8)
        packed = pack(CoeffVec(coeffs, bound), width)
        assert packed.bit_length() <= width * (length - 1) + bound
    top = CoeffVec(((1 << 9) - 1,) * 5, 9)
    assert pack(top, 11).bit_length() == 11 * 4 + 9


def test_overlapped_pack_bit_length():
    # with chunks narrower than the coefficients, all-max input carries
    # exactly one bit past the nominal span
    for bound, length in [(4, 2), (17, 5), (48, 100)]:
        top = (1 << bound) - 1
        v = CoeffVec((top,) * length, bound)
        for width in range((bound + 1) // 2, bound):
            nominal = width * (length - 1) + bound
            assert pack(v, width).bit_length() == nominal + 1
