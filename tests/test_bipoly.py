import operator
import random
from collections import Counter

import pytest

from kronmul.bipoly import (BiPoly, MissingHalveError, RingOps, bks_four,
                            bks_negated, bks_reciprocal, bks_standard, ring_z,
                            ring_zmod)
from kronmul.oracle import schoolbook_bivar, uni_schoolbook

Z = ring_z()
Z7 = ring_zmod(7)
# The reference univariate products: each ring's add reduces the plain
# element products.
Z_MUL = uni_schoolbook(Z, operator.mul)
Z7_MUL = uni_schoolbook(Z7, operator.mul)

ALL_VARIANTS = [bks_standard, bks_reciprocal, bks_negated, bks_four]

# f = (1+2x) + (3+4x)y,  g = (5+6x) + xy
F_EXAMPLE = BiPoly(((1, 3), (2, 4)))
G_EXAMPLE = BiPoly(((5, 0), (6, 1)))
H_EXAMPLE = ((5, 15, 0), (16, 39, 3), (12, 26, 4))


def random_bipoly(rng, lx, ly, draw):
    return BiPoly(tuple(tuple(draw(rng) for _ in range(ly))
                        for _ in range(lx)))


def test_bipoly_validation():
    with pytest.raises(ValueError):
        BiPoly(())
    with pytest.raises(ValueError):
        BiPoly(((),))
    with pytest.raises(ValueError):
        BiPoly(((1, 2), (3,)))
    p = BiPoly(((1, 2), (3, 4), (5, 6)))
    assert (p.lx, p.ly) == (3, 2)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_single_cell(variant):
    h = variant(BiPoly(((3,),)), BiPoly(((5,),)), Z, Z_MUL)
    assert h.coeffs == ((15,),)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_integer_example(variant):
    assert variant(F_EXAMPLE, G_EXAMPLE, Z, Z_MUL).coeffs == H_EXAMPLE


def test_example_against_oracle():
    assert schoolbook_bivar(F_EXAMPLE, G_EXAMPLE, Z,
                            operator.mul).coeffs == H_EXAMPLE


def test_constant_in_y_has_zero_odd_part():
    f = BiPoly(((2,), (3,), (4,)))
    g = BiPoly(((1,), (5,), (9,)))
    want = schoolbook_bivar(f, g, Z, operator.mul).coeffs
    assert bks_negated(f, g, Z, Z_MUL).coeffs == want
    assert bks_four(f, g, Z, Z_MUL).coeffs == want


def test_exhaustive_small_z7_sampled():
    rng = random.Random(13)
    for _ in range(120):
        lx = rng.randrange(1, 4)
        ly = rng.randrange(1, 4)
        f = random_bipoly(rng, lx, ly, lambda r: r.randrange(7))
        g = random_bipoly(rng, lx, ly, lambda r: r.randrange(7))
        want = schoolbook_bivar(f, g, Z7, lambda a, b: (a * b) % 7).coeffs
        for variant in ALL_VARIANTS:
            assert variant(f, g, Z7, Z7_MUL).coeffs == want


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_unequal_shapes_rejected(variant):
    # The reductions take operands of one shape; others are refused.
    p = BiPoly(((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        variant(p, BiPoly(((1, 2), (3, 4), (5, 6))), Z, Z_MUL)  # unequal lx
    with pytest.raises(ValueError):
        variant(p, BiPoly(((1, 2, 3), (4, 5, 6))), Z, Z_MUL)    # unequal ly


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_univariate_product_is_required(variant):
    # No default product: a call without one must not fall back on the
    # schoolbook reference.
    with pytest.raises(TypeError):
        variant(F_EXAMPLE, G_EXAMPLE, Z)


@pytest.mark.parametrize("variant", [bks_negated, bks_four])
@pytest.mark.parametrize("modulus", [2, 8, 1 << 16])
def test_missing_halve_error(variant, modulus):
    ring = ring_zmod(modulus)
    p = BiPoly(((1, 1), (1, 1)))
    with pytest.raises(MissingHalveError):
        variant(p, p, ring, uni_schoolbook(ring, operator.mul))


def test_ring_zmod_validation():
    for modulus in (7.0, "7"):
        with pytest.raises(TypeError):
            ring_zmod(modulus)
    for modulus in (1, 0, -7):
        with pytest.raises(ValueError):
            ring_zmod(modulus)


def test_halve_in_odd_modular_ring():
    ring = ring_zmod(9)
    assert ring.halve is not None
    for a in range(9):
        assert ring.halve(ring.add(a, a)) == a


class LengthRecorder:
    def __init__(self, inner):
        self.inner = inner
        self.lengths = []

    def __call__(self, a, b):
        self.lengths.append((len(a), len(b)))
        return self.inner(a, b)


@pytest.mark.parametrize("lx,ly", [(1, 1), (2, 3), (3, 2), (4, 4), (5, 7)])
def test_univariate_product_lengths(lx, ly):
    rng = random.Random(lx * 10 + ly)
    f = random_bipoly(rng, lx, ly, lambda r: r.randrange(-9, 10))
    g = random_bipoly(rng, lx, ly, lambda r: r.randrange(-9, 10))
    base = uni_schoolbook(Z, operator.mul)

    rec = LengthRecorder(base)
    bks_standard(f, g, Z, rec)
    std_len = 2 * lx * ly - lx - ly + 1
    assert rec.lengths == [(std_len, std_len)]

    rec = LengthRecorder(base)
    bks_reciprocal(f, g, Z, rec)
    assert rec.lengths == [(lx * ly, lx * ly)] * 2

    rec = LengthRecorder(base)
    bks_negated(f, g, Z, rec)
    assert rec.lengths == [(lx * ly, lx * ly)] * 2

    if (lx, ly) != (1, 1):
        rec = LengthRecorder(base)
        bks_four(f, g, Z, rec)
        four_len = (lx + 1) // 2 * (ly - 1) + lx
        assert rec.lengths == [(four_len, four_len)] * 4


class MulCounter:
    def __init__(self):
        self.count = 0

    def __call__(self, a, b):
        self.count += 1
        return a * b


def test_four_point_ring_multiplication_budget():
    rng = random.Random(14)
    for lx, ly in [(2, 2), (3, 4), (4, 4), (6, 5)]:
        f = random_bipoly(rng, lx, ly, lambda r: r.randrange(-9, 10))
        g = random_bipoly(rng, lx, ly, lambda r: r.randrange(-9, 10))

        counter = MulCounter()
        bks_four(f, g, Z, uni_schoolbook(Z, counter))
        four_len = (lx + 1) // 2 * (ly - 1) + lx
        assert counter.count <= 4 * four_len**2

        counter = MulCounter()
        bks_standard(f, g, Z, uni_schoolbook(Z, counter))
        std_len = 2 * lx * ly - lx - ly + 1
        assert counter.count == std_len**2


def counting_ring():
    """Z with a counter of its add, sub and halve calls, by kind."""
    calls = Counter()

    def counted(kind, op):
        def call(*args):
            calls[kind] += 1
            return op(*args)
        return call

    return RingOps(0, counted("add", Z.add), counted("sub", Z.sub),
                   counted("halve", Z.halve)), calls


def shape_only(a, b):
    return [0] * (len(a) + len(b) - 1)


# Ring calls per reduction (standard, reciprocal, negated, four) with the
# univariate products excluded.  With P = Lx*Ly, H = floor(Ly/2) odd chunks,
# four-point width n = ceil(Lx/2), its product length K = 2*(n*(Ly-1)+Lx)-1
# and its peel overlap v = 2*floor(Lx/2) - 1:
# - standard: 0, chunks that cannot touch are placed;
# - reciprocal: 4*(Lx-1)*(Ly-1) subs, 2*(Lx-1) per output chunk after the
#   first;
# - negated: 2*Lx*H subs negating the odd operand chunks, which touch no
#   other, then a split of 2P-1 adds, 2P-1 halves and 2P-1-Lx subs
#   ((a-b)/2 taken as (a+b)/2 - b): 2*Lx*H + 3*(2P-1) - Lx in all;
# - four: at Lx >= 2 chunks overlap, so each of its four evaluations adds
#   and subtracts Lx*H entries, 8*Lx*H calls (at Lx = 1 they only negate,
#   4*H subs); two splits of 3K - n calls; its two peels, 2*v*(2Ly-3)
#   subs at Lx, Ly >= 2.
RING_CALLS = {
    (1, 1): (0, 0, 2, 4),
    (1, 4): (0, 0, 24, 48),
    (3, 2): (0, 8, 36, 76),
    (4, 4): (0, 36, 105, 204),
    (5, 7): (0, 96, 232, 450),
    (32, 32): (0, 3844, 7133, 14176),
}


def ring_call_kinds(lx, ly):
    # The closed forms above, per variant, as Counters of add, sub, halve.
    p, h, n = lx * ly, ly // 2, (lx + 1) // 2
    k = 2 * (n * (ly - 1) + lx) - 1
    evals = 4 * lx * h if lx >= 2 else 0    # adds, and as many subs
    peel = 2 * (2 * (lx // 2) - 1) * (2 * ly - 3) if min(lx, ly) >= 2 else 0
    return (Counter(),
            Counter(sub=4 * (lx - 1) * (ly - 1)),
            Counter(add=2 * p - 1, halve=2 * p - 1,
                    sub=2 * lx * h + 2 * p - 1 - lx),
            Counter(add=evals + 2 * k, halve=2 * k,
                    sub=(evals if lx >= 2 else 4 * h) + 2 * (k - n) + peel))


@pytest.mark.parametrize("lx,ly", sorted(RING_CALLS))
def test_ring_calls_per_reduction(lx, ly):
    p = BiPoly(((0,) * ly,) * lx)
    calls = []
    for variant, want in zip(ALL_VARIANTS, ring_call_kinds(lx, ly)):
        ring, count = counting_ring()
        variant(p, p, ring, shape_only)
        assert count == want, variant.__name__
        calls.append(count.total())
    assert tuple(calls) == RING_CALLS[lx, ly]
