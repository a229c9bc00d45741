import random

import pytest

from kronmul.bignat import MulConfig
from kronmul.modpoly import (AutoThresholds, ModPoly, Variant, choose_variant,
                             mod_mul)
from kronmul.oracle import schoolbook_mod
from kronmul.pack import CoeffVec

EXPLICIT = [Variant.KS1, Variant.KS2, Variant.KS3, Variant.KS4]


def random_modpoly(rng, length, modulus):
    return ModPoly(tuple(rng.randrange(modulus) for _ in range(length)),
                   modulus)


def test_modpoly_validation():
    with pytest.raises(ValueError):
        ModPoly((0,), 1)
    with pytest.raises(ValueError):
        ModPoly((), 5)
    with pytest.raises(ValueError):
        ModPoly((5,), 5)
    with pytest.raises(ValueError):
        ModPoly((0,), 1 << 65)
    with pytest.raises(ValueError):
        ModPoly((1, -1), 5)
    top = (1 << 64) - 1
    assert ModPoly((0, top - 1), top).modulus == top
    with pytest.raises(ValueError):
        ModPoly((0,), 1 << 64)


def _counting(monkeypatch, cls):
    calls = []
    original = cls.__init__

    def init(self, *args, **kwargs):
        calls.append(cls)
        original(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", init)
    return calls


@pytest.mark.parametrize("variant", list(Variant))
def test_one_check_per_direction(monkeypatch, variant):
    # ModPoly checks the inputs and the variant's product CoeffVec the
    # outputs; mod_mul itself lifts and reduces without checking again.
    rng = random.Random(5)
    n = (1 << 48) - 59
    cases = [(random_modpoly(rng, lf, n), random_modpoly(rng, lg, n))
             for lf, lg in ((1, 1), (7, 7), (3, 60), (600, 600))]
    coeff_vecs = _counting(monkeypatch, CoeffVec)
    mod_polys = _counting(monkeypatch, ModPoly)
    for f, g in cases:
        del coeff_vecs[:], mod_polys[:]
        h = mod_mul(f, g, variant)
        assert (len(coeff_vecs), len(mod_polys)) == (1, 0)
        assert h.coeffs == schoolbook_mod(f, g).coeffs
        checked = ModPoly(h.coeffs, n)
        assert h == checked and hash(h) == hash(checked)


def test_mod_mul_worked_example():
    n = 1000003
    f = ModPoly((274, 610, 887, 621), n)
    g = ModPoly((553, 298, 424, 790), n)
    want = (151522, 418982, 788467, 82836, 43043, 964034, 490590)
    assert schoolbook_mod(f, g).coeffs == want
    for variant in EXPLICIT + [Variant.AUTO]:
        assert mod_mul(f, g, variant).coeffs == want


def test_mod_two():
    f = ModPoly((1,), 2)
    assert mod_mul(f, f).coeffs == (1,)


def test_modulus_mismatch():
    with pytest.raises(ValueError):
        mod_mul(ModPoly((1,), 5), ModPoly((1,), 7))


@pytest.mark.parametrize("bits", [2, 4, 48])
def test_randomized_against_oracle(bits):
    rng = random.Random(bits)
    for _ in range(60):
        modulus = rng.randrange(max(2, 1 << (bits - 1)), 1 << bits)
        f = random_modpoly(rng, rng.randrange(1, 60), modulus)
        g = random_modpoly(rng, rng.randrange(1, 60), modulus)
        want = schoolbook_mod(f, g).coeffs
        for variant in EXPLICIT:
            got = mod_mul(f, g, variant)
            assert got.coeffs == want
            assert len(got.coeffs) == len(f.coeffs) + len(g.coeffs) - 1
            assert all(0 <= c < modulus for c in got.coeffs)


def test_even_modulus_all_variants_agree():
    # integer-level halving is over Z, so even n is fine for ks3/ks4
    rng = random.Random(99)
    for modulus in (2, 16, 2**48):
        f = random_modpoly(rng, 20, modulus)
        g = random_modpoly(rng, 20, modulus)
        want = schoolbook_mod(f, g).coeffs
        for variant in EXPLICIT:
            assert mod_mul(f, g, variant).coeffs == want


def test_auto_matches_every_explicit_variant():
    rng = random.Random(7)
    f = random_modpoly(rng, 30, 1009)
    g = random_modpoly(rng, 30, 1009)
    auto = mod_mul(f, g, Variant.AUTO).coeffs
    for variant in EXPLICIT:
        assert mod_mul(f, g, variant).coeffs == auto


def test_choose_variant_table():
    assert choose_variant(1, 7) is Variant.KS1
    assert choose_variant(16, 4) is Variant.KS1
    assert choose_variant(1000, 48) is Variant.KS4
    custom = AutoThresholds(ks1_max_length=2, ks3_max_length=4)
    assert choose_variant(3, 10, custom) is Variant.KS3
    assert choose_variant(5, 10, custom) is Variant.KS4
    with pytest.raises(ValueError):
        choose_variant(0, 3)


def test_variant_dispatch_visible_in_op_counts():
    # ks1 multiplies full-width operands, ks4 four quarter-width ones; in
    # classical-only mode the counters must reflect that
    from kronmul.bignat import MulStats
    rng = random.Random(8)
    f = random_modpoly(rng, 128, (1 << 48) - 59)
    g = random_modpoly(rng, 128, (1 << 48) - 59)
    cfg = MulConfig(classical_only=True)
    s1, s4 = MulStats(), MulStats()
    mod_mul(f, g, Variant.KS1, stats=s1, config=cfg)
    mod_mul(f, g, Variant.KS4, stats=s4, config=cfg)
    assert s1.limb_products > 2 * s4.limb_products
