import os
import random
import subprocess
import sys

import pytest

from kronmul import bignat, ksint
from kronmul.bignat import BigNat, MulConfig, MulStats
from kronmul.modpoly import (_VARIANT_FUNCS, AutoThresholds, ModPoly, Variant,
                             choose_variant, mod_mul)
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
    # The message names the first coefficient out of range, either side.
    with pytest.raises(ValueError, match=r"coefficient 1 outside \[0, 5\)"):
        ModPoly((1, 7, 2), 5)
    with pytest.raises(ValueError, match=r"coefficient 2 outside"):
        ModPoly((1, 2, -1, 9), 5)
    # Integers only: no truncated floats or parsed strings.
    for bad in ((1.9, 3), (1, "3"), (2.0,)):
        with pytest.raises(TypeError):
            ModPoly(bad, 5)
    for modulus in (5.0, "5"):
        with pytest.raises(TypeError):
            ModPoly((0,), modulus)
    p = ModPoly((True, BigNat(3), False), BigNat(5))
    assert p.coeffs == (1, 3, 0) and type(p.modulus) is int
    assert all(type(c) is int for c in p.coeffs)


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


def test_caches_keep_type_checks():
    # mod_mul fills ksint's params memo and odd-slot masks for length 1 at
    # 48 bits; the public entry points must still refuse 1.0 and "1" for
    # that same shape, which a cache keyed on equal values would let by.
    n = (1 << 48) - 59
    one = ModPoly((1,), n)
    for variant in EXPLICIT + [Variant.AUTO]:
        assert mod_mul(one, one, variant).coeffs == (1,)
    assert ksint._cached_params(1, 1, 48) == ksint.derive_params(1, 1, 48)
    for bad in (1.0, "1"):
        for args in ((bad, 1, 48), (1, bad, 48), (1, 1, bad)):
            with pytest.raises(TypeError):
                ksint.derive_params(*args)
        for args in ((bad, 1), (1, bad)):
            with pytest.raises(TypeError):
                choose_variant(*args)
        with pytest.raises(TypeError):
            ModPoly((bad,), n)
    with pytest.raises(TypeError):
        ModPoly((1,), float(n))


def test_import_builds_no_cache():
    # Nothing is built at import, so setup time does not grow.
    code = ("import kronmul.ksint as k; "
            "print(len(k._odd_masks), k._cached_params.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(ksint.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "0"]


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


@pytest.mark.parametrize("len_f, len_g", [(1500, 200), (600, 500)])
def test_64_bit_modulus_wide_digits_against_oracle(monkeypatch, len_f,
                                                   len_g):
    # At n = 2**64 - 59 every variant unpacks digits wider than 64 bits by
    # the wide path: ks1 at width 136 and ks3 at 2*68 for (1500, 200), 137
    # and 2*69 for (600, 500); ks2 and ks4 in their overlap recovery.
    modulus = 2**64 - 59
    rng = random.Random(len_f)
    f = random_modpoly(rng, len_f, modulus)
    g = random_modpoly(rng, len_g, modulus)
    want = schoolbook_mod(f, g).coeffs
    wide = []
    unpack_wide = bignat._unpack_wide

    def recorded(value, width, count):
        wide.append(width)
        return unpack_wide(value, width, count)

    monkeypatch.setattr(bignat, "_unpack_wide", recorded)
    for variant in EXPLICIT + [Variant.AUTO]:
        wide.clear()
        assert mod_mul(f, g, variant).coeffs == want
        assert wide, variant


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
    _check_auto_matches_every_explicit_variant(30, 30)


@pytest.mark.parametrize("len_f,len_g", [(300, 7), (7, 600)])
def test_auto_matches_every_explicit_variant_unequal(len_f, len_g):
    _check_auto_matches_every_explicit_variant(len_f, len_g)


def _check_auto_matches_every_explicit_variant(len_f, len_g):
    rng = random.Random(7)
    f = random_modpoly(rng, len_f, 1009)
    g = random_modpoly(rng, len_g, 1009)
    auto = mod_mul(f, g, Variant.AUTO).coeffs
    for variant in EXPLICIT:
        assert mod_mul(f, g, variant).coeffs == auto


@pytest.mark.parametrize("bits", [1, 64])
@pytest.mark.parametrize("len_f, len_g", [(1, 1), (1, 300), (37, 1),
                                          (24, 700), (900, 650)])
def test_counted_and_uncounted_outputs_agree(bits, len_f, len_g):
    # A MulStats runs the counted recursion, none runs CPython's multiply;
    # the outputs are the same for every variant.  n = 2 gives b = 1.
    n = 2 if bits == 1 else (1 << 64) - 59
    rng = random.Random(f"{bits}-{len_f}-{len_g}")
    f, g = random_modpoly(rng, len_f, n), random_modpoly(rng, len_g, n)
    for variant in EXPLICIT + [Variant.AUTO]:
        counted = mod_mul(f, g, variant, stats=MulStats())
        assert mod_mul(f, g, variant) == counted, variant


def test_choose_variant_table():
    ks1, ks3, ks4 = Variant.KS1, Variant.KS3, Variant.KS4
    custom = AutoThresholds(ks1_max_length=2, ks3_max_length=4)
    rows = [
        ((1, 7), ks1), ((16, 4), ks1), ((20, 20), ks1), ((20, 8), ks1),
        ((21, 8), ks3), ((64, 8), ks3), ((8192, 16), ks3),
        ((4096, 2800), ks3), ((4096, 2801), ks4), ((3000, 3000), ks4),
        ((2, 2, custom), ks1), ((3, 1, custom), ks3),
        ((3, 10, custom), ks3), ((4, 1000, custom), ks3),
        ((5, 10, custom), ks4),
    ]
    for (len_f, len_g, *thresholds), want in rows:
        # The decision depends on the two lengths, not on their order.
        assert choose_variant(len_f, len_g, *thresholds) is want
        assert choose_variant(len_g, len_f, *thresholds) is want
    with pytest.raises(ValueError):
        choose_variant(0, 3)
    with pytest.raises(ValueError):
        choose_variant(3, 0)
    for lens in ((49.5, 8), (8, 49.5), (64.0, 8), ("64", 8)):
        with pytest.raises(TypeError):
            choose_variant(*lens)


def test_auto_dispatch(monkeypatch):
    ran = []
    for variant, fn in list(_VARIANT_FUNCS.items()):
        def recorded(f, g, *, variant=variant, fn=fn, **kwargs):
            ran.append(variant)
            return fn(f, g, **kwargs)
        monkeypatch.setitem(_VARIANT_FUNCS, variant, recorded)
    rng = random.Random(11)
    n = (1 << 48) - 59
    for len_f, len_g, want in ((300, 7, Variant.KS3), (7, 600, Variant.KS3),
                               (20, 5, Variant.KS1), (2801, 2900, Variant.KS4)):
        f, g = random_modpoly(rng, len_f, n), random_modpoly(rng, len_g, n)
        del ran[:]
        assert mod_mul(f, g).coeffs == schoolbook_mod(f, g).coeffs
        assert ran == [want]


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


def test_paper_cell_word_products():
    # L = 2048, 48-bit modulus, every coefficient n - 1: the cell where the
    # paper's classical ks1/ks4 ratio approaches 4.  Under the default
    # Karatsuba config the ratios follow n**0.585 instead (1.500 and 2.208);
    # at threshold 1, where the recursion runs down to 1-limb operands, they
    # are 1.031 and 1.743.
    from kronmul.bignat import MulStats
    n = (1 << 48) - 59
    top = ModPoly((n - 1,) * 2048, n)
    want = {"default": (1_226_907, 817_938, 817_938, 555_728),
            "classical": (11_723_776, 5_971_968, 5_971_968, 2_992_900),
            "threshold 1": (565_115, 547_962, 533_254, 324_186)}
    configs = {"default": MulConfig(),
               "classical": MulConfig(classical_only=True),
               "threshold 1": MulConfig(1)}
    for name, config in configs.items():
        counts = []
        for variant in EXPLICIT:
            stats = MulStats()
            mod_mul(top, top, variant, stats=stats, config=config)
            counts.append(stats.limb_products)
        assert tuple(counts) == want[name], name
    for name, ratios in (("default", (1.5, 2.208)),
                         ("threshold 1", (1.031, 1.743))):
        ks1, ks2, _, ks4 = want[name]
        assert (round(ks1 / ks2, 3), round(ks1 / ks4, 3)) == ratios, name
