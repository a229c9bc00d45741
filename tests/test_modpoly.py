import os
import random
import subprocess
import sys

import pytest

from kronmul import ksint, pack
from kronmul.bignat import MulConfig, MulStats
from kronmul.modpoly import (_VARIANT_FUNCS, ModPoly, Variant, choose_variant,
                             mod_mul)
from kronmul.oracle import schoolbook_mod, schoolbook_z
from kronmul.pack import CoeffVec

EXPLICIT = [Variant.KS1, Variant.KS2, Variant.KS3, Variant.KS4]


class SubInt(int):
    """An int subclass, which every public boundary turns into plain int."""


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
    p = ModPoly((True, SubInt(3), False), SubInt(5))
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
    # ModPoly checks the inputs.  Each output coefficient is checked at most
    # once: by ks3's product CoeffVec at odd e, or by the bound 2**width_full
    # that ks2 and ks4 pass to the overlap recovery (once for ks2, once per
    # even and odd part for ks4).  ks1, ks4's 1x1 case (ks1's product), and
    # ks3 at even e unpack at width_full bits, the bound itself, and check
    # nothing.  mod_mul itself lifts and reduces without checking again.
    rng = random.Random(5)
    n = (1 << 48) - 59
    cases = [(random_modpoly(rng, lf, n), random_modpoly(rng, lg, n))
             for lf, lg in ((1, 1), (7, 7), (3, 60), (600, 600))]
    # e = 0, 3, 2 and 10: ks3 (AUTO's pick at 3x60 and 600x600) checks
    # only at 7x7.
    ks3_checks = {(1, 1): 0, (7, 7): 1, (3, 60): 0, (600, 600): 0}
    coeff_vecs = _counting(monkeypatch, CoeffVec)
    mod_polys = _counting(monkeypatch, ModPoly)
    recoveries = []
    original = ksint._overlap_unpack

    def recovery(fwd, rev, width, count, bound_bits):
        recoveries.append((count, bound_bits))
        return original(fwd, rev, width, count, bound_bits)

    monkeypatch.setattr(ksint, "_overlap_unpack", recovery)
    for f, g in cases:
        del coeff_vecs[:], mod_polys[:], recoveries[:]
        h = mod_mul(f, g, variant)
        out_len = len(f) + len(g) - 1
        parts = {Variant.KS2: 1,
                 Variant.KS4: 2 if out_len > 1 else 0}.get(variant, 0)
        ran = (choose_variant(len(f), len(g)) if variant is Variant.AUTO
               else variant)
        checks = ks3_checks[len(f), len(g)] if ran is Variant.KS3 else 0
        assert (len(coeff_vecs), len(recoveries), len(mod_polys)) == (
            checks, parts, 0)
        if parts:
            top = ksint.derive_params(len(f), len(g), 48).width_full
            assert sum(count for count, _ in recoveries) == out_len
            assert {bound for _, bound in recoveries} == {top}
        assert h.coeffs == schoolbook_mod(f, g).coeffs
        checked = ModPoly(h.coeffs, n)
        assert h == checked and hash(h) == hash(checked)


def test_caches_keep_type_checks():
    # mod_mul fills ksint's plan cache and odd-slot masks for length 1 at
    # 48 bits; the public entry points must still refuse 1.0 and "1" for
    # that same shape, which a cache keyed on equal values would let by.
    n = (1 << 48) - 59
    one = ModPoly((1,), n)
    for variant in EXPLICIT + [Variant.AUTO]:
        assert mod_mul(one, one, variant).coeffs == (1,)
    p = ksint.derive_params(1, 1, 48)
    assert ksint._plan(1, 1, 48)[:4] == (p.width_full, p.width_half,
                                         p.width_quarter, p.out_len)
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
    code = ("import kronmul.ksint as k, kronmul.pack as b; "
            "print(len(b._masks), k._plan.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(ksint.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["0", "0"]


def test_plan_cache_stays_small():
    # After every zn-short shape (lengths 8..64 at a 48-bit modulus) and
    # two long-by-short ones, the plan cache is within its bound and no
    # plan holds a mask or any other int of 2**64 or more.
    n = (1 << 48) - 59
    shapes = [(a, b) for a in range(8, 65) for b in range(8, 65)]
    shapes += [(4096, 256), (8192, 16)]
    rng = random.Random(57)
    for len_f, len_g in shapes:
        f, g = random_modpoly(rng, len_f, n), random_modpoly(rng, len_g, n)
        mod_mul(f, g)
    info = ksint._plan.cache_info()
    assert info.currsize <= info.maxsize
    for len_f, len_g in shapes:
        plan = ksint._plan(len_f, len_g, 48)
        assert all(type(x) in (int, bool) and x < 2**64 for x in plan), (
            len_f, len_g)


def test_plans_serve_alternating_moduli():
    # One process alternates moduli over the same shapes: 1x1, unequal
    # lengths, and equal ones at odd and at even e.  Each bit bound but
    # n = 2's comes with a second modulus of the same bound, whose calls
    # share its plans: a plan that kept anything of one modulus would
    # serve it to the other.
    moduli = [2**48 - 59, 251, 2, 2**64 - 59, 2**47 + 5, 241, 2**63 + 25]
    shapes = [(1, 1), (3, 40), (40, 9), (24, 24), (40, 40)]
    rng = random.Random(48)
    for _ in range(2):
        for n in moduli:
            for len_f, len_g in shapes:
                f = random_modpoly(rng, len_f, n)
                g = random_modpoly(rng, len_g, n)
                want = schoolbook_mod(f, g).coeffs
                for variant in EXPLICIT + [Variant.AUTO]:
                    assert mod_mul(f, g, variant).coeffs == want, (
                        n, len_f, len_g, variant)


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


@pytest.mark.parametrize("variant", ["ks3", None, 3])
def test_mod_mul_rejects_a_non_variant(variant):
    f = ModPoly((1, 2, 3), 97)
    with pytest.raises(TypeError, match="must be a Variant"):
        mod_mul(f, f, variant)


def _recording(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def recorded(value, width, *args):
        calls.append(width)
        return original(value, width, *args)

    monkeypatch.setattr(module, name, recorded)
    return calls


@pytest.mark.parametrize("len_f, len_g", [(1500, 200), (600, 500)])
def test_64_bit_modulus_wide_digits_against_oracle(monkeypatch, len_f,
                                                   len_g):
    # At n = 2**64 - 59 every variant unpacks digits wider than 64 bits by
    # the wide path, except ks3 at even e: ks1 at width 136 for (1500, 200)
    # and 137 for (600, 500), ks3 at 2*69 for (600, 500) (e = 9), and ks2
    # and ks4 the reversed stream of their overlap recovery, at w = 68 and
    # 69 (ks2) and 68 and 70 (ks4).  ks2 and ks4 then read each parity
    # class of each recovery reduced at 2w bits by the packed path, and so
    # do ks3 and AUTO at (1500, 200), e = 8, with their two halves at 2*68
    # bits.
    modulus = 2**64 - 59
    rng = random.Random(len_f)
    f = random_modpoly(rng, len_f, modulus)
    g = random_modpoly(rng, len_g, modulus)
    want = schoolbook_mod(f, g).coeffs
    wide = _recording(monkeypatch, pack, "_unpack_wide")
    packed = _recording(monkeypatch, ksint, "_unpack_mod")
    for variant in EXPLICIT + [Variant.AUTO]:
        del wide[:], packed[:]
        assert mod_mul(f, g, variant).coeffs == want
        p = ksint.derive_params(len_f, len_g, 64)
        if len_f == 1500 and variant in (Variant.KS3, Variant.AUTO):
            assert packed == [136, 136], variant
        elif variant is Variant.KS2:
            assert wide and packed == [2 * p.width_half] * 2
        elif variant is Variant.KS4:
            assert wide and packed == [4 * p.width_quarter] * 4
        else:
            assert wide and not packed, variant


# Shape -> the packed reductions ks3 makes: two at even e (e = 2, 3, 4, 4,
# 4, 5, 6, 8), at every length, and none at odd e.  ks2 makes two at any e
# (one per parity class of its recovery), ks4 four (two per part), and ks1
# none.  Lengths 3 and 5 are test_wall_clock_shape's small degrees.
PACKED_CALLS = {(3, 3): 2, (5, 5): 0, (16, 16): 2, (16, 24): 2, (25, 16): 2,
                (17, 40): 0, (33, 33): 2, (200, 300): 2}


@pytest.mark.parametrize("variant", list(Variant))
def test_packed_reduction_calls(monkeypatch, variant):
    packed = _recording(monkeypatch, ksint, "_unpack_mod")
    rng = random.Random(13)
    for (len_f, len_g), calls in PACKED_CALLS.items():
        for n in (2**48 - 59, 2**8, 251):
            f, g = random_modpoly(rng, len_f, n), random_modpoly(rng, len_g, n)
            del packed[:]
            assert mod_mul(f, g, variant).coeffs == schoolbook_mod(f, g).coeffs
            ran = (choose_variant(len_f, len_g) if variant is Variant.AUTO
                   else variant)
            p = ksint.derive_params(len_f, len_g, (n - 1).bit_length())
            want, width = {
                Variant.KS3: (calls, p.width_full),
                Variant.KS2: (2, 2 * p.width_half),
                Variant.KS4: (4, 4 * p.width_quarter),
            }.get(ran, (0, None))
            assert len(packed) == want, (variant, len_f, len_g, n)
            assert set(packed) <= {width}


# Shapes for ks2, ks3 and ks4 at the edges of the output reader: L = 1, 2,
# 3, equal and unequal lengths in either order, output lengths 1 to 5 and
# 39 to 43 (each residue mod 4, so each parity of out_len and of ks4's two
# part counts), at even and at odd e for each length from 3 on (e = 0 or 2,
# and 1 or 5), and longer ones.
KS2_KS4_EDGE_SHAPES = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1),
                       (2, 3), (1, 4), (3, 3), (2, 4), (1, 39), (20, 20),
                       (40, 1), (2, 40), (40, 3), (4, 40), (20, 21),
                       (21, 21), (3, 39), (21, 22), (22, 22), (64, 65),
                       (100, 3), (3, 130)]


@pytest.mark.parametrize("modulus", [2, 3, 2**63, 2**64 - 59])
def test_ks2_ks4_edge_shapes_against_oracle(modulus):
    # b = 1, 2, 63 and 64: mod_mul against the modular oracle, and ks2, ks3
    # and ks4 over the integers at b bits against schoolbook, with all-max
    # and random coefficients.  ks3 reads its halves reduced while packed
    # at even e and checks them first at odd e.
    b = (modulus - 1).bit_length()
    rng = random.Random(modulus)
    for len_f, len_g in KS2_KS4_EDGE_SHAPES:
        for draw in (lambda: modulus - 1, lambda: rng.randrange(modulus)):
            f = ModPoly(tuple(draw() for _ in range(len_f)), modulus)
            g = ModPoly(tuple(draw() for _ in range(len_g)), modulus)
            want = schoolbook_mod(f, g).coeffs
            fz, gz = CoeffVec(f.coeffs, b), CoeffVec(g.coeffs, b)
            want_z = schoolbook_z(fz, gz).coeffs
            for variant in (Variant.KS2, Variant.KS3, Variant.KS4):
                assert mod_mul(f, g, variant).coeffs == want, (len_f, len_g)
                mul = _VARIANT_FUNCS[variant]
                assert mul(fz, gz).coeffs == want_z, (len_f, len_g)


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
    rows = [
        ((1, 7), ks1), ((16, 4), ks1), ((20, 20), ks1), ((20, 8), ks1),
        ((21, 8), ks3), ((64, 8), ks3), ((8192, 16), ks3),
        ((4096, 2800), ks3), ((4096, 2801), ks4), ((3000, 3000), ks4),
    ]
    for (len_f, len_g), want in rows:
        # The decision depends on the two lengths, not on their order.
        assert choose_variant(len_f, len_g) is want
        assert choose_variant(len_g, len_f) is want
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
    # Karatsuba config the ratios follow n**0.585 instead (1.500 and 2.208).
    from kronmul.bignat import MulStats
    n = (1 << 48) - 59
    top = ModPoly((n - 1,) * 2048, n)
    want = {"default": (1_226_907, 817_938, 817_938, 555_728),
            "classical": (11_723_776, 5_971_968, 5_971_968, 2_992_900)}
    configs = {"default": MulConfig(),
               "classical": MulConfig(classical_only=True)}
    for name, config in configs.items():
        counts = []
        for variant in EXPLICIT:
            stats = MulStats()
            mod_mul(top, top, variant, stats=stats, config=config)
            counts.append(stats.limb_products)
        assert tuple(counts) == want[name], name
    ks1, ks2, _, ks4 = want["default"]
    assert (round(ks1 / ks2, 3), round(ks1 / ks4, 3)) == (1.5, 2.208)
