"""Acceptance suite: one test per criterion, each printing a summary line.

Run slice: ``pytest tests/test_acceptance.py -v -s``.  The full suite takes
a couple of minutes; the randomized legs use fixed seeds.
"""

import itertools
import random
import statistics
import time

import pytest

from kronmul.bignat import MulConfig, MulStats, mul_classical, mul_karatsuba
from kronmul.bipoly import BiPoly, MissingHalveError, bks_four, bks_negated, \
    bks_reciprocal, bks_standard, ring_z, ring_zmod
from kronmul.cli import _bench_inputs, _time_cells
from kronmul.ksint import (OverlapDigits, derive_params, ks1_mul, ks2_mul,
                           ks3_mul, ks4_mul, reconstruct_overlapped)
from kronmul.modpoly import Variant
from kronmul.oracle import schoolbook_bivar, schoolbook_z, uni_schoolbook
from kronmul.pack import CoeffVec, pack, pack_reversed

VARIANTS = [("ks1", ks1_mul), ("ks2", ks2_mul), ("ks3", ks3_mul),
            ("ks4", ks4_mul)]


def log_uniform(rng, hi):
    return max(1, int(hi ** rng.random()))


def test_worked_example_exactness():
    f = CoeffVec((274, 610, 887, 621), 10)
    g = CoeffVec((553, 298, 424, 790), 10)
    want = (151522, 418982, 788467, 1082839, 1043046, 964034, 490590)
    t0 = time.perf_counter()
    for name, variant in VARIANTS:
        assert variant(f, g).coeffs == want, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\n[PASS] worked example: 4/4 variants exact in {elapsed:.3f}s")


def test_oracle_equivalence_exhaustive_and_randomized():
    checked = 0
    for length in (1, 2, 3):
        vecs = [CoeffVec(c, 3)
                for c in itertools.product(range(8), repeat=length)]
        for f in vecs:
            for g in vecs:
                want = schoolbook_z(f, g).coeffs
                for name, variant in VARIANTS:
                    assert variant(f, g).coeffs == want, \
                        (name, f.coeffs, g.coeffs)
                checked += 1
    exhaustive = checked

    rng = random.Random(101)
    unequal = 0
    for i in range(10_000):
        bound = rng.randrange(1, 65)
        hi = (64, 256, 512)[i % 3]
        len_f = log_uniform(rng, hi)
        len_g = log_uniform(rng, hi)
        unequal += len_f != len_g
        f = CoeffVec(tuple(rng.randrange(1 << bound) for _ in range(len_f)),
                     bound)
        g = CoeffVec(tuple(rng.randrange(1 << bound) for _ in range(len_g)),
                     bound)
        want = schoolbook_z(f, g).coeffs
        for name, variant in VARIANTS:
            assert variant(f, g).coeffs == want, \
                (name, bound, len_f, len_g, rng.getstate()[1][:3])
        checked += 1
    assert unequal > 1000
    print(f"\n[PASS] oracle equivalence: {exhaustive} exhaustive + 10000 "
          f"randomized cases, 4 variants each ({unequal} unequal-length)")


def test_bivariate_equivalence():
    import operator
    rings = [("Z", ring_z(), operator.mul, lambda r: r.randrange(-99, 100)),
             ("Z/7", ring_zmod(7), lambda a, b: (a * b) % 7,
              lambda r: r.randrange(7))]
    funcs = [("standard", bks_standard), ("reciprocal", bks_reciprocal),
             ("negated", bks_negated), ("four", bks_four)]
    rng = random.Random(202)
    cases = 0
    for _ in range(500):
        for ring_name, ring, elem_mul, draw in rings:
            lx = rng.randrange(1, 9)
            ly = rng.randrange(1, 9)
            f = BiPoly(tuple(tuple(draw(rng) for _ in range(ly))
                             for _ in range(lx)))
            g = BiPoly(tuple(tuple(draw(rng) for _ in range(ly))
                             for _ in range(lx)))
            want = schoolbook_bivar(f, g, ring, elem_mul).coeffs
            uni = uni_schoolbook(ring, operator.mul)
            for name, func in funcs:
                assert func(f, g, ring, uni).coeffs == want, \
                    (ring_name, name, f.coeffs, g.coeffs)
            cases += 1
    assert cases >= 1000

    p = BiPoly(((1, 2), (3, 4)))
    halve_errors = 0
    for k in (1, 3, 10):
        ring = ring_zmod(2**k)
        for func in (bks_negated, bks_four):
            with pytest.raises(MissingHalveError):
                func(p, p, ring, uni_schoolbook(ring, operator.mul))
            halve_errors += 1
    print(f"\n[PASS] bivariate equivalence: {cases} cases x 4 variants over "
          f"Z and Z/7; {halve_errors} missing-halve errors reported")


def test_length_formulas():
    # packed-operand sizes at each variant's width, max-coefficient inputs,
    # against closed forms.  Full and half widths never overlap, so the
    # all-max pack fills exactly the nominal N*(L-1)+b bits.  The quarter
    # width N = ceil((2b+e)/4) is narrower than b on half the grid, and
    # there an all-max pack with L >= 2 fills exactly one bit more (the
    # bound is in kronmul.pack's docstring).
    failures = []
    overlapped = plain = 0
    for b in (1, 4, 17, 48):
        for length in (1, 2, 5, 100):
            p = derive_params(length, length, b)
            e = p.log2_min_len
            v = CoeffVec(((1 << b) - 1,) * length, b)
            quarter = (2 * b + e + 3) // 4
            carry = 1 if quarter < b and length > 1 else 0
            overlapped += carry
            plain += 1 - carry
            grid = [
                ("ks1", p.width_full, (2 * b + e) * (length - 1) + b),
                ("ks2", p.width_half, (b + (e + 1) // 2) * (length - 1) + b),
                ("ks3", p.width_half, (b + (e + 1) // 2) * (length - 1) + b),
                ("ks4", p.width_quarter, quarter * (length - 1) + b + carry),
            ]
            for name, width, formula in grid:
                got = pack(v, width).bit_length()
                if name == "ks2":
                    assert pack_reversed(v, width).bit_length() == got
                if got != formula:
                    failures.append((name, b, length, formula, got))
    assert overlapped and plain, (overlapped, plain)
    print(f"\n[{'FAIL' if failures else 'PASS'}] length formulas: "
          f"{64 - len(failures)}/64 cells exact, ks4 one bit past the "
          f"nominal span on {overlapped} overlapped cells, nominal on {plain}")
    assert not failures, (
        "packed-operand bit length differs from the closed form "
        f"(variant, b, L, expected, got): {failures}")


def test_reconstruction_round_trip():
    rng = random.Random(303)
    for case in range(10_000):
        width = rng.randrange(2, 129)
        count = log_uniform(rng, 128)
        top = (1 << width) * ((1 << width) - 1)
        values = [rng.randrange(top) for _ in range(count)]
        fwd_val = sum(h << (i * width) for i, h in enumerate(values))
        rev_val = sum(h << ((count - 1 - i) * width)
                      for i, h in enumerate(values))
        mask = (1 << width) - 1
        fwd = tuple((fwd_val >> (i * width)) & mask for i in range(count + 1))
        rev = tuple((rev_val >> ((count - i) * width)) & mask
                    for i in range(count + 1))
        got = reconstruct_overlapped(OverlapDigits(fwd, rev, width))
        assert list(got.coeffs) == values, (width, count, case)
    print("\n[PASS] reconstruction round-trip: 10000 cases, widths 2..128")


def test_work_ratio_classical_only():
    top = (1 << 48) - 1
    f = CoeffVec((top,) * 256, 48)
    g = CoeffVec((top,) * 256, 48)
    cfg = MulConfig(classical_only=True)
    counts = {}
    for name, variant in VARIANTS:
        stats = MulStats()
        variant(f, g, stats=stats, config=cfg)
        counts[name] = stats.limb_products
    r4 = counts["ks1"] / counts["ks4"]
    r2 = counts["ks1"] / counts["ks2"]
    print(f"\n[{'PASS' if r4 >= 3.0 and r2 >= 1.8 else 'FAIL'}] work ratio "
          f"(L=256, b=48, classical): ks1/ks4 = {r4:.2f} (>= 3.0), "
          f"ks1/ks2 = {r2:.2f} (>= 1.8); counts {counts}")
    assert r4 >= 3.0
    assert r2 >= 1.8


def test_wall_clock_shape():
    # One 5-rep draw swings widely on a shared host, so each degree's ratio
    # is the median over five repeated draws.
    _, inputs = _bench_inputs([768, 1536], (), 48, 11)
    ratios = {768: [], 1536: []}
    for _ in range(5):
        cells = _time_cells(inputs, [Variant.KS1, Variant.KS4], reps=5)
        for degree, rows in zip(ratios, cells):
            ratios[degree].append(rows["ks4"]["ratio_vs_ks1"])
    best = min(statistics.median(draws) for draws in ratios.values())

    # The variants differ by microseconds at these degrees, so each
    # variant's time is likewise its median over five draws.
    variants = ["ks1", "ks2", "ks3", "ks4"]
    _, inputs = _bench_inputs([2, 4], (), 48, 12)
    small = {}
    for _ in range(5):
        cells = _time_cells(inputs, [Variant(v) for v in variants], reps=7)
        for degree, rows in zip((2, 4), cells):
            for variant, row in rows.items():
                small.setdefault((degree, variant), []).append(
                    row["wall_ns_median"])
    small_ok = all(
        min(variants, key=lambda v: statistics.median(small[degree, v]))
        == "ks1" for degree in (2, 4))
    print(f"\n[{'PASS' if best <= 0.85 and small_ok else 'FAIL'}] wall clock: "
          f"best ks4/ks1 ratio {best:.2f} (<= 0.85 somewhere in [100, 5000]); "
          f"ks1 fastest at degrees <= 4: {small_ok}")
    assert best <= 0.85
    assert small_ok


def test_karatsuba_agreement():
    rng = random.Random(404)
    straddle = [14, 15, 16, 17, 18, 31, 32, 33]
    for case in range(10_000):
        if case % 20 == 0:
            limbs_a = rng.choice(straddle)
            limbs_b = rng.choice(straddle)
        elif case % 3 == 0:
            limbs_a = rng.randrange(1, 513)
            limbs_b = rng.randrange(1, 513)
        else:
            limbs_a = log_uniform(rng, 64)
            limbs_b = log_uniform(rng, 64)
        a = rng.getrandbits(limbs_a * 64 - rng.randrange(64)) | 1
        b = rng.getrandbits(limbs_b * 64 - rng.randrange(64)) | 1
        assert mul_karatsuba(a, b) == mul_classical(a, b), (case,)
    print("\n[PASS] karatsuba agreement: 10000 pairs up to 512 limbs, "
          "threshold-straddling included")
