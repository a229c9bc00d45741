"""Command-line front end: file-based modular polynomial multiplication, a
CSV benchmark harness comparing the substitution variants, and a seeded
self-test.

Polynomial file format: line 1 is the decimal modulus, line 2 the decimal
length L, followed by L whitespace-separated decimal coefficients with the
constant term first.

The environment variable KRONMUL_KARATSUBA_THRESHOLD overrides the limb
threshold at which products switch from classical to Karatsuba.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

from . import bignat, oracle
from .bignat import DEFAULT_MUL_CONFIG, MulConfig, MulStats
from .bipoly import BiPoly, MissingHalveError, bks_four, bks_negated, \
    bks_reciprocal, bks_standard, ring_z, ring_zmod
from .ksint import (OverlapDigits, ReconstructionError, ks1_mul, ks2_mul,
                    ks3_mul, ks4_mul, reconstruct_overlapped)
from .modpoly import (DEFAULT_THRESHOLDS, ModPoly, Variant,
                      choose_variant, mod_mul)
from .pack import CoeffVec, pack, pack_negated, pack_reversed

CSV_HEADER = "degree,length,modulus_bits,variant,wall_ns_median,limb_products,ratio_vs_ks1"

ENV_THRESHOLD = "KRONMUL_KARATSUBA_THRESHOLD"


class CommandError(Exception):
    """A user-facing failure; the message goes to stderr, exit status 1."""


def mul_config_from_env() -> MulConfig:
    raw = os.environ.get(ENV_THRESHOLD)
    if raw is None:
        return DEFAULT_MUL_CONFIG
    try:
        return MulConfig(int(raw))
    except ValueError:
        raise CommandError(f"{ENV_THRESHOLD} must be an integer >= 1, "
                           f"got {raw!r}")


# --- polynomial files --------------------------------------------------------


def read_poly_file(path: str) -> ModPoly:
    try:
        with open(path, "r", encoding="ascii") as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}")
    if len(tokens) < 2:
        raise CommandError(f"{path}: expected modulus and length")
    try:
        modulus = int(tokens[0])
        length = int(tokens[1])
        coeffs = [int(t) for t in tokens[2:]]
    except ValueError as exc:
        raise CommandError(f"{path}: {exc}")
    if length != len(coeffs):
        raise CommandError(
            f"{path}: declared length {length} but found {len(coeffs)} "
            f"coefficients")
    try:
        return ModPoly(tuple(coeffs), modulus)
    except ValueError as exc:
        raise CommandError(f"{path}: {exc}")


def format_poly(p: ModPoly) -> str:
    return "{}\n{}\n{}\n".format(p.modulus, len(p.coeffs),
                                 " ".join(str(c) for c in p.coeffs))


def write_poly_file(path: str, p: ModPoly) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(format_poly(p))
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc}")


# --- mul ---------------------------------------------------------------------


def _parse_variant(name: str) -> Variant:
    try:
        return Variant(name.lower())
    except ValueError:
        raise CommandError(f"unknown variant {name!r}")


def cmd_mul(args) -> int:
    f = read_poly_file(args.poly_f)
    g = read_poly_file(args.poly_g)
    if f.modulus != g.modulus:
        raise CommandError(
            f"modulus mismatch: {f.modulus} vs {g.modulus}")
    if args.modulus is not None and args.modulus != f.modulus:
        raise CommandError(
            f"--modulus {args.modulus} does not match file modulus "
            f"{f.modulus}")
    config = mul_config_from_env()
    product = mod_mul(f, g, _parse_variant(args.variant), config=config)
    if args.output:
        write_poly_file(args.output, product)
    else:
        sys.stdout.write(format_poly(product))
    return 0


# --- bench -------------------------------------------------------------------


def parse_degree_grid(grid: str) -> list[int]:
    """``lo:hi:log`` (about 20 log-spaced points) or ``lo:hi:+step``."""
    parts = grid.split(":")
    if len(parts) != 3:
        raise CommandError(f"invalid degree grid {grid!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise CommandError(f"invalid degree grid {grid!r}")
    if lo < 1 or hi < lo:
        raise CommandError(f"invalid degree range {lo}:{hi}")
    if parts[2] == "log":
        points = {round(lo * (hi / lo) ** (i / 19)) for i in range(20)}
        return sorted(points)
    if parts[2].startswith("+"):
        try:
            step = int(parts[2][1:])
        except ValueError:
            raise CommandError(f"invalid degree step {parts[2]!r}")
        if step < 1:
            raise CommandError("degree step must be >= 1")
        return list(range(lo, hi + 1, step))
    raise CommandError(f"invalid degree grid {grid!r}")


@dataclass
class BenchRow:
    degree: int
    length: int
    modulus_bits: int
    variant: str
    wall_ns_median: int
    limb_products: int | None
    ratio_vs_ks1: float | None
    length_g: int | None = None  # the second operand's, when it differs
    wall_ns_iqr: int = 0

    def csv(self) -> str:
        ops = "" if self.limb_products is None else str(self.limb_products)
        ratio = "" if self.ratio_vs_ks1 is None else f"{self.ratio_vs_ks1:.4f}"
        length = (self.length if self.length_g is None
                  else f"{self.length}x{self.length_g}")
        return (f"{self.degree},{length},{self.modulus_bits},"
                f"{self.variant},{self.wall_ns_median},{ops},{ratio}")


def _interleaved_samples(fns, reps: int) -> list[list[int]]:
    """ns per call of each of ``fns``, one sample per repetition.

    Each fn gets a discarded warm-up, and fast calls are batched so each
    sample measures at least ~2 ms.  Every repetition times each fn once,
    in turn, so a drift in the host's speed reaches all fns alike.
    """
    batches = []
    for fn in fns:
        fn()  # warm-up, discarded
        t0 = time.perf_counter_ns()
        fn()
        single = max(1, time.perf_counter_ns() - t0)
        batches.append(min(256, 2_000_000 // single + 1)
                       if single < 2_000_000 else 1)
    samples = [[] for _ in fns]
    for _ in range(reps):
        for fn, iters, out in zip(fns, batches, samples):
            t0 = time.perf_counter_ns()
            for _ in range(iters):
                fn()
            out.append((time.perf_counter_ns() - t0) // iters)
    return samples


def _bench_inputs(degrees, shapes, modulus_bits: int, seed: int):
    """The drawn modulus and one (f, g) pair per cell: equal lengths
    degree + 1 per degree, then one cell per (len_f, len_g) in shapes."""
    if modulus_bits < 1 or modulus_bits > 64:
        raise CommandError("modulus bits must be in [1, 64]")
    rng = random.Random(seed)
    modulus = max(2, rng.randrange(1 << (modulus_bits - 1), 1 << modulus_bits)
                  if modulus_bits > 1 else 2)

    def draw(length):
        return ModPoly(tuple(rng.randrange(modulus) for _ in range(length)),
                       modulus)

    cells = [(d + 1, d + 1) for d in degrees] + list(shapes)
    return modulus, [(draw(len_f), draw(len_g)) for len_f, len_g in cells]


def run_bench(degrees, modulus_bits: int, variants, reps: int, seed: int,
              count_ops: bool = False, config: MulConfig | None = None,
              shapes=()):
    """Time every (cell, variant) on shared random inputs (cells as in
    ``_bench_inputs``).

    Returns (comment_lines, rows).  In op-counting mode all products run
    classically so the counters follow the deterministic m*n law.
    """
    if reps < 1:
        raise CommandError("reps must be >= 1")
    variants = [v if isinstance(v, Variant) else _parse_variant(v)
                for v in variants]
    if any(v is Variant.AUTO for v in variants):
        raise CommandError("bench variants must be explicit (no auto)")
    if config is None:
        config = mul_config_from_env()
    if count_ops:
        config = replace(config, classical_only=True)
    modulus, inputs = _bench_inputs(degrees, shapes, modulus_bits, seed)
    comments = [f"# seed={seed} modulus={modulus} "
                f"classical_only={config.classical_only} "
                f"karatsuba_threshold={config.karatsuba_threshold}"]
    rows: list[BenchRow] = []
    for f, g in inputs:
        calls = [lambda v=v: mod_mul(f, g, v, config=config)
                 for v in variants]
        cell = []
        for variant, samples in zip(variants,
                                    _interleaved_samples(calls, reps)):
            ops = None
            if count_ops:
                stats = MulStats()
                mod_mul(f, g, variant, config=config, stats=stats)
                ops = stats.limb_products
            iqr = 0
            if reps > 1:
                q1, _, q3 = statistics.quantiles(samples, n=4)
                iqr = int(q3 - q1)
            cell.append(BenchRow(
                len(f) - 1, len(f), modulus_bits, variant.value,
                int(statistics.median(samples)), ops, None,
                len(g) if len(g) != len(f) else None, iqr))
        rows.extend(cell)
        base = next((r for r in cell if r.variant == "ks1"), None)
        if base is not None and base.wall_ns_median > 0:
            for row in cell:
                row.ratio_vs_ks1 = row.wall_ns_median / base.wall_ns_median
    return comments, rows


def render_csv(comments, rows) -> str:
    lines = list(comments)
    lines.append(CSV_HEADER)
    lines.extend(row.csv() for row in rows)
    return "\n".join(lines) + "\n"


# The bench file's grid: equal lengths from JSON_DEGREES, then these
# shapes.  The long sides of zn-unbalanced against its short ones; the
# short cells AUTO's ks1 band is read from; and the lengths of
# zn-bivariate's four-point products (520, 528, 544, 1024) with 600
# between them, where the ks3 band ends.
JSON_DEGREES = "16:8192:log"
JSON_SHAPES = (tuple((long, short) for long in (4096, 8192)
                     for short in (16, 64, 256))
               + tuple((n, n) for n in (8, 12, 16, 20, 24, 28, 32, 40, 48,
                                        56, 64))
               + ((8, 48), (16, 48), (8, 64))
               + tuple((n, n) for n in (520, 528, 544, 600, 1024)))
_VARIANTS = (Variant.KS1, Variant.KS2, Variant.KS3, Variant.KS4)


def _git(*args) -> str | None:
    # The checkout this package was loaded from, if it is one.
    try:
        done = subprocess.run(["git", *args], cwd=Path(__file__).parent,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def bench_grid(degrees, shapes, modulus_bits: int, reps: int,
               seed: int) -> dict:
    """The bench file's content: every variant timed under ``MulConfig()``
    on each cell, with exact word products under ``MulConfig()`` and under
    ``classical_only``, and AUTO's pick (not timed)."""
    config = MulConfig()
    classical = replace(config, classical_only=True)
    _, rows = run_bench(degrees, modulus_bits, _VARIANTS, reps, seed,
                        config=config, shapes=shapes)
    modulus, inputs = _bench_inputs(degrees, shapes, modulus_bits, seed)
    out = []
    for i, (f, g) in enumerate(inputs):
        timed = rows[i * len(_VARIANTS):(i + 1) * len(_VARIANTS)]
        variants = {}
        for variant, row in zip(_VARIANTS, timed):
            counts = []
            for cfg in (config, classical):
                stats = MulStats()
                mod_mul(f, g, variant, config=cfg, stats=stats)
                counts.append(stats.limb_products)
            variants[variant.value] = {
                "wall_ns_median": row.wall_ns_median,
                "wall_ns_iqr": row.wall_ns_iqr,
                "ratio_vs_ks1": round(row.ratio_vs_ks1, 4),
                "word_products": counts[0],
                "word_products_classical": counts[1]}
        out.append({"len_f": len(f), "len_g": len(g),
                    "auto": choose_variant(len(f), len(g)).value,
                    "fastest": min(timed,
                                   key=lambda r: r.wall_ns_median).variant,
                    "variants": variants})
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {"commit": _git("rev-parse", "HEAD"),
            "dirty": None if dirty is None else bool(dirty),
            "nproc": os.cpu_count(),
            "python": f"{platform.python_implementation()} "
                      f"{platform.python_version()}",
            "mul_config": asdict(config),
            "auto_thresholds": asdict(DEFAULT_THRESHOLDS),
            "seed": seed, "reps": reps, "modulus_bits": modulus_bits,
            "modulus": modulus, "cells": out}


def cmd_bench(args) -> int:
    if args.json:
        if args.variants is not None or args.count_ops or args.output:
            raise CommandError("--json times every variant and counts both "
                               "ways; drop --variants, --count-ops and -o")
        grid = bench_grid(parse_degree_grid(args.degrees or JSON_DEGREES),
                          JSON_SHAPES, args.modulus_bits, args.reps,
                          args.seed)
        try:
            with open(args.json, "w", encoding="ascii") as fh:
                json.dump(grid, fh, indent=1)
                fh.write("\n")
        except OSError as exc:
            raise CommandError(f"cannot write {args.json}: {exc}")
        return 0
    degrees = parse_degree_grid(args.degrees or "100:5000:log")
    variants = [v.strip() for v in (args.variants or "ks1,ks2,ks3,ks4")
                .split(",") if v.strip()]
    if not variants:
        raise CommandError("no variants requested")
    comments, rows = run_bench(degrees, args.modulus_bits, variants,
                               args.reps, args.seed,
                               count_ops=args.count_ops)
    text = render_csv(comments, rows)
    if args.output:
        try:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
        except OSError as exc:
            raise CommandError(f"cannot write {args.output}: {exc}")
    else:
        sys.stdout.write(text)
    return 0


# --- selftest ----------------------------------------------------------------


@contextlib.contextmanager
def _corrupted_multiply():
    # Deliberate fault injection: every product with a multi-limb operand
    # comes back wrong.  bignat runs each machine product through
    # _native_mul, the split's leaves and _classical_int's blocks alike, so
    # that one name reaches every path.  Used to verify the self-test has
    # teeth.
    original = bignat._native_mul

    def flipped(x, y):
        result = original(x, y)
        if x > bignat._LIMB_MASK or y > bignat._LIMB_MASK:
            result ^= 1 << bignat.LIMB_BITS
        return result

    bignat._native_mul = flipped
    try:
        yield
    finally:
        bignat._native_mul = original


class _SelfTestFailure(Exception):
    pass


def _check(ok: bool, suite: str, case: tuple) -> None:
    # Names the case by the bit length of each int and the length of each
    # sequence: the values themselves run to thousands of digits, past
    # what repr may print.
    if not ok:
        parts = ", ".join(f"{x.bit_length()}-bit int" if isinstance(x, int)
                          else f"{type(x).__name__} of {len(x)}"
                          for x in case)
        raise _SelfTestFailure(f"{suite}: failing case ({parts})")


def _selftest_bignat(rng, iters, config, out):
    for i in range(iters):
        a = rng.getrandbits(rng.randrange(1, 64 * 64))
        b = rng.getrandbits(rng.randrange(1, 64 * 64))
        classical = bignat.mul_classical(a, b)
        karatsuba = bignat.mul_karatsuba(a, b, config=config)
        _check(classical == a * b == karatsuba, "bignat-mul", (a, b))
    out(f"counted multiplies vs int multiply: ok ({iters} cases)")


# Digit and recovery cases draw counts on both sides of every field cutoff,
# and digit cases on both sides of the wide cutoff.
_FIELD_MAX_CUTOFF = max(bignat._FIELD_UNPACK_MIN_DIGITS.values())
_SELFTEST_MAX_DIGITS = 2 * max(_FIELD_MAX_CUTOFF, bignat._WIDE_MIN_DIGITS)
# One (widths, counts, digit bits) range per blit path: plain shifts; groups
# of eight, at widths past the fields and counts short of the wide cutoff;
# strided fields, past every width's field cutoff; the wide path, past its
# cutoff, once with full-width digits (which pack by groups) and once with
# 64-bit ones (which pack by fields where the width is divisible by 4).
# Digit bits of None mean the full width.
_DIGIT_TIERS = (((1, 142), (0, bignat._GROUP_MIN_DIGITS), None),
                ((65, 142), (bignat._GROUP_MIN_DIGITS,
                             bignat._WIDE_MIN_DIGITS), None),
                ((8, 65), (_FIELD_MAX_CUTOFF, _SELFTEST_MAX_DIGITS), None),
                ((65, 142), (bignat._WIDE_MIN_DIGITS, _SELFTEST_MAX_DIGITS),
                 None),
                ((65, 142), (bignat._WIDE_MIN_DIGITS, _SELFTEST_MAX_DIGITS),
                 64))


def _selftest_digits(rng, iters, out):
    # ``rng`` is this suite's own, so the later suites' shared draws do not
    # depend on its draws.  Widths reach 141 = 2*64 + 13, ks1's full width
    # for 64-bit coefficients and operands of up to 8192 terms.
    for i in range(iters):
        widths, counts, bits = _DIGIT_TIERS[i % len(_DIGIT_TIERS)]
        width = rng.randrange(*widths)
        count = rng.randrange(*counts)
        digits = [rng.randrange(1 << (bits or width)) for _ in range(count)]
        packed = bignat.from_digits(digits, width)
        back = bignat.to_digits(packed, width, count)
        _check(back == digits, "digit-roundtrip", (width, digits))
    out(f"digit pack/unpack round-trip: ok ({iters} cases)")


def _overlap_streams(values, width):
    # The two digit streams of ``values`` by plain shifts: the forward one
    # least significant digit first, the reversed one most significant first.
    count = len(values)
    mask = (1 << width) - 1
    fwd = sum(h << (i * width) for i, h in enumerate(values))
    rev = sum(h << ((count - 1 - i) * width) for i, h in enumerate(values))
    return ([(fwd >> (i * width)) & mask for i in range(count + 1)],
            [(rev >> ((count - i) * width)) & mask for i in range(count + 1)])


def _selftest_reconstruct(rng, iters, out):
    for i in range(iters):
        width = rng.randrange(1, 65)
        count = rng.randrange(1, _SELFTEST_MAX_DIGITS)
        top = (1 << width) * ((1 << width) - 1)
        values = [rng.randrange(top) for _ in range(count)]
        streams = _overlap_streams(values, width)
        got = reconstruct_overlapped(OverlapDigits(*streams, width)).coeffs
        _check(list(got) == values, "reconstruct", (width, values))
        # One flipped bit in one stream moves X*F - R~ by a power of two,
        # which the odd X**2 - 1 never divides: the streams must be rejected.
        side = streams[rng.randrange(2)]
        side[rng.randrange(count + 1)] ^= 1 << rng.randrange(width)
        try:
            reconstruct_overlapped(OverlapDigits(*streams, width))
        except ReconstructionError:
            continue
        _check(False, "reconstruct-corrupted", (width, values))
    out(f"overlap recovery round-trip and corruption: ok ({iters} cases)")


def _selftest_pack(rng, iters, out):
    for i in range(iters):
        bound = rng.randrange(1, 64)
        length = rng.randrange(1, 40)
        coeffs = [rng.randrange(1 << bound) for _ in range(length)]
        v = CoeffVec(tuple(coeffs), bound)
        width = rng.randrange(bound, 2 * bound + 8)
        expect = sum(c << (i * width) for i, c in enumerate(coeffs))
        _check(pack(v, width) == expect, "pack", (coeffs, width))
        expect_rev = sum(c << ((length - 1 - i) * width)
                         for i, c in enumerate(coeffs))
        _check(pack_reversed(v, width) == expect_rev,
               "pack-reversed", (coeffs, width))
        expect_neg = sum((-1) ** i * (c << (i * width))
                         for i, c in enumerate(coeffs))
        _check(pack_negated(v, width) == expect_neg,
               "pack-negated", (coeffs, width))
    out(f"packing vs direct evaluation: ok ({iters} cases)")


def _selftest_ksint(rng, iters, config, out):
    for i in range(iters):
        bound = rng.randrange(1, 33)
        len_f = rng.randrange(1, 65)
        len_g = rng.randrange(1, 65)
        f = CoeffVec(tuple(rng.randrange(1 << bound) for _ in range(len_f)),
                     bound)
        g = CoeffVec(tuple(rng.randrange(1 << bound) for _ in range(len_g)),
                     bound)
        want = oracle.schoolbook_z(f, g).coeffs
        for name, func in (("ks1", ks1_mul), ("ks2", ks2_mul),
                           ("ks3", ks3_mul), ("ks4", ks4_mul)):
            got = func(f, g, config=config).coeffs
            _check(got == want, f"ksint-{name}",
                   (f.coeffs, g.coeffs, bound))
    out(f"integer variants vs schoolbook: ok ({iters} cases, 4 variants)")


def _selftest_bipoly(rng, wide_rng, iters, config, out):
    # Each case runs a small ring with schoolbook products, drawn from the
    # shared rng, and an odd 48-bit modulus with mod_mul as the univariate
    # product, drawn from ``wide_rng`` so the later suites' draws stay put.
    import operator
    cases = max(1, iters // 5) if iters else 0
    small = [(ring_z(), lambda r: r.randrange(-50, 51), None),
             (ring_zmod(7), lambda r: r.randrange(7), None)]
    for i in range(cases):
        n = wide_rng.randrange(1 << 47, 1 << 48) | 1
        wide = (ring_zmod(n), lambda r: r.randrange(n),
                lambda a, b: mod_mul(ModPoly(a, n), ModPoly(b, n),
                                     config=config).coeffs)
        for (ring, draw, uni), case_rng in ((small[i % 2], rng),
                                            (wide, wide_rng)):
            lx = case_rng.randrange(1, 6)
            ly = case_rng.randrange(1, 6)
            f = BiPoly(tuple(tuple(draw(case_rng) for _ in range(ly))
                             for _ in range(lx)))
            g = BiPoly(tuple(tuple(draw(case_rng) for _ in range(ly))
                             for _ in range(lx)))
            # ring.add reduces the plain products, so one mul fits all rings
            want = oracle.schoolbook_bivar(f, g, ring, operator.mul).coeffs
            for name, func in (("standard", bks_standard),
                               ("reciprocal", bks_reciprocal),
                               ("negated", bks_negated), ("four", bks_four)):
                got = func(f, g, ring, uni).coeffs
                _check(got == want, f"bipoly-{name}", (f.coeffs, g.coeffs))
    if cases:
        try:
            one = BiPoly(((1,),))
            bks_negated(one, one, ring_zmod(8))
        except MissingHalveError:
            pass
        else:
            raise _SelfTestFailure("bipoly-halve: even modulus not rejected")
    out(f"bivariate variants vs schoolbook: ok ({cases} cases of 2 rings, "
        f"4 variants)")


def _selftest_modpoly(rng, iters, config, out):
    for i in range(iters):
        bits = rng.choice([2, 4, 16, 48])
        modulus = rng.randrange(max(2, 1 << (bits - 1)), 1 << bits)
        len_f, len_g = rng.randrange(1, 50), rng.randrange(1, 50)
        f = ModPoly(tuple(rng.randrange(modulus) for _ in range(len_f)),
                    modulus)
        g = ModPoly(tuple(rng.randrange(modulus) for _ in range(len_g)),
                    modulus)
        want = oracle.schoolbook_mod(f, g).coeffs
        for variant in (Variant.KS1, Variant.KS2, Variant.KS3, Variant.KS4,
                        Variant.AUTO):
            got = mod_mul(f, g, variant, config=config).coeffs
            _check(got == want, f"modpoly-{variant.value}",
                   (modulus, f.coeffs, g.coeffs))
    out(f"modular front end vs schoolbook: ok ({iters} cases, 5 variants)")


def run_selftest(seed: int, iters: int, out=print) -> int:
    config = mul_config_from_env()
    if iters == 0:
        out("selftest: 0 cases executed (trivially passing)")
        return 0
    rng = random.Random(seed)
    try:
        _selftest_bignat(rng, iters, config, out)
        _selftest_digits(random.Random(f"digits-{seed}"), iters, out)
        _selftest_reconstruct(rng, iters, out)
        _selftest_pack(rng, iters, out)
        _selftest_ksint(rng, iters, config, out)
        _selftest_bipoly(rng, random.Random(f"bipoly-{seed}"), iters, config,
                         out)
        _selftest_modpoly(rng, max(1, iters // 5), config, out)
    except _SelfTestFailure as exc:
        out(f"selftest FAILED (seed={seed}): {exc}")
        return 1
    out(f"selftest passed (seed={seed})")
    return 0


def cmd_selftest(args) -> int:
    if args.iters < 0:
        raise CommandError("iters must be >= 0")
    if args.mutate:
        # Documented mutation guard: with a corrupted multiply the suite
        # must fail; a pass here means the tests have lost their teeth.
        with _corrupted_multiply():
            return run_selftest(args.seed, args.iters)
    return run_selftest(args.seed, args.iters)


# --- entry point -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kronmul",
        description="Polynomial multiplication over Z/nZ via multipoint "
                    "Kronecker substitution.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_mul = sub.add_parser("mul", help="multiply two polynomial files")
    p_mul.add_argument("poly_f")
    p_mul.add_argument("poly_g")
    p_mul.add_argument("-o", "--output", help="output file (default stdout)")
    p_mul.add_argument("--modulus", type=int,
                       help="expected modulus; must match the input files")
    p_mul.add_argument("--variant", default="auto",
                       choices=["ks1", "ks2", "ks3", "ks4", "auto"])
    p_mul.set_defaults(func=cmd_mul)

    p_bench = sub.add_parser("bench", help="benchmark variants to CSV or JSON")
    p_bench.add_argument("--modulus-bits", type=int, default=48)
    p_bench.add_argument("--degrees",
                         help="grid: lo:hi:log or lo:hi:+step (default "
                              f"100:5000:log, with --json {JSON_DEGREES})")
    p_bench.add_argument("--variants", help="default ks1,ks2,ks3,ks4")
    p_bench.add_argument("--reps", type=int, default=5,
                         help="timed repetitions per cell (median taken)")
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--count-ops", action="store_true",
                         help="also record word-product counts "
                              "(forces classical multiplication)")
    p_bench.add_argument("-o", "--output", help="CSV file (default stdout)")
    p_bench.add_argument("--json", metavar="PATH",
                         help="write the north-star grid as JSON instead "
                              "of CSV: every variant, both word-product "
                              "counts and AUTO's pick per cell")
    p_bench.set_defaults(func=cmd_bench)

    p_self = sub.add_parser("selftest", help="run the seeded self-test")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--iters", type=int, default=100)
    p_self.add_argument("--mutate", action="store_true",
                        help="corrupt the multiplier first; the run must "
                             "then fail (harness sensitivity check)")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"kronmul: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
