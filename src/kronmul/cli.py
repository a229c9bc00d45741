"""Command-line front end: file-based modular polynomial multiplication, a
benchmark harness comparing the substitution variants (CSV, or the
north-star grid as JSON), and a seeded self-test.

Polynomial file format: line 1 is the decimal modulus, line 2 the decimal
length L, followed by L whitespace-separated decimal coefficients with the
constant term first.

The environment variable KRONMUL_KARATSUBA_THRESHOLD sets the limb threshold
at which the self-test's counted products switch from classical to
Karatsuba.  ``mul`` and ``bench`` use the default config: they count
nothing, or under ``--count-ops`` count classically, so no threshold could
change what they compute or time.
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

from . import bignat
from .bignat import DEFAULT_MUL_CONFIG, MulConfig, MulStats
from .modpoly import (DEFAULT_THRESHOLDS, ModPoly, Variant,
                      choose_variant, mod_mul)

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
    product = mod_mul(f, g, _parse_variant(args.variant))
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


def timed_multiply(config: MulConfig) -> str:
    """The multiply that an uncounted call under ``config`` runs: CPython's
    own, or the classical blocks under ``classical_only``."""
    return "counted-classical" if config.classical_only else "cpython-int"


def run_bench(degrees, modulus_bits: int, variants, reps: int, seed: int,
              count_ops: bool = False, config: MulConfig | None = None,
              shapes=()):
    """Time every (cell, variant) on shared random inputs (cells as in
    ``_bench_inputs``).

    Returns (comment_lines, rows).  The timed calls pass no ``MulStats``,
    so they run CPython's multiply.  In op-counting mode all products run
    classically, timed and counted, so the counters follow the
    deterministic m*n law.
    """
    variants = [v if isinstance(v, Variant) else _parse_variant(v)
                for v in variants]
    if any(v is Variant.AUTO for v in variants):
        raise CommandError("bench variants must be explicit (no auto)")
    if config is None:
        config = DEFAULT_MUL_CONFIG
    if count_ops:
        config = replace(config, classical_only=True)
    modulus, inputs = _bench_inputs(degrees, shapes, modulus_bits, seed)
    comments = [f"# seed={seed} modulus={modulus} "
                f"classical_only={config.classical_only} "
                f"timed_multiply={timed_multiply(config)}"]
    cells = _time_cells(inputs, variants, modulus_bits, reps, config,
                        count_ops)
    return comments, [row for cell in cells for row in cell]


def _time_cells(inputs, variants, modulus_bits: int, reps: int,
                config: MulConfig, count_ops: bool = False):
    """One list of rows per (f, g) in ``inputs``, a row per variant, timed
    on those inputs."""
    if reps < 1:
        raise CommandError("reps must be >= 1")
    cells = []
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
        base = next((r for r in cell if r.variant == "ks1"), None)
        if base is not None and base.wall_ns_median > 0:
            for row in cell:
                row.ratio_vs_ks1 = row.wall_ns_median / base.wall_ns_median
        cells.append(cell)
    return cells


def render_csv(comments, rows) -> str:
    lines = list(comments)
    lines.append(CSV_HEADER)
    lines.extend(row.csv() for row in rows)
    return "\n".join(lines) + "\n"


# The bench file's grid: equal lengths from JSON_DEGREES, then these
# shapes.  The long sides of zn-unbalanced against its short ones; the
# short cells AUTO's ks1 band is read from, equal and with a side of 8,
# where that band, keyed on the longer length, runs ks3; the lengths of
# zn-bivariate's four-point products (520, 528, 544, 1024) with 600
# between them; and 1800 and 2000, between the grid's 1587 and 2204, where
# the ks3 band ends.
JSON_DEGREES = "16:8192:log"
JSON_SHAPES = (tuple((long, short) for long in (4096, 8192)
                     for short in (16, 64, 256))
               + tuple((n, n) for n in (8, 12, 16, 20, 24, 28, 32, 40, 48,
                                        56, 64))
               + ((8, 24), (8, 32), (8, 40), (8, 48), (16, 48), (8, 64))
               + tuple((n, n) for n in (520, 528, 544, 600, 1024, 1800,
                                        2000)))
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
    on each cell, which runs CPython's multiply, with exact word products
    under ``MulConfig()`` and under ``classical_only``, and AUTO's pick (not
    timed)."""
    config = MulConfig()
    classical = replace(config, classical_only=True)
    modulus, inputs = _bench_inputs(degrees, shapes, modulus_bits, seed)
    cells = _time_cells(inputs, _VARIANTS, modulus_bits, reps, config)
    out = []
    for (f, g), timed in zip(inputs, cells):
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
            "timed_multiply": timed_multiply(config),
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
    # _native_mul, uncounted products and _classical_int's blocks alike, so
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


def run_selftest(seed: int, iters: int, out=print) -> int:
    # Imported here, so importing the CLI (as perfbench's tests do to
    # corrupt the multiply) loads no case code.
    from . import _cases
    config = mul_config_from_env()
    if iters == 0:
        out("selftest: 0 cases executed (trivially passing)")
        return 0
    for suite, case in _cases.SUITES.items():
        rng = random.Random(f"{suite}-{seed}")
        try:
            for _ in range(iters):
                case(rng, config)
        except _cases.SelfTestFailure as exc:
            out(f"selftest FAILED (seed={seed}): {exc}")
            return 1
        except Exception as exc:
            # A library error on a valid case fails the run like a mismatch.
            out(f"selftest FAILED (seed={seed}): {suite}: "
                f"{type(exc).__name__}: {exc}")
            return 1
        out(f"{suite}: ok ({iters} cases)")
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
