"""Command-line front end: file-based modular polynomial multiplication, a
benchmark that writes the north-star grid as JSON, and a seeded self-test.

Polynomial file format: line 1 is the decimal modulus, line 2 the decimal
length L, followed by L whitespace-separated decimal coefficients with the
constant term first.  Every number is plain ASCII digits: no sign, no
underscore.

``mul`` and the bench's timed calls count nothing, so they run the
uncounted multiply (CPython's, split by Toom-4 on large balanced operands)
whatever the config; the self-test runs every multiplying suite under both
configs of ``kronmul._cases.CONFIGS`` (classical leaves, and Karatsuba down
to 16 limbs), and the others once.
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
from pathlib import Path

from . import bignat
from .bignat import MulConfig, MulStats
from .modpoly import (_KS1_MAX_LENGTH, _KS3_MAX_LENGTH, ModPoly, Variant,
                      choose_variant, mod_mul)


class CommandError(Exception):
    """A user-facing failure; the message goes to stderr, exit status 1."""


# --- polynomial files --------------------------------------------------------


def read_poly_file(path: str) -> ModPoly:
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CommandError(f"cannot read {path}: {exc}")
    try:
        tokens = raw.decode("ascii").split()
    except UnicodeDecodeError as exc:
        raise CommandError(f"{path}: byte {exc.start} is not ASCII")
    if len(tokens) < 2:
        raise CommandError(f"{path}: expected modulus and length")
    # int() alone would also take "+5" and "1_0".  The text is ASCII, so
    # isdigit() accepts exactly 0-9.
    bad = next((t for t in tokens if not t.isdigit()), None)
    if bad is not None:
        raise CommandError(f"{path}: {bad!r} is not a plain decimal number")
    try:
        modulus, length, *coeffs = map(int, tokens)
    except ValueError as exc:  # past int()'s limit on digits
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
    product = mod_mul(f, g, Variant(args.variant))
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
    modulus = (rng.randrange(1 << (modulus_bits - 1), 1 << modulus_bits)
               if modulus_bits > 1 else 2)

    def draw(length):
        return ModPoly(tuple(rng.randrange(modulus) for _ in range(length)),
                       modulus)

    cells = [(d + 1, d + 1) for d in degrees] + list(shapes)
    return modulus, [(draw(len_f), draw(len_g)) for len_f, len_g in cells]


def _time_cells(inputs, variants, reps: int) -> list[dict]:
    """Per (f, g) in ``inputs``, each variant's median ns, the interquartile
    range of its ``reps`` samples and its ratio to ks1's median, timed
    uncounted, so on ``TIMED_MULTIPLY``.  ``variants`` must include ks1."""
    if reps < 1:
        raise CommandError("reps must be >= 1")
    cells = []
    for f, g in inputs:
        calls = [lambda v=v: mod_mul(f, g, v) for v in variants]
        rows = {}
        for variant, samples in zip(variants,
                                    _interleaved_samples(calls, reps)):
            iqr = 0
            if reps > 1:
                q1, _, q3 = statistics.quantiles(samples, n=4)
                iqr = int(q3 - q1)
            rows[variant.value] = {
                "wall_ns_median": int(statistics.median(samples)),
                "wall_ns_iqr": iqr}
        base = rows[Variant.KS1.value]["wall_ns_median"]
        for row in rows.values():
            row["ratio_vs_ks1"] = round(row["wall_ns_median"] / base, 4)
        cells.append(rows)
    return cells


# The bench file's grid: equal lengths from --degrees (by default
# JSON_DEGREES), then these shapes.  The long sides of zn-unbalanced against
# its short ones; the short cells AUTO's ks1 band is read from, equal and
# with a side of 8, where that band, keyed on the longer length, runs ks3;
# the lengths of zn-bivariate's four-point products (520, 528, 544, 1024)
# with 600 between them; and 1800 and 2000, between the grid's 1587 and
# 2204, where the ks3 band ended on the Toom-3 multiply (it now ends
# between 2204 and 3060; the cells stay, so grids compare across files).
JSON_DEGREES = "16:8192:log"
JSON_SHAPES = (tuple((long, short) for long in (4096, 8192)
                     for short in (16, 64, 256))
               + tuple((n, n) for n in (8, 12, 16, 20, 24, 28, 32, 40, 48,
                                        56, 64))
               + ((8, 24), (8, 32), (8, 40), (8, 48), (16, 48), (8, 64))
               + tuple((n, n) for n in (520, 528, 544, 600, 1024, 1800,
                                        2000)))
_VARIANTS = tuple(v for v in Variant if v is not Variant.AUTO)
# The multiply that uncounted calls run, as the bench file names it.
TIMED_MULTIPLY = (f"cpython-int, toom4 from {bignat._TOOM_MIN_BITS} bits "
                  f"at skew below {bignat._TOOM_MAX_SKEW}")


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
    """The bench file's content, one JSON document.

    Its ``cells`` are the equal lengths degree + 1 of ``degrees``, then
    ``shapes``, each with its ``len_f`` and ``len_g``.  A cell's
    ``variants`` maps each of ks1 to ks4 to:

    - ``wall_ns_median``: the median ns per ``mod_mul`` call over ``reps``
      repetitions (``_interleaved_samples``), timed uncounted, so on
      ``TIMED_MULTIPLY``;
    - ``wall_ns_iqr``: the interquartile range of those repetitions (0 for
      one repetition);
    - ``ratio_vs_ks1``: the variant's median over ks1's;
    - ``word_products`` and ``word_products_classical``: the exact word
      products of one counted call under ``MulConfig()`` and under
      ``classical_only``.

    Each cell also holds ``auto``, AUTO's pick (not timed), and
    ``fastest``, the variant with the least median.  The file holds
    ``commit`` (the checkout's HEAD) and ``dirty`` (whether tracked files
    differ from it), both None outside a git checkout; ``nproc``;
    ``python``, the implementation and version; ``mul_config``, the fields
    of ``MulConfig()``; ``timed_multiply``; ``auto_thresholds``, AUTO's two
    bands; ``seed`` and ``reps``; and ``modulus_bits`` and ``modulus``, the
    modulus drawn from the seed that every cell's inputs share.

    ``timed_multiply`` names the multiply the timings ran on.  Older files
    hold other values: ``cpython-int`` in BENCH_native.json, made before
    any Toom split; ``cpython-int, toom3 from 26000 bits at skew below 2``
    in BENCH_toom3.json, and that with ``, toom4 from 80000 bits at skew
    below 1.5`` after it in BENCH_toom4.json.  BENCH_baseline.json and
    BENCH_ks3_mask.json, made before the field, lack it; they ran CPython's
    multiply.  Compare ratios within one file: raw times on a shared host
    drift between runs.
    """
    counted = {"word_products": MulConfig(),
               "word_products_classical": MulConfig(classical_only=True)}
    modulus, inputs = _bench_inputs(degrees, shapes, modulus_bits, seed)
    cells = _time_cells(inputs, _VARIANTS, reps)
    out = []
    for (f, g), rows in zip(inputs, cells):
        for variant in _VARIANTS:
            for key, cfg in counted.items():
                stats = MulStats()
                mod_mul(f, g, variant, config=cfg, stats=stats)
                rows[variant.value][key] = stats.limb_products
        out.append({"len_f": len(f), "len_g": len(g),
                    "auto": choose_variant(len(f), len(g)).value,
                    "fastest": min(rows, key=lambda v:
                                   rows[v]["wall_ns_median"]),
                    "variants": rows})
    dirty = _git("status", "--porcelain", "--untracked-files=no")
    return {"commit": _git("rev-parse", "HEAD"),
            "dirty": None if dirty is None else bool(dirty),
            "nproc": os.cpu_count(),
            "python": f"{platform.python_implementation()} "
                      f"{platform.python_version()}",
            "mul_config": {"karatsuba_threshold":
                           MulConfig.karatsuba_threshold,
                           "classical_only": False},
            "timed_multiply": TIMED_MULTIPLY,
            "auto_thresholds": {"ks1_max_length": _KS1_MAX_LENGTH,
                                "ks3_max_length": _KS3_MAX_LENGTH},
            "seed": seed, "reps": reps, "modulus_bits": modulus_bits,
            "modulus": modulus, "cells": out}


def cmd_bench(args) -> int:
    grid = bench_grid(parse_degree_grid(args.degrees), JSON_SHAPES,
                      args.modulus_bits, args.reps, args.seed)
    text = json.dumps(grid, indent=1) + "\n"
    if args.json is None:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.json, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise CommandError(f"cannot write {args.json}: {exc}")
    return 0


# --- selftest ----------------------------------------------------------------


@contextlib.contextmanager
def _corrupted_multiply():
    # Deliberate fault injection: every product with a multi-limb operand
    # comes back wrong.  bignat runs each machine product through
    # _native_mul, uncounted products, the Toom split's leaves and
    # _classical_int's leaves alike, so that one name reaches every path.
    # Used to verify the self-test has teeth.
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
    if iters == 0:
        out("selftest: 0 cases executed (trivially passing)")
        return 0
    # Every config draws the same cases from the seed.  Only the multiplying
    # suites read the config, so the others run under the first one alone.
    suites = _cases.SUITES
    for name, config in _cases.CONFIGS.items():
        out(f"config {name}: {config}")
        for suite, case in suites.items():
            rng = random.Random(f"{suite}-{seed}")
            try:
                for _ in range(iters):
                    case(rng, config)
            except Exception as exc:
                # A mismatch, or any error raised on a valid case.
                if not isinstance(exc, _cases.SelfTestFailure):
                    exc = f"{suite}: {type(exc).__name__}: {exc}"
                out(f"selftest FAILED (seed={seed}): {exc}")
                return 1
            out(f"{suite}: ok ({iters} cases)")
        suites = {suite: case for suite, case in suites.items()
                  if suite in _cases.MULTIPLYING}
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
                       choices=[v.value for v in Variant])
    p_mul.set_defaults(func=cmd_mul)

    p_bench = sub.add_parser(
        "bench", help="time every variant on the north-star grid, as JSON")
    p_bench.add_argument("--modulus-bits", type=int, default=48)
    p_bench.add_argument("--degrees", default=JSON_DEGREES,
                         help="equal-length cells: lo:hi:log or "
                              "lo:hi:+step (default %(default)s)")
    p_bench.add_argument("--reps", type=int, default=5,
                         help="timed repetitions per cell (median taken)")
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--json", metavar="PATH",
                         help="write the grid here (default stdout): every "
                              "variant, both word-product counts and "
                              "AUTO's pick per cell")
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
        status = args.func(args)
        # Flushed here, so that a reader gone early (``| head``) is seen
        # below and not by the interpreter's flush at exit.
        sys.stdout.flush()
        return status
    except CommandError as exc:
        print(f"kronmul: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # As the Python docs advise: point stdout at devnull, so that the
        # flush at exit does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
