#!/usr/bin/env python3
"""Outside-in benchmark of kronmul's public API.

    python3 perfbench/run.py --workload zn-long --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

One caller in one process sends one request at a time (a closed loop) and
waits for it.  Each workload is a seeded request list (bench_workloads.py)
that a run executes in whole passes until --seconds have gone by, so every
run does the same mix of work.  Calls use the library's default MulConfig
and parallel=False.  Every output is checked outside the timed interval.
Times are scaled to nominal host speed by a reference kernel timed between
calls (bench_speed.py); the raw medians are printed beside them.

--trace 0 reports the end-to-end metrics.  --trace 1 is a separate run
that alternates untraced and traced passes and reports per-layer self
time and counts (bench_trace.py), each variant forced on the workload's
own requests, and the classical word-product counts of the paper's cell.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import bench_report
from bench_speed import SpeedIndex
from bench_trace import LAYER_SPANS, ROOT as ROOT_SPAN, Tracer
from bench_workloads import (NAMES, Workload, check, distinct_shapes,
                             generate, make_call, spread)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1
# Not used while the benchmark or a change is tuned; confirms claims.
HELDOUT_SEED = 20071227
SETUP_REPEATS = 5
WARMUP_SHAPES = 3
# latency_ms_p90 needs ten samples beyond it.
MIN_CALLS = 100
VARIANTS = ("ks1", "ks2", "ks3", "ks4")
# The paper's cell: all-maximal coefficients, L = 2048, 48-bit modulus.
PAPER_LENGTH = 2048
PAPER_MODULUS = (1 << 48) - 59


def load_kronmul() -> SimpleNamespace:
    """Import kronmul from this checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Modules by full name: the package re-exports a function named pack.
    return SimpleNamespace(**{
        name: importlib.import_module("kronmul." + name)
        for name in ("bignat", "bipoly", "ksint", "modpoly", "oracle",
                     "pack")})


class Tally:
    """Outcome of every call, per request.

    A call succeeds when its output equals the first output for the same
    request and that first output passed the check.  A call that raised
    has its exception as output, which equals no other output.
    """

    _UNSET = object()

    def __init__(self, size: int):
        self.first = [self._UNSET] * size
        self.calls = [0] * size
        self.mismatches = [0] * size
        self.bad: set[int] = set()
        self._reported = False

    def record(self, i: int, out) -> None:
        self.calls[i] += 1
        if isinstance(out, Exception) and not self._reported:
            self._reported = True
            traceback.print_exception(out, file=sys.stderr)
        if self.first[i] is self._UNSET:
            self.first[i] = out
        elif out != self.first[i]:
            self.mismatches[i] += 1

    def verify(self, is_correct) -> None:
        for i, out in enumerate(self.first):
            if out is not self._UNSET and not is_correct(i, out):
                if not self.bad:
                    print(f"perfbench: wrong output for request {i}",
                          file=sys.stderr)
                self.bad.add(i)

    @property
    def attempted(self) -> int:
        return sum(self.calls)

    @property
    def failed(self) -> int:
        return sum(self.calls[i] if i in self.bad else self.mismatches[i]
                   for i in range(len(self.calls)))


@dataclass
class Bench:
    km: SimpleNamespace
    workload: Workload
    call: object
    tally: Tally
    setup_s: float


def set_up(name: str, seed: int, repeats: int = SETUP_REPEATS) -> Bench:
    """Import kronmul once, then generate the inputs and warm up
    ``repeats`` times; setup_s is the import time plus the median repeat,
    each scaled to nominal host speed."""
    speed = SpeedIndex()
    t0 = time.perf_counter()
    km = load_kronmul()
    import_s = (time.perf_counter() - t0) * speed.factor()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        workload = generate(name, seed)
        call = make_call(km, workload, km.modpoly.Variant.AUTO)
        for i in distinct_shapes(workload.requests)[:WARMUP_SHAPES]:
            try:
                call(workload.requests[i])
            except Exception:
                pass  # the timed passes count it
        times.append((time.perf_counter() - t0) * speed.factor())
    return Bench(km, workload, call, Tally(len(workload.requests)),
                 import_s + statistics.median(times))


@dataclass
class Pass:
    raw_ns: list[int]         # per-call latency as measured
    scaled_ns: list[float]    # the same at nominal host speed

    def rate(self) -> float:
        """Calls per second at nominal speed."""
        return len(self.scaled_ns) / (sum(self.scaled_ns) / 1e9)


def one_pass(call, requests, tally: Tally, speed: SpeedIndex) -> Pass:
    """Every request once, in order, timing each call and running the
    speed kernel between calls every REF_GAP_NS."""
    clock = time.perf_counter_ns
    raw = [0] * len(requests)
    scaled: list[float] = []
    for i, req in enumerate(requests):
        t0 = clock()
        try:
            out = call(req)
        except Exception as exc:
            out = exc
        t1 = clock()
        raw[i] = t1 - t0
        tally.record(i, out)
        if speed.due(t1) or i == len(requests) - 1:
            factor = speed.factor()
            scaled.extend(ns * factor for ns in raw[len(scaled):i + 1])
    return Pass(raw, scaled)


def verify(bench: Bench) -> None:
    km, wl = bench.km, bench.workload
    bench.tally.verify(lambda i, out: check(km, wl, wl.requests[i], out))


def run_end_to_end(bench: Bench, seconds: float) -> dict:
    requests = bench.workload.requests
    speed = SpeedIndex()
    passes: list[Pass] = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or sum(len(p.raw_ns) for p in passes) < MIN_CALLS):
        passes.append(one_pass(bench.call, requests, bench.tally, speed))
    verify(bench)
    scaled_ms = [ns / 1e6 for p in passes for ns in p.scaled_ns]
    raw_ms = [ns / 1e6 for p in passes for ns in p.raw_ns]
    latency = bench_report.summarize(scaled_ms)
    tally = bench.tally
    return {
        "ops_per_s": (statistics.median(p.rate() for p in passes), "1/s",
                      f"median of {len(passes)} passes"),
        "latency_ms_p50": (latency["median"], "ms",
                           f"n={latency['count']}, "
                           f"raw {statistics.median(raw_ms):.4f} ms"),
        "latency_ms_p90": (bench_report.percentile(scaled_ms, 90), "ms",
                           f"n={latency['count']}, "
                           f"raw {bench_report.percentile(raw_ms, 90):.4f} ms"
                           f", p{latency['tail_pct']:g} = "
                           f"{latency['tail']:.4f} ms"),
        "success_rate": (1 - tally.failed / tally.attempted, "ratio",
                         f"error_rate = {tally.failed}/{tally.attempted}"),
        "setup_s": (bench.setup_s, "s",
                    f"import + median of {SETUP_REPEATS} generate+warm-up"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB", "ru_maxrss"),
    }


def forced_variants(bench: Bench) -> dict:
    """Mean ms per call, at nominal speed, with each variant forced on
    evenly spread shapes of the workload's own requests (in the univariate
    products for bivariate requests)."""
    km, wl = bench.km, bench.workload
    calls = {v: make_call(km, wl, km.modpoly.Variant[v.upper()])
             for v in VARIANTS}
    subset = spread(distinct_shapes(wl.requests), wl.forced_shapes)
    speed = SpeedIndex()
    total = dict.fromkeys(VARIANTS, 0.0)
    pending = dict.fromkeys(VARIANTS, 0)
    clock = time.perf_counter_ns
    for n, i in enumerate(subset):
        for v in VARIANTS:
            t0 = clock()
            try:
                out = calls[v](wl.requests[i])
            except Exception as exc:
                out = exc
            pending[v] += clock() - t0
            bench.tally.record(i, out)
        if speed.due(clock()) or n == len(subset) - 1:
            factor = speed.factor()
            for v in VARIANTS:
                total[v] += pending[v] * factor
                pending[v] = 0
    return {v: total[v] / len(subset) / 1e6 for v in VARIANTS}


def paper_counts(km) -> tuple[dict, int]:
    """Classical word products of each variant on the paper's cell, and the
    number of those products whose output was wrong."""
    mp, n, length = km.modpoly, PAPER_MODULUS, PAPER_LENGTH
    top = mp.ModPoly((n - 1,) * length, n)
    # (n-1)**2 = 1 mod n, so h_k counts the products landing on x**k.
    want = tuple(min(k + 1, 2 * length - 1 - k) % n
                 for k in range(2 * length - 1))
    config = km.bignat.MulConfig(classical_only=True)
    counts, failed = {}, 0
    for v in VARIANTS:
        stats = km.bignat.MulStats()
        try:
            out = mp.mod_mul(top, top, mp.Variant[v.upper()], stats=stats,
                             config=config).coeffs
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        failed += out != want
        counts[v] = stats.limb_products
    return counts, failed


def run_traced(bench: Bench, seconds: float) -> tuple[dict, int, int]:
    """Per-layer metrics, plus the calls attempted and failed outside the
    tally (the paper's cell)."""
    requests = bench.workload.requests
    tracer = Tracer(bench.km)
    root = tracer.span(ROOT_SPAN, bench.call)
    speed = SpeedIndex()
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not traced:
        plain.append(one_pass(bench.call, requests, bench.tally, speed))
        with tracer.installed():
            traced.append(one_pass(root, requests, bench.tally, speed))
    forced = forced_variants(bench)
    paper, paper_failed = paper_counts(bench.km)
    verify(bench)

    ops = sum(len(p.raw_ns) for p in traced)
    traced_ns = sum(sum(p.raw_ns) for p in traced)
    scale = sum(sum(p.scaled_ns) for p in traced) / traced_ns
    own, counts, calls = tracer.self_ns, tracer.counts, tracer.calls

    def ms_per_op(span):
        return (own[span] * scale / ops / 1e6, "ms")

    def per_op(value):
        return (value / ops, "count")

    runs = {v: counts["ksint." + v] for v in VARIANTS}
    metrics = {
        "modpoly.self_ms": ms_per_op("modpoly"),
        "modpoly.validate_ms": ms_per_op("modpoly.validate"),
        **{f"modpoly.auto_share.{v}": (runs[v] / max(1, sum(runs.values())),
                                       "ratio") for v in VARIANTS},
        "pack.validate_ms": ms_per_op("pack.validate"),
        "pack.pack_ms": ms_per_op("pack"),
        "pack.bytes_out": (counts["pack.bytes_out"] / ops, "bytes"),
        "bignat.mul_ms": ms_per_op("bignat.mul"),
        "bignat.products": per_op(sum(c for (_, name), c in calls.items()
                                      if name == "bignat.mul")),
        "bignat.operand_limbs": per_op(counts["bignat.operand_limbs"]),
        "bignat.word_products": per_op(tracer.stats.limb_products),
        **{f"bignat.word_products_classical.{v}": (paper[v], "count")
           for v in VARIANTS},
        "bignat.ks1_over_ks4_word_products": (paper["ks1"] / paper["ks4"],
                                              "ratio"),
        "ksint.self_ms": ms_per_op("ksint"),
        **{f"ksint.{v}_ms": (forced[v], "ms") for v in VARIANTS},
        "bipoly.self_share": (own["bipoly"] / traced_ns, "ratio"),
        "bipoly.uni_products": per_op(calls[("bipoly", "modpoly")]),
        "trace.coverage": (sum(own[s] for s in LAYER_SPANS) / traced_ns,
                           "ratio"),
        "trace.overhead_pct": (
            (statistics.median(p.rate() for p in plain)
             / statistics.median(p.rate() for p in traced) - 1) * 100, "%"),
    }
    return metrics, len(VARIANTS), paper_failed


def run_one(args) -> dict:
    bench = set_up(args.workload, args.seed)
    extra_attempted = extra_failed = 0
    if args.trace:
        metrics, extra_attempted, extra_failed = run_traced(bench,
                                                            args.seconds)
    else:
        metrics = run_end_to_end(bench, args.seconds)
    for name, (value, unit, *note) in metrics.items():
        print(f"{args.workload:14s} {name:38s} {value:>16.6f} {unit:6s} "
              f"{note[0] if note else ''}".rstrip())
    mul_config = bench.km.bignat.DEFAULT_MUL_CONFIG
    print("provenance", json.dumps(bench_report.provenance(
        ROOT, args.workload, args.seed, mul_config)))
    attempted = bench.tally.attempted + extra_attempted
    failed = bench.tally.failed + extra_failed
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit, *_) in metrics.items()}}


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; keep "
                        f"{HELDOUT_SEED} to confirm claims)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "kronmul" / "__init__.py").is_file():
        print(f"perfbench: no kronmul sources under {SRC}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
