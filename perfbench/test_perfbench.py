"""Tests of the benchmark itself: seeds, reporting rules, tracing, the
paper's word-product counts and that a corrupted multiply is caught."""

from __future__ import annotations

import dataclasses
import importlib
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from bench_report import percentile, summarize, tail_percentile
from bench_speed import SpeedIndex
from bench_trace import self_times
from bench_workloads import NAMES, distinct_shapes, generate

UNI_PRODUCTS = {"bks_standard": 1, "bks_reciprocal": 2, "bks_negated": 2,
                "bks_four": 4}


@pytest.mark.parametrize("name", NAMES)
def test_seed_fixes_the_request_list(name):
    first = generate(name, 5)
    assert generate(name, 5) == first
    other = generate(name, 6)
    assert other.requests != first.requests
    assert other.modulus != first.modulus
    # Every seed asks for the same shapes, only values and order differ.
    assert (sorted(r.shape_key() for r in other.requests)
            == sorted(r.shape_key() for r in first.requests))


def test_bivariate_modulus_is_odd():
    assert all(generate("zn-bivariate", s).modulus % 2 for s in range(20))


def test_percentile_and_tail():
    assert percentile([3, 1, 2], 50) == 2
    assert percentile(list(range(101)), 90) == 90
    assert percentile([0, 10], 25) == 2.5
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9
    s = summarize(list(range(1, 1001)))
    assert s["count"] == 1000 and s["median"] == 500.5
    assert s["tail_pct"] == 99.0 and s["tail"] == percentile(
        list(range(1, 1001)), 99)


def test_self_times_subtract_children():
    spans = [(0, "op", -1, 0, 100),
             (0, "a", 0, 10, 60),
             (0, "b", 1, 20, 30),
             (0, "b", 1, 40, 45),
             (0, "c", 0, 70, 90)]
    own, calls = self_times(spans)
    assert own == {"op": 30, "a": 35, "b": 15, "c": 20}
    assert sum(own.values()) == 100
    assert calls[("a", "b")] == 2 and calls[(None, "op")] == 1


def _small_bench(name, count):
    bench = run.set_up(name, 3, repeats=1)
    wl = bench.workload
    keep = wl.requests[:count]
    bench.workload = dataclasses.replace(wl, requests=keep)
    bench.tally = run.Tally(len(keep))
    return bench


@pytest.mark.parametrize("name", NAMES)
def test_corrupted_multiply_is_counted(name):
    clean = _small_bench(name, 3)
    run.one_pass(clean.call, clean.workload.requests, clean.tally,
                 SpeedIndex())
    run.verify(clean)
    assert clean.tally.attempted == 3 and clean.tally.failed == 0

    cli = importlib.import_module("kronmul.cli")
    bench = _small_bench(name, 3)
    with cli._corrupted_multiply():
        run.one_pass(bench.call, bench.workload.requests, bench.tally,
                     SpeedIndex())
    run.one_pass(bench.call, bench.workload.requests, bench.tally,
                 SpeedIndex())
    run.verify(bench)
    # Corrupted first outputs fail the check; the later correct outputs
    # disagree with them, so every call of the request counts as failed.
    assert bench.tally.failed == bench.tally.attempted == 6


def test_end_to_end_metrics():
    bench = _small_bench("zn-short", 150)
    metrics = run.run_end_to_end(bench, 0.01)
    assert set(metrics) == {"ops_per_s", "latency_ms_p50", "latency_ms_p90",
                            "success_rate", "setup_s", "peak_rss_mb"}
    assert metrics["success_rate"][0] == 1.0
    assert bench.tally.attempted >= run.MIN_CALLS
    assert 0 < metrics["latency_ms_p50"][0] <= metrics["latency_ms_p90"][0]
    assert all(value > 0 for value, *_ in metrics.values())


def test_paper_counts():
    counts, failed = run.paper_counts(run.load_kronmul())
    assert failed == 0
    assert counts == {"ks1": 11_723_776, "ks2": 5_971_968,
                      "ks3": 5_971_968, "ks4": 2_992_900}
    assert round(counts["ks1"] / counts["ks4"], 3) == 3.917


@pytest.mark.parametrize("name", ["zn-short", "zn-bivariate"])
def test_traced_run(name):
    bench = _small_bench(name, 4)
    km = bench.km
    originals = (km.modpoly.mod_mul, km.ksint.mul, km.modpoly.ks1_mul,
                 dict(km.modpoly._VARIANT_FUNCS), km.modpoly.ModPoly.__init__)
    metrics, attempted, failed = run.run_traced(bench, 0.01)
    assert (km.modpoly.mod_mul, km.ksint.mul, km.modpoly.ks1_mul,
            dict(km.modpoly._VARIANT_FUNCS),
            km.modpoly.ModPoly.__init__) == originals
    assert failed == 0 and bench.tally.failed == 0
    assert 0.9 < metrics["trace.coverage"][0] <= 1.0
    shares = [metrics[f"modpoly.auto_share.{v}"][0] for v in run.VARIANTS]
    assert sum(shares) == pytest.approx(1.0)
    for layer in ("modpoly.self_ms", "modpoly.validate_ms",
                  "pack.validate_ms", "pack.pack_ms", "bignat.mul_ms",
                  "ksint.self_ms"):
        assert metrics[layer][0] > 0, layer
    want = (sum(UNI_PRODUCTS[r.method] for r in bench.workload.requests)
            / len(bench.workload.requests)) if name == "zn-bivariate" else 0
    assert metrics["bipoly.uni_products"][0] == want
    assert (metrics["bipoly.self_share"][0] > 0) == (name == "zn-bivariate")


def test_warm_up_and_forced_shapes_do_not_depend_on_seed():
    for name in NAMES:
        a, b = generate(name, 1), generate(name, 2)
        assert ([a.requests[i].shape_key() for i in distinct_shapes(a.requests)]
                == [b.requests[i].shape_key()
                    for i in distinct_shapes(b.requests)])


def test_refuses_to_run_without_sources(tmp_path):
    here = Path(run.__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "zn-short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
