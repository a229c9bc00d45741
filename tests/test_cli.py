import json
import os
import random
import subprocess
import sys

import pytest

from kronmul import bignat, cli
from kronmul.bignat import BigNat, MulConfig, MulStats, mul
from kronmul.cli import (CSV_HEADER, JSON_DEGREES, CommandError,
                         _bench_inputs, _check, _corrupted_multiply,
                         _selftest_bipoly,
                         _selftest_digits, _SelfTestFailure, main,
                         mul_config_from_env, parse_degree_grid,
                         read_poly_file, render_csv, run_bench, run_selftest,
                         write_poly_file)
from kronmul.modpoly import ModPoly, Variant, choose_variant, mod_mul

EXAMPLE_F = "1000003\n4\n274 610 887 621\n"
EXAMPLE_G = "1000003\n4\n553 298 424 790\n"
EXAMPLE_H = (151522, 418982, 788467, 82836, 43043, 964034, 490590)


@pytest.fixture
def poly_files(tmp_path):
    f = tmp_path / "f.txt"
    g = tmp_path / "g.txt"
    f.write_text(EXAMPLE_F)
    g.write_text(EXAMPLE_G)
    return f, g


def test_poly_file_round_trip(tmp_path):
    p = ModPoly((0, 1, 2, 3), 97)
    path = tmp_path / "p.txt"
    write_poly_file(str(path), p)
    assert read_poly_file(str(path)) == p


def test_poly_file_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("97\n3\n1 2\n")
    with pytest.raises(CommandError):
        read_poly_file(str(bad))
    bad.write_text("97\nx\n")
    with pytest.raises(CommandError):
        read_poly_file(str(bad))
    with pytest.raises(CommandError):
        read_poly_file(str(tmp_path / "missing.txt"))


@pytest.mark.parametrize("variant", ["ks1", "ks2", "ks3", "ks4", "auto"])
def test_mul_command(poly_files, tmp_path, variant):
    f, g = poly_files
    out = tmp_path / "h.txt"
    status = main(["mul", "--modulus", "1000003", "--variant", variant,
                   str(f), str(g), "-o", str(out)])
    assert status == 0
    assert read_poly_file(str(out)).coeffs == EXAMPLE_H


def test_mul_zero_polynomial(tmp_path):
    f = tmp_path / "f.txt"
    g = tmp_path / "g.txt"
    f.write_text("97\n3\n1 2 3\n")
    g.write_text("97\n2\n0 0\n")
    out = tmp_path / "h.txt"
    assert main(["mul", str(f), str(g), "-o", str(out)]) == 0
    assert read_poly_file(str(out)).coeffs == (0, 0, 0, 0)


def test_mul_to_stdout(poly_files, capsys):
    f, g = poly_files
    assert main(["mul", str(f), str(g)]) == 0
    lines = capsys.readouterr().out.split()
    assert lines[0] == "1000003" and lines[1] == "7"
    assert tuple(int(t) for t in lines[2:]) == EXAMPLE_H


def test_mul_modulus_mismatch(poly_files, tmp_path, capsys):
    f, g = poly_files
    other = tmp_path / "other.txt"
    other.write_text("97\n1\n5\n")
    assert main(["mul", str(f), str(other)]) == 1
    assert "modulus mismatch" in capsys.readouterr().err
    assert main(["mul", "--modulus", "7", str(f), str(g)]) == 1


def test_parse_degree_grid():
    assert parse_degree_grid("1:10:+3") == [1, 4, 7, 10]
    log_points = parse_degree_grid("100:5000:log")
    assert log_points[0] == 100 and log_points[-1] == 5000
    assert 15 <= len(log_points) <= 20
    assert log_points == sorted(set(log_points))
    for bad in ["5", "10:1:log", "1:10:lin", "0:9:+1", "1:9:+0"]:
        with pytest.raises(CommandError):
            parse_degree_grid(bad)


def test_bench_csv_schema(tmp_path):
    out = tmp_path / "bench.csv"
    status = main(["bench", "--modulus-bits", "8", "--degrees", "2:6:+4",
                   "--variants", "ks1,ks4", "--reps", "3", "--seed", "5",
                   "--count-ops", "-o", str(out)])
    assert status == 0
    lines = out.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    assert any("seed=5" in c for c in comments)
    body = [l for l in lines if not l.startswith("#")]
    assert body[0] == CSV_HEADER
    rows = [l.split(",") for l in body[1:]]
    assert len(rows) == 4  # 2 degrees x 2 variants
    for degree, length, bits, variant, ns, ops, ratio in rows:
        assert int(length) == int(degree) + 1
        assert bits == "8"
        assert variant in ("ks1", "ks4")
        assert int(ns) > 0
        assert int(ops) > 0  # counted because of --count-ops
        if variant == "ks1":
            assert float(ratio) == 1.0


def test_bench_ratio_against_ks1_rows():
    comments, rows = run_bench([4], 6, ["ks1", "ks2", "ks3"], reps=3, seed=2,
                               count_ops=True)
    by_variant = {r.variant: r for r in rows}
    base = by_variant["ks1"].wall_ns_median
    for r in rows:
        assert r.ratio_vs_ks1 == pytest.approx(r.wall_ns_median / base)
    text = render_csv(comments, rows)
    assert text.splitlines()[1] == CSV_HEADER


def test_bench_count_ops_forces_classical():
    # --count-ops counts the m*n law even when handed a Karatsuba config.
    def bench(config):
        return run_bench([40], 48, ["ks1", "ks4"], reps=1, seed=3,
                         count_ops=True, config=config)

    comments, rows = bench(MulConfig())
    _, classical = bench(MulConfig(classical_only=True))
    assert "classical_only=True" in comments[0]
    assert [r.limb_products for r in rows] == \
        [r.limb_products for r in classical]


def test_bench_json_matches_direct_counts(tmp_path, monkeypatch):
    # Every word-product cell of the file equals a MulStats count taken
    # here on the same seeded inputs, under MulConfig() and classically.
    monkeypatch.setattr(cli, "JSON_SHAPES", ((9, 3), (3, 9)))
    out = tmp_path / "bench.json"
    assert main(["bench", "--json", str(out), "--degrees", "4:8:+4",
                 "--reps", "2", "--seed", "3"]) == 0
    grid = json.loads(out.read_text())
    assert {"commit", "nproc", "python", "mul_config", "seed",
            "modulus"} <= set(grid)
    assert grid["mul_config"] == {"karatsuba_threshold": 16,
                                  "classical_only": False}
    cells = [(5, 5), (9, 9), (9, 3), (3, 9)]
    assert [(c["len_f"], c["len_g"]) for c in grid["cells"]] == cells
    modulus, inputs = _bench_inputs([4, 8], ((9, 3), (3, 9)), 48, 3)
    assert grid["seed"] == 3 and grid["modulus"] == modulus
    configs = {"word_products": MulConfig(),
               "word_products_classical": MulConfig(classical_only=True)}
    for cell, (f, g) in zip(grid["cells"], inputs):
        assert cell["auto"] == choose_variant(len(f), len(g)).value
        assert cell["variants"]["ks1"]["ratio_vs_ks1"] == 1.0
        for variant in ("ks1", "ks2", "ks3", "ks4"):
            row = cell["variants"][variant]
            assert row["wall_ns_median"] > 0
            for key, config in configs.items():
                stats = MulStats()
                mod_mul(f, g, Variant(variant), stats=stats, config=config)
                assert row[key] == stats.limb_products, (cell, variant, key)


def test_bench_json_rejects_csv_options(tmp_path, capsys):
    out = str(tmp_path / "bench.json")
    for extra in (["--count-ops"], ["--variants", "ks1"], ["-o", out]):
        assert main(["bench", "--json", out, "--degrees", "4:4:+1"]
                    + extra) == 1
        assert "--json" in capsys.readouterr().err
    assert not os.path.exists(out)


# Classical ks1/ks2 and ks1/ks4 word-product ratios on the bench grid's
# equal lengths (JSON_DEGREES), 48-bit modulus, seed 1.  ks4's ratio
# approaches the paper's 4 as e = ceil(log2 L) amortizes.
GRID_CLASSICAL_RATIOS = {
    17: (1.724, 2.641), 23: (1.795, 3.24), 32: (1.849, 3.189),
    44: (2.0, 3.393), 60: (1.959, 3.61), 84: (1.914, 3.719),
    116: (1.917, 3.754), 160: (2.0, 3.88), 222: (1.978, 3.913),
    308: (1.961, 3.715), 428: (1.955, 3.761), 593: (2.0, 3.827),
    824: (1.994, 3.841), 1143: (1.96, 3.911), 1587: (1.963, 3.92),
    2204: (1.999, 3.989), 3060: (1.999, 3.992), 4249: (1.963, 3.784),
    5900: (1.963, 3.786), 8193: (2.0, 3.857)}


def test_grid_classical_word_product_ratios():
    _, inputs = _bench_inputs(parse_degree_grid(JSON_DEGREES), (), 48, 1)
    config = MulConfig(classical_only=True)
    ratios = {}
    for f, g in inputs:
        counts = []
        for variant in (Variant.KS1, Variant.KS2, Variant.KS4):
            stats = MulStats()
            mod_mul(f, g, variant, stats=stats, config=config)
            counts.append(stats.limb_products)
        ks1, ks2, ks4 = counts
        ratios[len(f)] = (round(ks1 / ks2, 3), round(ks1 / ks4, 3))
    assert ratios == GRID_CLASSICAL_RATIOS


def test_bench_rejects_bad_grid(capsys):
    assert main(["bench", "--degrees", "nope"]) == 1
    assert "invalid degree grid" in capsys.readouterr().err
    assert main(["bench", "--degrees", "1:4:+1", "--variants", "auto"]) == 1
    assert main(["bench", "--degrees", "1:4:+1", "--reps", "0"]) == 1


def test_selftest_passes(capsys):
    assert main(["selftest", "--iters", "25"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert "overlap recovery round-trip and corruption: ok" in out


def test_selftest_catches_broken_recovery(monkeypatch):
    # The reconstruct suite must notice a recovery that is off by one.
    from kronmul import ksint
    original = ksint._overlap_unpack

    def off_by_one(*args):
        values = original(*args)
        values[-1] ^= 1
        return values

    monkeypatch.setattr(ksint, "_overlap_unpack", off_by_one)
    lines = []
    assert run_selftest(seed=0, iters=5, out=lines.append) == 1
    assert "reconstruct" in lines[-1]


def test_selftest_zero_iters(capsys):
    assert main(["selftest", "--iters", "0"]) == 0
    assert "0 cases executed" in capsys.readouterr().out


def test_selftest_mutation_guard_fails(capsys):
    assert main(["selftest", "--iters", "25", "--mutate"]) == 1
    assert "FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("threshold", ["1", "16", "40"])
def test_mutated_selftest_names_the_case_briefly(monkeypatch, capsys,
                                                 threshold):
    # The failing operands run to thousands of digits; the report gives
    # their sizes and the suite instead.
    monkeypatch.setenv("KRONMUL_KARATSUBA_THRESHOLD", threshold)
    assert main(["selftest", "--seed", "0", "--iters", "20",
                 "--mutate"]) == 1
    line = capsys.readouterr().out.splitlines()[-1]
    assert "FAILED" in line and "bignat-mul" in line
    assert len(line) < 200


def test_check_describes_cases_past_the_repr_limit():
    # repr of a 6,000-digit int raises ValueError under the default limit.
    with pytest.raises(_SelfTestFailure,
                       match=r"^x: failing case \(20001-bit int, "
                             r"list of 5000\)$"):
        _check(False, "x", (1 << 20000, [1] * 5000))


def test_digit_selftest_reaches_every_blit_path(monkeypatch):
    # The five cases unpack by plain shifts, by groups, by fields and twice
    # by the wide path; of the last two, only the one with 64-bit digits can
    # pack by fields, and does where its width is divisible by 4.
    cases, fields, wide, packed = [], [], [], []

    def recorder(name, log, key):
        blit = getattr(bignat, name)

        def recorded(*args):
            out = blit(*args)
            log.append(key(*args))
            return out
        monkeypatch.setattr(bignat, name, recorded)

    recorder("from_digits", cases, lambda digits, width: (width, len(digits)))
    recorder("_unpack_fields", fields, lambda value, width, count: count)
    recorder("_unpack_wide", wide, lambda value, width, count: count)
    recorder("_pack_fields", packed,
             lambda values, width: (width, len(values)))
    _selftest_digits(random.Random("digits-0"), 5, lambda *_: None)
    (_, shifts), (_, groups), (_, field), (w3, wide3), (w4, wide4) = cases
    assert shifts < bignat._GROUP_MIN_DIGITS <= groups
    assert groups < bignat._WIDE_MIN_DIGITS <= min(wide3, wide4)
    assert fields == [field]
    assert wide3 in wide and wide4 in wide
    assert (w3, wide3) not in packed
    assert ((w4, wide4) in packed) == (w4 % 4 == 0)


def test_bipoly_selftest_alone_catches_corrupted_multiply():
    # The bivariate suite's 48-bit cases multiply through mod_mul, so the
    # suite has teeth of its own.
    with _corrupted_multiply(), pytest.raises(_SelfTestFailure,
                                              match="bipoly"):
        _selftest_bipoly(random.Random(0), random.Random("bipoly-0"), 25,
                         MulConfig(), lambda *_: None)


@pytest.mark.parametrize("limbs, config", [
    (40, MulConfig()),                       # Karatsuba over native leaves
    (64, MulConfig(classical_only=True)),    # one block-loop leaf
    (16, MulConfig()),                       # one top-level native leaf
    (70, MulConfig(karatsuba_threshold=40)),  # Karatsuba over block-loop leaves
    (24, MulConfig()),                       # one all-leaf split
])
def test_corrupted_multiply_reaches_every_leaf_path(limbs, config):
    rng = random.Random(limbs)
    a = BigNat(rng.getrandbits(limbs * 64) | (1 << (limbs * 64 - 1)))
    b = BigNat(rng.getrandbits(limbs * 64) | (1 << (limbs * 64 - 1)))
    good = mul(a, b, config=config)
    assert good == int(a) * int(b)
    with _corrupted_multiply():
        assert mul(a, b, config=config) != good


@pytest.mark.parametrize("limbs, config", [
    (40, MulConfig()),
    (64, MulConfig(classical_only=True)),
    (16, MulConfig()),
    (70, MulConfig(karatsuba_threshold=40)),
    (24, MulConfig()),
])
def test_every_product_path_calls_native_mul(monkeypatch, limbs, config):
    # The leaf paths above all multiply through the one name that
    # _corrupted_multiply replaces.
    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return x * y

    monkeypatch.setattr(bignat, "_native_mul", counted)
    rng = random.Random(limbs)
    a = rng.getrandbits(limbs * 64) | (1 << (limbs * 64 - 1))
    b = rng.getrandbits(limbs * 64) | (1 << (limbs * 64 - 1))
    assert mul(a, b, config=config) == a * b
    assert calls > 0


def test_corrupted_multiply_replaces_only_native_mul():
    classical, native = bignat._classical_int, bignat._native_mul
    with _corrupted_multiply():
        assert bignat._classical_int is classical
        assert bignat._native_mul is not native
    assert bignat._native_mul is native


def test_selftest_runs_shared_rng_reproducibly(capsys):
    assert run_selftest(seed=123, iters=10, out=lambda *_: None) == 0


def test_selftest_draws_unequal_lengths(monkeypatch):
    # AUTO decides from both lengths, so the self-test must not pair only
    # equal ones.
    shapes = []

    def recorded(f, g, *args, **kwargs):
        shapes.append((len(f), len(g)))
        return mod_mul(f, g, *args, **kwargs)

    monkeypatch.setattr("kronmul.cli.mod_mul", recorded)
    assert run_selftest(seed=0, iters=25, out=lambda *_: None) == 0
    assert any(len_f != len_g for len_f, len_g in shapes)


def test_env_threshold_override(monkeypatch):
    monkeypatch.setenv("KRONMUL_KARATSUBA_THRESHOLD", "7")
    assert mul_config_from_env().karatsuba_threshold == 7
    monkeypatch.setenv("KRONMUL_KARATSUBA_THRESHOLD", "zero")
    with pytest.raises(CommandError):
        mul_config_from_env()
    monkeypatch.setenv("KRONMUL_KARATSUBA_THRESHOLD", "0")
    with pytest.raises(CommandError):
        mul_config_from_env()
    monkeypatch.delenv("KRONMUL_KARATSUBA_THRESHOLD")
    assert mul_config_from_env().karatsuba_threshold == 16


def test_selftest_with_tiny_threshold(monkeypatch, capsys):
    # forces deep Karatsuba recursion everywhere and must still agree
    monkeypatch.setenv("KRONMUL_KARATSUBA_THRESHOLD", "1")
    assert main(["selftest", "--iters", "10"]) == 0


def test_module_entry_point(poly_files, tmp_path):
    f, g = poly_files
    out = tmp_path / "h.txt"
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "kronmul", "mul", "--variant", "ks2",
         str(f), str(g), "-o", str(out)],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert read_poly_file(str(out)).coeffs == EXAMPLE_H
