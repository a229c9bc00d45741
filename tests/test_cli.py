import json
import os
import random
import subprocess
import sys

import pytest

from kronmul import _cases, bignat, cli
from kronmul.bignat import MulConfig, MulStats, mul
from kronmul.cli import (JSON_DEGREES, CommandError, _bench_inputs,
                         _corrupted_multiply, main, parse_degree_grid,
                         read_poly_file, run_selftest, write_poly_file)
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
    # Plain ASCII digits only: int() would read "1_0" as 10 and "+5" as 5.
    for token in ("1_0", "+5", "-5"):
        bad.write_text(f"97\n2\n{token} 1\n")
        with pytest.raises(CommandError) as exc:
            read_poly_file(str(bad))
        assert str(exc.value) == (f"{bad}: '{token}' is not a plain decimal "
                                  f"number")
    with pytest.raises(CommandError):
        read_poly_file(str(tmp_path / "missing.txt"))


@pytest.mark.parametrize("content", [b"97\n1\n\xff\n",
                                     "97\n1\n\uff15\n".encode("utf-8")])
def test_mul_rejects_a_non_ascii_file(poly_files, tmp_path, capsys, content):
    # A stray byte or a full-width digit is a diagnostic naming the file,
    # not a UnicodeDecodeError traceback.
    f, _ = poly_files
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    assert main(["mul", str(f), str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"kronmul: {bad}: byte 5 is not ASCII"]


@pytest.mark.parametrize("variant", ["ks1", "ks2", "ks3", "ks4", "auto"])
def test_mul_command(poly_files, tmp_path, variant):
    f, g = poly_files
    out = tmp_path / "h.txt"
    status = main(["mul", "--modulus", "1000003", "--variant", variant,
                   str(f), str(g), "-o", str(out)])
    assert status == 0
    assert read_poly_file(str(out)).coeffs == EXAMPLE_H


@pytest.mark.parametrize("variant", ["KS3", "ks5"])
def test_mul_rejects_an_unknown_variant(poly_files, capsys, variant):
    # argparse's choices are the lowercase names, checked before any file
    # is read.
    f, g = poly_files
    with pytest.raises(SystemExit) as exc:
        main(["mul", "--variant", variant, str(f), str(g)])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


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
    assert grid["timed_multiply"] == ("cpython-int, toom4 from 26000 bits "
                                      "at skew below 2")
    cells = [(5, 5), (9, 9), (9, 3), (3, 9)]
    assert [(c["len_f"], c["len_g"]) for c in grid["cells"]] == cells
    modulus, inputs = _bench_inputs([4, 8], ((9, 3), (3, 9)), 48, 3)
    assert grid["seed"] == 3 and grid["modulus"] == modulus
    configs = {"word_products": MulConfig(),
               "word_products_classical": MulConfig(classical_only=True)}
    for cell, (f, g) in zip(grid["cells"], inputs):
        assert cell["auto"] == choose_variant(len(f), len(g)).value
        base = cell["variants"]["ks1"]["wall_ns_median"]
        assert cell["variants"]["ks1"]["ratio_vs_ks1"] == 1.0
        for variant in ("ks1", "ks2", "ks3", "ks4"):
            row = cell["variants"][variant]
            assert row["wall_ns_median"] > 0
            assert row["ratio_vs_ks1"] == round(row["wall_ns_median"] / base,
                                                4)
            for key, config in configs.items():
                stats = MulStats()
                mod_mul(f, g, Variant(variant), stats=stats, config=config)
                assert row[key] == stats.limb_products, (cell, variant, key)


def test_committed_bench_grid_counts_match_the_code():
    # The committed grid's word products are the counts this code takes on
    # the file's own seeded inputs; cells longer than 1024 are skipped for
    # time.
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "BENCH_native.json")
    with open(path, encoding="ascii") as fh:
        grid = json.load(fh)
    # One cell's draws follow the previous one's, so the equal-length cells
    # redraw as shapes.
    shapes = [(c["len_f"], c["len_g"]) for c in grid["cells"]]
    modulus, inputs = _bench_inputs([], shapes, grid["modulus_bits"],
                                    grid["seed"])
    assert modulus == grid["modulus"]
    configs = {"word_products": MulConfig(),
               "word_products_classical": MulConfig(classical_only=True)}
    checked = 0
    for cell, (f, g) in zip(grid["cells"], inputs):
        if max(len(f), len(g)) > 1024:
            continue
        for variant, row in cell["variants"].items():
            for key, config in configs.items():
                stats = MulStats()
                mod_mul(f, g, Variant(variant), stats=stats, config=config)
                assert row[key] == stats.limb_products, (cell["len_f"],
                                                         cell["len_g"],
                                                         variant, key)
        checked += 1
    assert checked >= 30


def test_bench_prints_the_committed_schema(capsys, monkeypatch):
    # Without --json the document goes to stdout, with the key sets of the
    # committed grid at the top level, per cell and per variant row.
    monkeypatch.setattr(cli, "JSON_SHAPES", ((3, 2),))
    assert main(["bench", "--degrees", "4:4:+1", "--reps", "1"]) == 0
    grid = json.loads(capsys.readouterr().out)
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "BENCH_native.json")
    with open(path, encoding="ascii") as fh:
        committed = json.load(fh)
    assert set(grid) == set(committed)
    for cell in grid["cells"]:
        assert set(cell) == set(committed["cells"][0])
        assert set(cell["variants"]) == set(committed["cells"][0]["variants"])
        for row in cell["variants"].values():
            assert set(row) == set(committed["cells"][0]["variants"]["ks1"])


def test_bench_json_rejects_csv_options(tmp_path, capsys):
    # One output, the JSON grid: the CSV mode's options are gone.
    out = str(tmp_path / "bench.json")
    for extra in (["--count-ops"], ["--variants", "ks1"], ["-o", out]):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--json", out, "--degrees", "4:4:+1"] + extra)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
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
    assert main(["bench", "--degrees", "1:4:+1", "--reps", "0"]) == 1


def test_selftest_passes(capsys):
    assert main(["selftest", "--iters", "25"]) == 0
    out = capsys.readouterr().out
    assert "selftest passed" in out
    assert "reconstruct: ok (25 cases)" in out


def test_selftest_catches_broken_recovery(monkeypatch):
    # The reconstruct suite must notice a recovery that is off by one.
    from kronmul import ksint
    original = ksint._overlap_unpack

    def off_by_one(*args):
        even, odd = original(*args)
        return even ^ 1, odd

    monkeypatch.setattr(ksint, "_overlap_unpack", off_by_one)
    lines = []
    assert run_selftest(seed=0, iters=5, out=lines.append) == 1
    assert "reconstruct" in lines[-1]


def test_selftest_reports_a_raised_library_error(monkeypatch):
    # A library error on a valid case fails the run with one line naming
    # the suite and the error, not a traceback.
    from kronmul.ksint import ReconstructionError

    def raising(rng, config):
        raise ReconstructionError("streams disagree")

    monkeypatch.setitem(_cases.SUITES, "reconstruct", raising)
    lines = []
    assert run_selftest(seed=7, iters=3, out=lines.append) == 1
    assert lines[-1] == ("selftest FAILED (seed=7): reconstruct: "
                         "ReconstructionError: streams disagree")


def test_selftest_into_a_closed_pipe_exits_quietly():
    # As in ``kronmul selftest | head``: the reader is gone before the
    # first write reaches it.  The run ends with status 1 and no traceback.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen([sys.executable, "-m", "kronmul", "selftest",
                             "--iters", "2"], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert err == b""


def test_selftest_zero_iters(capsys):
    assert main(["selftest", "--iters", "0"]) == 0
    assert "0 cases executed" in capsys.readouterr().out


def test_selftest_mutation_guard_fails(capsys):
    assert main(["selftest", "--iters", "25", "--mutate"]) == 1
    assert "FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("threshold", [None, 1, 16, 40])
def test_mutated_selftest_names_the_case_briefly(monkeypatch, capsys,
                                                 threshold):
    # The failing operands run to thousands of digits; the report gives
    # their sizes and the suite instead.  None is the self-test's own
    # sweep, which fails under its first config; each Karatsuba threshold
    # runs alone, set through the private constant, so every recursion
    # depth's mutated run is reported.
    if threshold is not None:
        monkeypatch.setattr(_cases, "CONFIGS",
                            {f"thr{threshold}": MulConfig()})
        monkeypatch.setattr(bignat, "_KARATSUBA_THRESHOLD", threshold)
    assert main(["selftest", "--seed", "0", "--iters", "20",
                 "--mutate"]) == 1
    line = capsys.readouterr().out.splitlines()[-1]
    assert "FAILED" in line and "bignat-mul" in line
    assert len(line) < 200


def test_check_describes_cases_past_the_repr_limit():
    # repr of a 6,000-digit int raises ValueError under the default limit.
    with pytest.raises(_cases.SelfTestFailure,
                       match=r"^x: failing case \(20001-bit int, "
                             r"list of 5000\)$"):
        _cases.check(False, "x", (1 << 20000, [1] * 5000))


@pytest.mark.parametrize("limbs, config", [
    (40, MulConfig()),                     # Karatsuba, two levels deep
    (64, MulConfig(classical_only=True)),  # one classical leaf
    (16, MulConfig()),                     # one top-level leaf
    (70, MulConfig()),                     # three levels, odd halves
    (24, MulConfig()),                     # one split, three leaves
])
def test_corrupted_multiply_reaches_every_leaf_path(limbs, config):
    # Counted, so that the row's leaf path runs: an uncounted product is
    # one native product.
    rng = random.Random(limbs)
    a = rng.getrandbits(limbs * 64) | (1 << (limbs * 64 - 1))
    b = rng.getrandbits(limbs * 64) | (1 << (limbs * 64 - 1))
    good = mul(a, b, MulStats(), config)
    assert good == a * b
    with _corrupted_multiply():
        assert mul(a, b, MulStats(), config) != good


@pytest.mark.parametrize("limbs, config", [
    (40, MulConfig()),
    (64, MulConfig(classical_only=True)),
    (16, MulConfig()),
    (70, MulConfig()),
    (24, MulConfig()),
])
def test_every_product_path_calls_native_mul(monkeypatch, limbs, config):
    # The leaf paths above, counted, all multiply through the one name that
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
    assert mul(a, b, MulStats(), config) == a * b
    assert calls > 0


def test_corrupted_multiply_replaces_only_native_mul():
    classical, native = bignat._classical_int, bignat._native_mul
    with _corrupted_multiply():
        assert bignat._classical_int is classical
        assert bignat._native_mul is not native
    assert bignat._native_mul is native


def test_selftest_runs_shared_rng_reproducibly(monkeypatch):
    # One seed prints the same lines and draws the same cases, recorded as
    # each suite returns them; another seed draws other cases.
    drawn = []
    for suite, case in list(_cases.SUITES.items()):
        monkeypatch.setitem(_cases.SUITES, suite,
                            lambda rng, config, case=case:
                            drawn.append(case(rng, config)))

    def run(seed):
        lines = []
        drawn.clear()
        assert run_selftest(seed=seed, iters=10, out=lines.append) == 0
        return lines, list(drawn)

    lines, cases = run(123)
    # The multiplying suites run under every config, the others once.
    multiplying = len(_cases.MULTIPLYING)
    assert len(cases) == 10 * (multiplying * len(_cases.CONFIGS)
                               + len(_cases.SUITES) - multiplying)
    assert run(123) == (lines, cases)
    other = run(124)[1]
    assert all(cases[i:i + 10] != other[i:i + 10]
               for i in range(0, len(cases), 10))


def test_cli_import_loads_no_case_code():
    # Importing the CLI (as perfbench's tests do) loads neither hypothesis,
    # a test-only dependency, nor the case module, which the self-test
    # loads.
    code = ("import sys, kronmul, kronmul.cli as cli\n"
            "names = ('hypothesis', 'kronmul._cases')\n"
            "print([name in sys.modules for name in names])\n"
            "cli.run_selftest(seed=0, iters=1, out=lambda line: None)\n"
            "print([name in sys.modules for name in names])")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[False, False]", "[False, True]"]


def test_selftest_draws_unequal_lengths(monkeypatch):
    # AUTO decides from both lengths, so the self-test must not pair only
    # equal ones.
    shapes = []

    def recorded(f, g, *args, **kwargs):
        shapes.append((len(f), len(g)))
        return mod_mul(f, g, *args, **kwargs)

    monkeypatch.setattr(_cases, "mod_mul", recorded)
    assert run_selftest(seed=0, iters=25, out=lambda *_: None) == 0
    assert any(len_f != len_g for len_f, len_g in shapes)


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
