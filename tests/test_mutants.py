"""Committed mutants: one deliberate fault per row, each of which a named
check must catch.

A row copies ``src/kronmul`` into a temporary directory, replaces one exact
snippet of one file there (it must occur exactly once, so a refactor that
moves the code fails the row until the table follows it), and runs the
row's catcher on the copy in a subprocess.  The catcher is either
``selftest``, which must exit 1 with a ``selftest FAILED`` line, or one
pytest node under ``tests/``, which must fail.  A mutant that leaves every
output right, such as a gate that only moves work between two correct
paths, needs a test that pins the work itself.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kronmul"

# id: (file under src/kronmul, snippet, replacement, catcher)
MUTANTS = {
    # Toom-3's interpolation: the one exact division by 3 done as a halving,
    # and the 2*r(inf) term of the cubic coefficient dropped.
    "toom3-third-as-half": ("bignat.py", "r3 = (rm2 - r1) // 3",
                            "r3 = (rm2 - r1) >> 1", "selftest"),
    "toom3-no-rinf-term": ("bignat.py", " + (rinf << 1)", "", "selftest"),
    # Splits lopsided products and not balanced ones: every output stays
    # right, only the count of native products shows it.
    "toom3-skew-gate-inverted": (
        "bignat.py",
        "or xb >= _TOOM_MAX_SKEW * yb or yb >= _TOOM_MAX_SKEW * xb",
        "or (xb < _TOOM_MAX_SKEW * yb and yb < _TOOM_MAX_SKEW * xb)",
        "tests/test_bignat.py::test_uncounted_toom3_native_products"),
    # Toom-4's interpolation: the exact division by 9 done as one by 8.
    "toom4-ninth-as-eighth": ("bignat.py", "(w5 - (w3 << 3)) // 9",
                              "(w5 - (w3 << 3)) // 8", "selftest"),
    # Splits the products just outside Toom-4's skew gate by Toom-4 and
    # those inside it by Toom-3: only the count of native products shows it.
    "toom4-skew-gate-inverted": (
        "bignat.py",
        "and xb < _TOOM4_MAX_SKEW * yb and yb < _TOOM4_MAX_SKEW * xb",
        "and not (xb < _TOOM4_MAX_SKEW * yb and yb < _TOOM4_MAX_SKEW * xb)",
        "tests/test_bignat.py::test_uncounted_toom3_native_products"),
    # The counted Karatsuba splits at half the longer operand's limbs
    # rounded down, and makes a leaf only when both operands are at most
    # the threshold: outputs stay right, word products move.
    "karatsuba-split-floor": (
        "bignat.py", "shift = (max(xl, yl) + 1) // 2 * LIMB_BITS",
        "shift = max(xl, yl) // 2 * LIMB_BITS",
        "tests/test_bignat.py::test_mul_word_products_pinned"),
    "karatsuba-leaf-and": (
        "bignat.py", "if xl <= threshold or yl <= threshold:",
        "if xl <= threshold and yl <= threshold:",
        "tests/test_bignat.py::test_mul_word_products_pinned"),
    # The overlap recovery accepts digit streams that disagree.
    "overlap-unpack-no-remainder-check": (
        "ksint.py", "    if rem:\n        raise ReconstructionError(\"digit "
        "streams disagree\")\n", "", "selftest"),
    # The overlap's guard bits from half the shorter length, one short
    # at some lengths.
    "derive-params-e-from-half": (
        "ksint.py", "e = (min(len_f, len_g) - 1).bit_length()",
        "e = (min(len_f, len_g) // 2).bit_length()", "selftest"),
    # ks3's odd-slot mask stops doubling one step early, so it misses the
    # top odd slots.  (A mask short by exactly one slot is an equivalent
    # mutant: it spans a power of two of slots, so the slot it drops is
    # even.)
    "odd-slot-mask-short": ("ksint.py", "while slots < count:",
                            "while 2 * slots < count:", "selftest"),
    # Truncates an odd half-sum, as a corrupted product makes, instead of
    # rejecting it; valid products are always exact, so no output shows it.
    "shr-exact-no-parity": (
        "ksint.py", "if v < 0 or v & ((1 << k) - 1):", "if v < 0:",
        "tests/test_ksint.py::test_shr_exact_rejects_inexact_half_sums"),
    # ks4's stray factor 2**n taken off the wrong reversed half-sum.
    "ks4-reversed-shift-flipped": ("ksint.py", "n * (1 - k % 2)",
                                   "n * (k % 2)", "selftest"),
    # The strided-field unpack reads phase r at phase r - 1's offset.
    "unpack-fields-phase-r-1": ("bignat.py", "(value >> r * width) & mask",
                                "(value >> (r - 1) * width) & mask",
                                "selftest"),
}


def _run_catcher(package_parent, catcher):
    # The catcher on the copy of the package under package_parent.
    env = dict(os.environ, PYTHONPATH=str(package_parent),
               PYTHONDONTWRITEBYTECODE="1")
    if catcher == "selftest":
        cmd = [sys.executable, "-m", "kronmul", "selftest", "--iters", "20"]
    else:
        # The ini's pythonpath would put the clean src/ first.  Hypothesis's
        # plugin would add about a second of start-up to each run, and no
        # catcher needs it.
        cmd = [sys.executable, "-m", "pytest", "-q", "-x",
               "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
               "-o", f"pythonpath={package_parent}", str(ROOT / catcher)]
    return subprocess.run(cmd, cwd=package_parent, env=env,
                          capture_output=True, text=True, timeout=300)


def _copy_package(tmp_path):
    shutil.copytree(PACKAGE, tmp_path / "kronmul",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "kronmul"


@pytest.mark.parametrize("path, snippet, replacement, catcher",
                         MUTANTS.values(), ids=MUTANTS)
def test_mutant_is_caught(tmp_path, path, snippet, replacement, catcher):
    target = _copy_package(tmp_path) / path
    text = target.read_text(encoding="ascii")
    assert text.count(snippet) == 1, f"{snippet!r} must occur once in {path}"
    target.write_text(text.replace(snippet, replacement), encoding="ascii")
    done = _run_catcher(tmp_path, catcher)
    assert done.returncode == 1, done.stdout[-2000:] + done.stderr[-2000:]
    if catcher == "selftest":
        assert done.stdout.splitlines()[-1].startswith("selftest FAILED")


def test_catchers_pass_on_the_clean_copy(tmp_path):
    # Otherwise a catcher that fails for another reason would pass every
    # row.
    _copy_package(tmp_path)
    for catcher in sorted({row[3] for row in MUTANTS.values()}):
        done = _run_catcher(tmp_path, catcher)
        assert done.returncode == 0, (catcher, done.stdout[-2000:])
