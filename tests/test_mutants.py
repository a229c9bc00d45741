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
    # Toom-4's interpolation: the exact divisions by 9 and 15 done as ones
    # by 8 and 16.
    "toom4-ninth-as-eighth": ("bignat.py", "(w5 - (w3 << 3)) // 9",
                              "(w5 - (w3 << 3)) // 8", "selftest"),
    "toom4-fifteenth-as-sixteenth": ("bignat.py", "w1 // 15", "w1 // 16",
                                     "selftest"),
    # Leaves products of exactly the cutoff's bits unsplit, and in the
    # other mutant splits lopsided products and not balanced ones: every
    # output stays right, only the count of native products shows it.
    "toom-cutoff-inclusive": (
        "bignat.py", "if (xb < _TOOM_MIN_BITS or yb < _TOOM_MIN_BITS",
        "if (xb <= _TOOM_MIN_BITS or yb <= _TOOM_MIN_BITS",
        "tests/test_bignat.py::test_uncounted_toom_native_products"),
    "toom-skew-gate-inverted": (
        "bignat.py",
        "or xb >= _TOOM_MAX_SKEW * yb or yb >= _TOOM_MAX_SKEW * xb",
        "or (xb < _TOOM_MAX_SKEW * yb and yb < _TOOM_MAX_SKEW * xb)",
        "tests/test_bignat.py::test_uncounted_toom_native_products"),
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
    # The counted Karatsuba's leaf size one limb larger.
    "karatsuba-threshold-17": (
        "bignat.py", "_KARATSUBA_THRESHOLD = 16", "_KARATSUBA_THRESHOLD = 17",
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
    # ks3's odd-slot mask built one doubling short, so it misses the top
    # odd slots.
    "odd-slot-mask-short": ("pack.py", "<< width, 2 * width, count)",
                            "<< width, 2 * width, count // 2)", "selftest"),
    # Truncates an odd half-sum, as a corrupted product makes, instead of
    # rejecting it; valid products are always exact, so no output shows it.
    "shr-exact-no-parity": (
        "ksint.py", "if v < 0 or v & ((1 << k) - 1):", "if v < 0:",
        "tests/test_ksint.py::test_shr_exact_rejects_inexact_half_sums"),
    # ks4 leaves the reversed product's even and odd parts in place at even
    # output lengths, where they trade places.
    "ks4-reversed-parts-unswapped": ("ksint.py", "if k % 2 == 0:",
                                     "if k % 2:", "selftest"),
    # The one-blit evaluation with its odd-slot mask one bit below the
    # bound, where slots overlap: only ks4 evaluates there, at small b.
    # (">" for ">=" is an equivalent mutant: at n = b both branches are
    # right.)
    "plus-minus-mask-below-bound": (
        "ksint.py", "if n >= v.width_bound_bits:",
        "if n >= v.width_bound_bits - 1:", "selftest"),
    # pack's even/odd blit, shared by the packs below the bound, the
    # negated packs and ks4's evaluation, with the odd part one slot too
    # high.
    "even-odd-blit-odd-shift-doubled": (
        "pack.py", "_pack_ints(coeffs[1::2], 2 * width_bits) << width_bits",
        "_pack_ints(coeffs[1::2], 2 * width_bits) << 2 * width_bits",
        "selftest"),
    # The strided-field unpack reads phase r at phase r - 1's offset.
    "unpack-fields-phase-r-1": ("pack.py", "(value >> r * width) & mask",
                                "(value >> (r - 1) * width) & mask",
                                "selftest"),
    # The byte-string unpack at an odd width keeps a pair's top bit in its
    # odd digit.
    "unpack-wide-odd-shift-short": (
        "pack.py", "repeat(width)", "repeat(width - 1)", "selftest"),
    # The overlap recovery rejects a quotient of exactly width*count bits,
    # which the all-maximal values at its limit reach.
    "overlap-unpack-q-bound-off-by-one": (
        "ksint.py", "q.bit_length() > width * count",
        "q.bit_length() >= width * count", "selftest"),
    # The overlap recovery's folded output bound 2**t, ks2's and ks4's only
    # output check: its mask from bit t + 1, which lets a value of exactly
    # the bound through; dropped, only X*(X-1) is left, which ks2 and ks4
    # reach past 2**width_full; its mask without each field's top bit, so
    # at t = 2w - 1 nothing is checked; and without the high-half test,
    # which from t = 2w on is the check against X*(X-1).  Valid products
    # never reach any of them, so only corrupted streams show it.  (Dropping
    # the sign test `s < 0` is an equivalent mutant: a negative S's lowest
    # borrowing field has a high half of X-1, which the field check reads
    # in two's complement; test_overlap_unpack_rejects_borrowing_fields
    # pins the borrows.)
    "overlap-unpack-bound-off-by-one": (
        "pack.py", "- (1 << bound_bits))", "- (2 << bound_bits))",
        "tests/test_ksint.py::test_overlap_unpack_caller_bound"),
    "overlap-unpack-bound-ignored": (
        "ksint.py", "t = min(bound_bits, 2 * width)", "t = 2 * width",
        "tests/test_ksint.py::"
        "test_ks2_ks4_reject_products_past_the_output_bound"),
    "overlap-masks-top-bit-missing": (
        "pack.py", "ones * ((1 << 2 * width) - (1 << bound_bits))",
        "ones * ((1 << 2 * width - 1) - (1 << bound_bits))",
        "tests/test_ksint.py::test_overlap_unpack_caller_bound"),
    "overlap-unpack-high-half-check-dropped": (
        "ksint.py", "else (s >> width & low) + check >> width & check)",
        "else 0)", "tests/test_ksint.py::test_overlap_unpack_caller_bound"),
    # The overlap recovery's masks one field short at even counts, where
    # the last odd coefficient reads R~'s top digit from one field past
    # the even coefficients'.
    "overlap-masks-one-field-short": (
        "ksint.py", "fields = count // 2 + 1", "fields = (count + 1) // 2",
        "selftest"),
    # The mask store serves an entry shorter than the request, so a longer
    # vector at a key seen before reads a mask that is too short.
    "mask-store-serves-shorter": (
        "pack.py", "if entry is not None and entry[0] >= fields:",
        "if entry is not None:",
        "tests/test_bignat.py::test_phase_mask_cache"),
    # ks3's plan asks for its check at even e too: every output stays
    # right, only the check count moves.
    "ks3-check-guard-inclusive": (
        "ksint.py", "2 * p.width_half > p.width_full)",
        "2 * p.width_half >= p.width_full)",
        "tests/test_modpoly.py::test_one_check_per_direction"),
    # ks3 without its check at odd e, where the unpack width is one bit
    # past the output bound: only corrupted products show it.
    "ks3-odd-e-check-dropped": (
        "ksint.py", "2 * p.width_half > p.width_full)", "False)",
        "tests/test_ksint.py::test_ks3_rejects_digits_past_the_output_bound"),
    # ks3 at odd e with its check skipped; and the output reader weaving
    # its two parts into each other's places.
    "read-check-skipped": (
        "ksint.py", "checked = CoeffVec(_read(parts, 2 * n, k, None), full)",
        "checked = _validated(tuple(_read(parts, 2 * n, k, None)), full)",
        "tests/test_ksint.py::"
        "test_reader_checks_odd_e_digits_before_reducing"),
    "read-weave-rotated": (
        "ksint.py", "out[0::2] = _unpack_mod(even, width, k, modulus)\n"
        "        out[1::2] = _unpack_mod(odd, width, count - k, modulus)\n",
        "out[1::2] = _unpack_mod(even, width, k, modulus)\n"
        "        out[0::2] = _unpack_mod(odd, width, count - k, modulus)\n",
        "selftest"),
    # ks4 at 1x1 through its general path: the output stays right, but
    # it makes four products where ks1's one does.
    "ks4-one-coefficient-general-path": (
        "ksint.py", "if k == 1:", "if False:",
        "tests/test_ksint.py::test_variant_word_products_pinned"),
    # The packed reduction mod n: without its conditional subtraction,
    # which Barrett's estimate one short needs; with the estimate shifted
    # one bit short; with the subtraction's flag read one bit low; and, at
    # a width of 2 (mod 4), the pair read's second phase of fields left
    # half a byte off the bytes it is read from.
    "unpack-mod-correction-dropped": (
        "pack.py", "    even -= (even + fix >> b & mask) * n\n"
        "    odd -= (odd + fix >> b & mask) * n\n", "",
        "tests/test_bignat.py::test_unpack_mod_matches_reduced_digits"),
    "unpack-mod-barrett-shift-short": (
        "pack.py", "even -= (even * m >> width & mask) * n",
        "even -= (even * m >> width - 1 & mask) * n",
        "tests/test_bignat.py::test_unpack_mod_matches_reduced_digits"),
    "unpack-mod-flag-bit-low": (
        "pack.py", "even -= (even + fix >> b & mask) * n",
        "even -= (even + fix >> b - 1 & mask) * n",
        "tests/test_bignat.py::test_unpack_mod_matches_reduced_digits"),
    "unpack-mod-second-phase-unshifted": (
        "pack.py", "c += (c & odd_fields) * 15", "c += 0",
        "tests/test_bignat.py::test_unpack_mod_matches_reduced_digits"),
    # The fix taken from the store whole, not cut to the read's own field
    # count: outputs stay right, but each read adds every field the store
    # holds.
    "unpack-mod-fix-unshifted": (
        "pack.py", "    fix >>= (slots - fields) * stride\n", "",
        "tests/test_bignat.py::test_unpack_mod_matches_reduced_digits"),
    # ks3 reduces packed at odd e and checks at even e: every valid output
    # stays right, only the count of packed reductions shows it.
    "ks3-packed-mod-parity-inverted": (
        "ksint.py", "2 * p.width_half > p.width_full)",
        "2 * p.width_half == p.width_full)",
        "tests/test_modpoly.py::test_packed_reduction_calls"),
    # The bivariate sign split's odd half as (a+b)/2 + b.
    "bipoly-odd-half-as-sum": (
        "bipoly.py", "list(map(ring.sub, even[shift:], neg[shift:]))",
        "list(map(ring.add, even[shift:], neg[shift:]))", "selftest"),
    # Chunks that exactly fill their spacing evaluated as overlapping: every
    # output stays right, only the ring calls show it.
    "bipoly-no-overlap-gate-exclusive": (
        "bipoly.py", "if spacing >= len(chunks[0]):",
        "if spacing > len(chunks[0]):",
        "tests/test_bipoly.py::test_ring_calls_per_reduction"),
    # The bivariate overlap recovery peels one entry short.
    "bipoly-overlap-recover-short": ("bipoly.py", "for t in range(over):",
                                     "for t in range(over - 1):",
                                     "selftest"),
    # The coefficient bound one bit short unless n is a power of two.
    "mod-mul-coeff-bits-short": (
        "modpoly.py", "max(1, (n - 1).bit_length())",
        "max(1, n.bit_length() - 1)", "selftest"),
    # The packs reject a chunk width of exactly half an even bound.
    "check-width-rejects-half": (
        "pack.py", "2 * width_bits < v.width_bound_bits",
        "2 * width_bits <= v.width_bound_bits", "selftest"),
    # AUTO's ks3 band one length longer: every output stays right, only the
    # pick moves.
    "ks3-band-one-longer": (
        "modpoly.py", "_KS3_MAX_LENGTH = 2800", "_KS3_MAX_LENGTH = 2801",
        "tests/test_modpoly.py::test_choose_variant_table"),
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
