"""Property tests: the self-test's suites, drawn by hypothesis.

``kronmul selftest`` runs each suite of ``kronmul._cases`` from a seeded
``random.Random``; here the same functions draw from ``st.randoms``, so a
failing case shrinks, and its report lists each draw, from which it can be
written down as a fixed regression test.  The multiplying suites run
under both of ``CONFIGS``, as the self-test does: classical-only and
Karatsuba down to 16 limbs; and here also with the Karatsuba threshold, a
private constant, patched to 1 and to 40.  Each suite counts its products
once, so that the counted recursion runs, and multiplies once uncounted.  The
digit suite's property test, which also checks that each tier runs its blit
path, is in ``test_blit_properties.py``.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kronmul import _cases, bignat, ksint  # noqa: E402
from kronmul._cases import CONFIGS, MULTIPLYING  # noqa: E402
from kronmul.bignat import MulConfig  # noqa: E402
from kronmul.cli import _corrupted_multiply  # noqa: E402


# The self-test's configs, and its Karatsuba config with the recursion run
# down to 1-limb operands (its deepest) or stopped at 40 limbs: (config,
# threshold to patch in, or None).
RUNS = {"classical": (CONFIGS["classical"], None),
        "thr1": (CONFIGS["thr16"], 1),
        "thr16": (CONFIGS["thr16"], None),
        "thr40": (CONFIGS["thr16"], 40)}


def _patched(monkeypatch, run):
    config, threshold = run
    if threshold is not None:
        monkeypatch.setattr(bignat, "_KARATSUBA_THRESHOLD", threshold)
    return config


def _holds(case, config):
    @settings(derandomize=True, max_examples=40, database=None,
              deadline=None)
    @given(st.randoms(note_method_calls=True, use_true_random=False))
    def check(rng):
        case(rng, config)

    check()


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
@pytest.mark.parametrize("suite", MULTIPLYING)
def test_multiplying_suite_holds(monkeypatch, suite, run):
    _holds(_cases.SUITES[suite], _patched(monkeypatch, run))


@pytest.mark.parametrize("suite", ["reconstruct", "pack"])
def test_suite_holds(suite):
    _holds(_cases.SUITES[suite], MulConfig())


@pytest.mark.parametrize("run", RUNS.values(), ids=RUNS)
@pytest.mark.parametrize("suite", MULTIPLYING)
def test_suite_catches_corrupted_multiply(monkeypatch, suite, run):
    # Each multiplying suite has teeth of its own under every run, on the
    # self-test's own draws for seed 0.
    config = _patched(monkeypatch, run)
    rng = random.Random(f"{suite}-0")
    with _corrupted_multiply(), pytest.raises(_cases.SelfTestFailure,
                                              match=f"^{suite}-"):
        for _ in range(25):
            _cases.SUITES[suite](rng, config)


def test_thr1_ksint_suite_splits(monkeypatch):
    # An uncounted product never runs the Karatsuba recursion, so only the
    # suite's counted check reaches it; at threshold 1 it must.
    splits = 0
    karatsuba = bignat._karatsuba_int

    def counted(x, y, stats, threshold):
        nonlocal splits
        if min(x.bit_length(), y.bit_length()) > 64 * threshold:
            splits += 1
        return karatsuba(x, y, stats, threshold)

    monkeypatch.setattr(bignat, "_karatsuba_int", counted)
    config = _patched(monkeypatch, RUNS["thr1"])
    rng = random.Random("ksint-0")
    for _ in range(10):
        _cases.SUITES["ksint"](rng, config)
    assert splits > 0


def test_bignat_suite_reaches_the_toom_split(monkeypatch):
    # Uncounted products of the suite's large draws split by Toom-4: the
    # self-test's seeded draws two levels deep in some, and hypothesis's
    # draws of those pairs alone at least one level.
    split, depth, depths = bignat._toom4_int, 0, []

    def recorded(x, y, k):
        nonlocal depth
        depth += 1
        depths.append(depth)
        try:
            return split(x, y, k)
        finally:
            depth -= 1

    monkeypatch.setattr(bignat, "_toom4_int", recorded)
    rng = random.Random("bignat-0")
    for _ in range(100):
        _cases.SUITES["bignat"](rng, MulConfig())
    assert max(depths) >= 2
    depths.clear()
    _holds(_cases.bignat_toom_case, MulConfig())
    assert depths


def test_modpoly_suite_reaches_the_packed_reduction(monkeypatch):
    # The self-test's seeded draws run the packed reduction at one and at
    # two phases, below width 64, and at a power-of-two modulus, and ks2's
    # and ks4's packed recovery, always given a modulus here, on both sides
    # of its range check: a bound below 2*width bits and one at it.
    calls, recoveries = [], []
    unpack_mod, overlap_unpack = ksint._unpack_mod, ksint._overlap_unpack

    def recorded(value, width, count, n):
        calls.append((width, n))
        return unpack_mod(value, width, count, n)

    def recovery(fwd, rev, width, count, bound_bits):
        recoveries.append(bound_bits < 2 * width)
        return overlap_unpack(fwd, rev, width, count, bound_bits)

    monkeypatch.setattr(ksint, "_unpack_mod", recorded)
    monkeypatch.setattr(ksint, "_overlap_unpack", recovery)
    rng = random.Random("modpoly-0")
    for _ in range(20):
        _cases.SUITES["modpoly"](rng, MulConfig())
    widths = {width for width, _ in calls}
    assert any(w >= 64 and w % 4 == 0 for w in widths)
    assert any(w >= 64 and w % 4 == 2 for w in widths)
    assert any(w < 32 for w in widths)
    assert any(n & (n - 1) == 0 for _, n in calls)
    assert set(recoveries) == {True, False}
