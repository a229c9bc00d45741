"""Property tests: the self-test's suites, drawn by hypothesis.

``kronmul selftest`` runs each suite of ``kronmul._cases`` from a seeded
``random.Random``; here the same functions draw from ``st.randoms``, so a
failing case shrinks, and its report lists each draw, from which it can be
written down as a fixed regression test.  The multiplying suites run
under each of ``CONFIGS``, as the self-test does: classical-only and at
Karatsuba thresholds 1, 16 and 40; each suite counts its products once, so
that the configured recursion runs, and multiplies once uncounted.  The
digit suite's property test, which also checks that each tier runs its blit
path, is in ``test_blit_properties.py``.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kronmul import _cases, bignat  # noqa: E402
from kronmul._cases import CONFIGS, MULTIPLYING  # noqa: E402
from kronmul.bignat import MulConfig  # noqa: E402
from kronmul.cli import _corrupted_multiply  # noqa: E402


def _holds(case, config):
    @settings(derandomize=True, max_examples=40, database=None,
              deadline=None)
    @given(st.randoms(note_method_calls=True, use_true_random=False))
    def check(rng):
        case(rng, config)

    check()


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
@pytest.mark.parametrize("suite", MULTIPLYING)
def test_multiplying_suite_holds(suite, config):
    _holds(_cases.SUITES[suite], config)


@pytest.mark.parametrize("suite", ["reconstruct", "pack"])
def test_suite_holds(suite):
    _holds(_cases.SUITES[suite], MulConfig())


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
@pytest.mark.parametrize("suite", MULTIPLYING)
def test_suite_catches_corrupted_multiply(suite, config):
    # Each multiplying suite has teeth of its own under every config, on
    # the self-test's own draws for seed 0.
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
    rng = random.Random("ksint-0")
    for _ in range(10):
        _cases.SUITES["ksint"](rng, CONFIGS["thr1"])
    assert splits > 0


def test_bignat_suite_reaches_the_toom_split(monkeypatch):
    # Uncounted products of the suite's large draws split by Toom-3 and
    # Toom-4: the self-test's seeded draws two levels deep in some, and
    # by Toom-4 in some, and hypothesis's draws of those pairs alone at
    # least one level.  Each split evaluates two signed points.
    signed, toom4 = bignat._toom_signed, bignat._toom4_int
    splits, toom4_splits = [], []

    def recorded(x, y):
        splits.append(max(abs(x), abs(y)).bit_length())
        return signed(x, y)

    def recorded4(x, y, k):
        toom4_splits.append(k)
        return toom4(x, y, k)

    monkeypatch.setattr(bignat, "_toom_signed", recorded)
    monkeypatch.setattr(bignat, "_toom4_int", recorded4)
    rng = random.Random("bignat-0")
    for _ in range(100):
        _cases.SUITES["bignat"](rng, MulConfig())
    assert max(splits) >= bignat._TOOM_MIN_BITS
    assert toom4_splits
    splits.clear()
    _holds(_cases.bignat_toom_case, MulConfig())
    assert splits
