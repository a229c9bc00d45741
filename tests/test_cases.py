"""Property tests: the self-test's suites, drawn by hypothesis.

``kronmul selftest`` runs each suite of ``kronmul._cases`` from a seeded
``random.Random``; here the same functions draw from ``st.randoms``, so a
failing case shrinks, and its report lists each draw, from which it can be
written down as a fixed regression test.  The multiplying suites run
under each of ``CONFIGS``, as the self-test does: classical-only and at
Karatsuba thresholds 1, 16 and 40; each suite counts its products once, so
that the configured recursion runs, and multiplies once uncounted.  The digit suite's property test, which also checks that
each tier runs its blit path, is in ``test_blit_properties.py``.
"""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kronmul import _cases, bignat  # noqa: E402
from kronmul._cases import CONFIGS  # noqa: E402
from kronmul.bignat import MulConfig  # noqa: E402
from kronmul.cli import _corrupted_multiply  # noqa: E402

MULTIPLYING = ("bignat", "ksint", "bipoly", "modpoly")


def _holds(suite, config):
    @settings(derandomize=True, max_examples=40, database=None,
              deadline=None)
    @given(st.randoms(note_method_calls=True, use_true_random=False))
    def check(rng):
        _cases.SUITES[suite](rng, config)

    check()


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
@pytest.mark.parametrize("suite", MULTIPLYING)
def test_multiplying_suite_holds(suite, config):
    _holds(suite, config)


@pytest.mark.parametrize("suite", ["reconstruct", "pack"])
def test_suite_holds(suite):
    _holds(suite, MulConfig())


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
    # An uncounted product is one native product, so only the suite's
    # counted check reaches the Karatsuba recursion; at threshold 1 it must.
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
