"""Property test: the digit blits against the binary-text reference.

Each tier of counts (plain shifts, groups of eight, lanes) gets its own
draws, so every path of ``_pack_ints`` and ``_unpack_ints`` runs; the
lane path runs where a lane-tier draw falls in widths 8..56.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kronmul import bignat  # noqa: E402
from test_bignat import _reference_pack  # noqa: E402

_TIERS = {
    "shifts": (0, bignat._GROUP_MIN_DIGITS - 1),
    "groups": (bignat._GROUP_MIN_DIGITS, bignat._LANE_MIN_DIGITS - 1),
    "lanes": (bignat._LANE_MIN_DIGITS, 800),
}


@st.composite
def _digit_vectors(draw, counts):
    width = draw(st.integers(1, 160))
    count = draw(st.integers(*counts))
    fill = draw(st.sampled_from(["random", "top", "zero"]))
    if fill == "random":
        rng = draw(st.randoms(use_true_random=False))
        digits = [rng.getrandbits(width) for _ in range(count)]
    else:
        digits = [(1 << width) - 1 if fill == "top" else 0] * count
    return width, digits


@pytest.mark.parametrize("tier", list(_TIERS))
def test_blits_match_reference(tier):
    @settings(derandomize=True, max_examples=60, database=None,
              deadline=None)
    @given(_digit_vectors(_TIERS[tier]))
    def check(case):
        width, digits = case
        value = _reference_pack(digits, width)
        assert bignat._pack_ints(digits, width) == value
        assert bignat._pack_ints(tuple(digits), width) == value
        assert bignat._unpack_ints(value, width, len(digits)) == digits

    check()
