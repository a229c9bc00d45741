"""Property test: the digit blits against the binary-text reference.

Each blit path of ``_pack_ints`` and ``_unpack_ints`` has its own tier of
draws, and every draw of a tier runs its path: plain shifts below the group
cutoff; groups of eight at widths and counts short of any field or wide
cutoff; strided fields at widths 8..64 from that width's field cutoff on
(packing by fields where the width has a pack cutoff too); byte-string
fields at widths above 64 from the wide cutoff on (packing by 64-bit fields
where the width is divisible by 4 and every digit is below 2**64, by groups
otherwise).
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kronmul import bignat  # noqa: E402
from test_bignat import _reference_pack  # noqa: E402

_GROUP = bignat._GROUP_MIN_DIGITS
_FIELD = bignat._FIELD_UNPACK_MIN_DIGITS
_WIDE = bignat._WIDE_MIN_DIGITS
_MAX_COUNT = 800

_WIDTHS = {
    "shifts": range(1, 161),
    "groups": [w for w in range(1, 161) if _FIELD.get(w, _WIDE) > _GROUP],
    "fields": list(_FIELD),
    "wide": range(65, 161),
}


def _counts(tier, width):
    if tier == "shifts":
        return 0, _GROUP - 1
    if tier == "groups":
        if width > 64:
            return _GROUP, _WIDE - 1
        return _GROUP, _FIELD.get(width, _MAX_COUNT + 1) - 1
    if tier == "wide":
        return _WIDE, _MAX_COUNT
    return _FIELD[width], _MAX_COUNT


@st.composite
def _digit_vectors(draw, tier):
    width = draw(st.sampled_from(_WIDTHS[tier]))
    count = draw(st.integers(*_counts(tier, width)))
    fill = draw(st.sampled_from(["random", "narrow", "top", "zero"]))
    if fill in ("random", "narrow"):
        rng = draw(st.randoms(use_true_random=False))
        bits = min(width, 64) if fill == "narrow" else width
        digits = [rng.getrandbits(bits) for _ in range(count)]
    else:
        digits = [(1 << width) - 1 if fill == "top" else 0] * count
    return width, digits


def _split_levels(width):
    # Pair splits above a whole byte width: 0, 1, 2 or 3.
    return 3 - min(3, (width & -width).bit_length() - 1)


@pytest.mark.parametrize("tier", list(_WIDTHS))
def test_blits_match_reference(tier, monkeypatch):
    ran = []

    def recorder(name):
        blit = getattr(bignat, name)

        def recorded(*args):
            # Recorded on return: a wide pack that falls back to the groups
            # raised, and did not run its path.
            out = blit(*args)
            ran.append(name)
            return out
        return recorded

    for name in ("_pack_fields", "_unpack_fields", "_unpack_wide"):
        monkeypatch.setattr(bignat, name, recorder(name))

    @settings(derandomize=True, max_examples=60, database=None,
              deadline=None)
    @given(_digit_vectors(tier))
    def check(case):
        width, digits = case
        value = _reference_pack(digits, width)
        ran.clear()
        assert bignat._pack_ints(digits, width) == value
        assert bignat._pack_ints(tuple(digits), width) == value
        assert bignat._unpack_ints(value, width, len(digits)) == digits
        if tier == "wide":
            packs = width % 4 == 0 and max(digits) < 1 << 64
            assert ran == (["_pack_fields"] * 2 * packs + ["_unpack_wide"]
                           * (1 + _split_levels(width)))
            return
        fields = tier == "fields"
        packs = fields and width in bignat._FIELD_PACK_MIN_DIGITS
        assert ran == (["_pack_fields"] * 2 * packs
                       + ["_unpack_fields"] * fields)

    check()
