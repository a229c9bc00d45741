"""Property test: the digit blits against Horner's rule, one blit path per
tier of the self-test's digit suite.

Every draw of a tier runs its path: plain shifts below the group cutoff;
groups of eight at widths and counts short of any field or wide cutoff;
strided fields at widths 8..64 from that width's field cutoff on (packing by
fields where the width has a pack cutoff too); byte-string fields at widths
above 64 from the wide cutoff on (packing by 64-bit fields where the width
is divisible by 4 and every digit is below 2**64, by groups otherwise).
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from kronmul import _cases, pack  # noqa: E402


def _split_levels(width):
    # Pair splits above a whole byte width: 0, 1, 2 or 3.
    return 3 - min(3, (width & -width).bit_length() - 1)


@pytest.mark.parametrize("tier", list(_cases.DIGIT_TIERS))
def test_blits_match_reference(tier, monkeypatch):
    ran = []

    def recorder(name):
        blit = getattr(pack, name)

        def recorded(*args):
            # Recorded on return: a wide pack that falls back to the groups
            # raised, and did not run its path.
            out = blit(*args)
            ran.append(name)
            return out
        return recorded

    for name in ("_pack_fields", "_unpack_fields", "_unpack_wide"):
        monkeypatch.setattr(pack, name, recorder(name))

    @settings(derandomize=True, max_examples=60, database=None,
              deadline=None)
    @given(st.randoms(note_method_calls=True, use_true_random=False))
    def check(rng):
        ran.clear()
        _, width, digits = _cases.digits_case(rng, None, tier)
        if tier == "wide":
            packs = width % 4 == 0 and max(digits) < 1 << 64
            assert ran == (["_pack_fields"] * 2 * packs + ["_unpack_wide"]
                           * (1 + _split_levels(width)))
            return
        fields = tier == "fields"
        packs = fields and width in pack._FIELD_PACK_MIN_DIGITS
        assert ran == (["_pack_fields"] * 2 * packs
                       + ["_unpack_fields"] * fields)

    check()
