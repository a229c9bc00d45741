"""Drawn cases for ``kronmul selftest`` and the property tests.

Each suite draws one case from a ``random.Random`` (the self-test's seeded
one, or hypothesis's ``st.randoms``, under which a failing case shrinks),
checks it against ``oracle`` or a direct evaluation under a ``MulConfig``,
and returns what it drew.  The multiplying suites check each product twice:
counted into a ``MulStats``, which runs the config's counted multiply, and
uncounted, which runs CPython's multiply or, on large balanced operands,
the Toom-4 split over it.  A mismatch raises ``SelfTestFailure``, naming
the suite and the case's sizes.  Draws favour the edges of each invariant:
coefficient bounds 1, 2, 63, 64 and above 64, ks4's quarter width just
below the bound, length 1, equal and unequal lengths, values at the overlap
recovery's limit and at its caller's bound, digit counts on both sides of
every blit cutoff, operand bits on both sides of the Toom split's gates,
and the packed reduction mod n at power-of-two and small moduli.
"""

from __future__ import annotations

import functools
import math
import operator

from . import bignat, ksint, oracle
from .bignat import LIMB_BITS, MulConfig, MulStats
from .bipoly import (BiPoly, MissingHalveError, bks_four, bks_negated,
                     bks_reciprocal, bks_standard, ring_z, ring_zmod)
from .ksint import ReconstructionError, ks1_mul, ks2_mul, ks3_mul, ks4_mul
from .modpoly import ModPoly, Variant, mod_mul
from .pack import (_FIELD_BITS, _FIELD_UNPACK_MIN_DIGITS as _FIELD,
                   _GROUP_MIN_DIGITS as _GROUP, _WIDE_MIN_DIGITS as _WIDE,
                   CoeffVec, _pack_ints, from_digits, pack, pack_negated,
                   pack_negated_reversed, pack_reversed, to_digits)

_MAX_DIGITS = 800


class SelfTestFailure(Exception):
    pass


def check(ok: bool, suite: str, case: tuple) -> None:
    # Names the case by the bit length of each int and the length of each
    # sequence: the values themselves run to thousands of digits, past
    # what repr may print.
    if not ok:
        parts = ", ".join(f"{x.bit_length()}-bit int" if isinstance(x, int)
                          else f"{type(x).__name__} of {len(x)}"
                          for x in case)
        raise SelfTestFailure(f"{suite}: failing case ({parts})")


def _pick(rng, edges, lo, hi):
    # One of ``edges`` a quarter of the time, else uniform in [lo, hi].
    return rng.choice(edges) if rng.randrange(4) == 0 else rng.randint(lo, hi)


def _bound(rng):
    # A coefficient bound; CoeffVec has no 64-bit cap, ModPoly does.
    return _pick(rng, (1, 2, 63, 64, 65), 1, 2 * LIMB_BITS)


def _lengths(rng, hi):
    # Equal a third of the time; either may be 1.
    len_f = _pick(rng, (1,), 1, hi)
    return len_f, len_f if rng.randrange(3) == 0 else _pick(rng, (1,), 1, hi)


def _values(rng, count, top):
    # ``count`` values in [0, top): uniform, or all top - 1, or all 0.
    fill = rng.randrange(4)
    if fill >= 2:
        return [(top - 1) * (fill == 2)] * count
    return [rng.randrange(top) for _ in range(count)]


def _at(coeffs, x):
    # Horner's rule: the polynomial's value at x.
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _raises(error, fn, *args) -> bool:
    try:
        fn(*args)
    except error:
        return True
    return False


def _toom_bits(rng):
    # Operand bits about the gates of the uncounted Toom-4 split: the shorter
    # side just below the cutoff, at it, or up to four times it, where the
    # split goes two levels deep; the longer one equal, anywhere inside the
    # skew gate, or just inside or just outside it.
    low, skew = bignat._TOOM_MIN_BITS, bignat._TOOM_MAX_SKEW
    short = rng.choice((low - 1, low, rng.randint(low, 4 * low), 4 * low))
    top = math.ceil(skew * short)  # the first longer side outside the gate
    long_ = rng.choice((short, rng.randint(short, top - 1), top - 1, top))
    return [short, long_][::rng.choice((1, -1))]


def bignat_toom_case(rng, config):
    """A pair about the Toom gates, full-length or all ones, multiplied
    uncounted only (counted, the Karatsuba recursion over one such product
    takes up to about 0.1 s) by ``mul`` and, with random signs, by
    ``mul_signed``."""
    a, b = ((1 << k) - 1 if rng.randrange(4) == 0
            else rng.getrandbits(k) | 1 << (k - 1) for k in _toom_bits(rng))
    sa, sb = rng.choice((1, -1)), rng.choice((1, -1))
    want = a * b
    check(bignat.mul(a, b, config=config) == want
          and bignat.mul_signed(sa * a, sb * b, config=config)
          == sa * sb * want, "bignat-mul-toom", (a, b))
    return a, b


def bignat_case(rng, config):
    """Naturals of 1 to 64 limbs: classical, Karatsuba and ``mul`` products,
    counted and not, against int multiply; one draw in eight is instead
    ``bignat_toom_case``'s."""
    if rng.randrange(8) == 0:
        return bignat_toom_case(rng, config)
    bits = [LIMB_BITS * limbs - rng.randrange(LIMB_BITS)
            for limbs in _lengths(rng, 64)]
    a, b = ((1 << k) - 1 if rng.randrange(4) == 0 else rng.getrandbits(k)
            for k in bits)
    check(bignat.mul_classical(a, b) == a * b
          == bignat.mul_karatsuba(a, b)
          == bignat.mul(a, b, MulStats(), config)
          == bignat.mul(a, b, config=config), "bignat-mul", (a, b))
    return a, b


# One tier per blit path of _pack_ints and _unpack_ints, as its widths and
# its digit counts at a width; every draw of a tier runs its path: plain
# shifts below the group cutoff; groups of eight at widths and counts short
# of any field or wide cutoff; strided fields at widths 8..64 from that
# width's field cutoff on; byte-string fields at widths above 64 from the
# wide cutoff on.  Widths reach 160, past ks1's 141 for 64-bit coefficients
# and operands of up to 8192 terms.
DIGIT_TIERS = {
    "shifts": (range(1, 161), lambda w: (0, _GROUP - 1)),
    "groups": ([w for w in range(1, 161) if _FIELD.get(w, _WIDE) > _GROUP],
               lambda w: (_GROUP, _FIELD.get(w, _WIDE if w > _FIELD_BITS
                                             else _MAX_DIGITS + 1) - 1)),
    "fields": (list(_FIELD), lambda w: (_FIELD[w], _MAX_DIGITS)),
    "wide": (range(65, 161), lambda w: (_WIDE, _MAX_DIGITS)),
}


def digits_case(rng, config, tier=None):
    """Digits of a tier, full-width or below 2**64: packed from a list and a
    tuple against Horner's rule, and unpacked back."""
    tier = tier or rng.choice(tuple(DIGIT_TIERS))
    widths, counts = DIGIT_TIERS[tier]
    width = rng.choice(widths)
    count = rng.randint(*counts(width))
    bits = rng.choice((width, min(width, _FIELD_BITS)))
    digits = _values(rng, count, 1 << bits)
    value = _at(digits, 1 << width)
    check(from_digits(digits, width) == value
          == _pack_ints(tuple(digits), width)
          and to_digits(value, width, count) == digits,
          f"digits-{tier}", (width, digits))
    return tier, width, digits


def reconstruct_case(rng, config):
    """Values below X(X-1), X = 2**width, recovered from their forward and
    reversed packings as ks2 and ks4 do it: at the recovery's own limit
    (bound 2*width, no modulus), and read reduced mod n with the bound 2**t
    of the values' bit length (below X(X-1) when t < 2*width) or one bit
    less, which must raise unless all values are 0.  Counts 2 and 4 read
    the last odd value from one field past the even ones.  One flipped bit
    must be rejected on both paths."""
    width = _pick(rng, (1, 2, 63, 64), 1, 64)
    count = _pick(rng, (1, 2, 4), 1, _MAX_DIGITS)
    values = _values(rng, count, (1 << width) * ((1 << width) - 1))
    packed = [_at(values, 1 << width), _at(values[::-1], 1 << width)]
    bits = max(values).bit_length()
    t = bits - rng.randrange(2) if bits else 0
    top = 1 << min(64, 2 * width)
    n = _pick(rng, (2, 3, top - 1), 2, top - 1)

    def recover(fwd, rev, bound, modulus):
        parts = ksint._overlap_unpack(fwd, rev, width, count, bound)
        return ksint._read(parts, 2 * width, count, modulus)
    check(recover(*packed, 2 * width, None) == values, "reconstruct",
          (width, values))
    if t == bits:
        check(recover(*packed, t, n) == [v % n for v in values],
              "reconstruct-packed", (width, values, n))
    else:
        check(_raises(ReconstructionError, recover, *packed, t, n),
              "reconstruct-packed-bound", (width, values))
    # One flipped bit in one packing's count + 1 digits moves X*F - R~ by a
    # power of two, which the odd X**2 - 1 never divides: it must be
    # rejected.
    packed[rng.randrange(2)] ^= 1 << rng.randrange(width * (count + 1))
    check(_raises(ReconstructionError, recover, *packed, 2 * width, None)
          and _raises(ReconstructionError, recover, *packed, t, n),
          "reconstruct-corrupted", (width, values))
    return width, values


def pack_case(rng, config):
    """Up to 40 coefficients at the four packs, from half their bound up
    (exactly that edge a quarter of the time), against Horner's rule."""
    bound = _bound(rng)
    coeffs = _values(rng, _pick(rng, (1,), 1, 40), 1 << bound)
    half = (bound + 1) // 2
    width = _pick(rng, (half,), half, 2 * bound + 9)
    v = CoeffVec(tuple(coeffs), bound)
    x = 1 << width
    alternating = [(-c if i % 2 else c) for i, c in enumerate(coeffs)]
    for name, fn, want in (
            ("pack", pack, _at(coeffs, x)),
            ("pack-reversed", pack_reversed, _at(coeffs[::-1], x)),
            ("pack-negated", pack_negated, _at(alternating, x)),
            ("pack-negated-reversed", pack_negated_reversed,
             _at(alternating[::-1], x))):
        check(fn(v, width) == want, name, (coeffs, width))
    return coeffs, width


# Bound -> the shorter lengths at which ks4's quarter width
# ceil((2b+e)/4) is b - 1 (2b-8 < e <= 2b-4): the widest evaluation whose
# slots overlap.
_KS4_OVERLAP_LENGTHS = {3: (1, 4), 4: (2, 16), 5: (5, 64)}


def ksint_case(rng, config):
    """Vectors of up to 64 coefficients: ks1 to ks4, counted and not,
    against schoolbook.  One draw in four puts ks4's quarter width one bit
    below the bound."""
    if rng.randrange(4) == 0:
        bound = rng.choice(tuple(_KS4_OVERLAP_LENGTHS))
        short = rng.randint(*_KS4_OVERLAP_LENGTHS[bound])
        lengths = (short, rng.choice((short, rng.randint(short, 64))))
        lengths = lengths[::rng.choice((1, -1))]
    else:
        bound = _bound(rng)
        lengths = _lengths(rng, 64)
    f, g = (CoeffVec(tuple(_values(rng, length, 1 << bound)), bound)
            for length in lengths)
    want = oracle.schoolbook_z(f, g).coeffs
    for name, fn in (("ks1", ks1_mul), ("ks2", ks2_mul), ("ks3", ks3_mul),
                     ("ks4", ks4_mul)):
        for stats in (MulStats(), None):
            check(fn(f, g, stats=stats, config=config).coeffs == want,
                  f"ksint-{name}", (f.coeffs, g.coeffs, bound))
    return f.coeffs, g.coeffs, bound


def bipoly_case(rng, config):
    """Operands up to 8 x 8 over Z or Z/7 through ``oracle.uni_schoolbook``,
    or over a 48-bit Z/n through ``mod_mul``, counted and not: the four
    reductions against schoolbook; at even n the two that halve must
    refuse."""
    kind = rng.randrange(4)
    if kind == 0:
        ring, draw = ring_z(), lambda: rng.randint(-99, 99)
    elif kind == 1:
        ring, draw = ring_zmod(7), lambda: rng.randrange(7)
    else:
        n = 2 * rng.randrange(1 << 46, 1 << 47) + (kind == 2)
        ring, draw = ring_zmod(n), lambda: rng.randrange(n)

        def uni(a, b, stats=None):
            return mod_mul(ModPoly(a, n), ModPoly(b, n), stats=stats,
                           config=config).coeffs
        unis = (functools.partial(uni, stats=MulStats()), uni)
    if kind < 2:
        unis = (oracle.uni_schoolbook(ring, operator.mul),)
    lx, ly = _pick(rng, (1,), 1, 8), _pick(rng, (1,), 1, 8)
    f, g = (BiPoly(tuple(tuple(draw() for _ in range(ly))
                         for _ in range(lx))) for _ in range(2))
    # ring.add reduces the plain products, so one mul fits all rings
    want = oracle.schoolbook_bivar(f, g, ring, operator.mul).coeffs
    for name, fn in (("standard", bks_standard),
                     ("reciprocal", bks_reciprocal),
                     ("negated", bks_negated), ("four", bks_four)):
        for uni in unis:
            if ring.halve is None and fn in (bks_negated, bks_four):
                ok = _raises(MissingHalveError, fn, f, g, ring, uni)
            else:
                ok = fn(f, g, ring, uni).coeffs == want
            check(ok, f"bipoly-{name}", (f.coeffs, g.coeffs))
    return kind, f.coeffs, g.coeffs


def modpoly_case(rng, config):
    """Up to 60 terms mod n of 2 to 64 bits, a power of two a quarter of the
    time: every variant and AUTO, counted and not, against the modular
    schoolbook, with the output's length and range.  One draw in four puts
    the shorter length at e = 4 or 6 and the output at 40 or more terms,
    where ks3's packed reduction reads long halves."""
    bits = _pick(rng, (2, 4, 8, 16, 48, 64), 2, 64)
    n = (1 << (bits - 1) if rng.randrange(4) == 0
         else rng.randrange(1 << (bits - 1), 1 << bits))
    if rng.randrange(4) == 0:
        # The shorter length at e = 4 or 6, the output of 40 or more.
        short = rng.choice((rng.randint(9, 16), rng.randint(33, 60)))
        lengths = (short, rng.randint(max(short, 41 - short), 60))
    else:
        lengths = _lengths(rng, 60)
    f, g = (ModPoly(tuple(_values(rng, length, n)), n)
            for length in lengths[::rng.choice((1, -1))])
    want = oracle.schoolbook_mod(f, g).coeffs
    for variant in Variant:
        for stats in (MulStats(), None):
            got = mod_mul(f, g, variant, stats=stats, config=config).coeffs
            check(got == want and len(got) == len(f) + len(g) - 1
                  and all(0 <= c < n for c in got),
                  f"modpoly-{variant.value}", (n, f.coeffs, g.coeffs))
    return n, f.coeffs, g.coeffs


# The configs the self-test runs the multiplying suites under: classical
# leaves only, and the default, Karatsuba down to 16 limbs.
CONFIGS = {"classical": MulConfig(classical_only=True),
           "thr16": MulConfig()}


def _suite(name, case):
    # `case`; a library error inside it fails the suite like a mismatch.
    def run(rng, config):
        try:
            return case(rng, config)
        except (ValueError, ArithmeticError, AssertionError) as exc:
            raise SelfTestFailure(f"{name}-error: {exc!r}") from exc
    return run


# In the self-test's order: a corrupted multiply fails bignat first.
# The multiplying suites run under every config, the others under one.
SUITES = {name: _suite(name, case) for name, case in {
    "bignat": bignat_case, "digits": digits_case,
    "reconstruct": reconstruct_case, "pack": pack_case, "ksint": ksint_case,
    "bipoly": bipoly_case, "modpoly": modpoly_case}.items()}
MULTIPLYING = ("bignat", "ksint", "bipoly", "modpoly")
