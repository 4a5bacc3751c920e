"""Property tests: the numpy decimal parse of ingest gives ``float()``'s bits.

``pipeline._decimals`` must parse exactly the fields of 1 to 19 bytes made
of ASCII digits and at most one dot, holding a digit, and give each the
float64 that ``float()`` reads from it, bit for bit, except a field whose
quotient, correctly rounded to a 64-bit significand, lies on a float64
midpoint: that one must be left to ``float()``. The oracle below finds
those midpoints in exact integer arithmetic.
"""

import re
import struct
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import numpy as np  # noqa: E402

from incomefit import pipeline  # noqa: E402

# the platform test alone, not the self-check: a broken kernel must fail here, not skip
pytestmark = pytest.mark.skipif(
    np.finfo(np.longdouble).nmant != 63 or np.dtype(np.longdouble).itemsize != 16,
    reason="long double here is not the x87 format")

GRAMMAR = re.compile(rb"[0-9]*\.?[0-9]*")


def in_grammar(field: bytes) -> bool:
    return (1 <= len(field) <= pipeline.DECIMAL_BYTES and GRAMMAR.fullmatch(field) is not None
            and re.search(rb"[0-9]", field) is not None)


def long_double_midpoint(field: bytes) -> bool:
    """Whether the field's value rounded to 64 significant bits lies on a float64 midpoint."""
    value = Fraction(field.decode())
    if value == 0:
        return False
    exponent = value.numerator.bit_length() - value.denominator.bit_length()
    if value < Fraction(2) ** exponent:
        exponent -= 1
    scaled = value / Fraction(2) ** (exponent - 63)     # in [2**63, 2**64)
    significand = round(scaled)                         # Fraction rounds half to even
    if significand == 2 ** 64:
        return False                                    # a power of two
    return significand & 0x7FF == 0x400


def bits(x: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", x))[0]


def parse(fields: list[bytes]):
    """The values and mask ``_decimals`` gives the fields, laid out as one CSV row."""
    block = b",".join(fields) + b"\n"
    lengths = np.array([len(f) for f in fields])
    last = np.cumsum(lengths + 1) - 1
    return pipeline._decimals(block, last - lengths, last)


def check(fields: list[bytes]):
    values, parsed = parse(fields)
    for field, value, numpy_read in zip(fields, values.tolist(), parsed.tolist()):
        expected = in_grammar(field) and not long_double_midpoint(field)
        assert numpy_read == expected, field
        if numpy_read:
            assert bits(value) == bits(float(field)), (field, value, float(field))


positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_nan=False)
precision = st.integers(0, 20)
written = st.one_of(
    positive.map(repr),
    st.tuples(positive, precision).map(lambda xp: format(xp[0], f".{xp[1]}f")),
    st.tuples(positive, precision).map(lambda xp: format(xp[0], f".{xp[1]}g")),
)


@st.composite
def digit_strings(draw):
    """1 to 21 digits, with a dot anywhere or none."""
    digits = draw(st.text("0123456789", min_size=1, max_size=21))
    cut = draw(st.one_of(st.none(), st.integers(0, len(digits))))
    return digits if cut is None else digits[:cut] + "." + digits[cut:]


FIXED = [
    "9007199254740993", "9007199254740995",     # float64 midpoints: float() reads them
    "1234567890123456789", "12345678901234567890",      # 19 digits, and 20
    "9999999999999999999", ".999999999999999999", "99999999999999999.9",
    "5.", ".5", ".", "1.2.3", "007", "0", "0.0", " 5", "5 ", "1_0", "+5", "-0", "1e5", "inf",
]


@settings(deadline=None, max_examples=300)
@given(fields=st.lists(st.one_of(written, digit_strings()), min_size=1, max_size=30))
@example(fields=FIXED)
def test_decimals_match_float_bits(fields):
    check([f.encode() for f in fields])


def test_midpoints_and_other_forms_reach_float():
    values, parsed = parse([f.encode() for f in FIXED])
    numpy_read = dict(zip(FIXED, parsed.tolist()))
    assert not numpy_read["9007199254740993"] and not numpy_read["9007199254740995"]
    assert numpy_read["1234567890123456789"] and not numpy_read["12345678901234567890"]
    assert [f for f in FIXED[7:] if numpy_read[f]] == ["5.", ".5", "007", "0", "0.0"]
    check([f.encode() for f in FIXED])


def test_fields_at_every_offset_of_a_block():
    """A field read from the first bytes of a block, or after a long one, is still exact."""
    fields = [b"1", b"22.5", b"333", b"0.4444", b"55555.5", b"6" * 19, b"7" * 24, b"8.8"]
    for start in range(len(fields)):
        check(fields[start:] + fields[:start])
