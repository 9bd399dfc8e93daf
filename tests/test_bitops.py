"""Unit and property tests for the fixed-width bit manipulation helpers."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.utils.bitops import (
    bit,
    clog2,
    from_bits,
    mask,
    sext,
    to_signed,
    to_unsigned,
    zext,
)


class TestMask:
    def test_zero_width(self):
        assert mask(0) == 0

    def test_small_widths(self):
        assert mask(1) == 1
        assert mask(4) == 0xF
        assert mask(8) == 0xFF
        assert mask(32) == 0xFFFFFFFF

    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            mask(-1)


class TestSignedness:
    def test_to_signed_positive(self):
        assert to_signed(5, 8) == 5

    def test_to_signed_negative(self):
        assert to_signed(0xFF, 8) == -1
        assert to_signed(0x80, 8) == -128

    def test_to_unsigned_roundtrip(self):
        assert to_unsigned(-1, 8) == 0xFF
        assert to_unsigned(-128, 8) == 0x80

    def test_to_signed_zero_width_rejected(self):
        with pytest.raises(ValueError):
            to_signed(0, 0)

    @given(st.integers(min_value=0, max_value=2**16 - 1))
    def test_signed_unsigned_roundtrip(self, value):
        assert to_unsigned(to_signed(value, 16), 16) == value


class TestExtension:
    def test_sext_positive(self):
        assert sext(0x05, 8, 16) == 0x05

    def test_sext_negative(self):
        assert sext(0xFF, 8, 16) == 0xFFFF

    def test_zext(self):
        assert zext(0xFF, 8, 16) == 0xFF

    def test_sext_narrowing_rejected(self):
        with pytest.raises(ValueError):
            sext(0, 8, 4)

    def test_zext_narrowing_rejected(self):
        with pytest.raises(ValueError):
            zext(0, 8, 4)

    @given(st.integers(min_value=0, max_value=255))
    def test_sext_preserves_signed_value(self, value):
        assert to_signed(sext(value, 8, 32), 32) == to_signed(value, 8)


class TestBits:
    def test_bit_extraction(self):
        assert bit(0b1010, 1) == 1
        assert bit(0b1010, 0) == 0

    @given(st.integers(min_value=0, max_value=2**12 - 1))
    def test_bits_roundtrip(self, value):
        assert from_bits([(value >> i) & 1 for i in range(12)]) == value


class TestClog2:
    @pytest.mark.parametrize(
        "value,expected", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (9, 4), (32, 5)]
    )
    def test_values(self, value, expected):
        assert clog2(value) == expected

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            clog2(0)
