"""Tests for the register model and PREFETCH bit-vector encoding."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir import (
    MAX_ARCH_REGS,
    check_register,
    decode_bitvector,
    encode_bitvector,
    register_name,
)


class TestCheckRegister:
    def test_accepts_zero(self):
        assert check_register(0) == 0

    def test_accepts_max_minus_one(self):
        assert check_register(MAX_ARCH_REGS - 1) == MAX_ARCH_REGS - 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            check_register(-1)

    def test_rejects_too_large(self):
        with pytest.raises(ValueError):
            check_register(MAX_ARCH_REGS)

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            check_register(True)

    def test_rejects_non_int(self):
        with pytest.raises(ValueError):
            check_register("r4")


class TestRegisterName:
    def test_formats_ptx_style(self):
        assert register_name(12) == "r12"

    def test_validates(self):
        with pytest.raises(ValueError):
            register_name(300)


class TestBitvector:
    def test_empty_set_encodes_to_zero(self):
        assert encode_bitvector([]) == 0

    def test_single_register(self):
        assert encode_bitvector([5]) == 1 << 5

    def test_duplicates_are_idempotent(self):
        assert encode_bitvector([3, 3, 3]) == 1 << 3

    def test_decode_orders_ascending(self):
        assert list(decode_bitvector(encode_bitvector([9, 2, 250]))) == [2, 9, 250]

    def test_decode_rejects_negative(self):
        with pytest.raises(ValueError):
            list(decode_bitvector(-1))

    def test_decode_rejects_out_of_range_bits(self):
        with pytest.raises(ValueError):
            list(decode_bitvector(1 << MAX_ARCH_REGS))

    @given(st.sets(st.integers(min_value=0, max_value=MAX_ARCH_REGS - 1)))
    def test_roundtrip(self, regs):
        vector = encode_bitvector(regs)
        assert set(decode_bitvector(vector)) == regs

    @given(
        st.sets(st.integers(min_value=0, max_value=MAX_ARCH_REGS - 1)),
        st.sets(st.integers(min_value=0, max_value=MAX_ARCH_REGS - 1)),
    )
    def test_union_is_bitwise_or(self, a, b):
        assert encode_bitvector(a | b) == encode_bitvector(a) | encode_bitvector(b)
