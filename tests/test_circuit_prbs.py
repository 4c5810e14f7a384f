"""PRBS generation and error counting (the on-chip test circuit)."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.circuit import PrbsGenerator, worst_case_patterns


def test_prbs7_period_is_maximal():
    gen = PrbsGenerator(7)
    seq = gen.bits(gen.period * 2)
    assert seq[: gen.period] == seq[gen.period :]
    # No shorter period divides it.
    first = seq[: gen.period]
    for p in (1, 7, 31, 63):
        assert first[:p] * (127 // p + 1) != first + first[: (127 // p + 1) * p - 127]


def test_prbs7_balance():
    gen = PrbsGenerator(7)
    seq = gen.bits(gen.period)
    # Maximal-length LFSR: 64 ones, 63 zeros per period.
    assert sum(seq) == 64


@pytest.mark.parametrize("order", [7, 9, 15, 23, 31])
def test_supported_orders_produce_bits(order):
    gen = PrbsGenerator(order)
    bits = gen.bits(64)
    assert len(bits) == 64
    assert set(bits) <= {0, 1}
    assert 0 < sum(bits) < 64  # not constant


def test_reset_reproduces_sequence():
    gen = PrbsGenerator(15, seed=1234)
    a = gen.bits(100)
    gen.reset()
    assert gen.bits(100) == a


def test_different_seeds_differ():
    a = PrbsGenerator(15, seed=1).bits(64)
    b = PrbsGenerator(15, seed=77).bits(64)
    assert a != b


def test_invalid_configuration_rejected():
    with pytest.raises(ConfigurationError):
        PrbsGenerator(8)
    with pytest.raises(ConfigurationError):
        PrbsGenerator(7, seed=0)
    with pytest.raises(ConfigurationError):
        PrbsGenerator(7, seed=1 << 8)
    gen = PrbsGenerator(7)
    with pytest.raises(ConfigurationError):
        gen.bits(-1)
    with pytest.raises(ConfigurationError):
        gen.reset(seed=0)


def test_worst_case_patterns_contain_11110():
    pattern = worst_case_patterns(run_length=4, repeats=2)
    s = "".join(map(str, pattern))
    assert "11110" in s
    assert "010" in s  # isolated one


def test_worst_case_patterns_validation():
    with pytest.raises(ConfigurationError):
        worst_case_patterns(run_length=0)


@given(order=st.sampled_from([7, 9, 15]), n=st.integers(1, 200))
def test_prbs_deterministic_property(order, n):
    assert PrbsGenerator(order).bits(n) == PrbsGenerator(order).bits(n)
