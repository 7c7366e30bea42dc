import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from cmkz.partitions import (
    Partition,
    conjugate,
    enumerate_partitions,
    irrep_dimension,
    shifted,
)


def syt_count(shape: tuple[int, ...]) -> int:
    """Independent oracle: count standard fillings by corner removal."""
    shape = tuple(p for p in shape if p > 0)
    if not shape:
        return 1
    total = 0
    for i in range(len(shape)):
        # cell (i, shape[i]-1) is a removable corner iff the next row is shorter
        if i == len(shape) - 1 or shape[i + 1] < shape[i]:
            smaller = list(shape)
            smaller[i] -= 1
            total += syt_count(tuple(smaller))
    return total


def test_enumerate_small_cases():
    assert [p.trimmed for p in enumerate_partitions(3, 3)] == [(3,), (2, 1), (1, 1, 1)]
    assert [p.trimmed for p in enumerate_partitions(4, 2)] == [(4,), (3, 1), (2, 2)]
    assert [p.trimmed for p in enumerate_partitions(1, 5)] == [(1,)]


def test_enumerate_no_duplicates_and_bounds():
    for n in range(1, 9):
        ps = enumerate_partitions(n, n)
        assert len(set(ps)) == len(ps)
        for p in ps:
            assert p.n == n
            assert len(p.trimmed) <= n


def test_enumerate_respects_max_parts():
    for p in enumerate_partitions(6, 2):
        assert len(p.trimmed) <= 2


def test_shifted_examples():
    assert shifted(Partition((2, 0))) == (3, 0)
    assert shifted(Partition((2, 1))) == (4, 2, 0)
    # direct formula lambda_i + n - i: (1+1, 1+0)
    assert shifted(Partition((1, 1))) == (2, 1)


@given(st.integers(1, 8), st.integers(0, 10**6))
def test_shifted_strictly_decreasing(n, pick):
    ps = enumerate_partitions(n, n)
    lam = ps[pick % len(ps)]
    e = shifted(lam)
    assert all(e[i] > e[i + 1] for i in range(len(e) - 1))
    assert e[-1] >= 0
    assert len(e) == n


def test_shifted_is_a_tuple_of_python_ints():
    e = shifted(Partition((np.int64(2), np.int64(1))))
    assert e == (4, 2, 0)
    assert type(e) is tuple and all(type(x) is int for x in e)


def test_irrep_dimension_examples():
    for n in range(1, 7):
        assert irrep_dimension(Partition((n,))) == 1
    assert irrep_dimension(Partition((2, 1))) == 2
    assert irrep_dimension(Partition((3, 1))) == 3


def test_irrep_dimension_against_syt_oracle():
    for n in range(1, 7):
        for lam in enumerate_partitions(n, n):
            assert irrep_dimension(lam) == syt_count(lam.trimmed)


def test_sum_of_squares_is_factorial():
    for n in range(1, 9):
        total = sum(irrep_dimension(l) ** 2 for l in enumerate_partitions(n, n))
        assert total == math.factorial(n)


def test_partition_equality_ignores_trailing_zeros():
    assert Partition((2, 1)) == Partition((2, 1, 0, 0))
    assert hash(Partition((2, 1))) == hash(Partition((2, 1, 0)))
    assert Partition((2, 1)) != Partition((1, 1, 1))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, -1))


def test_partition_parts_must_be_integers():
    with pytest.raises(TypeError):
        Partition((2.5, 1))
    with pytest.raises(TypeError):
        Partition((2, 1.0))
    assert Partition((np.int64(2), 1)).parts == (2, 1)


def test_partition_never_equals_a_tuple():
    assert (Partition((2, 1)) == (1, 2)) is False
    assert Partition((2, 1)) != (2, 1)


def test_padded_and_conjugate():
    lam = Partition((3, 1))
    assert lam.padded(4) == (3, 1, 0, 0)
    with pytest.raises(ValueError):
        lam.padded(1)
    assert conjugate(lam).trimmed == (2, 1, 1)
