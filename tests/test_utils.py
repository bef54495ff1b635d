"""Unit + property tests for repro.utils."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.utils import (
    batched,
    derive_rng,
    derive_seed,
    geometric_mean,
    normalize,
    pairwise,
    percentile,
    stable_hash,
)


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("hello") == stable_hash("hello")

    def test_distinct_inputs_differ(self):
        assert stable_hash("hello") != stable_hash("hello!")

    def test_bit_width_bound(self):
        assert 0 <= stable_hash("x", bits=16) < 2**16

    def test_rejects_bad_bits(self):
        with pytest.raises(ConfigError):
            stable_hash("x", bits=12)
        with pytest.raises(ConfigError):
            stable_hash("x", bits=1024)


class TestDeriveRng:
    def test_same_path_same_stream(self):
        a = derive_rng(1, "x", 2).random(5)
        b = derive_rng(1, "x", 2).random(5)
        assert np.allclose(a, b)

    def test_different_paths_differ(self):
        a = derive_rng(1, "x").random(5)
        b = derive_rng(1, "y").random(5)
        assert not np.allclose(a, b)

    def test_derive_seed_stable(self):
        assert derive_seed(4, "a", 1) == derive_seed(4, "a", 1)
        assert derive_seed(4, "a", 1) != derive_seed(4, "a", 2)


class TestBatched:
    def test_exact_split(self):
        assert list(batched([1, 2, 3, 4], 2)) == [[1, 2], [3, 4]]

    def test_remainder(self):
        assert list(batched([1, 2, 3], 2)) == [[1, 2], [3]]

    def test_empty(self):
        assert list(batched([], 3)) == []

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            list(batched([1], 0))

    @given(st.lists(st.integers()), st.integers(min_value=1, max_value=20))
    def test_concat_roundtrip(self, items, size):
        flat = [x for chunk in batched(items, size) for x in chunk]
        assert flat == items


class TestPairwise:
    def test_pairs(self):
        assert list(pairwise([1, 2, 3])) == [(1, 2), (2, 3)]

    def test_short_input(self):
        assert list(pairwise([1])) == []


class TestNormalize:
    def test_unit_norm(self):
        v = normalize(np.array([3.0, 4.0]))
        assert np.isclose(np.linalg.norm(v), 1.0)

    def test_zero_vector_unchanged(self):
        v = normalize(np.zeros(4))
        assert np.allclose(v, 0.0)


class TestGeometricMean:
    def test_simple(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            geometric_mean([])

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            geometric_mean([1.0, 0.0])


class TestPercentile:
    def test_median(self):
        assert percentile([1, 2, 3], 50) == 2

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            percentile([], 50)
