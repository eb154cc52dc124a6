import numpy as np
import pytest

from dualflow.errors import ArgumentError
from dualflow.rng import derive_rng


class TestDeriveRng:
    def test_same_path_same_stream(self):
        a = derive_rng(42, 1, 2).random(8)
        b = derive_rng(42, 1, 2).random(8)
        assert np.array_equal(a, b)

    def test_different_paths_differ(self):
        a = derive_rng(42, 1, 2).random(8)
        b = derive_rng(42, 1, 3).random(8)
        c = derive_rng(42, 2, 2).random(8)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_different_seeds_differ(self):
        a = derive_rng(42, 1).random(8)
        b = derive_rng(43, 1).random(8)
        assert not np.array_equal(a, b)

    def test_path_depth_limited(self):
        with pytest.raises(ArgumentError):
            derive_rng(1, 2, 3, 4, 5)

