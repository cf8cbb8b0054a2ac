"""Tests for the synthetic dataset generators and the wave solver."""

import numpy as np
import pytest

from repro.datasets import (
    WaveSimulator,
    dataset_names,
    gaussian_random_field,
    get_dataset,
)
from repro.datasets.registry import DATASETS, LABELS
from repro.datasets.wave import _laplacian
from repro.errors import ConfigurationError


class TestSpectral:
    def test_normalization(self):
        f = gaussian_random_field((64, 64), slope=3.0, seed=1)
        assert f.mean() == pytest.approx(0.0, abs=1e-10)
        assert f.std() == pytest.approx(1.0, rel=1e-6)

    def test_deterministic_by_seed(self):
        a = gaussian_random_field((32, 32), seed=5)
        b = gaussian_random_field((32, 32), seed=5)
        c = gaussian_random_field((32, 32), seed=6)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_steeper_slope_is_smoother(self):
        rough = gaussian_random_field((128, 128), slope=2.0, seed=0)
        smooth = gaussian_random_field((128, 128), slope=5.0, seed=0)

        def roughness(f):
            return np.abs(np.diff(f, axis=0)).mean()

        assert roughness(smooth) < roughness(rough)

    def test_odd_shapes_and_3d(self):
        f = gaussian_random_field((17, 23, 9), slope=3.0, seed=2)
        assert f.shape == (17, 23, 9)
        assert np.all(np.isfinite(f))


class TestWaveSimulator:
    def test_energy_appears_and_propagates(self):
        sim = WaveSimulator((64, 64), seed=0)
        sim.step(20)
        early = np.abs(sim.p).max()
        assert early > 0
        # wavefront spreads with time
        r_early = np.abs(sim.p) > 0.01 * early
        sim.step(20)
        late = np.abs(sim.p)
        r_late = late > 0.01 * late.max()
        assert r_late.sum() > r_early.sum()

    def test_stability(self):
        sim = WaveSimulator((48, 48), seed=1)
        sim.step(200)
        assert np.all(np.isfinite(sim.p))
        assert np.abs(sim.p).max() < 1e6  # CFL-stable, no blow-up

    def test_3d_supported(self):
        sim = WaveSimulator((16, 16, 16))
        sim.step(5)
        assert sim.snapshot().shape == (16, 16, 16)

    @pytest.mark.parametrize("shape", [(1, 5), (2, 3), (2, 3, 4), (7, 1, 3)])
    def test_laplacian_wraps_like_roll(self, shape):
        p = np.random.default_rng(0).standard_normal(shape)
        ref = -2.0 * p.ndim * p
        for axis in range(p.ndim):
            ref += np.roll(p, 1, axis=axis) + np.roll(p, -1, axis=axis)
        out = np.empty(shape)
        _laplacian(p, 0.25, out, scratch=np.empty(shape))
        np.testing.assert_array_equal(out, ref * 0.25)

    def test_1d_rejected(self):
        with pytest.raises(ConfigurationError):
            WaveSimulator((64,))

    def test_velocity_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            WaveSimulator((16, 16), velocity=np.ones((8, 8)))

    def test_reset(self):
        sim = WaveSimulator((32, 32))
        sim.step(10)
        sim.reset()
        assert np.all(sim.p == 0) and sim.step_count == 0


class TestGenerators:
    @pytest.mark.parametrize("name", list(DATASETS))
    def test_generator_properties(self, name):
        small = {"cesm": (64, 128)}.get(name, (16, 32, 32))
        f = get_dataset(name, shape=small, seed=0)
        assert f.dtype == np.float32
        assert f.shape == tuple(small)
        assert np.all(np.isfinite(f))
        assert f.max() > f.min()
        # deterministic
        np.testing.assert_array_equal(f, get_dataset(name, shape=small, seed=0))

    def test_registry_complete(self):
        assert set(dataset_names()) == {
            "rtm", "miranda", "cesm", "scale", "nyx", "hurricane",
        }
        assert set(LABELS) == set(DATASETS)

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            get_dataset("climate")

    def test_nyx_has_heavy_tail(self):
        f = get_dataset("nyx", shape=(32, 32, 32))
        assert f.max() / np.median(f) > 5  # log-normal dynamic range

    def test_compressibility_ordering(self):
        """RTM/Miranda must compress far better than NYX/Hurricane
        (paper Table III ordering) under the same relative bound."""
        from repro import SZ3
        from repro.metrics import compression_ratio

        crs = {}
        shapes = {"cesm": (128, 256)}
        for name in ("rtm", "miranda", "hurricane", "nyx"):
            f = get_dataset(name, shape=shapes.get(name, (32, 48, 48)))
            crs[name] = compression_ratio(
                f, SZ3().compress(f, rel_error_bound=1e-2)
            )
        assert crs["rtm"] > crs["nyx"]
        assert crs["miranda"] > crs["hurricane"]
