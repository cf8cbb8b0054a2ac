"""Tests for the shared interpolation compression engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import (
    InterpPlan,
    LevelPlan,
    PassStats,
    execute_passes,
    interp_compress,
    interp_decompress,
)
from repro.core.interpolation import CUBIC, LINEAR
from repro.core.levels import (
    ORDER_BACKWARD,
    ORDER_FORWARD,
    max_level_for_anchor,
    max_level_for_shape,
)
from repro.quantize.linear import LinearQuantizer


def make_plan(shape, eb, method=CUBIC, anchor=0, order_id=0, alpha=1.0, beta=1.0):
    top = (
        min(max_level_for_anchor(anchor), max_level_for_shape(shape))
        if anchor
        else max_level_for_shape(shape)
    )
    levels = {
        l: LevelPlan(
            eb=eb / min(alpha ** (l - 1), beta) if l > 1 else eb,
            method=method,
            order_id=order_id,
        )
        for l in range(1, top + 1)
    }
    return InterpPlan(levels=levels, anchor_stride=anchor)


def smooth_field(shape, seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(int(np.prod(shape)))).reshape(shape)
    return x / max(np.abs(x).max(), 1.0)


class TestRoundtrip:
    @pytest.mark.parametrize(
        "shape", [(50,), (31, 17), (64, 64), (9, 11, 13), (32, 32, 32)]
    )
    @pytest.mark.parametrize("method", [LINEAR, CUBIC])
    def test_roundtrip_bound_and_determinism(self, shape, method):
        data = smooth_field(shape)
        plan = make_plan(shape, 1e-3, method=method)
        codes, outliers, known, work = interp_compress(data, plan)
        recon = interp_decompress(shape, plan, codes, outliers, known)
        np.testing.assert_array_equal(recon, work)
        assert np.abs(recon - data).max() <= 1e-3
        # second decompression identical
        recon2 = interp_decompress(shape, plan, codes, outliers, known)
        np.testing.assert_array_equal(recon, recon2)

    @pytest.mark.parametrize("anchor", [4, 8, 16])
    def test_anchored_roundtrip(self, anchor):
        shape = (40, 56)
        data = smooth_field(shape, seed=3)
        plan = make_plan(shape, 5e-4, anchor=anchor)
        codes, outliers, known, _ = interp_compress(data, plan)
        recon = interp_decompress(shape, plan, codes, outliers, known)
        assert np.abs(recon - data).max() <= 5e-4
        # anchors are stored exactly
        np.testing.assert_array_equal(
            recon[::anchor, ::anchor], data[::anchor, ::anchor]
        )

    def test_code_count_covers_all_points(self):
        shape = (33, 29)
        data = smooth_field(shape, seed=1)
        plan = make_plan(shape, 1e-3)
        codes, _, known, _ = interp_compress(data, plan)
        assert codes.size + known.size == data.size

    def test_level_wise_error_bounds_respected(self):
        # alpha=2, beta=4: higher levels must be more accurate
        shape = (64, 64)
        data = smooth_field(shape, seed=2)
        plan = make_plan(shape, 1e-2, alpha=2.0, beta=4.0)
        codes, outliers, known, _ = interp_compress(data, plan)
        recon = interp_decompress(shape, plan, codes, outliers, known)
        assert np.abs(recon - data).max() <= 1e-2
        # points on the level-2 grid (stride 2) were bounded by eb/2 at
        # quantization time; their final error also includes nothing else
        lvl2 = np.abs(recon - data)[::2, ::2]
        assert lvl2.max() <= 1e-2 / 2 + 1e-12

    def test_backward_order_changes_stream_but_roundtrips(self):
        shape = (24, 16)
        data = smooth_field(shape, seed=4)
        plan_f = make_plan(shape, 1e-3)
        plan_b = make_plan(shape, 1e-3, order_id=ORDER_BACKWARD)
        codes_f, *_ = interp_compress(data, plan_f)
        codes_b, out_b, known_b, _ = interp_compress(data, plan_b)
        recon = interp_decompress(shape, plan_b, codes_b, out_b, known_b)
        assert np.abs(recon - data).max() <= 1e-3
        assert not np.array_equal(codes_f, codes_b)

    def test_stats_collection(self):
        shape = (32, 32)
        data = smooth_field(shape, seed=5)
        plan = make_plan(shape, 1e-3)
        stats = PassStats()
        interp_compress(data, plan, stats=stats)
        top = max_level_for_shape(shape)
        assert set(stats.count) == set(range(1, top + 1))
        assert all(v >= 0 for v in stats.abs_err_sum.values())
        assert stats.mean_abs_error(1) >= 0.0

    def test_outlier_heavy_input(self, rng):
        # white noise with tiny bound: mostly within radius but check path
        data = rng.standard_normal((20, 20)) * 1e6
        plan = make_plan((20, 20), 1e-7)
        codes, outliers, known, _ = interp_compress(data, plan)
        recon = interp_decompress((20, 20), plan, codes, outliers, known)
        assert np.abs(recon - data).max() <= 1e-7

    def test_constant_field_compresses_to_all_zero_residuals(self):
        data = np.full((32, 32), 3.25)
        plan = make_plan((32, 32), 1e-3)
        codes, outliers, known, _ = interp_compress(data, plan)
        from repro.quantize.linear import DEFAULT_RADIUS

        assert np.all(codes == DEFAULT_RADIUS)
        assert outliers.size == 0


class TestCoarseLevelsOnSubGrid:
    """Levels >= 3 (stride >= 4) touch only points on the stride-4
    lattice, so running them on the contiguous sub-grid ``data[::4, ...]``
    as levels >= 1 must give the same codes, outliers and reconstruction
    as running them on the full array.  A dense coarse path and a
    candidate-stacked coarse run both rest on this."""

    @pytest.mark.parametrize(
        "shape", [(37, 50), (64, 64), (33, 20, 45), (32, 32, 32)]
    )
    @pytest.mark.parametrize("method", [LINEAR, CUBIC])
    @pytest.mark.parametrize("order_id", [ORDER_FORWARD, ORDER_BACKWARD])
    @pytest.mark.parametrize("anchor", [0, 16])
    def test_same_codes_outliers_and_reconstruction(
        self, shape, method, order_id, anchor
    ):
        rng = np.random.default_rng(3)
        # the noise puts outliers on the coarse levels of a small radius
        data = smooth_field(shape) + 0.05 * rng.standard_normal(shape)
        # distinct bounds per level, so a level mapped one off shows
        plan = make_plan(shape, 1e-3, method=method, anchor=anchor,
                         order_id=order_id, alpha=1.5, beta=8.0)
        plan.radius = 16
        top = plan.max_level(shape)
        assert top >= 3

        full = data.astype(np.float64)
        q_full = LinearQuantizer(radius=plan.radius)
        for level in range(top, 2, -1):
            execute_passes(full, plan, q_full, compress=True, only_level=level)
        codes, outliers = q_full.harvest()

        sub_plan = InterpPlan(
            levels={l - 2: plan.levels[l] for l in range(3, top + 1)},
            anchor_stride=anchor // 4, radius=plan.radius,
        )
        sub = np.ascontiguousarray(data[(slice(None, None, 4),) * data.ndim])
        sub_codes, sub_outliers, sub_known, sub_work = interp_compress(
            sub, sub_plan
        )
        assert sub_plan.max_level(sub.shape) == top - 2
        np.testing.assert_array_equal(sub_codes, codes)
        np.testing.assert_array_equal(sub_outliers, outliers)
        assert outliers.size > 0
        lattice = (slice(None, None, 4),) * data.ndim
        np.testing.assert_array_equal(sub_work, full[lattice])
        # the finer levels were not run: every other point is untouched
        off = np.ones(shape, dtype=bool)
        off[lattice] = False
        np.testing.assert_array_equal(full[off], data[off])
        # and the sub-grid decodes the full run's codes to the same values
        np.testing.assert_array_equal(
            interp_decompress(sub.shape, sub_plan, codes, outliers, sub_known),
            full[lattice],
        )


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.integers(min_value=2, max_value=40),
    st.integers(min_value=1, max_value=3),
    st.floats(min_value=1e-6, max_value=1e-1),
    st.sampled_from([LINEAR, CUBIC]),
)
def test_engine_bound_property(seed, extent, ndim, eb, method):
    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(2, extent + 1, size=ndim))
    data = rng.standard_normal(shape)
    plan = make_plan(shape, eb, method=method)
    codes, outliers, known, _ = interp_compress(data, plan)
    recon = interp_decompress(shape, plan, codes, outliers, known)
    assert np.abs(recon - data).max() <= eb
