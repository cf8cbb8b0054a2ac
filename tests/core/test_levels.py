"""Tests for multi-level grid geometry and pass traversal."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.levels import (
    ORDER_BACKWARD,
    ORDER_FORWARD,
    anchor_count,
    anchor_slices,
    dim_order,
    level_pass_specs,
    max_level_for_anchor,
    max_level_for_shape,
    pass_schedule,
    total_pass_targets,
)
from repro.errors import ConfigurationError


class TestLevelCounts:
    def test_max_level_for_shape(self):
        assert max_level_for_shape((512,)) == 9
        assert max_level_for_shape((513,)) == 10
        assert max_level_for_shape((100, 500, 500)) == 9
        assert max_level_for_shape((1,)) == 1

    def test_max_level_for_anchor(self):
        assert max_level_for_anchor(64) == 6
        assert max_level_for_anchor(32) == 5
        assert max_level_for_anchor(2) == 1

    def test_anchor_not_pow2_raises(self):
        with pytest.raises(ConfigurationError):
            max_level_for_anchor(48)

    def test_dim_order(self):
        assert dim_order(3, ORDER_FORWARD) == (0, 1, 2)
        assert dim_order(3, ORDER_BACKWARD) == (2, 1, 0)
        with pytest.raises(ConfigurationError):
            dim_order(2, 7)


class TestCoverage:
    """Anchors/root + all pass targets must partition the array."""

    @pytest.mark.parametrize(
        "shape",
        [(17,), (64,), (65,), (33, 47), (64, 64), (13, 21, 19), (32, 32, 32),
         (5, 6, 7, 8)],
    )
    def test_targets_plus_root_cover_array(self, shape):
        top = max_level_for_shape(shape)
        total = total_pass_targets(shape, top)
        assert total + 1 == int(np.prod(shape))

    @pytest.mark.parametrize("shape,anchor", [((64, 64), 16), ((33, 47), 8),
                                              ((32, 32, 32), 32)])
    def test_targets_plus_anchors_cover_array(self, shape, anchor):
        top = max_level_for_anchor(anchor)
        total = total_pass_targets(shape, top)
        assert total + anchor_count(shape, anchor) == int(np.prod(shape))

    def test_every_point_targeted_exactly_once(self):
        # mark targets with a counter array and assert all-ones
        shape = (24, 18)
        counts = np.zeros(shape, dtype=np.int64)
        top = max_level_for_shape(shape)
        for level in range(top, 0, -1):
            for spec in level_pass_specs(shape, level, (0, 1)):
                view = np.moveaxis(counts[spec.view_slices], spec.axis, -1)
                view[..., 1::2] += 1
        counts[0, 0] += 1  # root
        np.testing.assert_array_equal(counts, 1)

    def test_order_does_not_change_coverage(self):
        shape = (16, 24, 12)
        for order in [(0, 1, 2), (2, 1, 0), (1, 0, 2)]:
            total = 0
            top = max_level_for_shape(shape)
            for level in range(top, 0, -1):
                for spec in level_pass_specs(shape, level, order):
                    total += spec.n_targets
            assert total + 1 == 16 * 24 * 12


class TestPassSpecs:
    def test_pass_target_count_matches_view(self):
        shape = (20, 30)
        for level in (1, 2, 3):
            for spec in level_pass_specs(shape, level, (0, 1)):
                arr = np.zeros(shape)
                view = np.moveaxis(arr[spec.view_slices], spec.axis, -1)
                m = spec.grid_len // 2
                assert view[..., 1::2].size == spec.n_targets
                assert view.shape[-1] == spec.grid_len
                assert m >= 1

    def test_invalid_order_rejected(self):
        with pytest.raises(ConfigurationError):
            list(level_pass_specs((8, 8), 1, (0, 0)))

    def test_anchor_slices_extract_grid(self):
        a = np.arange(64).reshape(8, 8)
        sel = anchor_slices(2, 4)
        np.testing.assert_array_equal(a[sel], [[0, 4], [32, 36]])

    def test_huge_stride_skips_passes(self):
        # stride larger than every extent -> no targets at that level
        specs = list(level_pass_specs((8, 8), 5, (0, 1)))
        assert specs == []


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=3),
)
def test_coverage_property(shape):
    shape = tuple(shape)
    top = max_level_for_shape(shape)
    assert total_pass_targets(shape, top) + 1 == int(np.prod(shape))


class TestPassSchedule:
    """The memoised schedule is `level_pass_specs` + `np.moveaxis`, resolved."""

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.lists(st.integers(1, 17), min_size=1, max_size=4).map(tuple),
        level=st.integers(1, 6),
        order_id=st.sampled_from([ORDER_FORWARD, ORDER_BACKWARD]),
        batch=st.booleans(),
    )
    def test_reproduces_the_specified_views(self, shape, level, order_id, batch):
        full = ((3,) if batch else ()) + shape
        # every element carries its own flat index, so equal views mean the
        # same points in the same scan order
        arr = np.arange(int(np.prod(full))).reshape(full)
        lead = (slice(None),) if batch else ()
        specs = list(level_pass_specs(shape, level, dim_order(len(shape), order_id)))
        schedule = pass_schedule(shape, level, order_id, batch)
        assert len(schedule) == len(specs)
        for spec, (index, perm, line_targets) in zip(specs, schedule):
            want = np.moveaxis(
                arr[lead + spec.view_slices], spec.axis + len(lead), -1
            )
            got = arr[index].transpose(perm)
            np.testing.assert_array_equal(got, want)
            assert got.strides == want.strides
            assert line_targets == spec.grid_len // 2
            targets = got[..., 1::2]
            assert targets.shape[-1] == line_targets
            assert targets.size == spec.n_targets * (3 if batch else 1)

    def test_unknown_order_id_is_rejected_and_not_cached(self):
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                pass_schedule((8, 8), 1, 7, False)

    def test_cache_is_bounded_and_holds_no_array(self):
        info = pass_schedule.cache_info()
        assert info.maxsize is not None and 0 < info.maxsize <= 4096
        for entry in pass_schedule((9, 6, 5), 2, ORDER_BACKWARD, True):
            assert all(isinstance(s, slice) for s in entry.index)
            assert all(isinstance(a, int) for a in entry.perm)
            assert isinstance(entry.line_targets, int)
        # repeated keys are answered from the cache, by identity
        assert pass_schedule((9, 6, 5), 2, ORDER_BACKWARD, True) is pass_schedule(
            (9, 6, 5), 2, ORDER_BACKWARD, True
        )
