"""Tests for QoZ's online machinery: sampling, Algorithm 1, Table I tuning."""

import numpy as np
import pytest

from repro.core.interpolation import CUBIC, LINEAR
from repro.core.levels import max_level_for_shape
from repro.core.sampling import effective_block_size, sample_blocks, sampling_stride
from repro.core.selection import (
    CANDIDATES,
    SelectionResult,
    select_global_interpolator,
    select_interpolators,
)
from repro.core.tuning import (
    ALPHA_CANDIDATES,
    BETA_CANDIDATES,
    TrialResult,
    _line_side_compare,
    level_error_bounds,
    tune_parameters,
)
from repro.errors import ConfigurationError


def smooth(shape, seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(int(np.prod(shape)))).reshape(shape)
    return x / np.abs(x).max()


class TestSampling:
    def test_block_stack_shape(self):
        data = smooth((128, 128))
        blocks, b = sample_blocks(data, 16, 0.05)
        assert b == 16
        assert blocks.shape[1:] == (16, 16)
        assert blocks.shape[0] >= 1

    def test_sample_rate_roughly_respected(self):
        data = smooth((256, 256))
        blocks, b = sample_blocks(data, 16, 0.04)
        rate = blocks.size / data.size
        assert 0.01 <= rate <= 0.16  # within ~4x of requested

    def test_block_shrinks_for_small_input(self):
        data = smooth((20, 10))
        blocks, b = sample_blocks(data, 64, 0.5)
        assert b <= 8  # power of two fitting the smallest extent
        assert blocks.shape[0] >= 1

    def test_blocks_are_actual_data(self):
        data = smooth((64, 64))
        blocks, b = sample_blocks(data, 16, 0.9)
        np.testing.assert_array_equal(blocks[0], data[:b, :b])

    def test_invalid_rate_raises(self):
        with pytest.raises(ConfigurationError):
            sampling_stride(16, 0.0, 2)
        with pytest.raises(ConfigurationError):
            sampling_stride(16, 1.5, 2)

    def test_non_pow2_block_rejected(self):
        with pytest.raises(ConfigurationError):
            effective_block_size((64, 64), 24)

    def test_3d_sampling(self):
        data = smooth((48, 48, 48))
        blocks, b = sample_blocks(data, 16, 0.01)
        assert blocks.shape[1:] == (b,) * 3


class TestSelection:
    def test_smooth_data_prefers_cubic(self):
        # a cubic-friendly smooth field
        x = np.linspace(0, 3 * np.pi, 64)
        data = np.sin(x)[:, None] * np.cos(x)[None, :]
        blocks, _ = sample_blocks(data, 32, 0.5)
        result = select_interpolators(blocks, 1e-4)
        assert result.per_level[1][0] == CUBIC

    def test_result_has_every_block_level(self):
        data = smooth((64, 64), seed=1)
        blocks, b = sample_blocks(data, 16, 0.2)
        result = select_interpolators(blocks, 1e-3)
        assert set(result.per_level) == set(range(1, max_level_for_shape((b, b)) + 1))

    def test_higher_levels_reuse_top_selection(self):
        result = SelectionResult(per_level={1: (LINEAR, 0), 2: (CUBIC, 1)},
                                 l1_errors={})
        assert result.interpolator(2) == (CUBIC, 1)
        assert result.interpolator(9) == (CUBIC, 1)

    def test_global_selection_returns_candidate(self):
        data = smooth((64, 64), seed=2)
        blocks, _ = sample_blocks(data, 16, 0.2)
        choice = select_global_interpolator(blocks, 1e-3)
        assert choice in CANDIDATES

    def test_anisotropic_data_picks_matching_order(self):
        # variation only along axis 1: interpolating along axis 1 first
        # (backward order for 2-D) vs forward changes the error; selection
        # must pick one of the two deterministically
        data = np.tile(np.sin(np.linspace(0, 8 * np.pi, 64)), (64, 1))
        data += smooth((64, 64), seed=3) * 1e-3
        blocks, _ = sample_blocks(data, 16, 0.3)
        result = select_interpolators(blocks, 1e-4)
        assert result.per_level[1] in CANDIDATES


class TestLevelErrorBounds:
    def test_formula_matches_paper_eq5(self):
        ebs = level_error_bounds(0.1, 2.0, 4.0, 5)
        assert ebs[1] == 0.1
        assert ebs[2] == pytest.approx(0.1 / 2.0)
        assert ebs[3] == pytest.approx(0.1 / 4.0)  # min(alpha^2, beta) = 4
        assert ebs[4] == pytest.approx(0.1 / 4.0)  # beta caps
        assert ebs[5] == pytest.approx(0.1 / 4.0)

    def test_monotone_non_increasing_with_level(self):
        for alpha in ALPHA_CANDIDATES:
            for beta in BETA_CANDIDATES:
                ebs = level_error_bounds(1e-3, alpha, beta, 8)
                vals = [ebs[l] for l in range(1, 9)]
                assert all(a >= b for a, b in zip(vals, vals[1:]))
                assert max(vals) == ebs[1] == 1e-3

    def test_invalid_alpha_raises(self):
        with pytest.raises(ConfigurationError):
            level_error_bounds(1e-3, 0.5, 2.0, 4)


class TestTableOneComparison:
    def test_line_side_challenger_wins_when_incumbent_below(self):
        inc = TrialResult(1, 1, bit_rate=2.0, metric=50.0)
        cha = TrialResult(2, 4, bit_rate=1.0, metric=45.0)
        ret = TrialResult(2, 4, bit_rate=3.0, metric=60.0)
        # line through (1,45),(3,60): at B=2 -> 52.5 > 50 -> challenger wins
        assert _line_side_compare(inc, cha, ret) is True

    def test_line_side_incumbent_wins_when_above(self):
        inc = TrialResult(1, 1, bit_rate=2.0, metric=55.0)
        cha = TrialResult(2, 4, bit_rate=1.0, metric=45.0)
        ret = TrialResult(2, 4, bit_rate=3.0, metric=60.0)
        assert _line_side_compare(inc, cha, ret) is False

    def test_degenerate_line_falls_back_to_metric(self):
        inc = TrialResult(1, 1, bit_rate=2.0, metric=50.0)
        cha = TrialResult(2, 4, bit_rate=2.0, metric=51.0)
        ret = TrialResult(2, 4, bit_rate=2.0, metric=51.0)
        assert _line_side_compare(inc, cha, ret) is True


class TestTuning:
    def setup_method(self):
        self.data = smooth((96, 96), seed=7)
        self.blocks, b = sample_blocks(self.data, 16, 0.1)
        self.selection = select_interpolators(self.blocks, 1e-3)
        self.top = max_level_for_shape((b, b))

    def test_cr_mode_picks_min_bitrate(self):
        outcome = tune_parameters(
            self.blocks, 1e-3, self.selection, self.top, metric="cr"
        )
        rates = {(t.alpha, t.beta): t.bit_rate for t in outcome.trials}
        assert rates[(outcome.alpha, outcome.beta)] == min(rates.values())

    def test_tries_all_candidates(self):
        outcome = tune_parameters(
            self.blocks, 1e-3, self.selection, self.top, metric="cr"
        )
        assert len(outcome.trials) == len(ALPHA_CANDIDATES) * len(BETA_CANDIDATES)

    def test_psnr_mode_produces_metric_values(self):
        outcome = tune_parameters(
            self.blocks, 1e-3, self.selection, self.top, metric="psnr",
            data_range=float(self.data.max() - self.data.min()),
        )
        assert all(t.metric is not None for t in outcome.trials)
        assert (outcome.alpha, outcome.beta) in {
            (a, b) for a in ALPHA_CANDIDATES for b in BETA_CANDIDATES
        }

    def test_ac_mode_metric_is_nonpositive(self):
        outcome = tune_parameters(
            self.blocks, 1e-3, self.selection, self.top, metric="ac"
        )
        assert all(t.metric <= 0 for t in outcome.trials)

    def test_invalid_metric_raises(self):
        with pytest.raises(ConfigurationError):
            tune_parameters(self.blocks, 1e-3, self.selection, self.top,
                            metric="nope")

    def test_restricted_candidate_grid(self):
        outcome = tune_parameters(
            self.blocks, 1e-3, self.selection, self.top, metric="cr",
            alphas=(1.0, 2.0), betas=(2.0,),
        )
        assert len(outcome.trials) == 2
        assert outcome.beta == 2.0

    @pytest.mark.parametrize("grid", [dict(alphas=()), dict(betas=())])
    def test_empty_candidate_grid_is_a_configuration_error(self, grid):
        # used to die on `best.alpha` with best = None
        with pytest.raises(ConfigurationError):
            tune_parameters(self.blocks, 1e-3, self.selection, self.top, **grid)

    def test_one_eq5_expansion_per_candidate(self, monkeypatch):
        """The memo key and the trial plan come from the same expansion:
        20 grid points, no re-trials in 'cr' mode, 20 calls."""
        import repro.core.tuning as tuning

        calls = []
        real = tuning.level_error_bounds

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(tuning, "level_error_bounds", counting)
        outcome = tune_parameters(
            self.blocks, 1e-3, self.selection, self.top, metric="cr"
        )
        assert len(calls) == len(outcome.trials)
