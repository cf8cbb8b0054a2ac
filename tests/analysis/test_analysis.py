"""Tests for the experiment harness (one measurement, CR search, reports,
PGM)."""

import os

import numpy as np
import pytest

from repro import SZ3
from repro.analysis import (
    CRNotReachedError,
    evaluate_once,
    find_error_bound_for_cr,
    format_table,
    write_pgm,
)


def field(n=96, seed=0):
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 2 * np.pi, n)
    return (
        np.sin(x)[:, None] * np.cos(x)[None, :]
        + 0.01 * rng.standard_normal((n, n))
    ).astype(np.float32)


class TestEvaluate:
    def test_single_point_fields(self):
        pt = evaluate_once(SZ3(), field(), 1e-3)
        assert pt.compression_ratio > 1
        assert pt.bit_rate == pytest.approx(
            32.0 / pt.compression_ratio, rel=1e-6
        )
        assert pt.max_error <= pt.abs_eb
        assert 0 < pt.ssim <= 1

    def test_curve_monotonicity(self):
        pts = [evaluate_once(SZ3(), field(), e) for e in (1e-2, 1e-3, 1e-4)]
        rates = [p.bit_rate for p in pts]
        psnrs = [p.psnr for p in pts]
        assert rates == sorted(rates)  # tighter bound -> more bits
        assert psnrs == sorted(psnrs)  # tighter bound -> better quality

    def test_skip_ssim(self):
        pt = evaluate_once(SZ3(), field(), 1e-3, compute_ssim=False)
        assert pt.ssim != pt.ssim  # NaN


class TestCRSearch:
    def test_hits_target(self):
        data = field(128, seed=1)
        rel_eb, cr, blob = find_error_bound_for_cr(SZ3(), data, 20.0)
        assert abs(cr - 20.0) <= 0.15 * 20.0
        assert isinstance(blob, bytes) and len(blob) > 0

    def test_unreachable_target_raises_with_the_reached_range(self):
        """A bound interval too tight for the target CR is an error that
        says which CRs the search did reach, not a point at the wrong CR."""
        data = field(128, seed=3)
        with pytest.raises(CRNotReachedError, match="not reached") as info:
            find_error_bound_for_cr(SZ3(), data, 20.0, lo=1e-7, hi=1e-5)
        low, high = info.value.reached
        assert 0.0 < low <= high < 0.95 * 20.0
        rel_eb, cr, blob = info.value.closest
        assert cr == high and rel_eb <= 1e-5 and len(blob) > 0

    def test_monotone_direction(self):
        data = field(128, seed=2)
        eb_lo, _, _ = find_error_bound_for_cr(SZ3(), data, 10.0)
        eb_hi, _, _ = find_error_bound_for_cr(SZ3(), data, 40.0)
        assert eb_hi > eb_lo  # larger CR needs looser bound


class TestReport:
    def test_format_table(self):
        s = format_table(
            ["dataset", "CR"], [["rtm", 123.456], ["nyx", 9.1]], title="T"
        )
        lines = s.splitlines()
        assert lines[0] == "T"
        assert "dataset" in lines[1]
        assert "123" in s and "9.10" in s

    def test_handles_nan_and_ints(self):
        s = format_table(["a"], [[float("nan")], [3]])
        assert "nan" in s and "3" in s


class TestPGM:
    def test_writes_valid_pgm(self, tmp_path):
        path = os.path.join(tmp_path, "f.pgm")
        write_pgm(field(32), path)
        with open(path, "rb") as fh:
            data = fh.read()
        assert data.startswith(b"P5\n32 32\n255\n")
        assert len(data) == len(b"P5\n32 32\n255\n") + 32 * 32

    def test_constant_field(self, tmp_path):
        path = os.path.join(tmp_path, "c.pgm")
        write_pgm(np.zeros((4, 4)), path)
        assert os.path.getsize(path) > 0

    def test_rejects_3d(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(np.zeros((2, 2, 2)), os.path.join(tmp_path, "x.pgm"))
