"""Finite-difference acoustic wave propagation (the RTM substrate).

Reverse time migration compresses snapshots of propagating seismic
wavefields.  This module implements the standard second-order-in-time,
second-order-in-space explicit scheme for the constant-density acoustic
wave equation ``p_tt = c^2 laplacian(p) + s`` with a Ricker-wavelet point
source and simple absorbing (damping sponge) boundaries — enough to
produce realistic smooth wavefronts over a quiescent background, the
structure that gives RTM its very high compression ratios.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError


def ricker(t: np.ndarray, peak_frequency: float) -> np.ndarray:
    """Ricker (Mexican-hat) source wavelet."""
    a = (np.pi * peak_frequency * (t - 1.0 / peak_frequency)) ** 2
    return (1.0 - 2.0 * a) * np.exp(-a)


def _neighbour_sum(p: np.ndarray, axis: int, out: np.ndarray) -> None:
    """``out = np.roll(p, 1, axis) + np.roll(p, -1, axis)``, from slices."""
    n = p.shape[axis]
    lead = (slice(None),) * axis
    # (cells, their left neighbours, their right neighbours) along axis:
    # the interior, then the first and the last cell, which wrap
    for cells, left, right in (
        (slice(1, n - 1), slice(0, n - 2), slice(2, n)),
        (slice(0, 1), slice(n - 1, n), slice(1 % n, 1 % n + 1)),
        (slice(n - 1, n), slice((n - 2) % n, (n - 2) % n + 1), slice(0, 1)),
    ):
        np.add(p[lead + (left,)], p[lead + (right,)], out=out[lead + (cells,)])


def _laplacian(
    p: np.ndarray, inv_h2: float, out: np.ndarray, scratch: np.ndarray
) -> None:
    """Second-order central-difference Laplacian of ``p``, into ``out``.

    The borders are periodic (each axis wraps around); the damping sponge
    absorbs what wraps.  ``scratch`` is overwritten.
    """
    np.multiply(-2.0 * p.ndim, p, out=out)
    for axis in range(p.ndim):
        _neighbour_sum(p, axis, scratch)
        out += scratch
    out *= inv_h2


class WaveSimulator:
    """Explicit FD solver for the acoustic wave equation (2-D or 3-D)."""

    def __init__(
        self,
        shape: Sequence[int],
        velocity: Optional[np.ndarray] = None,
        dx: float = 10.0,
        source: Optional[Tuple[int, ...]] = None,
        peak_frequency: float = 8.0,
        sponge: int = 8,
        seed: int = 0,
    ) -> None:
        self.shape = tuple(int(n) for n in shape)
        if len(self.shape) not in (2, 3):
            raise ConfigurationError("WaveSimulator supports 2-D and 3-D")
        if velocity is None:
            # smooth layered velocity model: 1500..4000 m/s with depth
            depth = np.linspace(0.0, 1.0, self.shape[0])
            v = 1500.0 + 2500.0 * depth
            velocity = np.broadcast_to(
                v.reshape((-1,) + (1,) * (len(self.shape) - 1)), self.shape
            ).copy()
            rng = np.random.default_rng(seed)
            jitter = rng.standard_normal(self.shape)
            np.tanh(jitter, out=jitter)
            jitter *= 0.05
            jitter += 1.0
            velocity *= jitter
            del jitter
        self.velocity = np.asarray(velocity, dtype=np.float64)
        if self.velocity.shape != self.shape:
            raise ConfigurationError("velocity model shape mismatch")
        self.dx = float(dx)
        # CFL-stable time step
        vmax = float(self.velocity.max())
        self.dt = 0.4 * self.dx / (vmax * np.sqrt(len(self.shape)))
        self.source = source or tuple(n // 2 for n in self.shape)
        self.peak_frequency = float(peak_frequency)
        self._damp = self._sponge_profile(sponge)
        self.reset()

    def _sponge_profile(self, width: int) -> np.ndarray:
        """Multiplicative damping mask decaying toward every boundary."""
        damp = np.ones(self.shape)
        if width <= 0:
            return damp
        for axis, n in enumerate(self.shape):
            ramp = np.ones(n)
            edge = np.arange(width)
            decay = np.exp(-0.015 * (width - edge) ** 2)
            ramp[:width] = decay
            ramp[-width:] = decay[::-1]
            damp *= ramp.reshape(
                (1,) * axis + (-1,) + (1,) * (len(self.shape) - axis - 1)
            )
        return damp

    def reset(self) -> None:
        """Zero the pressure fields and the clock."""
        self.p = np.zeros(self.shape)
        self.p_prev = np.zeros(self.shape)
        # step()'s Laplacian and spare buffer, reused by every step
        self._lap = np.empty(self.shape)
        self._spare = np.empty(self.shape)
        self.step_count = 0

    def step(self, n: int = 1) -> None:
        """Advance ``n`` time steps.

        ``p`` and ``p_prev`` are the solver's working buffers, overwritten
        by later steps; keep a ``snapshot()``.
        """
        c2dt2 = self.velocity * self.dt
        c2dt2 **= 2
        inv_h2 = 1.0 / (self.dx * self.dx)
        lap = self._lap
        for _ in range(n):
            t = self.step_count * self.dt
            _laplacian(self.p, inv_h2, out=lap, scratch=self._spare)
            lap *= c2dt2
            # p_next = 2 p - p_prev + c2dt2 lap, in the spare buffer
            p_next = np.multiply(2.0, self.p, out=self._spare)
            p_next -= self.p_prev
            p_next += lap
            p_next[self.source] += (
                ricker(np.array([t]), self.peak_frequency)[0] * self.dt**2
            )
            p_next *= self._damp
            np.multiply(self.p, self._damp, out=self.p_prev)
            self._spare, self.p = self.p, p_next
            self.step_count += 1

    def snapshot(self, dtype=np.float32) -> np.ndarray:
        """Copy of the current pressure field."""
        return self.p.astype(dtype)
