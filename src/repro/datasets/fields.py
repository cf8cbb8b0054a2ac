"""Application-like field generators (one per paper dataset).

Default shapes are laptop-scale stand-ins for the SDRBench fields (which
range up to 449x449x235 per field); every generator accepts a ``shape``
override, so the benchmarks can be scaled up on bigger machines.  All
fields are float32, matching the paper's datasets.

Each recipe computes in place: its Gaussian random field first, then the
same elementwise operations in the same association, written into
buffers it already holds (``a + b`` may become ``b += a``; IEEE ``+`` and
``*`` commute, a regrouping would change the bits), so a call peaks at
a few float64 copies of its field (DESIGN.md §3).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.datasets.spectral import gaussian_random_field
from repro.datasets.wave import WaveSimulator


def cesm_like(
    shape: Optional[Sequence[int]] = None, seed: int = 0
) -> np.ndarray:
    """2-D climate field (CESM-ATM stand-in).

    Multi-scale atmospheric structure: a strong zonal (latitude) gradient,
    a moderately rough spectral component, and a sharp front band —
    cloud-fraction-like fields mix smooth regions with discontinuities.
    """
    shape = tuple(shape) if shape else (450, 900)
    ny, nx = shape
    # base + turb + front, front = 0.5 tanh(12 (0.25 - |lat + wave|))
    turb = gaussian_random_field(shape, slope=3.2, seed=seed)
    turb *= 0.45
    lat = np.linspace(-1.0, 1.0, ny)[:, None]
    base = 1.2 * (1.0 - lat * lat)  # warm equator, cold poles
    front = lat + 0.15 * np.sin(np.linspace(0, 4 * np.pi, nx)[None, :])
    np.abs(front, out=front)
    np.subtract(0.25, front, out=front)
    front *= 12.0
    np.tanh(front, out=front)
    front *= 0.5
    turb += base
    turb += front
    return turb.astype(np.float32)


def miranda_like(
    shape: Optional[Sequence[int]] = None, seed: int = 0
) -> np.ndarray:
    """3-D turbulent-mixing field (Miranda stand-in).

    Miranda's radiation-hydrodynamics fields are extremely smooth (the
    paper's highest compression ratios): a steep spectrum plus a smooth
    density interface between two mixing layers.
    """
    shape = tuple(shape) if shape else (64, 96, 96)
    nz = shape[0]
    depth = np.linspace(-1.0, 1.0, nz).reshape((-1,) + (1,) * (len(shape) - 1))
    # 1.5 + tanh(6 (depth + 0.15 grf)) + 0.2 grf'
    interface = gaussian_random_field(shape, slope=7.0, seed=seed)
    interface *= 0.15
    interface += depth
    interface *= 6.0
    np.tanh(interface, out=interface)
    smooth = gaussian_random_field(shape, slope=7.0, seed=seed + 1)
    smooth *= 0.2
    interface += 1.5
    interface += smooth
    return interface.astype(np.float32)


def nyx_like(
    shape: Optional[Sequence[int]] = None, seed: int = 0
) -> np.ndarray:
    """3-D cosmological baryon density (NYX stand-in).

    Log-normal density with a huge dynamic range and filamentary
    concentration — the paper's hardest dataset (lowest ratios).
    """
    shape = tuple(shape) if shape else (96, 96, 96)
    g = gaussian_random_field(shape, slope=3.0, seed=seed)
    g *= 1.5
    np.exp(g, out=g)
    return g.astype(np.float32)


def hurricane_like(
    shape: Optional[Sequence[int]] = None, seed: int = 0
) -> np.ndarray:
    """3-D storm wind-speed field (Hurricane-Isabel stand-in).

    A strong axisymmetric vortex whose core drifts with height, over
    moderately rough large-scale flow.
    """
    shape = tuple(shape) if shape else (32, 96, 96)
    nz, ny, nx = shape
    ambient = gaussian_random_field(shape, slope=4.0, seed=seed)
    ambient *= 5.0
    z = np.linspace(0.0, 1.0, nz)[:, None, None]
    y = np.linspace(-1.0, 1.0, ny)[None, :, None]
    x = np.linspace(-1.0, 1.0, nx)[None, None, :]
    cx = 0.25 * np.cos(2.5 * z)
    cy = 0.25 * np.sin(2.5 * z)
    rmax2 = 0.05
    # speed = 55 sqrt(r2 / rmax2) exp(0.5 (1 - r2 / rmax2)), r2 the
    # squared distance to the drifting core
    speed = (x - cx) ** 2 + (y - cy) ** 2
    speed /= rmax2
    envelope = np.subtract(1.0, speed)
    envelope *= 0.5
    np.exp(envelope, out=envelope)
    np.sqrt(speed, out=speed)
    speed *= 55.0
    speed *= envelope
    del envelope
    decay = 1.0 - 0.5 * z
    speed *= decay
    speed += ambient
    return speed.astype(np.float32)


def scale_letkf_like(
    shape: Optional[Sequence[int]] = None, seed: int = 0
) -> np.ndarray:
    """3-D regional-weather state (SCALE-LETKF stand-in).

    Thin vertical extent with strongly layered structure plus horizontal
    mesoscale variability (the dataset is 98x1200x1200 in the paper).
    """
    shape = tuple(shape) if shape else (24, 160, 160)
    nz = shape[0]
    # profile + horizontal (0.4 + z) + shear
    horizontal = gaussian_random_field(shape, slope=4.0, seed=seed)
    horizontal *= 8.0
    z = np.linspace(0.0, 1.0, nz).reshape((-1, 1, 1))
    profile = 300.0 * np.exp(-1.6 * z)  # pressure/temperature-like decay
    shear = 5.0 * np.sin(3.0 * np.pi * z)
    horizontal *= 0.4 + z
    horizontal += profile
    horizontal += shear
    return horizontal.astype(np.float32)


def rtm_like(
    shape: Optional[Sequence[int]] = None,
    seed: int = 0,
    steps: Optional[int] = None,
) -> np.ndarray:
    """3-D seismic wavefield snapshot (RTM stand-in).

    Runs the FD acoustic solver long enough for the wavefront to span
    roughly half the domain: smooth oscillatory fronts over a quiescent
    background, which is why RTM compresses by factors of hundreds.
    """
    shape = tuple(shape) if shape else (64, 80, 80)
    sim = WaveSimulator(shape, seed=seed)
    if steps is None:
        steps = int(0.6 * max(shape))
    sim.step(steps)
    snap = sim.p  # float64; the rest of the solver's state goes with sim
    del sim
    peak = max(snap.max(), -snap.min())  # max |snap|, without |snap|
    if peak > 0:
        snap /= peak
    return snap.astype(np.float32)
