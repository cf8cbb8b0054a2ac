"""Analytic model of parallel data dumping/loading through a shared PFS.

``T_dump = data_per_core / compress_rate + total_compressed / BW(cores)``
(and symmetrically for loading), with the aggregate parallel-filesystem
bandwidth following a saturating curve ``BW(c) = BW_peak * c / (c + c_half)``
— small runs are compute-bound, large runs are bandwidth-bound, which is
what produces Fig. 14's crossover where the highest-CR codec wins.
Defaults approximate Bebop's Lustre system (~100 GB/s peak).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class IOSystemModel:
    """A cluster + parallel-filesystem performance model."""

    peak_bandwidth_gbs: float = 100.0  # aggregate PFS GB/s at saturation
    half_saturation_cores: int = 512  # cores at which BW reaches half peak
    per_core_gb: float = 1.3  # paper: 1.3 GB per core

    def aggregate_bandwidth_gbs(self, cores: int) -> float:
        """Saturating aggregate bandwidth for a run of ``cores`` cores."""
        if cores <= 0:
            raise ConfigurationError("cores must be positive")
        return (
            self.peak_bandwidth_gbs * cores / (cores + self.half_saturation_cores)
        )

    def dump_time_s(
        self, cores: int, compression_ratio: float, compress_mbps: float
    ) -> float:
        """Seconds to compress + write everything (compression overlaps
        across cores, writes share the PFS)."""
        if compression_ratio <= 0 or compress_mbps <= 0:
            raise ConfigurationError("CR and throughput must be positive")
        compute = self.per_core_gb * 1024.0 / compress_mbps
        total_gb = self.per_core_gb * cores / compression_ratio
        write = total_gb / self.aggregate_bandwidth_gbs(cores)
        return compute + write

    def load_time_s(
        self, cores: int, compression_ratio: float, decompress_mbps: float
    ) -> float:
        """Seconds to read + decompress everything."""
        if compression_ratio <= 0 or decompress_mbps <= 0:
            raise ConfigurationError("CR and throughput must be positive")
        total_gb = self.per_core_gb * cores / compression_ratio
        read = total_gb / self.aggregate_bandwidth_gbs(cores)
        compute = self.per_core_gb * 1024.0 / decompress_mbps
        return read + compute

    def raw_dump_time_s(self, cores: int) -> float:
        """Baseline without compression (pure PFS write)."""
        total_gb = self.per_core_gb * cores
        return total_gb / self.aggregate_bandwidth_gbs(cores)


def dump_load_series(
    model: IOSystemModel,
    core_counts: Iterable[int],
    codec_stats: Dict[str, Dict[str, float]],
) -> List[dict]:
    """Fig. 14 series: per codec per core count, dump and load seconds.

    ``codec_stats``: name -> dict with keys ``cr``, ``compress_mbps``,
    ``decompress_mbps`` (``examples/parallel_io.py`` pairs measured CRs
    with the paper's native Table IV speeds, DESIGN.md §3).
    """
    rows = []
    for cores in core_counts:
        for name, s in codec_stats.items():
            rows.append(
                {
                    "codec": name,
                    "cores": int(cores),
                    "dump_s": model.dump_time_s(
                        cores, s["cr"], s["compress_mbps"]
                    ),
                    "load_s": model.load_time_s(
                        cores, s["cr"], s["decompress_mbps"]
                    ),
                    "cr": s["cr"],
                }
            )
    return rows
