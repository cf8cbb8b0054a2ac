"""The three library workloads: inputs, the untraced measuring loop and
in-run verification.  Everything goes through the public API only
(``repro.compress`` / ``repro.decompress`` / ``repro.open``).

A workload is a fixed *cycle* of operations over seeded inputs.  The
measuring loop repeats whole cycles until ``--seconds`` have passed, so
every operation of the cycle has the same number of samples; each
operation gets one typical time from them (see :class:`Recorder`), and
a throughput is the cycle's bytes over the sum of those typical times.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

import suite_lib as lib

REL = 1e-3
BOUND = f"rel:{REL:g}"
METRICS = ("cr", "psnr", "ssim", "ac")

#: shapes per profile.  ``quick`` exists for the smoke test only and is
#: never used for reported numbers.
PROFILES: Dict[str, Dict] = {
    "full": {
        # the repo's reduced stand-ins for the paper's six datasets
        # (benchmarks/conftest.py BENCH_SHAPES): 4.6 MB of float32
        "single_fields": [
            ("rtm", (48, 64, 64)),
            ("miranda", (48, 64, 64)),
            ("cesm", (256, 512)),
            ("scale", (16, 128, 128)),
            ("nyx", (64, 64, 64)),
            ("hurricane", (24, 64, 64)),
        ],
        # 64 + 27 chunks of 32^3; the second field is the float64 case
        "chunked_fields": [
            ("nyx", (128, 128, 128), "float32"),
            ("miranda", (96, 96, 96), "float64"),
        ],
        "chunk": 32,
        "read_edge": 48,
        "reads_per_field": 8,
        "min_cycles": 3,
    },
    "quick": {
        "single_fields": [("nyx", (8, 16, 16))],
        "chunked_fields": [("miranda", (8, 16, 16), "float64")],
        "chunk": 8,
        "read_edge": 10,
        "reads_per_field": 1,
        "min_cycles": 1,
    },
}


#: every input is a window into a field generated once, at this dataset
#: seed and ``WINDOW_PAD`` larger per axis; ``--seed`` moves the window.
#: Re-seeding the generators themselves changes how compressible the
#: field is (compression ratio alone spread 7-16% over six seeds), which
#: would have to be absorbed by every metric's bound; a moved window is a
#: different input of the same difficulty.
DATASET_SEED = 0
WINDOW_PAD = 8


def seeded_field(name: str, shape: Sequence[int], seed: int) -> np.ndarray:
    from repro.datasets import get_dataset

    base = get_dataset(
        name, shape=tuple(n + WINDOW_PAD for n in shape), seed=DATASET_SEED
    )
    rng = np.random.default_rng([seed, sum(map(ord, name))])
    lo = [int(rng.integers(0, WINDOW_PAD + 1)) for _ in shape]
    return np.ascontiguousarray(
        base[tuple(slice(a, a + n) for a, n in zip(lo, shape))]
    )


def tolerance(data: np.ndarray) -> float:
    """The absolute bound ``rel:1e-3`` means for ``data``, computed here
    in float64 and independently of the program.  The program subtracts
    in the field's own dtype, hence the rounding allowance."""
    return REL * (float(data.max()) - float(data.min())) * (1.0 + 1e-6)


class Recorder:
    """Wall and CPU samples of every operation of the cycle.

    An operation's *typical* time is the **fastest** of its repetitions
    (one per cycle, at least ``min_cycles``).  Interference on a shared
    box is one-sided — slow episodes lasting seconds; over repeated runs
    of one seed the minima agreed within a few percent while the medians
    moved by 17-30% (README.md, "Noise") — so the median of six to twelve
    repetitions does not repeat and the minimum does.  Median, quartiles
    and every sample stay in the report file.
    """

    def __init__(self) -> None:
        self.times: Dict[Tuple[str, object], List[float]] = defaultdict(list)
        self.cpu: Dict[Tuple[str, object], List[float]] = defaultdict(list)
        self.nbytes: Dict[Tuple[str, object], int] = {}

    def timed(self, kind: str, key: object, nbytes: int, fn: Callable):
        """Run ``fn()`` as one timed operation moving ``nbytes``
        uncompressed bytes; its result is returned (and so consumed)."""
        cpu0 = lib.own_cpu_s()
        t0 = time.perf_counter()
        out = fn()
        self.times[(kind, key)].append(time.perf_counter() - t0)
        self.cpu[(kind, key)].append(lib.own_cpu_s() - cpu0)
        self.nbytes[(kind, key)] = nbytes
        return out

    def typical_ms(self, kind: str) -> List[float]:
        """Typical time of each of the cycle's ``kind`` operations."""
        return [1e3 * min(t) for k, t in self.times.items() if k[0] == kind]

    def mbps(self, kind: str) -> float:
        total = sum(n for k, n in self.nbytes.items() if k[0] == kind)
        return total / 1e6 / (sum(self.typical_ms(kind)) / 1e3)

    def end_to_end(self) -> Dict[str, Dict]:
        comp = self.typical_ms("compress")
        cycle_s = sum(min(t) for t in self.times.values())
        cycle_cpu_s = sum(min(c) for c in self.cpu.values())
        return {
            "compress_mbps": lib.metric(self.mbps("compress"), "MB/s"),
            "decompress_mbps": lib.metric(self.mbps("decompress"), "MB/s"),
            "compress_p50_ms": lib.metric(lib.pct(comp, 50), "ms"),
            "compress_p90_ms": lib.metric(lib.pct(comp, 90), "ms"),
            "decompress_p50_ms": lib.metric(
                lib.pct(self.typical_ms("decompress"), 50), "ms"
            ),
            "read_p50_ms": lib.metric(lib.pct(self.typical_ms("read"), 50), "ms"),
            # closed loop, one thread: operations of a cycle over its time
            "closed_loop_rps": lib.metric(len(self.times) / cycle_s, "1/s"),
            "cpu_s_per_gb": lib.metric(
                cycle_cpu_s / (sum(self.nbytes.values()) / 1e9), "s/GB"
            ),
        }

    def detail(self) -> Dict[str, Dict]:
        """Median + quartiles + n per operation kind over all samples, and
        every sample (seconds, in cycle order), for the report file."""
        out: Dict[str, Dict] = {}
        for kind in sorted({k[0] for k in self.times}):
            out[kind] = lib.summarize(
                [1e3 * t for k, ts in self.times.items() if k[0] == kind for t in ts]
            )
        out["samples_s"] = {
            f"{kind}:{key}": {"nbytes": self.nbytes[(kind, key)], "s": times}
            for (kind, key), times in self.times.items()
        }
        return out


def seeded_slabs(
    rng: np.random.Generator, shape: Sequence[int], edge: int, count: int
) -> List[Tuple[slice, ...]]:
    out = []
    for _ in range(count):
        lo = [int(rng.integers(0, n - edge + 1)) for n in shape]
        out.append(tuple(slice(a, a + edge) for a in lo))
    return out


def straddling_slabs(
    rng: np.random.Generator, shape: Sequence[int], chunk: int, edge: int,
    count: int,
) -> List[Tuple[slice, ...]]:
    """Hyperslabs of ``edge`` per axis that cross exactly one chunk
    boundary on every axis, so every read decodes the same number of
    chunks (2 per axis) wherever the seed puts it.  An axis too short
    for two chunks is covered by a plain seeded window."""
    lo_r, hi_r = max(1, chunk - edge + 1), min(chunk - 1, 2 * chunk - edge)
    out = []
    for _ in range(count):
        slab = []
        for n in shape:
            if n >= 2 * chunk and lo_r <= hi_r:
                k = int(rng.integers(0, n // chunk - 1))
                start = k * chunk + int(rng.integers(lo_r, hi_r + 1))
                slab.append(slice(start, start + edge))
            else:
                e = min(edge, n)
                start = int(rng.integers(0, n - e + 1))
                slab.append(slice(start, start + e))
        out.append(tuple(slab))
    return out


class Workload:
    """Common shape of a workload: ``setup`` -> ``measure`` -> ``finish``."""

    name = ""

    def __init__(self, seed: int, profile: str) -> None:
        self.seed = int(seed)
        self.profile = PROFILES[profile]
        self.tally = lib.Tally()
        self.rec = Recorder()
        self.cycles = 0
        # one cycle's totals (deterministic for a seed)
        self.raw_bytes = 0
        self.compressed_bytes = 0
        self.psnr: List[float] = []

    def input_digest(self) -> str:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def cycle(self, first: bool) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        """Whole cycles until ``seconds`` have passed (closed loop, one
        thread: the next operation starts when the previous one ended)."""
        t0 = time.perf_counter()
        while (
            self.cycles < self.profile["min_cycles"]
            or time.perf_counter() - t0 < seconds
        ):
            self.cycle(first=self.cycles == 0)
            self.cycles += 1

    def finish(self) -> None:
        """Checks that are left for after the timed loop."""

    def close(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return max(lib.peak_rss_mb(), lib.children_peak_rss_mb())

    def detail(self) -> Dict[str, Dict]:
        return self.rec.detail()

    def timing_metrics(self) -> Dict[str, Dict]:
        return self.rec.end_to_end()

    def end_to_end(self) -> Dict[str, Dict]:
        out = self.timing_metrics()
        out["compression_ratio"] = lib.metric(
            self.raw_bytes / self.compressed_bytes, "ratio"
        )
        out["psnr_db"] = lib.metric(float(np.mean(self.psnr)), "dB")
        out["peak_rss_mb"] = lib.metric(self.peak_rss_mb(), "MB")
        return out


class SingleTuned(Workload):
    """Online sampling + selection + tuning on every call.

    A cycle is 6 fields x 4 QoZ quality metrics = 24 x
    (compress -> decompress -> verify), plus one region read per field.
    A plain stream has no partial decode, so the read a user can do is
    ``repro.decompress(blob)[region]`` — that is what ``read`` times.
    """

    name = "single_tuned"
    #: the read is the cycle's cheapest operation (~11 ms, 3% of the
    #: cycle at one per field) and in rough weather its fastest of ~8
    #: repetitions did not repeat; three per cycle triple its samples
    READ_REPEATS = 3

    def _generate(self) -> None:
        self.fields = [
            (name, seeded_field(name, shape, self.seed))
            for name, shape in self.profile["single_fields"]
        ]
        rng = np.random.default_rng([self.seed, 1])
        self.regions = [
            seeded_slabs(rng, x.shape, max(2, min(x.shape) // 2), 1)[0]
            for _name, x in self.fields
        ]
        self.tol = [tolerance(x) for _name, x in self.fields]

    def input_digest(self) -> str:
        return lib.digest_arrays(x for _n, x in self.fields)

    def setup(self) -> None:
        import repro

        self._generate()
        # first pass: every field once, rotating through the four metrics
        for i, (_name, x) in enumerate(self.fields):
            blob = repro.compress(
                x, codec="qoz", bound=BOUND,
                codec_kwargs={"metric": METRICS[i % len(METRICS)]},
            )
            repro.decompress(blob)

    def cycle(self, first: bool) -> None:
        import repro

        for i, (name, x) in enumerate(self.fields):
            for metric in METRICS:
                key = (name, metric)
                blob = self.rec.timed(
                    "compress", key, x.nbytes,
                    lambda: repro.compress(
                        x, codec="qoz", bound=BOUND,
                        codec_kwargs={"metric": metric},
                    ),
                )
                recon = self.rec.timed(
                    "decompress", key, x.nbytes,
                    lambda: repro.decompress(blob),
                )
                self.tally.check(
                    lib.within_bound(x, recon, self.tol[i]),
                    f"{name}/{metric}: bound violated",
                )
                if first:
                    self.raw_bytes += x.nbytes
                    self.compressed_bytes += len(blob)
                    self.psnr.append(lib.psnr_db(x, recon))
            region = self.regions[i]
            for _ in range(self.READ_REPEATS):
                part = self.rec.timed(
                    "read", name, x[region].nbytes,
                    lambda: repro.decompress(blob)[region],
                )
                self.tally.check(
                    np.array_equal(part, recon[region]),
                    f"{name}: region read differs from the full decode",
                )


class Chunked(Workload):
    """Plan derived once per field, then one execution per 32^3 chunk;
    a container file written, fully decoded and read by hyperslab.

    ``processes=None`` is ``chunked_serial``; ``processes=2`` is
    ``chunked_pool`` — the same problem through the slab/pool fan-out.
    """

    def __init__(self, seed: int, profile: str, processes) -> None:
        super().__init__(seed, profile)
        self.processes = processes
        self.name = "chunked_pool" if processes else "chunked_serial"

    def _generate(self) -> None:
        self.dir = lib.scratch_dir()
        self.fields = []
        rng = np.random.default_rng([self.seed, 2])
        for name, shape, dtype in self.profile["chunked_fields"]:
            x = seeded_field(name, shape, self.seed).astype(dtype)
            slabs = straddling_slabs(
                rng, shape, self.profile["chunk"], self.profile["read_edge"],
                self.profile["reads_per_field"],
            )
            path = str(self.dir / f"{self.name}-{name}.rpz")
            self.fields.append((name, x, slabs, path, tolerance(x)))

    def input_digest(self) -> str:
        return lib.digest_arrays(f[1] for f in self.fields)

    def _compress(self, x: np.ndarray, path: str, processes):
        import repro

        return repro.compress(
            x, codec="qoz", bound=BOUND, chunks=self.profile["chunk"],
            file=path, processes=processes,
        )

    def setup(self) -> None:
        import repro

        self._generate()
        for _name, x, slabs, path, _tol in self.fields:
            self._compress(x, path, self.processes)
            repro.decompress(path, processes=self.processes)
            with repro.open(path) as f:
                for slab in slabs[:2]:
                    f.read(slab)

    def cycle(self, first: bool) -> None:
        import repro

        for name, x, slabs, path, tol in self.fields:
            self.rec.timed(
                "compress", name, x.nbytes,
                lambda: self._compress(x, path, self.processes),
            )
            recon = self.rec.timed(
                "decompress", name, x.nbytes,
                lambda: repro.decompress(path, processes=self.processes),
            )
            self.tally.check(
                lib.within_bound(x, recon, tol), f"{name}: bound violated"
            )
            if first:
                self.raw_bytes += x.nbytes
                self.compressed_bytes += os.path.getsize(path)
                self.psnr.append(lib.psnr_db(x, recon))
            for j, slab in enumerate(slabs):
                def read_one():
                    with repro.open(path) as f:
                        return f.read(slab)

                part = self.rec.timed(
                    "read", (name, j), recon[slab].nbytes, read_one
                )
                self.tally.check(
                    np.array_equal(part, recon[slab]),
                    f"{name}: hyperslab {j} differs from the full decode",
                )

    def finish(self) -> None:
        """``chunked_pool`` must write the bytes ``chunked_serial`` writes."""
        if not self.processes:
            return
        for name, x, _slabs, path, _tol in self.fields:
            serial = path + ".serial"
            self._compress(x, serial, None)
            with open(path, "rb") as a, open(serial, "rb") as b:
                self.tally.check(
                    a.read() == b.read(),
                    f"{name}: pooled container differs from the serial one",
                )

    def close(self) -> None:
        shutil.rmtree(self.dir)
