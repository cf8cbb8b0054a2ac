"""Parallel multi-field compression + dump/load modeling (paper Fig. 14).

Scientific dumps hold many fields; this example compresses a batch of
Hurricane-like fields across worker processes, then feeds the measured
compression ratio and throughput into the Bebop-like parallel-I/O model
to show where the high-ratio codec starts winning the end-to-end dump.

Run: python examples/parallel_io.py
"""

import time

import numpy as np

from repro.datasets import get_dataset
from repro.metrics import compression_ratio
from repro.parallel import (
    IOSystemModel,
    compress_fields_parallel,
    dump_load_series,
)


def main() -> None:
    fields = [
        get_dataset("hurricane", shape=(24, 64, 64), seed=s) for s in range(4)
    ]
    total_mb = sum(f.nbytes for f in fields) / 1e6

    stats = {}
    for codec_name, kwargs in [("zfp", {}), ("sz3", {}),
                               ("qoz", {"metric": "cr"})]:
        t0 = time.perf_counter()
        blobs = compress_fields_parallel(
            fields, codec_name, codec_kwargs=kwargs,
            bound="rel:1e-3", processes=2,
        )
        dt = time.perf_counter() - t0
        cr = float(
            np.mean([compression_ratio(f, b) for f, b in zip(fields, blobs)])
        )
        # pair our measured CR with the paper's native per-core speeds
        # (Table IV); pure-Python compute would otherwise hide the I/O term
        native = {"zfp": (137.0, 321.0), "sz3": (127.0, 279.0),
                  "qoz": (119.0, 278.0)}[codec_name]
        stats[codec_name] = {
            "cr": cr,
            "compress_mbps": native[0],
            "decompress_mbps": native[1],
        }
        print(f"{codec_name:5} CR={cr:6.1f}  parallel compress "
              f"{total_mb / dt:6.1f} MB/s here (2 workers), "
              f"{native[0]:.0f} MB/s native")

    print("\nmodeled dump time on a Bebop-like system (1.3 GB/core):")
    rows = dump_load_series(IOSystemModel(), [1024, 8192], stats)
    print(f"{'codec':6} {'cores':>6} {'dump_s':>8} {'load_s':>8}")
    for r in rows:
        print(f"{r['codec']:6} {r['cores']:6d} {r['dump_s']:8.1f} "
              f"{r['load_s']:8.1f}")
    print("\nat 8K cores the PFS saturates and the best-CR codec wins "
          "(paper Fig. 14)")


if __name__ == "__main__":
    main()
