"""Parallel data dumping/loading: analytic model + process-pool executor.

The paper's Fig. 14 measures Hurricane-Isabel dump/load times on 1K-8K
Bebop cores, where each core compresses 1.3 GB and the Lustre aggregate
bandwidth saturates — so at scale the codec with the best compression
ratio wins despite slower compute.  :mod:`repro.parallel.iomodel`
implements exactly that mechanism with measured CR/throughput inputs;
:mod:`repro.parallel.executor` provides the one process pool
(:class:`ChunkWorkPool`) behind every multi-process path — the per-node
parallelism we can actually exercise here.  Library ``processes=`` calls
share one kept, warm pool; :func:`shutdown_pool` releases it early.
"""

from repro.parallel.iomodel import IOSystemModel, dump_load_series
from repro.parallel.executor import (
    ChunkWorkPool,
    compress_fields_parallel,
    decompress_blobs_parallel,
    shutdown_pool,
)
from repro.parallel.slab import ChunkDescriptor, Slab, active_slab_names

__all__ = [
    "ChunkDescriptor",
    "ChunkWorkPool",
    "IOSystemModel",
    "Slab",
    "active_slab_names",
    "dump_load_series",
    "compress_fields_parallel",
    "decompress_blobs_parallel",
    "shutdown_pool",
]
