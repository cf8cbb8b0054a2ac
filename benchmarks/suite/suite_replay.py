"""The traced run: replay each operation of a workload as timed calls
into each layer's public functions, from here — nothing in ``src/`` is
edited, wrapped or switched.

The replay re-states the glue between the layers (what
``Compressor.compress``, ``QoZ._derive``, ``execute_frozen_plan``,
``pack_interp_payload``, ``encode_symbol_stream`` and their inverses do
between calls) so a span can sit at every layer boundary.  That glue can
drift from the program, so every replayed operation is checked against
the untraced public call on the same input: the derived plan must equal
``QoZ.derive_plan``'s and the assembled bytes must equal
``repro.compress``'s, else the operation counts as failed and the run
exits non-zero.  ``trace.overhead_ratio`` (replay time / public-call
time) and ``trace.reconcile_ratio`` (share of an operation's span that
named layer spans account for) say how far the table can be trusted.

Times are reported **per cycle** (the workload's fixed operation list),
so a run that fits more cycles into ``--seconds`` reports the same
numbers; counts are exact for a seed.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

import numpy as np

import suite_lib as lib
from suite_workloads import BOUND, METRICS, REL

#: every per-layer metric and its unit, in report order; a layer that is
#: not on a workload's path reports 0
PER_LAYER: Dict[str, str] = {
    "core.sampling.sample_s": "s",
    "core.selection.select_s": "s",
    "core.tuning.tune_s": "s",
    "core.tuning.trial_compressions": "count",
    "core.tuning.memo_hits": "count",
    "core.derive.share": "ratio",
    "core.engine.compress_s": "s",
    "core.engine.decompress_s": "s",
    "core.stream.pack_s": "s",
    "core.stream.unpack_s": "s",
    "quantize.linear.ns_per_elem": "ns",
    "quantize.outlier_fraction": "ratio",
    "encoding.codec.encode_s": "s",
    "encoding.rle.tokenize_s": "s",
    "encoding.huffman.build_s": "s",
    "encoding.huffman.encode_s": "s",
    "encoding.bitstream.getvalue_s": "s",
    "encoding.codec.decode_s": "s",
    "encoding.huffman.decode_s": "s",
    "encoding.codec.estimate_bits_s": "s",
    "encoding.lossless.compress_s": "s",
    "encoding.lossless.decompress_s": "s",
    "encoding.bits_per_symbol": "bit",
    "chunked.api.plan_derive_s": "s",
    "chunked.api.chunk_execute_s": "s",
    "chunked.container.write_s": "s",
    "chunked.container.read_s": "s",
    "chunked.container.overhead_bytes": "B",
    "chunked.api.open_s": "s",
    "chunked.api.read_decode_s": "s",
    "chunked.api.read_chunks_touched": "count",
    "parallel.pool.start_s": "s",
    "parallel.slab.pack_s": "s",
    "parallel.executor.batch_overhead_ms": "ms",
    "parallel.speedup_vs_serial": "ratio",
    "service.protocol.encode_request_s": "s",
    "service.protocol.decode_request_s": "s",
    "service.protocol.encode_response_s": "s",
    "service.protocol.decode_response_s": "s",
    "service.scheduler.inproc_overhead_ms": "ms",
    "service.wire.overhead_ms": "ms",
    "service.plan_cache.hit_rate": "ratio",
    "service.plan_cache.derives": "count",
    "service.scheduler.queue_wait_ms_interactive": "ms",
    "service.scheduler.queue_wait_ms_batch": "ms",
    "service.scheduler.batch_fill": "ratio",
    "service.admission.rejected": "count",
    "service.client.retries": "count",
    "service.server.start_s": "s",
    "service.latency.interactive_p50_ms": "ms",
    "service.latency.interactive_p90_ms": "ms",
    "service.latency.batch_p50_ms": "ms",
    "loadgen.lateness_p90_ms": "ms",
    "trace.reconcile_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: spans whose *self* time is reported as the metric ``<span>_s``
SELF_TIME = (
    "core.sampling.sample", "core.selection.select", "core.tuning.tune",
    "core.engine.compress", "core.engine.decompress",
    "core.stream.pack", "core.stream.unpack",
    "encoding.codec.encode", "encoding.rle.tokenize", "encoding.huffman.build",
    "encoding.huffman.encode", "encoding.bitstream.getvalue",
    "encoding.codec.decode", "encoding.huffman.decode",
    "encoding.lossless.compress", "encoding.lossless.decompress",
    "chunked.container.write", "chunked.container.read", "chunked.api.open",
)
#: spans whose *inclusive* time is reported as ``<span>_s`` (these
#: enclose the layer spans above and split an operation coarsely)
INCLUSIVE = (
    "chunked.api.plan_derive", "chunked.api.chunk_execute",
    "chunked.api.read_decode",
)
DERIVE_SPANS = ("core.sampling.sample", "core.selection.select", "core.tuning.tune")


class Replay:
    """Span recorder plus the counters the layers report beside times."""

    def __init__(self) -> None:
        self.tr = lib.Tracer()
        self.span = self.tr.span
        self.counts: Dict[str, float] = defaultdict(float)
        #: wall time of the untraced public calls the replays are checked
        #: against, and of the replays themselves (overhead_ratio)
        self.public_s = 0.0
        self.replay_s = 0.0
        self.quantize_ns: List[float] = []
        self.probe_s: Dict[str, float] = defaultdict(float)

    def public(self, fn):
        """Run the untraced public operation; returns its result."""
        t0 = time.perf_counter()
        out = fn()
        self.public_s += time.perf_counter() - t0
        return out

    def replayed(self, fn):
        t0 = time.perf_counter()
        out = fn()
        self.replay_s += time.perf_counter() - t0
        return out


# ------------------------------------------------------------- codec layers

def derive(rp: Replay, data: np.ndarray, eb: float, metric: str,
           data_range: Optional[float]):
    """``QoZ._derive`` with the default configuration, layer by layer."""
    from repro.core.levels import max_level_for_anchor, max_level_for_shape
    from repro.core.plan_cache import FrozenPlan
    from repro.core.qoz import DEFAULTS_2D, DEFAULTS_3D
    from repro.core.sampling import sample_blocks
    from repro.core.selection import select_interpolators
    from repro.core.tuning import tune_parameters
    from repro.quantize.linear import DEFAULT_RADIUS
    from repro.utils import value_range

    cfg = DEFAULTS_2D if data.ndim <= 2 else DEFAULTS_3D
    anchor = int(cfg["anchor_stride"])
    max_level = min(max_level_for_anchor(anchor), max_level_for_shape(data.shape))
    with rp.span("core.sampling.sample"):
        blocks, _b = sample_blocks(
            data, int(cfg["sample_block"]), float(cfg["sample_rate"])
        )
    with rp.span("core.selection.select"):
        selection = select_interpolators(blocks, eb, DEFAULT_RADIUS)
    if data_range is None and metric in ("psnr", "ssim"):
        data_range = value_range(data)
    with rp.span("core.tuning.tune"):
        outcome = tune_parameters(
            blocks, eb, selection, max_level, metric=metric,
            data_range=1.0 if data_range is None else data_range,
            radius=DEFAULT_RADIUS,
        )
    rp.counts["trial_compressions"] += outcome.trial_compressions
    rp.counts["memo_hits"] += outcome.cache_hits
    frozen = FrozenPlan(
        codec="qoz", eb=eb, alpha=outcome.alpha, beta=outcome.beta,
        interpolators=dict(selection.per_level), anchor_stride=anchor,
        radius=DEFAULT_RADIUS, metric=metric,
    )
    return frozen, (blocks, selection, max_level, outcome.trial_compressions)


def probe_estimate_bits(rp: Replay, eb: float, frozen, trial) -> None:
    """Cost of ``estimate_stream_bits`` inside tuning: one call on
    trial-sized codes, times the trials tuning ran (outside any span —
    tuning's own span already contains the real calls)."""
    from repro.core.engine import interp_compress
    from repro.core.tuning import build_plan
    from repro.encoding.codec import estimate_stream_bits

    blocks, selection, max_level, trials = trial
    plan = build_plan(eb, frozen.alpha, frozen.beta, selection, max_level, 0)
    codes, _out, _known, _work = interp_compress(
        blocks, plan, batch=True, keep_work=False
    )
    t0 = time.perf_counter()
    estimate_stream_bits(codes)
    rp.probe_s["estimate_bits"] += (time.perf_counter() - t0) * trials


def probe_quantize(rp: Replay, data: np.ndarray, eb: float) -> None:
    """``quantize_block`` on a field-sized array, predicting each value
    from its predecessor."""
    from repro.quantize.linear import quantize_block

    values = data.ravel().astype(np.float64)
    preds = np.roll(values, 1)
    t0 = time.perf_counter()
    quantize_block(values, preds, eb, cast_dtype=data.dtype)
    rp.quantize_ns.append((time.perf_counter() - t0) * 1e9 / values.size)


def encode_symbols(rp: Replay, codes: np.ndarray) -> bytes:
    """``encode_symbol_stream`` with a span around each public piece."""
    from repro.encoding.bitstream import BitWriter
    from repro.encoding.codec import RLE_DOMINANCE_THRESHOLD
    from repro.encoding.huffman import HuffmanCode
    from repro.encoding.rle import RUN_CLASSES, tokenize_runs

    with rp.span("encoding.codec.encode"):
        codes = np.ascontiguousarray(codes, dtype=np.int64)
        writer = BitWriter()
        writer.write_uint(codes.size, 64)
        if codes.size:
            lo, hi = int(codes.min()), int(codes.max())
            syms = codes - lo
            alphabet = hi - lo + 1
            counts = np.bincount(syms)
            dom = int(np.argmax(counts))
            rle = int(counts[dom]) >= RLE_DOMINANCE_THRESHOLD * codes.size
            writer.write_uint(lo, 32)
            writer.write_uint(alphabet, 32)
            writer.write_uint(1 if rle else 0, 1)
            extras = None
            if rle:
                writer.write_uint(dom, 32)
                with rp.span("encoding.rle.tokenize"):
                    syms, extra_vals, extra_widths = tokenize_runs(
                        syms, dom, alphabet
                    )
                writer.write_uint(syms.size, 64)
                alphabet += RUN_CLASSES
                extras = (extra_vals, extra_widths)
            with rp.span("encoding.huffman.build"):
                code = HuffmanCode.from_symbols(syms, alphabet)
                code.serialize(writer)
            with rp.span("encoding.huffman.encode"):
                code.encode(syms, writer)
            if extras is not None:
                writer.write_array(*extras)
        with rp.span("encoding.bitstream.getvalue"):
            out = writer.getvalue()
    rp.counts["symbols"] += codes.size
    rp.counts["symbol_bits"] += 8 * len(out)
    return out


def decode_symbols(rp: Replay, blob: bytes, max_size: int) -> np.ndarray:
    """``decode_symbol_stream`` on a stream the program just wrote."""
    from repro.encoding.bitstream import BitReader
    from repro.encoding.huffman import HuffmanCode
    from repro.encoding.rle import detokenize_runs, run_token_widths

    with rp.span("encoding.codec.decode"):
        reader = BitReader(blob)
        n = reader.read_uint(64)
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if n > max_size:
            raise ValueError("symbol stream larger than its field")
        lo = reader.read_uint(32)
        alphabet = reader.read_uint(32)
        if reader.read_uint(1):
            dom = reader.read_uint(32)
            n_tokens = reader.read_uint(64)
            code = HuffmanCode.deserialize(reader)
            with rp.span("encoding.huffman.decode"):
                tokens = code.decode(reader, n_tokens)
            extra = reader.read_varwidth_array(run_token_widths(tokens, alphabet))
            syms = detokenize_runs(tokens, extra, dom, alphabet, expected_size=n)
        else:
            code = HuffmanCode.deserialize(reader)
            with rp.span("encoding.huffman.decode"):
                syms = code.decode(reader, n)
        syms += lo
    return syms


def execute(rp: Replay, data: np.ndarray, frozen, eb: float) -> bytes:
    """``compress_with_plan``: plan expansion, predict + quantize,
    payload packing, stream header."""
    from repro.core.engine import interp_compress
    from repro.core.header import pack_header, pack_sections
    from repro.core.qoz import QoZ
    from repro.encoding.bitstream import BitWriter
    from repro.encoding.lossless import compress_floats_lossless

    plan, top = frozen.build_interp_plan(data.shape, eb, cast_dtype=data.dtype)
    with rp.span("core.engine.compress"):
        codes, outliers, known, _work = interp_compress(
            data, plan, keep_work=False
        )
    rp.counts["codes"] += codes.size
    rp.counts["outliers"] += outliers.size
    with rp.span("core.stream.pack"):
        writer = BitWriter()
        writer.write_uint(plan.anchor_stride, 32)
        writer.write_uint(plan.radius, 32)
        writer.write_uint(top, 8)
        for level in range(1, top + 1):
            lp = plan.level_plan(level)
            writer.write_uint(lp.method, 1)
            writer.write_uint(lp.order_id, 1)
            writer.write_uint(int(np.float64(lp.eb).view(np.uint64)), 64)
        params = writer.getvalue()
        with rp.span("encoding.lossless.compress"):
            known_sec = compress_floats_lossless(known.ravel().astype(data.dtype))
        code_sec = encode_symbols(rp, codes)
        with rp.span("encoding.lossless.compress"):
            outlier_sec = compress_floats_lossless(outliers.astype(data.dtype))
        payload = pack_sections([params, known_sec, code_sec, outlier_sec])
    return pack_header(QoZ.codec_id, data.dtype, data.shape, eb) + payload


def decode_stream(rp: Replay, blob: bytes) -> np.ndarray:
    """``QoZ.decompress`` of one plain stream."""
    from repro.core.engine import InterpPlan, LevelPlan, interp_decompress
    from repro.core.header import parse_header, unpack_sections
    from repro.encoding.bitstream import BitReader
    from repro.encoding.lossless import decompress_floats_lossless

    header, offset = parse_header(blob)
    n = math.prod(header.shape)
    with rp.span("core.stream.unpack"):
        sections = unpack_sections(blob[offset:])
        reader = BitReader(sections[0])
        anchor = reader.read_uint(32)
        radius = reader.read_uint(32)
        levels = {}
        for level in range(1, reader.read_uint(8) + 1):
            method = reader.read_uint(1)
            order_id = reader.read_uint(1)
            eb = float(np.uint64(reader.read_uint(64)).view(np.float64))
            levels[level] = LevelPlan(eb=eb, method=method, order_id=order_id)
        plan = InterpPlan(levels=levels, anchor_stride=anchor, radius=radius,
                          cast_dtype=header.dtype)
        with rp.span("encoding.lossless.decompress"):
            known = decompress_floats_lossless(
                sections[1], max_values=n).astype(np.float64)
        codes = decode_symbols(rp, sections[2], n)
        with rp.span("encoding.lossless.decompress"):
            outliers = decompress_floats_lossless(
                sections[3], max_values=n).astype(np.float64)
    with rp.span("core.engine.decompress"):
        work = interp_decompress(header.shape, plan, codes, outliers, known)
    return work.astype(header.dtype)


# -------------------------------------------------------------- single_tuned

def single_cycle(wl, rp: Replay, first: bool) -> None:
    import repro
    from repro.core.header import pack_header
    from repro.core.qoz import QoZ
    from repro.utils import resolve_error_bound, validate_input

    for i, (name, x) in enumerate(wl.fields):
        for metric in METRICS:
            what = f"{name}/{metric}"
            want = rp.public(lambda: repro.compress(
                x, codec="qoz", bound=BOUND, codec_kwargs={"metric": metric}))

            def compress():
                with rp.span("op.compress"):
                    data = validate_input(x)
                    eb = resolve_error_bound(data, None, REL)
                    frozen, trial = derive(rp, data, eb, metric, None)
                    return execute(rp, data, frozen, eb), frozen, eb, trial

            blob, frozen, eb, trial = rp.replayed(compress)
            wl.tally.check(blob == want, f"{what}: replayed bytes differ")
            probe_estimate_bits(rp, eb, frozen, trial)
            if first:
                plan = QoZ(metric=metric).derive_plan(x, rel_error_bound=REL)
                wl.tally.check(plan == frozen, f"{what}: replayed plan differs")

            recon = rp.public(lambda: repro.decompress(want))

            def decompress():
                with rp.span("op.decompress"):
                    return decode_stream(rp, want)

            wl.tally.check(
                np.array_equal(rp.replayed(decompress), recon)
                and lib.within_bound(x, recon, wl.tol[i]),
                f"{what}: replayed decode differs",
            )
        if first:
            probe_quantize(rp, x, eb)


# ------------------------------------------------------------------ chunked

def chunked_compress(rp: Replay, x: np.ndarray, chunks, path: Optional[str],
                     plan=None, metric: str = "cr"):
    """``compress_chunked_to_file``: bound resolution, one derivation,
    one execution per chunk, streamed container write.  With a ``path``
    the container goes to a temp file that is fsynced and renamed, as
    the library does; ``path=None`` writes to memory, as the service
    does.  ``plan`` injects a derived plan (a warm family).

    Returns ``(plan, bound, value range, tuning trial, bytes | None)``.
    """
    import io

    from repro.chunked.container import ChunkedWriter
    from repro.chunked.tiling import grid_for
    from repro.core.qoz import QoZ
    from repro.utils import validate_field_lazy, validate_input

    trial = None
    with rp.span("op.compress"):
        data = validate_field_lazy(x)
        grid = grid_for(data.shape, chunks)
        lo, hi = np.inf, -np.inf
        for i in grid:  # the streaming min/max scan of a relative bound
            chunk = np.asarray(data[grid.chunk_slices(i)])
            if not np.all(np.isfinite(chunk)):
                raise ValueError("non-finite input")
            lo, hi = min(lo, float(chunk.min())), max(hi, float(chunk.max()))
        vrange = hi - lo
        eb = REL * vrange
        if plan is None:
            with rp.span("chunked.api.plan_derive"):
                plan, trial = derive(rp, data, eb, metric, vrange)
        if path is None:
            fh, tmp = io.BytesIO(), None
        else:
            directory = os.path.dirname(os.path.abspath(path))
            fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
            fh = os.fdopen(fd, "wb")
        blob_bytes = 0
        with fh:
            with rp.span("chunked.container.write"):
                writer = ChunkedWriter(fh, QoZ.codec_id, data.dtype, grid, eb)
            for i in grid:
                with rp.span("chunked.api.chunk_execute"):
                    chunk = validate_input(
                        np.ascontiguousarray(data[grid.chunk_slices(i)]))
                    blob = execute(rp, chunk, plan, eb)
                blob_bytes += len(blob)
                with rp.span("chunked.container.write"):
                    writer.write_chunk(i, blob)
            with rp.span("chunked.container.write"):
                writer.finalize()
                if tmp is None:
                    container = fh.getvalue()
                else:
                    container = None
                    fh.flush()
                    os.fsync(fh.fileno())
        if tmp is not None:
            with rp.span("chunked.container.write"):
                os.replace(tmp, path)
                dir_fd = os.open(directory, os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
    size = os.path.getsize(path) if container is None else len(container)
    rp.counts["container_overhead"] += size - blob_bytes
    return plan, eb, vrange, trial, container


def chunked_decompress(rp: Replay, source) -> np.ndarray:
    import repro

    with rp.span("op.decompress"):
        with rp.span("chunked.api.open"):
            f = repro.open(source)
        with f:
            out = np.empty(f.shape, dtype=f.dtype)
            for i in f.grid:
                with rp.span("chunked.container.read"):
                    blob = f.chunk_bytes(i)
                out[f.chunk_slices(i)] = decode_stream(rp, blob)
    return out


def chunked_read(rp: Replay, source, slab) -> np.ndarray:
    import repro

    with rp.span("op.read"):
        with rp.span("chunked.api.open"):
            f = repro.open(source)
        with f:
            slab, parts = f.slab_plan(slab)
            out = np.empty(tuple(s.stop - s.start for s in slab), dtype=f.dtype)
            for i, src, dst in parts:
                with rp.span("chunked.container.read"):
                    blob = f.chunk_bytes(i)
                with rp.span("chunked.api.read_decode"):
                    out[dst] = decode_stream(rp, blob)[src]
    rp.counts["read_chunks_touched"] += len(parts)
    return out


def chunked_cycle(wl, rp: Replay, first: bool) -> None:
    import repro
    from repro.core.qoz import QoZ

    chunk = wl.profile["chunk"]
    for name, x, slabs, path, tol in wl.fields:
        t0 = time.perf_counter()
        rp.public(lambda: wl._compress(x, path, wl.processes))
        rp.counts["public_compress_s"] += time.perf_counter() - t0
        replay_path = path + ".replay"
        frozen, eb, vrange, trial, _mem = rp.replayed(
            lambda: chunked_compress(rp, x, chunk, replay_path))
        with open(path, "rb") as a, open(replay_path, "rb") as b:
            wl.tally.check(a.read() == b.read(),
                           f"{name}: replayed container differs")
        probe_estimate_bits(rp, eb, frozen, trial)
        if first:
            plan = QoZ().derive_plan(x, error_bound=eb, data_range=vrange)
            wl.tally.check(plan == frozen, f"{name}: replayed plan differs")
            probe_quantize(rp, x, eb)

        recon = rp.public(lambda: repro.decompress(path, processes=wl.processes))
        wl.tally.check(
            np.array_equal(rp.replayed(lambda: chunked_decompress(rp, path)), recon)
            and lib.within_bound(x, recon, tol),
            f"{name}: replayed decode differs",
        )
        for j, slab in enumerate(slabs):
            def read_one():
                with repro.open(path) as f:
                    return f.read(slab)

            part = rp.public(read_one)
            wl.tally.check(
                np.array_equal(
                    rp.replayed(lambda: chunked_read(rp, path, slab)), part)
                and np.array_equal(part, recon[slab]),
                f"{name}: replayed hyperslab {j} differs",
            )


def pool_probes(wl, rp: Replay, pooled_compress_s: float) -> Dict[str, float]:
    """The slab/pool fan-out of ``chunked_pool``, piece by piece, on the
    first field's chunks: pool start, one submit window's slab fill, a
    batch round trip against the same chunks executed in-process, and a
    serial ``repro.compress`` of the fields against the pooled one
    (``pooled_compress_s``, per cycle)."""
    import repro
    from repro.chunked.tiling import grid_for
    from repro.core.qoz import QoZ
    from repro.parallel import ChunkWorkPool, Slab

    name, x, _slabs, path, _tol = wl.fields[0]
    workers = wl.processes
    window, batch = 4 * workers, 2  # compress_chunks_streaming's sizing
    grid = grid_for(x.shape, wl.profile["chunk"])
    with repro.open(path) as f:
        eb = f.error_bound
        first_chunk = f.chunk_bytes(0)
    plan = QoZ().derive_plan(x, error_bound=eb)
    views = [x[grid.chunk_slices(i)] for i in list(grid)[:window]]

    out: Dict[str, float] = {}
    t0 = time.perf_counter()
    pool = ChunkWorkPool(workers)
    try:
        pool.submit_decompress(first_chunk).result(timeout=120)
        out["parallel.pool.start_s"] = time.perf_counter() - t0

        packs = []
        for _ in range(5):
            t0 = time.perf_counter()
            slab = Slab.create(sum(int(v.nbytes) for v in views))
            try:
                slab.pack(views)
            finally:
                slab.release()
            packs.append(time.perf_counter() - t0)
        out["parallel.slab.pack_s"] = lib.pct(packs, 50)

        codec = QoZ()
        overheads = []
        for k in range(0, len(views) - batch + 1, batch):
            group = views[k:k + batch]
            slab = Slab.create(sum(int(v.nbytes) for v in group))
            try:
                descriptors = slab.pack(group)
                t0 = time.perf_counter()
                pooled = pool.submit_compress_batch(
                    "qoz", {}, slab.name, descriptors, eb, plan
                ).result(timeout=120)
                round_trip = time.perf_counter() - t0
            finally:
                slab.release()
            t0 = time.perf_counter()
            local = [
                codec.compress_with_plan(np.ascontiguousarray(v), plan, eb)
                for v in group
            ]
            in_process = time.perf_counter() - t0
            wl.tally.check(list(pooled) == local,
                           f"{name}: pooled batch differs from in-process")
            overheads.append(1e3 * (round_trip - in_process))
        out["parallel.executor.batch_overhead_ms"] = lib.pct(overheads, 50)
    finally:
        pool.shutdown()

    t0 = time.perf_counter()
    for _name, field, _slabs, fpath, _tol in wl.fields:
        wl._compress(field, fpath + ".serial", None)
    out["parallel.speedup_vs_serial"] = (
        (time.perf_counter() - t0) / pooled_compress_s)
    return out


# --------------------------------------------------------------------- run

def layer_values(rp: Replay, cycles: int) -> Dict[str, float]:
    """Per-layer numbers of the replayed cycles (times per cycle)."""
    self_s, total_s = rp.tr.self_times(), rp.tr.totals()
    out: Dict[str, float] = {}
    for span in SELF_TIME:
        out[f"{span}_s"] = self_s.get(span, 0.0) / cycles
    for span in INCLUSIVE:
        out[f"{span}_s"] = total_s.get(span, 0.0) / cycles
    c = rp.counts
    out["core.tuning.trial_compressions"] = c["trial_compressions"] / cycles
    out["core.tuning.memo_hits"] = c["memo_hits"] / cycles
    compress_s = total_s.get("op.compress", 0.0)
    if compress_s:
        out["core.derive.share"] = (
            sum(total_s.get(s, 0.0) for s in DERIVE_SPANS) / compress_s
        )
    if rp.quantize_ns:
        out["quantize.linear.ns_per_elem"] = lib.pct(rp.quantize_ns, 50)
    if c["codes"]:
        out["quantize.outlier_fraction"] = c["outliers"] / c["codes"]
    if c["symbols"]:
        out["encoding.bits_per_symbol"] = c["symbol_bits"] / c["symbols"]
    out["encoding.codec.estimate_bits_s"] = rp.probe_s["estimate_bits"] / cycles
    out["chunked.container.overhead_bytes"] = c["container_overhead"] / cycles
    out["chunked.api.read_chunks_touched"] = c["read_chunks_touched"] / cycles
    root = rp.tr.root_time()
    if root:
        out["trace.reconcile_ratio"] = 1.0 - rp.tr.root_self_time() / root
    if rp.public_s:
        out["trace.overhead_ratio"] = rp.replay_s / rp.public_s
    return out


def run(wl, seconds: float) -> Tuple[Dict[str, Dict], Dict]:
    rp = Replay()
    values: Dict[str, float] = {}
    cycles = 0
    if wl.name == "service_mixed":
        from suite_service import traced

        values.update(traced(wl, rp, seconds))
        cycles = 1
    else:
        cycle = single_cycle if wl.name == "single_tuned" else chunked_cycle
        t0 = time.perf_counter()
        while cycles == 0 or time.perf_counter() - t0 < seconds:
            cycle(wl, rp, first=cycles == 0)
            cycles += 1
        if wl.name == "chunked_pool":
            values.update(
                pool_probes(wl, rp, rp.counts["public_compress_s"] / cycles))
    wl.cycles = cycles
    values.update(layer_values(rp, cycles))

    trace_path = lib.RESULTS_DIR / f"trace-{wl.name}.json"
    rp.tr.dump(trace_path, {"workload": wl.name, "seed": wl.seed,
                            "cycles": cycles})
    metrics = {
        name: lib.metric(values.get(name, 0.0), unit)
        for name, unit in PER_LAYER.items()
    }
    detail = {"cycles": cycles, "trace_file": str(trace_path),
              "spans": len(rp.tr.spans)}
    return metrics, detail
