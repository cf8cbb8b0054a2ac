"""CLI: ``python -m repro {compress,decompress,info,verify,serve,serve-stats}``.

The CLI is the out-of-core entry point to the chunked subsystem
(:mod:`repro.chunked`): ``compress`` memory-maps ``.npy`` inputs and
streams one compressed chunk at a time to disk, ``decompress`` streams
chunks into a ``.npy`` memmap (or extracts just a hyperslab), and ``info``
reports header/chunk-index metadata without decoding any payload.  Peak
memory is therefore bounded by the chunk size (times the process-pool
batch when ``--processes`` > 1), not the field size.

Examples::

    python -m repro compress field.npy field.rpz --codec qoz --chunks 256 --eb rel:1e-3
    python -m repro compress dataset:miranda:48x64x64 field.rpz --codec sz3 --rel-eb 1e-3
    python -m repro info field.rpz --list-chunks
    python -m repro verify field.rpz
    python -m repro decompress field.rpz recon.npy
    python -m repro decompress field.rpz slab.npy --slab 0:16,:,8:24
    python -m repro serve --port 9753 --shards 2

``serve`` runs the long-lived async compression service
(:mod:`repro.service`): compress / decompress / hyperslab-read over a
binary socket protocol, with cost-aware admission control and
cross-request plan caching.  ``serve --shards N`` runs N shard
processes behind one address (SO_REUSEPORT kernel accept sharding) with
derived plans replicated between shards over an inter-process bus
(DESIGN.md §14) — the flag that multiplies request throughput, where
``--processes`` fans the chunks of one multi-chunk request over
workers.  ``serve-stats`` connects to a running service and
renders its observability snapshot as a table (or ``--json`` /
``--line``, optionally ``--watch N``); ``serve-stats --all-shards``
queries a sharded deployment's admin endpoint for the fleet-wide
aggregate.  The package also installs a ``repro`` console script
pointing at this module.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError


def _parse_chunks(text: str):
    try:
        parts = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad chunk spec {text!r}; expected e.g. '256' or '64,64,32'"
        )
    # a single value broadcasts to every axis (rank unknown until load)
    return parts[0] if len(parts) == 1 else parts


def _parse_slab(text: str) -> Tuple[slice, ...]:
    """'0:16,:,8:24' -> (slice(0,16), slice(None), slice(8,24))."""
    out = []
    for part in text.split(","):
        bits = part.split(":")
        if len(bits) == 1 and bits[0]:
            start = int(bits[0])
            # -1 must mean "the last element", not the empty slice(-1, 0)
            stop = start + 1 if start != -1 else None
            out.append(slice(start, stop))
        elif len(bits) == 2:
            out.append(
                slice(
                    int(bits[0]) if bits[0] else None,
                    int(bits[1]) if bits[1] else None,
                )
            )
        else:
            raise argparse.ArgumentTypeError(
                f"bad slab spec {text!r}; expected e.g. '0:16,:,8:24'"
            )
    return tuple(out)


def _load_input(spec: str) -> np.ndarray:
    """A ``.npy`` path (memory-mapped) or ``dataset:NAME[:DxHxW[:SEED]]``."""
    if spec.startswith("dataset:"):
        from repro.datasets import get_dataset

        parts = spec.split(":")
        name = parts[1]
        shape = None
        seed = 0
        if len(parts) > 2 and parts[2]:
            shape = tuple(int(n) for n in parts[2].split("x"))
        if len(parts) > 3:
            seed = int(parts[3])
        return get_dataset(name, shape=shape, seed=seed)
    return np.load(spec, mmap_mode="r")


def _cmd_compress(args) -> int:
    from repro.chunked import compress_chunked_to_file
    from repro.errors import CompressionError
    from repro.utils import normalize_bound

    try:
        bound = normalize_bound(args.eb, args.abs_eb, args.rel_eb)
    except CompressionError as exc:
        if "exactly one" not in str(exc):
            raise  # a malformed value: main() prints the parser's line
        # the library names its keywords; the user typed flags
        raise SystemExit(
            "error: give exactly one of --eb / --abs-eb / --rel-eb"
        )
    data = _load_input(args.input)
    t0 = time.perf_counter()
    info = compress_chunked_to_file(
        data,
        args.output,
        codec=args.codec,
        chunks=args.chunks,
        processes=args.processes,
        per_chunk_tuning=args.per_chunk_tuning,
        bound=bound,
    )
    dt = time.perf_counter() - t0
    raw = int(np.prod(info.grid.shape)) * info.header.dtype.itemsize
    total = info.total_bytes
    print(f"wrote {args.output}: {total} bytes from {raw} "
          f"({raw / max(1, total):.2f}x) in {dt:.2f}s")
    print(f"codec={args.codec} shape={info.grid.shape} "
          f"chunks={info.grid.chunk_shape} grid={info.grid.grid_shape} "
          f"({info.grid.n_chunks} chunk(s)) abs_eb={info.header.error_bound:.3g}")
    return 0


def _cmd_decompress(args) -> int:
    from repro.chunked import ChunkedFile
    from repro.compressors.base import decompress_any
    from repro.core.header import parse_header

    with open(args.input, "rb") as fh:
        head = fh.read(64)
    header, _ = parse_header(head)
    t0 = time.perf_counter()
    if not header.is_chunked:
        with open(args.input, "rb") as fh:
            recon = decompress_any(fh.read())
        if args.slab is not None:
            from repro.chunked import grid_for

            # same slab validation/semantics as the chunked path (clean
            # rank-mismatch errors instead of raw IndexErrors)
            recon = recon[grid_for(recon.shape, recon.shape).normalize_slab(args.slab)]
        np.save(args.output, recon)
        shape = recon.shape
    else:
        with ChunkedFile(args.input) as f:
            if args.slab is not None:
                slab = f.grid.normalize_slab(args.slab)
                out = f.read(slab)
                np.save(args.output, out)
                shape = out.shape
            else:
                f.to_npy(args.output)
                shape = f.shape
    dt = time.perf_counter() - t0
    print(f"wrote {args.output}: shape={tuple(shape)} "
          f"dtype={header.dtype} in {dt:.2f}s")
    return 0


def _cmd_info(args) -> int:
    import os

    from repro.core.header import parse_header
    from repro.core.stream import summarize_header

    with open(args.input, "rb") as fh:
        head = fh.read(64)
    header, _ = parse_header(head)
    if header.is_chunked:
        from repro.chunked import ChunkedFile

        with ChunkedFile(args.input) as f:
            info = f.describe()
            entries = f.info.entries if args.list_chunks else None
    else:
        # header + on-disk size only; the payload is never read
        info = summarize_header(header, os.path.getsize(args.input))
        entries = None
    width = max(len(k) for k in info)
    for key, value in info.items():
        if isinstance(value, float):
            value = f"{value:.4g}"
        print(f"{key.ljust(width)}  {value}")
    if entries is not None:
        from repro.analysis import format_table

        rows = [
            [i, str(e.start), str(e.shape), e.offset, e.nbytes]
            for i, e in enumerate(entries)
        ]
        print()
        print(format_table(["chunk", "start", "shape", "offset", "bytes"], rows))
    return 0


def _cmd_verify(args) -> int:
    from repro.chunked import verify_container
    from repro.core.header import parse_header

    with open(args.input, "rb") as fh:
        head = fh.read(64)
    header, _ = parse_header(head)
    if not header.is_chunked:
        # plain stream: the fixed header parsed (v3 would have checked
        # its checksum here); payload integrity rests on decode guards
        print(f"{args.input}: plain stream v{header.version}, "
              f"header ok (no chunk index to verify)")
        return 0
    report = verify_container(args.input)
    mode = "chunk checksums" if report.checksums else "structural bounds"
    if report.ok:
        print(f"{args.input}: ok — v{report.version} container, "
              f"{report.n_chunks} chunk(s) verified ({mode})")
        return 0
    print(f"{args.input}: CORRUPT — {len(report.faults)} of "
          f"{report.n_chunks} chunk(s) failed ({mode})", file=sys.stderr)
    for fault in report.faults:
        print(f"  chunk {fault.index} start={fault.start} "
              f"shape={fault.shape}: {fault.detail}", file=sys.stderr)
    return 1


def _cmd_serve(args) -> int:
    from repro.service import ServiceConfig, run_server

    if args.shards < 1:
        print("error: --shards must be >= 1", file=sys.stderr)
        return 2
    config = ServiceConfig(
        processes=args.processes,
        max_queue=args.max_queue,
        plan_cache_size=args.plan_cache,
        serve_root=args.serve_root,
        max_work_units=args.max_work_units,
        batch_share=args.batch_share,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        stats_interval=args.stats_interval,
    )
    if args.shards == 1:
        # single-shard path: exactly yesterday's in-process server, no
        # supervisor, no bus, no admin endpoint
        return run_server(host=args.host, port=args.port, config=config)
    from repro.service import run_sharded

    return run_sharded(
        host=args.host,
        port=args.port,
        config=config,
        shards=args.shards,
        admin_port=args.admin_port,
    )


def _stats_rows(stats: dict) -> list:
    rows = []
    for key in sorted(stats):
        value = stats[key]
        if isinstance(value, float):
            value = f"{value:.4g}"
        rows.append([key, value])
    return rows


def _cmd_serve_stats(args) -> int:
    import json
    import re

    from repro.analysis import format_table
    from repro.service import RemoteClient, format_stats_line

    port = args.port
    if args.all_shards:
        port = args.admin_port if args.admin_port is not None else args.port + 1
    try:
        while True:
            with RemoteClient(host=args.host, port=port) as client:
                stats = client.stats()
            if args.all_shards and not args.per_shard:
                stats = {
                    k: v
                    for k, v in stats.items()
                    if not re.match(r"shard\d+_", k)
                }
            if args.json:
                print(json.dumps(stats, sort_keys=True))
            elif args.line:
                print(format_stats_line(stats))
            else:
                print(format_table(["stat", "value"], _stats_rows(stats)))
            if not args.watch:
                return 0
            time.sleep(args.watch)
            if not args.json and not args.line:
                print()
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Chunked error-bounded compression of scientific arrays.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser(
        "compress",
        help="tile + compress a field into a chunked container",
    )
    c.add_argument("input", help=".npy file (memory-mapped) or dataset:NAME[:DxHxW[:SEED]]")
    c.add_argument("output", help="output container path")
    c.add_argument("--codec", default="qoz", help="registered codec name (default: qoz)")
    c.add_argument("--chunks", type=_parse_chunks, default=None,
                   help="chunk shape, e.g. '256' or '64,64,32' (default 256/axis)")
    c.add_argument("--eb", default=None, metavar="SPEC",
                   help="unified error-bound spec: 'abs:1e-3' or 'rel:1e-4'")
    c.add_argument("--abs-eb", type=float, default=None, help="absolute error bound")
    c.add_argument("--rel-eb", type=float, default=None,
                   help="value-range-relative error bound")
    c.add_argument("--processes", type=int, default=1,
                   help="process-pool width for chunk fan-out (default 1)")
    c.add_argument("--per-chunk-tuning", action="store_true",
                   help="re-run sampling/selection/tuning on every chunk "
                        "instead of deriving one shared plan from the full "
                        "field (slower; marginally better per-chunk ratios)")
    c.set_defaults(func=_cmd_compress)

    d = sub.add_parser(
        "decompress",
        help="stream-decode a container to .npy (optionally just a hyperslab)",
    )
    d.add_argument("input", help="compressed container (or plain stream) path")
    d.add_argument("output", help="output .npy path")
    d.add_argument("--slab", type=_parse_slab, default=None,
                   help="hyperslab to extract, e.g. '0:16,:,8:24' "
                        "(use --slab=-1,... for leading negative indices)")
    d.set_defaults(func=_cmd_decompress)

    i = sub.add_parser("info", help="print stream metadata (no payload decode)")
    i.add_argument("input", help="compressed stream path")
    i.add_argument("--list-chunks", action="store_true",
                   help="also print the per-chunk index table")
    i.set_defaults(func=_cmd_info)

    v = sub.add_parser(
        "verify",
        help="verify a container's header and every chunk (checksums on "
             "v3, structural bounds on v2); exit 1 listing corrupt chunks",
    )
    v.add_argument("input", help="compressed container (or plain stream) path")
    v.set_defaults(func=_cmd_verify)

    s = sub.add_parser(
        "serve",
        help="run the long-lived async compression service",
    )
    s.add_argument("--host", default="127.0.0.1", help="bind address")
    s.add_argument("--port", type=int, default=9753,
                   help="TCP port (0 picks a free port; the actual port is "
                        "printed once listening)")
    s.add_argument("--processes", type=int, default=1,
                   help="worker processes per shard, and as many job "
                        "slots: N requests run at once with all their "
                        "codec work on the workers, and the chunks of one "
                        "big request fan out over them (1 = one job at a "
                        "time, in-process)")
    s.add_argument("--max-queue", type=int, default=64,
                   help="admission bound; beyond it requests get "
                        "retry-after backpressure (default 64)")
    s.add_argument("--plan-cache", type=int, default=128,
                   help="LRU capacity of the cross-request FrozenPlan "
                        "cache (default 128)")
    s.add_argument("--serve-root", default=None, metavar="DIR",
                   help="allow path-based hyperslab reads for containers "
                        "under DIR (default: path reads disabled; "
                        "clients must send container bytes inline)")
    s.add_argument("--max-work-units", type=float, default=64.0,
                   help="admission budget in predicted work units (one "
                        "unit ~ one megaelement of warm interpolation "
                        "compression; default 64)")
    s.add_argument("--batch-share", type=float, default=0.5,
                   help="fraction of the work-unit budget batch-priority "
                        "requests may occupy (default 0.5)")
    s.add_argument("--client-rate", type=float, default=16.0,
                   help="per-client quota refill rate in work units/s "
                        "(default 16)")
    s.add_argument("--client-burst", type=float, default=48.0,
                   help="per-client quota burst in work units (default 48)")
    s.add_argument("--stats-interval", type=float, default=0.0,
                   help="log one service-stats line every N seconds "
                        "(0 = disabled)")
    s.add_argument("--shards", type=int, default=1,
                   help="number of full service processes behind the one "
                        "address (SO_REUSEPORT, replicated plan cache): "
                        "multiplies request throughput, 2.0x with 2 "
                        "shards on 2 cores against 1.4x for --processes 2 "
                        "(default 1 = single-process server, no "
                        "supervisor)")
    s.add_argument("--admin-port", type=int, default=None,
                   help="supervisor admin endpoint for aggregated stats "
                        "(--shards>1 only; default: public port + 1)")
    s.set_defaults(func=_cmd_serve)

    ss = sub.add_parser(
        "serve-stats",
        help="fetch and render a running service's stats snapshot",
    )
    ss.add_argument("--host", default="127.0.0.1", help="service address")
    ss.add_argument("--port", type=int, default=9753, help="service port")
    ss.add_argument("--json", action="store_true",
                    help="emit the raw snapshot as one JSON object")
    ss.add_argument("--line", action="store_true",
                    help="emit the compact one-line form the server logs")
    ss.add_argument("--watch", type=float, default=0.0, metavar="SECONDS",
                    help="re-fetch and re-render every N seconds")
    ss.add_argument("--all-shards", action="store_true",
                    help="query a sharded deployment's admin endpoint "
                         "(--port + 1 unless --admin-port) for the "
                         "fleet-wide aggregated snapshot")
    ss.add_argument("--admin-port", type=int, default=None,
                    help="admin endpoint port for --all-shards (default: "
                         "--port + 1)")
    ss.add_argument("--per-shard", action="store_true",
                    help="with --all-shards: keep the shardN_-prefixed "
                         "per-shard rows in the output (default: "
                         "aggregate only)")
    ss.set_defaults(func=_cmd_serve_stats)

    # listed for `repro --help` only: main() hands `repro lint ...` to
    # repro.lint.cli before this parser runs
    sub.add_parser(
        "lint",
        add_help=False,
        help="run reprolint, the AST-based invariant checker (see "
             "'repro lint --help')",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "lint":
        # the linter parses its own arguments (repro.lint.cli)
        from repro.lint.cli import main as lint_main

        return lint_main(raw[1:])
    args = build_parser().parse_args(raw)
    try:
        return args.func(args)
    except (ReproError, KeyError, OSError, ValueError) as exc:
        # user-input problems (bad codec name, unreadable file, malformed
        # stream, chunk/rank mismatch) get one clean line, not a traceback
        msg = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {msg}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
