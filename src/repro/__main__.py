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
    python -m repro compress dataset:miranda:48x64x64 field.rpz --codec sz3 --eb abs:1e-2
    python -m repro info field.rpz --list-chunks
    python -m repro verify field.rpz
    python -m repro decompress field.rpz recon.npy
    python -m repro decompress field.rpz slab.npy --slab 0:16,:,8:24
    python -m repro serve --port 9753 --processes 2

``serve`` runs the long-lived async compression service
(:mod:`repro.service`): compress / decompress / hyperslab-read over a
binary socket protocol, with admission control and cross-request
plan caching; ``--processes N`` runs all codec work on N pool workers.
``serve-stats`` connects to a running service and
renders its observability snapshot as a table (or ``--json`` /
``--line``, optionally ``--watch N``).  The package also installs a
``repro`` console script pointing at this module.
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


def _stream_header(path: str):
    """The fixed header of the stream stored at ``path``."""
    from repro.core.header import HEADER_PROBE_BYTES, parse_header

    with open(path, "rb") as fh:
        return parse_header(fh.read(HEADER_PROBE_BYTES))[0]


def _cmd_compress(args) -> int:
    import repro

    data = _load_input(args.input)
    t0 = time.perf_counter()
    info = repro.compress(
        data,
        codec=args.codec,
        bound=args.eb,
        chunks=args.chunks,
        file=args.output,
        processes=args.processes,
        per_chunk_tuning=args.per_chunk_tuning,
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
    import repro

    header = _stream_header(args.input)
    t0 = time.perf_counter()
    if header.is_chunked:
        # out of core: a whole container streams chunk by chunk into a
        # .npy memmap; a slab decodes only the chunks it touches
        with repro.open(args.input) as f:
            if args.slab is None:
                f.to_npy(args.output)
                shape = f.shape
            else:
                out = f.read(args.slab)
                np.save(args.output, out)
                shape = out.shape
    else:
        recon = repro.decompress(args.input)
        if args.slab is not None:
            from repro.chunked import grid_for

            # same slab validation/semantics as the chunked path (clean
            # rank-mismatch errors instead of raw IndexErrors)
            recon = recon[grid_for(recon.shape, recon.shape).normalize_slab(args.slab)]
        np.save(args.output, recon)
        shape = recon.shape
    dt = time.perf_counter() - t0
    print(f"wrote {args.output}: shape={tuple(shape)} "
          f"dtype={header.dtype} in {dt:.2f}s")
    return 0


def _cmd_info(args) -> int:
    import os

    from repro.core.stream import summarize_header

    header = _stream_header(args.input)
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

    header = _stream_header(args.input)
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

    config = ServiceConfig(
        processes=args.processes,
        max_queue=args.max_queue,
        serve_root=args.serve_root,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
        stats_interval=args.stats_interval,
    )
    return run_server(host=args.host, port=args.port, config=config)


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

    from repro.analysis import format_table
    from repro.service import RemoteClient, format_stats_line

    try:
        while True:
            with RemoteClient(host=args.host, port=args.port) as client:
                stats = client.stats()
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
    c.add_argument("--eb", required=True, metavar="SPEC",
                   help="error bound: 'abs:1e-3' (absolute) or 'rel:1e-4' "
                        "(relative to the field's value range)")
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
                   help="worker processes: all codec work runs on them, "
                        "N + 1 requests at once, each compress whole on "
                        "one worker (1 = one job at a time, in-process)")
    s.add_argument("--max-queue", type=int, default=64,
                   help="admission bound; beyond it requests get "
                        "retry-after backpressure (default 64)")
    s.add_argument("--serve-root", default=None, metavar="DIR",
                   help="allow path-based hyperslab reads for containers "
                        "under DIR (default: path reads disabled; "
                        "clients must send container bytes inline)")
    s.add_argument("--client-rate", type=float, default=16.0,
                   help="per-client quota refill rate in declared "
                        "megaelements/s (default 16)")
    s.add_argument("--client-burst", type=float, default=48.0,
                   help="per-client quota burst in megaelements (default 48)")
    s.add_argument("--stats-interval", type=float, default=0.0,
                   help="log one service-stats line every N seconds "
                        "(0 = disabled)")
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
    ss.set_defaults(func=_cmd_serve_stats)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
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
