"""Chunked container scaling: chunk-size trade-offs + worker fan-out gate.

Two views of the out-of-core subsystem (DESIGN.md §5, §13; not a paper
figure):

* the original chunk-size table — CR / compress time / random-access
  read fraction vs chunk edge on the Miranda stand-in;
* a multi-worker scaling benchmark over the shared-memory slab fan-out
  (``processes=N`` → :meth:`repro.parallel.executor
  .ChunkWorkPool.compress_stream`): elements/s at 1/2/4/8 workers,
  normalized by the same gather-calibration proxy the other CI gates
  use, plus a byte-identity check across worker counts.

The CI ``scaling-smoke`` job runs ``--check BENCH_chunked_scaling.json``:
single-worker normalized throughput must stay within
``REGRESSION_FACTOR`` of the committed baseline on every machine, and on
hosts with at least ``MIN_CORES_FOR_SCALING`` cores the best multi-worker
configuration must clear ``SCALING_FLOOR``x the single-worker rate — the
zero-copy fan-out earning its keep.  The scaling contract is skipped
(and said so) on smaller machines: a 1-core container can only measure
the overhead, never the speedup, so the committed baseline records
``cpu_count`` alongside its numbers.

    python benchmarks/bench_chunked_scaling.py --check BENCH_chunked_scaling.json

Run without arguments to print both tables; ``--write PATH`` refreshes
the baseline.  Under pytest it records tables like the other benches.
"""

import argparse
import json
import os
import pathlib
import sys
import time

#: normalized single-worker throughput may drop to 1/this before CI fails
REGRESSION_FACTOR = 2.0
#: best multi-worker config must beat single-worker by this factor...
SCALING_FLOOR = 2.0
#: ...but only on machines with at least this many cores
MIN_CORES_FOR_SCALING = 4

WORKER_COUNTS = (1, 2, 4, 8)
#: 64 chunks of 24^3 — enough parallel grain for 8 workers while each
#: chunk still carries real codec work relative to the descriptor IPC
FIELD_SHAPE = (96, 96, 96)
FAN_CHUNK = 24
REL_EB = 1e-3

CODEC = "sz3"
CHUNK_EDGES = (16, 24, 32, 48)


# ---------------------------------------------------- chunk-size table


def _run_chunk_size_table():
    from conftest import bench_dataset

    import repro
    from repro.chunked import ChunkedFile
    from repro.compressors.base import get_compressor

    data = bench_dataset("miranda")
    rows = []

    t0 = time.perf_counter()
    plain = get_compressor(CODEC).compress(data, rel_error_bound=REL_EB)
    t_plain = time.perf_counter() - t0
    rows.append(["unchunked", 1, round(data.nbytes / len(plain), 2),
                 round(t_plain, 2), 100.0])

    for edge in CHUNK_EDGES:
        t0 = time.perf_counter()
        blob = repro.compress(
            data, codec=CODEC, chunks=edge, bound=("rel", REL_EB)
        )
        dt = time.perf_counter() - t0
        with ChunkedFile(blob) as f:
            # bytes read to randomly access the middle chunk, as % of stream
            mid = f.info.entries[f.n_chunks // 2]
            access = 100.0 * mid.nbytes / len(blob)
            n = f.n_chunks
        rows.append([f"chunks={edge}^3", n,
                     round(data.nbytes / len(blob), 2), round(dt, 2),
                     round(access, 2)])
    return rows


def test_chunked_scaling(benchmark):
    from conftest import record
    from repro.analysis import format_table

    rows = benchmark.pedantic(_run_chunk_size_table, rounds=1, iterations=1)
    table = format_table(
        ["config", "n_chunks", "cr", "compress_s", "access_read_%"],
        rows,
        title="Chunked container scaling on Miranda (sz3, rel eb 1e-3): "
        "CR cost of tiling vs random-access read fraction "
        "(unchunked = whole-stream decode)",
    )
    record("chunked_scaling", table)


# ------------------------------------------------- worker fan-out gate


def run_benchmark():
    from bench_compress_speed import _best_of, calibration_melem_s

    import numpy as np

    import repro
    from repro.datasets import get_dataset

    rng = np.random.default_rng(2022)
    calib = calibration_melem_s(rng)
    data = get_dataset("nyx", shape=FIELD_SHAPE, seed=3)
    results = {
        "cpu_count": os.cpu_count(),
        "calibration_melem_s": round(calib, 1),
        "workers": {},
    }

    def compress_with(workers):
        return repro.compress(
            data, codec="qoz", chunks=FAN_CHUNK, bound=("rel", REL_EB),
            processes=None if workers == 1 else workers,
        )

    reference = compress_with(1)  # also warms codec/numpy caches
    for workers in WORKER_COUNTS:
        # every configuration must produce the identical stream — the
        # fan-out is an execution strategy, never a format change
        assert compress_with(workers) == reference, (
            f"{workers}-worker stream diverged from single-worker bytes"
        )
        dt = _best_of(lambda: compress_with(workers), rounds=2)
        melem_s = data.size / dt / 1e6
        results["workers"][str(workers)] = {
            "melem_per_s": round(melem_s, 2),
            "normalized": round(melem_s / calib, 4),
        }

    one = results["workers"]["1"]["melem_per_s"]
    for workers in WORKER_COUNTS:
        r = results["workers"][str(workers)]
        r["speedup_vs_1"] = round(r["melem_per_s"] / one, 2)
    results["best_speedup"] = max(
        r["speedup_vs_1"] for r in results["workers"].values()
    )
    return results


def format_results(results):
    lines = [
        "chunked fan-out scaling "
        f"({results['cpu_count']} core(s), gather calibration "
        f"{results['calibration_melem_s']} Melem/s)"
    ]
    for workers, r in results["workers"].items():
        lines.append(
            f"  workers={workers:>2s} {r['melem_per_s']:8.2f} Melem/s   "
            f"normalized {r['normalized']:.4f}   "
            f"speedup {r['speedup_vs_1']:.2f}x"
        )
    lines.append(
        f"  best speedup vs single worker: {results['best_speedup']:.2f}x"
    )
    return "\n".join(lines)


def format_markdown(results):
    """GitHub-flavored summary table (written to $GITHUB_STEP_SUMMARY)."""
    lines = [
        "### scaling-smoke — chunked fan-out, machine-normalized",
        "",
        f"{results['cpu_count']} core(s), gather calibration: "
        f"{results['calibration_melem_s']} Melem/s",
        "",
        "| workers | Melem/s | normalized | speedup |",
        "| ---: | ---: | ---: | ---: |",
    ]
    for workers, r in results["workers"].items():
        lines.append(
            f"| {workers} | {r['melem_per_s']:.2f} | {r['normalized']:.4f} "
            f"| {r['speedup_vs_1']:.2f}x |"
        )
    lines.append("")
    lines.append(
        f"best speedup vs single worker: **{results['best_speedup']:.2f}x**"
    )
    return "\n".join(lines) + "\n\n"


def check_against(results, baseline_path):
    """Return a list of regression messages (empty = pass)."""
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    failures = []
    base_one = baseline["workers"]["1"]
    now_one = results["workers"]["1"]
    floor = base_one["normalized"] / REGRESSION_FACTOR
    if now_one["normalized"] < floor:
        failures.append(
            f"workers=1: normalized throughput {now_one['normalized']:.4f} "
            f"fell below {floor:.4f} "
            f"(baseline {base_one['normalized']:.4f} / {REGRESSION_FACTOR}x)"
        )
    cores = os.cpu_count() or 1
    if cores >= MIN_CORES_FOR_SCALING:
        if results["best_speedup"] < SCALING_FLOOR:
            failures.append(
                f"scaling: best multi-worker speedup "
                f"{results['best_speedup']:.2f}x fell below the "
                f"{SCALING_FLOOR:.1f}x contract on a {cores}-core machine"
            )
    else:
        print(
            f"scaling contract skipped: {cores} core(s) < "
            f"{MIN_CORES_FOR_SCALING} (speedup is unmeasurable here)"
        )
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check", metavar="BASELINE",
                    help="fail on regression vs the committed baseline")
    ap.add_argument("--write", metavar="PATH", help="write results JSON")
    ap.add_argument("--summary", metavar="PATH",
                    help="append a markdown table (e.g. $GITHUB_STEP_SUMMARY)")
    args = ap.parse_args(argv)
    results = run_benchmark()
    print(format_results(results))
    if args.summary:
        with open(args.summary, "a") as fh:
            fh.write(format_markdown(results))
    if args.write:
        pathlib.Path(args.write).write_text(
            json.dumps(results, indent=2) + "\n"
        )
        print(f"wrote {args.write}")
    if args.check:
        failures = check_against(results, args.check)
        if failures:
            print("REGRESSION:\n  " + "\n  ".join(failures))
            return 1
        print(f"no regression vs {args.check}")
    return 0


def test_worker_scaling():
    """Pytest entry: record the fan-out table alongside other benchmarks."""
    from conftest import record

    results = run_benchmark()
    record("chunked_fanout", format_results(results))
    assert results["workers"]["1"]["melem_per_s"] > 0


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    sys.exit(main())
