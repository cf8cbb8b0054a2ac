"""Compression throughput benchmark + CI regression gate.

Measures the compress side of the pipeline across its regimes: QoZ
single-array compression with online tuning ('cr' and 'psnr' — the latter
exercises the Table I retrial path), the SZ3 baseline (selection only),
and end-to-end chunked compression of a multi-chunk 3-D field both ways —
the default shared-plan path (tune once on a global sample, execute the
frozen plan per chunk) and the opt-in per-chunk-tuned path it replaced as
default.  The ratio between those two is the headline amortization win
and is recorded alongside the throughputs.

Because absolute throughput varies wildly across machines, every number
is also recorded *normalized* by a fixed numpy gather workload measured
at the same time (``calibration``).  The CI smoke job compares normalized
values against the committed baseline (``BENCH_compress.json`` at the
repo root) and fails on a >2x regression:

    python benchmarks/bench_compress_speed.py --check BENCH_compress.json

Run without arguments to print the table; ``--write PATH`` refreshes the
baseline.  Under pytest it records the table like the other benches.
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

#: normalized throughput may drop to 1/this before the CI gate fails
REGRESSION_FACTOR = 2.0
#: single-array workload (the paper's configuration scaled to CI)
SINGLE_SHAPE = (64, 64, 64)
#: chunked workload: 64 chunks of 32^3 — many small chunks make the
#: per-chunk analysis overhead (the thing plan sharing amortizes) explicit
CHUNKED_SHAPE = (128, 128, 128)
CHUNK = 32


def _best_of(fn, rounds=3):
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibration_melem_s(rng):
    """Throughput of a plain numpy fancy gather (Melem/s) — the machine-
    speed proxy used to normalize compress numbers across hosts."""
    table = rng.integers(0, 1 << 31, size=1 << 16).astype(np.int64)
    idx = rng.integers(0, 1 << 16, size=1 << 21)
    dt = _best_of(lambda: table[idx], rounds=5)
    return idx.size / dt / 1e6


def run_benchmark():
    import repro
    from repro import SZ3
    from repro.core.qoz import QoZ
    from repro.datasets import get_dataset

    rng = np.random.default_rng(2022)
    calib = calibration_melem_s(rng)
    results = {"calibration_melem_s": round(calib, 1), "streams": {}}

    def record(name, nbytes, dt):
        mbs = nbytes / dt / 1e6
        results["streams"][name] = {
            "mb_per_s": round(mbs, 2),
            "normalized": round(mbs / calib, 4),
        }

    single = get_dataset("nyx", shape=SINGLE_SHAPE, seed=0)
    field = get_dataset("nyx", shape=CHUNKED_SHAPE, seed=1)

    qoz_cr = QoZ(metric="cr")
    qoz_cr.compress(single, rel_error_bound=1e-3)  # warm numpy/codec caches
    record(
        "qoz_cr_single", single.nbytes,
        _best_of(lambda: qoz_cr.compress(single, rel_error_bound=1e-3)),
    )
    qoz_psnr = QoZ(metric="psnr")
    record(
        "qoz_psnr_single", single.nbytes,
        _best_of(lambda: qoz_psnr.compress(single, rel_error_bound=1e-3)),
    )
    sz3 = SZ3()
    record(
        "sz3_single", single.nbytes,
        _best_of(lambda: sz3.compress(single, rel_error_bound=1e-3)),
    )

    dt_shared = _best_of(
        lambda: repro.compress(
            field, codec="qoz", chunks=CHUNK, bound="rel:1e-3"
        ),
        rounds=2,
    )
    record("qoz_chunked_shared_plan", field.nbytes, dt_shared)
    dt_tuned = _best_of(
        lambda: repro.compress(
            field, codec="qoz", chunks=CHUNK, bound="rel:1e-3",
            per_chunk_tuning=True,
        ),
        rounds=2,
    )
    record("qoz_chunked_per_chunk_tuned", field.nbytes, dt_tuned)
    results["shared_plan_speedup"] = round(dt_tuned / dt_shared, 2)
    return results


def format_results(results):
    lines = [
        "compression throughput "
        f"(gather calibration {results['calibration_melem_s']} Melem/s)"
    ]
    for name, r in results["streams"].items():
        lines.append(
            f"  {name:28s} {r['mb_per_s']:8.2f} MB/s   "
            f"normalized {r['normalized']:.4f}"
        )
    lines.append(
        "  shared-plan chunked speedup over per-chunk tuning: "
        f"{results['shared_plan_speedup']:.2f}x"
    )
    return "\n".join(lines)


def format_markdown(results):
    """GitHub-flavored summary table (written to $GITHUB_STEP_SUMMARY)."""
    lines = [
        "### compress-smoke — machine-normalized throughput",
        "",
        f"gather calibration: {results['calibration_melem_s']} Melem/s",
        "",
        "| stream | MB/s | normalized |",
        "| --- | ---: | ---: |",
    ]
    for name, r in results["streams"].items():
        lines.append(
            f"| {name} | {r['mb_per_s']:.2f} | {r['normalized']:.4f} |"
        )
    lines.append("")
    lines.append(
        "shared-plan chunked speedup over per-chunk tuning: "
        f"**{results['shared_plan_speedup']:.2f}x**"
    )
    return "\n".join(lines) + "\n\n"


def check_against(results, baseline_path):
    """Return a list of regression messages (empty = pass)."""
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    failures = []
    for name, base in baseline["streams"].items():
        now = results["streams"].get(name)
        if now is None:
            failures.append(f"{name}: missing from current run")
            continue
        floor = base["normalized"] / REGRESSION_FACTOR
        if now["normalized"] < floor:
            failures.append(
                f"{name}: normalized throughput {now['normalized']:.4f} "
                f"fell below {floor:.4f} "
                f"(baseline {base['normalized']:.4f} / {REGRESSION_FACTOR}x)"
            )
    # the amortization itself is part of the contract: chunked compression
    # re-tuning per chunk is the regression this PR exists to prevent
    floor = baseline["shared_plan_speedup"] / REGRESSION_FACTOR
    if results["shared_plan_speedup"] < floor:
        failures.append(
            f"shared_plan_speedup: {results['shared_plan_speedup']:.2f}x "
            f"fell below {floor:.2f}x "
            f"(baseline {baseline['shared_plan_speedup']:.2f}x / "
            f"{REGRESSION_FACTOR}x)"
        )
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--check", metavar="BASELINE", help="fail on >2x regression")
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
        existing = {}
        p = pathlib.Path(args.write)
        if p.exists():
            existing = json.loads(p.read_text())
        existing.update(results)
        pre = existing.get("pre_optimization_baseline")
        if pre:
            # keep the derived ratios consistent with the refreshed streams
            # (the shared-plan row compares against the pre-split per-chunk
            # path — the same chunked workload, old default behavior)
            speedups = {}
            for name, r in existing["streams"].items():
                key = (
                    "qoz_chunked_per_chunk_tuned"
                    if name == "qoz_chunked_shared_plan"
                    else name
                )
                base = pre["streams"].get(key)
                if base:
                    speedups[name] = round(
                        r["normalized"] / base["normalized"], 2
                    )
            existing["speedup_vs_pre_optimization"] = speedups
        p.write_text(json.dumps(existing, indent=2) + "\n")
        print(f"wrote {args.write}")
    if args.check:
        failures = check_against(results, args.check)
        if failures:
            print("REGRESSION:\n  " + "\n  ".join(failures))
            return 1
        print(f"no >{REGRESSION_FACTOR}x regression vs {args.check}")
    return 0


def test_compress_throughput():
    """Pytest entry: record the table alongside the other benchmarks."""
    from conftest import record

    results = run_benchmark()
    record("compress_speed", format_results(results))
    assert results["streams"]["qoz_cr_single"]["mb_per_s"] > 0


if __name__ == "__main__":
    sys.exit(main())
