"""Open-loop service load generator: admission behavior under saturation.

Drives the in-process service the way an impatient fleet of clients
would — requests are issued on a fixed wall-clock schedule whether or
not earlier ones have finished (open loop), so queueing delay is
measured honestly instead of being absorbed by a closed loop's
self-throttling.  Three phases:

1. *Calibrate*: run one warm workload cycle closed-loop to estimate the
   sustainable request rate (plans pre-derived; derivation cost is the
   service's to amortize, not the load generator's to measure).
2. *Baseline*: open loop at 0.5x sustainable — an unsaturated service —
   recording p50/p99 latency of interactive requests.
3. *Saturate*: open loop at 2x sustainable with mixed interactive/batch
   traffic on a fresh service, recording p50/p99 per class, admitted
   and rejected counts per class, and rejects per admission rule (the
   ``rejects_<reason>`` STATS deltas) — which rule shed the load.

Every run reconciles the load generator's own admit/reject tallies
against the service's STATS counters — exactly, not approximately; a
mismatch is a bug in the metrics pipeline and raises.  The in-process
harness is informational (no committed baseline / CI gate, no verdict;
EXPERIMENTS.md §18 reads it at a fixed offered rate)::

    PYTHONPATH=src python benchmarks/bench_service.py [--duration S] [--write PATH]
"""

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.errors import ServiceOverloadedError
from repro.service import ServiceClient, ServiceConfig, protocol
from repro.service.protocol import CompressRequest

INTERACTIVE_SHAPE = (32, 32, 32)
BATCH_SHAPE = (64, 64, 64)
# one workload cycle: mostly small interactive requests, one big batch job
CYCLE = ["interactive"] * 4 + ["batch"]
N_CLIENTS = 8
CODEC = "qoz"
REL_EB = 1e-3


def make_fields():
    rng = np.random.default_rng(42)

    def field(shape):
        x = np.cumsum(rng.standard_normal(shape), axis=0)
        x += np.cumsum(rng.standard_normal(shape), axis=1)
        return (x / np.abs(x).max()).astype(np.float32)

    return {
        "interactive": field(INTERACTIVE_SHAPE),
        "batch": field(BATCH_SHAPE),
    }


def build_request(kind, fields, client_id):
    return CompressRequest(
        data=fields[kind],
        codec=CODEC,
        bound=("rel", REL_EB),
        family=f"load-{kind}",
        priority=kind if kind in protocol.PRIORITIES else "interactive",
        client_id=client_id,
    )


def service_config():
    # generous per-client quotas: this benchmark exercises the job bound
    # and the priority lanes, not the per-client fairness rule
    return ServiceConfig(
        processes=1,
        client_rate=1e9,
        client_burst=1e9,
    )


def warm_plans(svc, fields):
    """Derive both families' plans once so every timed request is warm."""
    for kind, data in fields.items():
        svc.compress(
            data, codec=CODEC, bound=("rel", REL_EB), family=f"load-{kind}"
        )


def calibrate(svc, fields):
    """Closed-loop warm cycles -> sustainable requests/second."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for kind in CYCLE:
            svc.compress(
                fields[kind],
                codec=CODEC,
                bound=("rel", REL_EB),
                family=f"load-{kind}",
                priority=kind,
            )
        best = min(best, time.perf_counter() - t0)
    return len(CYCLE) / best


def snapshot_counters(svc):
    """Admit/reject/retry counters by class and rejects by reason."""
    return {
        k: v for k, v in svc.stats().items()
        if k.startswith(("admitted_", "rejected_", "retried_", "rejects_"))
    }


def rejects_by_reason(before, after):
    """``{reason: count}`` of the rejects between two counter snapshots."""
    return {
        k.removeprefix("rejects_"): after[k] - before.get(k, 0)
        for k in sorted(after)
        if k.startswith("rejects_") and after[k] > before.get(k, 0)
    }


def open_loop_run(svc, fields, rate, duration, mixed=True):
    """Issue requests on a fixed schedule; tally and time every outcome.

    Returns per-class latency samples (admitted requests only, seconds)
    and the load generator's own admit/reject tallies.
    """
    loop = svc._loop
    service = svc.service
    n = max(1, int(rate * duration))
    kinds = [CYCLE[i % len(CYCLE)] if mixed else "interactive"
             for i in range(n)]
    pending = []  # (kind, t_submit, future)
    tally = {
        "sent": 0,
        "admitted": {"interactive": 0, "batch": 0},
        "rejected": {"interactive": 0, "batch": 0},
    }
    done_at = {}  # id(fut) -> completion timestamp, stamped by callback
    start = time.perf_counter()
    for i, kind in enumerate(kinds):
        target = start + i / rate
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        req = build_request(kind, fields, f"lg-{i % N_CLIENTS}")
        t_submit = time.perf_counter()
        fut = asyncio_submit(loop, service.handle(req))
        # stamp completion when it happens, not when the collection loop
        # below gets around to asking — the difference is the whole
        # remaining submission schedule for early finishers
        fut.add_done_callback(
            lambda f: done_at.setdefault(id(f), time.perf_counter())
        )
        pending.append((kind, t_submit, fut))
        tally["sent"] += 1
    latency = {"interactive": [], "batch": []}
    for kind, t_submit, fut in pending:
        try:
            fut.result(timeout=300)
        except ServiceOverloadedError:
            tally["rejected"][kind] += 1
            continue
        tally["admitted"][kind] += 1
        latency[kind].append(done_at[id(fut)] - t_submit)
    return latency, tally


def asyncio_submit(loop, coro):
    import asyncio

    return asyncio.run_coroutine_threadsafe(coro, loop)


def percentiles(samples):
    if not samples:
        return {"n": 0, "p50_ms": None, "p99_ms": None}
    arr = np.asarray(samples)
    return {
        "n": int(arr.size),
        "p50_ms": round(float(np.percentile(arr, 50)) * 1e3, 2),
        "p99_ms": round(float(np.percentile(arr, 99)) * 1e3, 2),
    }


def reconcile(before, after, tally):
    """Server counter deltas must match the load generator exactly."""
    for cls in ("interactive", "batch"):
        admitted = after[f"admitted_{cls}"] - before[f"admitted_{cls}"]
        rejected = after[f"rejected_{cls}"] - before[f"rejected_{cls}"]
        if admitted != tally["admitted"][cls]:
            raise AssertionError(
                f"admitted_{cls}: server says {admitted}, "
                f"load generator counted {tally['admitted'][cls]}"
            )
        if rejected != tally["rejected"][cls]:
            raise AssertionError(
                f"rejected_{cls}: server says {rejected}, "
                f"load generator counted {tally['rejected'][cls]}"
            )


def run_saturated(fields, rate, duration):
    """One saturated open-loop run against a fresh service."""
    with ServiceClient(service_config()) as svc:
        warm_plans(svc, fields)
        before = snapshot_counters(svc)
        latency, tally = open_loop_run(
            svc, fields, rate=2.0 * rate, duration=duration
        )
        after = snapshot_counters(svc)
        reconcile(before, after, tally)
    tally["rejects_by_reason"] = rejects_by_reason(before, after)
    return latency, tally


def run_benchmark(duration):
    fields = make_fields()
    results = {
        "interactive_shape": list(INTERACTIVE_SHAPE),
        "batch_shape": list(BATCH_SHAPE),
        "cycle": list(CYCLE),
        "duration_s": duration,
    }

    # calibrate + unsaturated baseline on one service
    with ServiceClient(service_config()) as svc:
        warm_plans(svc, fields)
        rate = calibrate(svc, fields)
        before = snapshot_counters(svc)
        base_latency, base_tally = open_loop_run(
            svc, fields, rate=0.5 * rate, duration=duration
        )
        after = snapshot_counters(svc)
        reconcile(before, after, base_tally)
    results["sustainable_rps"] = round(rate, 2)
    results["baseline"] = {
        "rate_rps": round(0.5 * rate, 2),
        "interactive": percentiles(base_latency["interactive"]),
        "batch": percentiles(base_latency["batch"]),
    }

    latency, tally = run_saturated(fields, rate, duration)
    results["saturated"] = {
        "rate_rps": round(2.0 * rate, 2),
        "interactive": percentiles(latency["interactive"]),
        "batch": percentiles(latency["batch"]),
        "sent": tally["sent"],
        "admitted": dict(tally["admitted"]),
        "rejected": dict(tally["rejected"]),
        "rejects_by_reason": tally["rejects_by_reason"],
        "reconciled": True,  # reconcile() raised otherwise
    }
    return results


def format_results(r):
    lines = [
        f"open-loop service load, cycle={r['cycle']}"
        f" sustainable={r['sustainable_rps']:.1f} req/s:",
        f"  baseline  0.5x: interactive p50/p99 "
        f"{r['baseline']['interactive']['p50_ms']}/"
        f"{r['baseline']['interactive']['p99_ms']} ms "
        f"(n={r['baseline']['interactive']['n']})",
    ]
    m = r["saturated"]
    lines.append(
        f"  saturated 2x: interactive p50/p99 "
        f"{m['interactive']['p50_ms']}/{m['interactive']['p99_ms']} ms "
        f"(admitted {m['admitted']}, rejected {m['rejected']}, "
        f"reconciled={m['reconciled']})"
    )
    reasons = ", ".join(
        f"{reason} {n}" for reason, n in m["rejects_by_reason"].items()
    )
    lines.append(f"  rejects by rule (STATS): {reasons or 'none'}")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--duration", type=float, default=3.0,
                    help="seconds per open-loop phase (default 3)")
    ap.add_argument("--write", metavar="PATH", help="write results JSON")
    args = ap.parse_args(argv)
    results = run_benchmark(args.duration)
    print(format_results(results))
    if args.write:
        pathlib.Path(args.write).write_text(
            json.dumps(results, indent=2) + "\n"
        )
        print(f"wrote {args.write}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    sys.exit(main())
