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

``--sharded`` switches to the *sharded saturation harness*: spawn
``repro serve --shards N`` subprocesses for N in 1/2/4, calibrate the
sustainable rate closed-loop over real sockets, then drive each fleet
open-loop past saturation from a pool of persistent socket clients,
recording admitted throughput and p50/p99 latency per shard count.
Numbers are machine-normalized by the same gather-calibration proxy the
other CI gates use; the ``sharded-smoke`` CI job runs ``--sharded
--check BENCH_service_sharded.json`` and enforces (a) single-shard
normalized throughput within ``SHARD_REGRESSION_FACTOR`` of the
committed baseline and (b) on hosts with ``MIN_CORES_FOR_SHARD_SCALING``
or more cores, a multi-shard speedup of ``SHARD_SCALING_FLOOR``x — on
smaller machines the scaling clause is skipped and says so (a 1-core
container measures sharding overhead, never its speedup; see
EXPERIMENTS.md §9)::

    PYTHONPATH=src python benchmarks/bench_service.py --sharded \
        --check BENCH_service_sharded.json
"""

import argparse
import concurrent.futures
import json
import os
import pathlib
import queue
import re
import subprocess
import sys
import threading
import time

import numpy as np

from repro.errors import ServiceOverloadedError
from repro.service import RemoteClient, ServiceClient, ServiceConfig, protocol
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
        rel_error_bound=REL_EB,
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
            data, codec=CODEC, rel_error_bound=REL_EB, family=f"load-{kind}"
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
                rel_error_bound=REL_EB,
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


# ---------------------------------------------------------------------------
# sharded saturation harness (repro serve --shards N over real sockets)
# ---------------------------------------------------------------------------

SHARD_COUNTS = (1, 2, 4)
#: persistent socket clients driving the open loop
N_WORKERS = 16
#: open-loop rate as a multiple of the calibrated sustainable rate
SATURATION_FACTOR = 1.5
#: single-shard normalized admitted throughput may drop to 1/this vs the
#: committed baseline before CI fails
SHARD_REGRESSION_FACTOR = 2.0
#: best multi-shard config must beat single-shard by this factor...
SHARD_SCALING_FLOOR = 1.3
#: ...but only on machines with at least this many cores
MIN_CORES_FOR_SHARD_SCALING = 4

_LISTEN_RE = re.compile(r"repro service listening on [\d.]+:(\d+)")


def _subprocess_env():
    src = pathlib.Path(__file__).parent.parent / "src"
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (
        (os.pathsep + existing) if existing else ""
    )
    return env


def start_sharded_server(shards):
    """Spawn ``repro serve --shards N --port 0``; return (proc, port)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--shards", str(shards),
            "--client-rate", "1e9", "--client-burst", "1e9",
        ],
        env=_subprocess_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        m = _LISTEN_RE.match(line)
        if m:
            return proc, int(m.group(1))
    err = proc.stderr.read()
    proc.terminate()
    raise RuntimeError(f"sharded server ({shards} shard(s)) never came up: {err}")


def stop_server(proc):
    proc.terminate()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=15)


def fleet_counters(port, shards):
    """admit/reject counters for the whole fleet (admin port when N>1)."""
    stats_port = port if shards == 1 else port + 1
    with RemoteClient(port=stats_port, timeout=30) as client:
        stats = client.stats()
    return {
        k: stats[k]
        for k in (
            "admitted_interactive", "admitted_batch",
            "rejected_interactive", "rejected_batch",
        )
    }


def warm_fleet(port, shards, fields):
    """Derive both families once, then wait for bus replication.

    One derivation per family lands on whichever shard the connection
    hashes to; the bus then installs it on the other ``shards - 1``.
    Polling the aggregated ``bus_plans_installed`` makes the timed phase
    measure execution, not derivation races.
    """
    with RemoteClient(port=port, timeout=300, retries=10) as client:
        for kind, data in fields.items():
            client.compress(
                data, codec=CODEC, rel_error_bound=REL_EB,
                family=f"load-{kind}",
            )
    if shards == 1:
        return
    want = 2 * (shards - 1)
    deadline = time.monotonic() + 15
    while time.monotonic() < deadline:
        with RemoteClient(port=port + 1, timeout=30) as admin:
            if admin.stats().get("bus_plans_installed", 0) >= want:
                return
        time.sleep(0.2)
    # best-effort: a shard deriving its own copy is correct, just slower


def socket_calibrate(port, fields):
    """Closed-loop warm cycles over one socket -> sustainable req/s."""
    best = float("inf")
    with RemoteClient(port=port, timeout=300, retries=10) as client:
        for _ in range(3):
            t0 = time.perf_counter()
            for kind in CYCLE:
                client.compress(
                    fields[kind], codec=CODEC, rel_error_bound=REL_EB,
                    family=f"load-{kind}", priority=kind,
                )
            best = min(best, time.perf_counter() - t0)
    return len(CYCLE) / best


def open_loop_sockets(port, fields, rate, duration):
    """Open-loop load from N_WORKERS persistent socket clients.

    Requests are stamped with their *scheduled* submit time: when every
    worker is busy, the wait for a free connection is queueing delay the
    fleet caused, and it belongs in the latency numbers (that is what
    open-loop means).
    """
    n = max(1, int(rate * duration))
    work = queue.Queue()
    latency = {"interactive": [], "batch": []}
    tally = {
        "sent": n,
        "admitted": {"interactive": 0, "batch": 0},
        "rejected": {"interactive": 0, "batch": 0},
    }
    lock = threading.Lock()
    start = time.perf_counter() + 0.2  # let workers reach the queue

    def worker(worker_id):
        with RemoteClient(
            port=port, timeout=300, client_id=f"lg-{worker_id}",
            reconnects=2,
        ) as client:
            while True:
                item = work.get()
                if item is None:
                    return
                i, kind = item
                target = start + i / rate
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    client.compress(
                        fields[kind], codec=CODEC, rel_error_bound=REL_EB,
                        family=f"load-{kind}", priority=kind,
                    )
                except ServiceOverloadedError:
                    with lock:
                        tally["rejected"][kind] += 1
                    continue
                done = time.perf_counter()
                with lock:
                    tally["admitted"][kind] += 1
                    latency[kind].append(done - target)

    threads = [
        threading.Thread(target=worker, args=(w,), daemon=True)
        for w in range(N_WORKERS)
    ]
    for t in threads:
        t.start()
    for i in range(n):
        work.put((i, CYCLE[i % len(CYCLE)]))
    for _ in threads:
        work.put(None)
    for t in threads:
        t.join(timeout=600)
    elapsed = time.perf_counter() - start
    return latency, tally, elapsed


def run_sharded_benchmark(duration):
    from bench_compress_speed import calibration_melem_s

    rng = np.random.default_rng(2022)
    calib = calibration_melem_s(rng)
    fields = make_fields()
    elems = {k: int(v.size) for k, v in fields.items()}
    results = {
        "cpu_count": os.cpu_count(),
        "calibration_melem_s": round(calib, 1),
        "duration_s": duration,
        "saturation_factor": SATURATION_FACTOR,
        "cycle": list(CYCLE),
        "shards": {},
    }

    for shards in SHARD_COUNTS:
        proc, port = start_sharded_server(shards)
        try:
            warm_fleet(port, shards, fields)
            rate = socket_calibrate(port, fields)
            before = fleet_counters(port, shards)
            latency, tally, elapsed = open_loop_sockets(
                port, fields, rate=SATURATION_FACTOR * rate,
                duration=duration,
            )
            after = fleet_counters(port, shards)
            reconcile(before, after, tally)
        finally:
            stop_server(proc)
        admitted = tally["admitted"]
        admitted_elems = sum(admitted[k] * elems[k] for k in admitted)
        admitted_melem_s = admitted_elems / elapsed / 1e6
        results["shards"][str(shards)] = {
            "sustainable_rps": round(rate, 2),
            "offered_rps": round(SATURATION_FACTOR * rate, 2),
            "interactive": percentiles(latency["interactive"]),
            "batch": percentiles(latency["batch"]),
            "sent": tally["sent"],
            "admitted": dict(admitted),
            "rejected": dict(tally["rejected"]),
            "admitted_rps": round(sum(admitted.values()) / elapsed, 2),
            "admitted_melem_s": round(admitted_melem_s, 3),
            "normalized": round(admitted_melem_s / calib, 4),
            "reconciled": True,  # reconcile() raised otherwise
        }

    one = results["shards"]["1"]["admitted_melem_s"]
    for shards in SHARD_COUNTS:
        r = results["shards"][str(shards)]
        r["speedup_vs_1"] = round(r["admitted_melem_s"] / one, 2) if one else 0
    results["best_shard_speedup"] = max(
        r["speedup_vs_1"] for r in results["shards"].values()
    )
    return results


def format_sharded(results):
    lines = [
        f"sharded open-loop saturation ({results['cpu_count']} core(s), "
        f"gather calibration {results['calibration_melem_s']} Melem/s, "
        f"{SATURATION_FACTOR}x sustainable offered):"
    ]
    for shards, r in results["shards"].items():
        lines.append(
            f"  shards={shards}: admitted {r['admitted_rps']:.1f} req/s "
            f"({r['admitted_melem_s']:.2f} Melem/s, normalized "
            f"{r['normalized']:.4f}), interactive p50/p99 "
            f"{r['interactive']['p50_ms']}/{r['interactive']['p99_ms']} ms, "
            f"speedup {r['speedup_vs_1']:.2f}x, "
            f"reconciled={r['reconciled']}"
        )
    lines.append(
        f"  best speedup vs single shard: "
        f"{results['best_shard_speedup']:.2f}x"
    )
    return "\n".join(lines)


def format_sharded_markdown(results):
    lines = [
        "### sharded-smoke — open-loop saturation, machine-normalized",
        "",
        f"{results['cpu_count']} core(s), gather calibration: "
        f"{results['calibration_melem_s']} Melem/s",
        "",
        "| shards | admitted req/s | Melem/s | normalized | "
        "p50/p99 ms | speedup |",
        "| ---: | ---: | ---: | ---: | ---: | ---: |",
    ]
    for shards, r in results["shards"].items():
        lines.append(
            f"| {shards} | {r['admitted_rps']:.1f} "
            f"| {r['admitted_melem_s']:.2f} | {r['normalized']:.4f} "
            f"| {r['interactive']['p50_ms']}/{r['interactive']['p99_ms']} "
            f"| {r['speedup_vs_1']:.2f}x |"
        )
    lines.append("")
    lines.append(
        f"best speedup vs single shard: "
        f"**{results['best_shard_speedup']:.2f}x**"
    )
    return "\n".join(lines) + "\n\n"


def check_sharded(results, baseline_path):
    """Return a list of regression messages (empty = pass)."""
    baseline = json.loads(pathlib.Path(baseline_path).read_text())
    failures = []
    base_one = baseline["shards"]["1"]
    now_one = results["shards"]["1"]
    floor = base_one["normalized"] / SHARD_REGRESSION_FACTOR
    if now_one["normalized"] < floor:
        failures.append(
            f"shards=1: normalized admitted throughput "
            f"{now_one['normalized']:.4f} fell below {floor:.4f} (baseline "
            f"{base_one['normalized']:.4f} / {SHARD_REGRESSION_FACTOR}x)"
        )
    cores = os.cpu_count() or 1
    if cores >= MIN_CORES_FOR_SHARD_SCALING:
        if results["best_shard_speedup"] < SHARD_SCALING_FLOOR:
            failures.append(
                f"scaling: best multi-shard speedup "
                f"{results['best_shard_speedup']:.2f}x fell below the "
                f"{SHARD_SCALING_FLOOR:.1f}x contract on a {cores}-core "
                f"machine"
            )
    else:
        print(
            f"shard-scaling contract skipped: {cores} core(s) < "
            f"{MIN_CORES_FOR_SHARD_SCALING} (speedup is unmeasurable "
            f"here; see EXPERIMENTS.md §9)"
        )
    return failures


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--duration", type=float, default=3.0,
                    help="seconds per open-loop phase (default 3)")
    ap.add_argument("--sharded", action="store_true",
                    help="run the sharded saturation harness "
                         "(subprocess fleets, 1/2/4 shards) instead of "
                         "the in-process admission benchmark")
    ap.add_argument("--check", metavar="BASELINE",
                    help="with --sharded: fail on regression vs the "
                         "committed baseline")
    ap.add_argument("--write", metavar="PATH", help="write results JSON")
    ap.add_argument("--summary", metavar="PATH",
                    help="with --sharded: append a markdown table "
                         "(e.g. $GITHUB_STEP_SUMMARY)")
    args = ap.parse_args(argv)
    if args.sharded:
        results = run_sharded_benchmark(args.duration)
        print(format_sharded(results))
        if args.summary:
            with open(args.summary, "a") as fh:
                fh.write(format_sharded_markdown(results))
    else:
        results = run_benchmark(args.duration)
        print(format_results(results))
    if args.write:
        pathlib.Path(args.write).write_text(
            json.dumps(results, indent=2) + "\n"
        )
        print(f"wrote {args.write}")
    if args.check:
        if not args.sharded:
            print("--check requires --sharded", file=sys.stderr)
            return 2
        failures = check_sharded(results, args.check)
        if failures:
            print("REGRESSION:\n  " + "\n  ".join(failures))
            return 1
        print(f"no regression vs {args.check}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(pathlib.Path(__file__).parent))
    sys.exit(main())
