"""One repeatable benchmark: run one named workload and print its metrics.

    python3 benchmarks/suite/run.py --workload NAME --seed N \
        --seconds S --trace 0|1 [--out FILE]

``--trace 0`` measures the end-to-end metrics through the public API
with no instrumentation; ``--trace 1`` is a separate run that replays
each operation as timed calls into each layer's public functions and
reports the per-layer metrics.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is non-zero when any operation failed.  See README.md beside this
file.
"""

import time

_T0 = time.perf_counter()  # set-up time counts the imports below

import argparse
import atexit
import json
import pathlib
import signal
import subprocess
import sys

_HERE = pathlib.Path(__file__).resolve().parent
# the program under test is the checkout's own source tree
_SRC = _HERE.parent.parent / "src"
if not (_SRC / "repro").is_dir():
    sys.exit(f"run.py: no program to benchmark: {_SRC / 'repro'} is missing")
sys.path.insert(0, str(_SRC))
sys.path.insert(0, str(_HERE))

import suite_lib as lib

WORKLOADS = ("single_tuned", "chunked_serial", "chunked_pool", "service_mixed")
#: set-ups per run (this process plus fresh child processes); setup_s is
#: their median.  This process's own set-up is always the slowest (cold
#: files), so of three samples the median was a single probe's time; of
#: five it is the middle of the probes
SETUP_SAMPLES = 5
#: a replayed operation costs about three public ones (the public call
#: it is checked against, the replay, the probes), so the traced run
#: replays for a third of --seconds and ends up about as long
TRACED_SHARE = 3


def build_workload(name: str, seed: int, profile: str):
    import suite_workloads as wl

    if name == "single_tuned":
        return wl.SingleTuned(seed, profile)
    if name == "chunked_serial":
        return wl.Chunked(seed, profile, processes=None)
    if name == "chunked_pool":
        return wl.Chunked(seed, profile, processes=2)
    if name == "service_mixed":
        from suite_service import ServiceMixed

        return ServiceMixed(seed, profile)
    raise SystemExit(f"unknown workload {name!r}; have {WORKLOADS}")


def setup_probe_s(args) -> float:
    """Set the workload up once more in a fresh process; its own
    process-start -> end-of-warm-up time comes back on stdout."""
    cmd = [
        sys.executable, str(_HERE / "run.py"), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    done = subprocess.run(
        cmd, env=lib.subprocess_env(), stdout=subprocess.PIPE, check=True,
        timeout=170,
    )
    return float(done.stdout.decode().strip().splitlines()[-1])


def run_untraced(workload, args):
    setups = [time.perf_counter() - _T0]
    if not args.quick:  # the smoke profile starts no subprocess
        setups += [setup_probe_s(args) for _ in range(SETUP_SAMPLES - 1)]
    workload.measure(args.seconds)
    workload.finish()
    metrics = workload.end_to_end()
    metrics["setup_s"] = lib.metric(lib.pct(setups, 50), "s")
    detail = {
        "setup_s_samples": setups,
        "cycles": workload.cycles,
        "operations_ms": workload.detail(),
    }
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None,
                    help="append this run's full record to a JSON file "
                         "(the input of compare.py)")
    ap.add_argument("--quick", action="store_true",
                    help="tiny in-process profile for the smoke test; "
                         "never used for reported numbers")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(lib.load_benchmark_json()["run_seconds"])
    profile = "quick" if args.quick else "full"

    env = lib.environment()
    workload = build_workload(args.workload, args.seed, profile)
    try:
        workload.setup()
        if args.setup_probe:
            print(repr(time.perf_counter() - _T0))
            return 0
        if args.trace:
            import suite_replay

            metrics, detail = suite_replay.run(
                workload, args.seconds / TRACED_SHARE)
        else:
            metrics, detail = run_untraced(workload, args)
    finally:
        workload.close()

    tally = workload.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    for name in sorted(metrics):
        print(f"{name:46s} {metrics[name]['value']:>16.6g} {metrics[name]['unit']}")
    print(f"{'error_rate':46s} {tally.failed / max(1, tally.attempted):>16.6g} "
          f"failed/attempted ({tally.failed}/{tally.attempted})")
    for reason in tally.reasons:
        lib.eprint("FAILED:", reason)
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, seconds=args.seconds, profile=profile,
                      environment=env, input_digest=workload.input_digest(),
                      detail=detail)
        path = pathlib.Path(args.out)
        runs = json.loads(path.read_text()) if path.exists() else []
        runs.append(record)
        path.write_text(json.dumps(runs, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] and tally.attempted > 0 else 1


def _on_sigterm(signum, _frame):
    sys.exit(128 + signum)  # unwind through finally: and atexit


if __name__ == "__main__":
    # registered before anything imports multiprocessing, so it runs after
    # multiprocessing's and repro.parallel.slab's own exit hooks: no
    # process this run started is left behind on any way out
    lib.adopt_orphans()
    atexit.register(lib.reap_children)
    signal.signal(signal.SIGTERM, _on_sigterm)
    sys.exit(main())
