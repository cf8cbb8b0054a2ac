#!/usr/bin/env python3
"""Alternating pairs of two ``repro serve`` configurations (EXPERIMENTS.md §10).

    python tools/serve_pairs.py --a="--processes 1" --b="--processes 2"
    python tools/serve_pairs.py --a="--processes 1" --a-src /other/checkout/src \\
        --b="--processes 1"

One run = one server start (``python -m repro serve --port 0 <flags>
--client-rate 1e9 --client-burst 1e9``, nothing pinned), N ``RemoteClient``
connections opened back to back, each sending the workload's warm-up, then
the 40-request ``service_mixed`` cycle of ``benchmarks/suite`` closed loop
over all of them, ``CYCLES`` times.  A run's score is the req/s of its
fastest cycle and the p50 latency of that cycle's warm (family-tagged)
compress requests; every reply of every cycle is verified.  The two
configurations alternate, the order flipping every pair.  Prints the pair
table (markdown) and the median of the per-pair ratios B / A.
"""

import argparse
import os
import pathlib
import re
import shlex
import statistics
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO / "src"), str(REPO / "benchmarks" / "suite")]

from suite_service import ServiceMixed  # noqa: E402

from repro.service import RemoteClient  # noqa: E402

#: §10's method, fixed so that every recorded table is comparable
CYCLES = 4
SEED = 1

LISTENING = re.compile(r"repro service listening on [\d.]+:(\d+)")


def start_server(flags, src):
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         *shlex.split(flags), "--client-rate", "1e9", "--client-burst", "1e9"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    for line in proc.stdout:
        found = LISTENING.match(line)
        if found:
            return proc, int(found.group(1))
    stop_server(proc)
    raise RuntimeError(f"repro serve {flags} never printed its listening line")


def stop_server(proc):
    proc.terminate()
    try:
        proc.wait(timeout=15)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=15)
    proc.stdout.close()


def one_run(workload, flags, src, connections):
    """(req/s, warm p50 ms, connections per shard) of one server start."""
    proc, port = start_server(flags, src)
    clients = []
    try:
        clients = [RemoteClient(port=port, timeout=120) for _ in range(connections)]
        for client in clients:
            for request in workload.warmup:
                request.send(client)
        workload.verify(workload.warmup)
        stats = [c.stats() for c in clients]
        at = [int(s.get("shard_id", 0)) for s in stats]
        placement = " + ".join(
            str(at.count(shard)) for shard in range(int(stats[0].get("n_shards", 1)))
        )
        best = None
        for _ in range(CYCLES):
            cycle = workload.repetition()
            wall = workload._drive(cycle, clients, open_loop=False)
            workload.verify(cycle)
            warm = [1e3 * (r.done - r.due) for r in cycle
                    if r.kind == "interactive" and r.error is None]
            if best is None or wall < best[0]:
                best = (wall, statistics.median(warm))
    finally:
        for client in clients:
            client.close()
        stop_server(proc)
    return len(workload.template) / best[0], best[1], placement


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", required=True, help="flags of configuration A")
    ap.add_argument("--b", required=True, help="flags of configuration B")
    ap.add_argument("--a-src", default=REPO / "src", help="src/ that A runs from")
    ap.add_argument("--b-src", default=REPO / "src", help="src/ that B runs from")
    ap.add_argument("--connections", type=int, default=4)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()

    workload = ServiceMixed(SEED, "full")
    workload._generate()
    sides = {"A": (args.a, args.a_src), "B": (args.b, args.b_src)}
    print(f"A = `{args.a}` ({args.a_src})\nB = `{args.b}` ({args.b_src})\n"
          f"{args.connections} connections, {CYCLES} cycles a run\n")
    print("| pair | order | A req/s | A conns/shard | A warm p50 ms "
          "| B req/s | B conns/shard | B warm p50 ms | B / A |")
    print("|---|---|---|---|---|---|---|---|---|")
    rows = []
    for pair in range(1, args.pairs + 1):
        order = "AB" if pair % 2 else "BA"
        got = {side: one_run(workload, *sides[side], args.connections)
               for side in order}
        (a_rps, a_p50, a_at), (b_rps, b_p50, b_at) = got["A"], got["B"]
        rows.append((a_rps, a_p50, b_rps, b_p50))
        print(f"| {pair} | {','.join(order)} | {a_rps:.1f} | {a_at} | {a_p50:.1f} "
              f"| {b_rps:.1f} | {b_at} | {b_p50:.1f} | {b_rps / a_rps:.2f} |",
              flush=True)
    a_rps, a_p50, b_rps, b_p50 = (statistics.median(col) for col in zip(*rows))
    ratios = [r[2] / r[0] for r in rows]
    print(f"\nmedians: A {a_rps:.1f} req/s, warm p50 {a_p50:.1f} ms; "
          f"B {b_rps:.1f} req/s, warm p50 {b_p50:.1f} ms")
    print(f"median of the {len(ratios)} ratios B / A: {statistics.median(ratios):.2f}x"
          f" (B ahead in {sum(r > 1 for r in ratios)} of {len(ratios)})")
    tally = workload.tally
    print(f"{tally.attempted} verified replies, {tally.failed} failures"
          + (f": {tally.reasons}" if tally.failed else ""))
    return 1 if tally.failed else 0


if __name__ == "__main__":
    sys.exit(main())
