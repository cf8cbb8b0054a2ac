"""The ``service_mixed`` workload: a ``repro serve`` subprocess driven by
``RemoteClient`` connections (at most two, on two threads).

The workload is one fixed *cycle* of 40 requests in the mix below,
repeated in three ways:

* **single** — the cycle back to back over ONE connection: each
  request's latency with nothing else in the service.  The client waits
  while the server works, so no processor ever idles between requests.
* **pair** — the cycle back to back over both connections: capacity.
* **open** — the cycle on a Poisson schedule at 20 req/s over both
  connections, each request timed **from its due time** (independent
  users; a stall is charged to every request it delays).

The end-to-end metrics come from *single* and *pair*; the open loop runs
in the traced run only and is reported there by request class
(``service.latency.*``).  The reason is measured: at 20 req/s the server
is idle 60% of the time, and a request that follows an idle gap of 10 ms
or more takes 30-50% longer than the same request sent back to back
(5.6 -> 8.4 ms on the sizing box) — how much depends on the host's
power state of the moment, and over ten runs the open-loop medians
spread 20-34%, wider than any bound the benchmark may publish.

The cycle's requests are the same every time; only the cold compress
requests get fresh content, so they always miss the plan cache.  Every
slot of the cycle therefore has one latency sample per repetition, and
its typical latency is the fastest of them — the rule
:class:`suite_workloads.Recorder` applies to the library workloads, for
the same reason.  Each repetition's replies are verified, and its arrays
dropped, before the next one starts (outside any timed span, with the
server idle).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

import suite_lib as lib
from suite_workloads import (
    BOUND, REL, Workload, seeded_field, seeded_slabs, straddling_slabs, tolerance,
)

#: the request mix: (kind, share)
MIX = (("interactive", 0.6), ("batch", 0.1), ("decompress", 0.2), ("read", 0.1))
#: the mix is exact within every block of this many requests
BLOCK = 10
SCHEDULE_SEED = 2022
CONNECTIONS = 2

#: ``rate`` is the open-loop arrival rate (req/s): 20 is about a third of
#: this service's two-connection capacity on the sizing box
SERVICE_PROFILES = {
    "full": {"rate": 20.0, "cycle_blocks": 4, "min_reps": 3,
             "small": 32, "large": 64, "source": 96,
             "crops": 64, "streams": 8, "families": ("nyx", "miranda")},
    "quick": {"rate": 400.0, "cycle_blocks": 1, "min_reps": 2,
              "small": 8, "large": 16, "source": 24,
              "crops": 4, "streams": 2, "families": ("nyx",)},
}

def _pin_to_one_cpu() -> None:
    """Run this process and everything it starts from here on (the
    server, its worker, the client threads) on one CPU.

    The server does its codec work in one worker process
    (``--processes 1``) and the chain client -> server -> worker is
    serial, so a second CPU buys no parallelism here — alternating
    pinned and free runs gave the same medians on every metric,
    two-connection capacity included — but it adds cross-CPU wake-ups,
    whose cost follows the host: free runs of one ten-seed set fell
    into two regimes (``read_p50_ms`` 36-39 vs 49-52 ms).  On one CPU a
    hand-over is a context switch."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


_LISTEN_RE = re.compile(r"repro service listening on [\d.]+:(\d+)")


class Request:
    """One prepared request and, after it ran, its timing and reply."""

    __slots__ = ("kind", "arg", "extra", "expect", "due", "sent", "done",
                 "reply", "error", "nbytes")

    def __init__(self, kind: str, arg, extra, expect, nbytes: int) -> None:
        self.kind = kind
        self.arg = arg          # array (compress) or bytes (decompress/read)
        self.extra = extra      # family tag (interactive) or slab (read)
        self.expect = expect    # precomputed array for decompress/read
        self.nbytes = nbytes    # uncompressed bytes the request moves
        self.due = self.sent = self.done = 0.0
        self.reply = None
        self.error: Optional[str] = None

    def send(self, client) -> None:
        if self.kind == "interactive":
            self.reply = client.compress(
                self.arg, codec="qoz", bound=BOUND, family=self.extra,
                priority="interactive",
            )
        elif self.kind == "batch":
            self.reply = client.compress(
                self.arg, codec="qoz", bound=BOUND, priority="batch",
            )
        elif self.kind == "decompress":
            self.reply = client.decompress(self.arg)
        else:
            self.reply = client.read(self.arg, self.extra)


class Server:
    """``python -m repro serve --port 0`` as a subprocess (1 shard,
    ``--processes 1``, per-client quotas opened up as in
    ``benchmarks/bench_service.py``)."""

    def __init__(self) -> None:
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--processes", "1",
             "--client-rate", "1e9", "--client-burst", "1e9"],
            env=lib.subprocess_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        self.port = 0
        for line in self.proc.stdout:
            m = _LISTEN_RE.match(line)
            if m:
                self.port = int(m.group(1))
                break
        if not self.port:
            self.stop()
            raise RuntimeError("repro serve never printed its listening line")
        self.start_s = time.perf_counter() - t0
        self.pid = self.proc.pid

    def connect(self):
        from repro.service import RemoteClient

        return RemoteClient(port=self.port, timeout=120)

    def cpu_s(self) -> float:
        return lib.proc_cpu_s(self.pid)

    def peak_rss_mb(self) -> float:
        return lib.peak_rss_mb(self.pid)

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=15)
        self.proc.stdout.close()


class InProcessServer:
    """``--quick`` stand-in: the same service embedded in this process
    (one ``ServiceClient``, which every "connection" shares), so the
    smoke test starts no subprocess."""

    start_s = 0.0

    def __init__(self) -> None:
        from repro.service import ServiceClient, ServiceConfig

        self._client = ServiceClient(
            ServiceConfig(processes=1, client_rate=1e9, client_burst=1e9)
        )

    def connect(self):
        return self._client

    def cpu_s(self) -> float:
        return 0.0  # its CPU time is this process's own

    def peak_rss_mb(self) -> float:
        return 0.0

    def stop(self) -> None:
        self._client.close()


class ServiceMixed(Workload):
    """See the module docstring."""

    name = "service_mixed"

    def __init__(self, seed: int, profile: str) -> None:
        super().__init__(seed, profile)
        self.shapes = SERVICE_PROFILES[profile]
        self.in_process = profile == "quick"
        self.server = None
        self.clients: List = []
        #: phase -> per slot of the cycle: latency (s) of each repetition
        #: that succeeded, from due time to reply
        self.latency: Dict[str, List[List[float]]] = {}
        self.lateness_s: List[float] = []
        self.pair_walls: List[float] = []
        self.pair_cpu: List[float] = []
        self.first_open: List[Request] = []
        self.retries = 0

    # ------------------------------------------------------------- inputs
    def _generate(self) -> None:
        import repro

        sh = self.shapes
        large = (sh["large"],) * 3
        # Which sub-block, stream or hyperslab a slot uses, the order of
        # the cycle and its due times are part of the workload, not of
        # the seed: which warm requests land behind a cold one decides
        # the open-loop percentiles (p50 moved 7 -> 18 ms between seeds
        # when the seed drew them).  --seed moves the window every field
        # is cut from, so it changes every request's content.
        rng = np.random.default_rng(SCHEDULE_SEED)

        # interactive: sibling 32^3 sub-blocks of one field per family
        self.crops: Dict[str, List[np.ndarray]] = {}
        self.first_of_family: Dict[str, np.ndarray] = {}
        centre = (slice((sh["source"] - sh["small"]) // 2,
                        (sh["source"] + sh["small"]) // 2),) * 3
        for family in sh["families"]:
            source = seeded_field(family, (sh["source"],) * 3, self.seed)
            self.first_of_family[family] = np.ascontiguousarray(source[centre])
            self.crops[family] = [
                np.ascontiguousarray(source[slab])
                for slab in seeded_slabs(rng, source.shape, sh["small"], sh["crops"])
            ]
        # batch: fresh content every time (no family -> content-hash miss)
        self.batch_base = seeded_field("hurricane", large, self.seed)
        self._batch_serial = 0
        # decompress: plain 32^3 streams and their decodes
        self.streams = []
        for x in self.crops[sh["families"][0]][: sh["streams"]]:
            blob = repro.compress(x, codec="qoz", bound=BOUND)
            self.streams.append((blob, repro.decompress(blob)))
        # read: one 64^3 container of 32^3 chunks, passed as bytes
        self.container = repro.compress(
            seeded_field("nyx", large, self.seed), codec="qoz", bound=BOUND,
            chunks=sh["small"],
        )
        self.container_full = repro.decompress(self.container)

        # one request per family first: the plan a family runs under is
        # derived from the first request that carries its tag (always the
        # centre block, so the plan does not hinge on a random draw)
        self.warmup = [
            Request("interactive", x, f"suite-{f}", None, x.nbytes)
            for f, x in self.first_of_family.items()
        ]
        self.warmup += [self._build(k, rng) for k, _p in MIX[1:]]

        # the cycle: shuffled blocks that each hold the exact mix — any
        # stretch of it costs about the same, which a request-by-request
        # draw does not give (one cold compress costs a dozen warm ones);
        # due times are a Poisson process's arrivals given their count
        block = [kind for kind, share in MIX for _ in range(round(share * BLOCK))]
        kinds = [str(k) for _ in range(sh["cycle_blocks"])
                 for k in rng.permutation(block)]
        self.template = [self._build(kind, rng) for kind in kinds]
        dues = np.sort(rng.uniform(0, len(kinds) / sh["rate"], len(kinds)))
        for req, due in zip(self.template, dues):
            req.due = float(due)
        self.latency = {
            phase: [[] for _ in kinds] for phase in ("single", "pair", "open")
        }

    def _fresh_batch(self) -> np.ndarray:
        self._batch_serial += 1
        return self.batch_base * np.float32(1.0 + self._batch_serial / 1024.0)

    def _build(self, kind: str, rng) -> Request:
        sh = self.shapes
        if kind == "interactive":
            family = sh["families"][int(rng.integers(len(sh["families"])))]
            x = self.crops[family][int(rng.integers(sh["crops"]))]
            return Request(kind, x, f"suite-{family}", None, x.nbytes)
        if kind == "batch":
            x = self._fresh_batch()
            return Request(kind, x, None, None, x.nbytes)
        if kind == "decompress":
            blob, expect = self.streams[int(rng.integers(len(self.streams)))]
            return Request(kind, blob, None, expect, expect.nbytes)
        slab = straddling_slabs(
            rng, self.container_full.shape, sh["small"], sh["small"], 1)[0]
        expect = self.container_full[slab]
        return Request(kind, self.container, slab, expect, expect.nbytes)

    def repetition(self) -> List[Request]:
        """The cycle's requests once more (cold compress content fresh)."""
        out = []
        for t in self.template:
            arg = self._fresh_batch() if t.kind == "batch" else t.arg
            req = Request(t.kind, arg, t.extra, t.expect, t.nbytes)
            req.due = t.due
            out.append(req)
        return out

    def input_digest(self) -> str:
        return lib.digest_arrays(
            r.arg for r in self.warmup + self.template
            if isinstance(r.arg, np.ndarray)
        )

    # -------------------------------------------------------------- set-up
    def setup(self) -> None:
        if not self.in_process:
            _pin_to_one_cpu()
        self._generate()
        self.server = InProcessServer() if self.in_process else Server()
        self.clients = [self.server.connect() for _ in range(CONNECTIONS)]
        for req in self.warmup:
            req.send(self.clients[0])
        self.verify(self.warmup)

    # -------------------------------------------------------------- driving
    def _drive(self, requests: List[Request], clients, open_loop: bool) -> float:
        """Send ``requests`` over one thread per connection in
        ``clients``; returns the wall time.

        Open loop: a thread takes the next request, sleeps until it is
        due and sends it; with every connection busy a due request
        waits, and that wait is part of its latency.  Closed loop: a
        request is due the moment a connection is free for it.
        """
        from repro.errors import ServiceOverloadedError

        lock = threading.Lock()
        cursor = [0]
        t0 = time.perf_counter()

        def worker(client) -> None:
            while True:
                with lock:
                    i = cursor[0]
                    if i >= len(requests):
                        return
                    cursor[0] = i + 1
                req = requests[i]
                if open_loop:
                    wait = t0 + req.due - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                else:
                    req.due = time.perf_counter() - t0
                req.sent = time.perf_counter() - t0
                try:
                    req.send(client)
                except ServiceOverloadedError as exc:
                    self.retries += 1
                    req.error = f"RETRY: {exc}"
                except Exception as exc:  # a failed request is a result
                    req.error = f"{type(exc).__name__}: {exc}"
                req.done = time.perf_counter() - t0

        threads = [threading.Thread(target=worker, args=(c,)) for c in clients]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return time.perf_counter() - t0

    def run_single(self) -> None:
        cycle = self.repetition()
        self._drive(cycle, self.clients[:1], open_loop=False)
        self._absorb("single", cycle, score=not self.psnr)

    def run_pair(self) -> None:
        cycle = self.repetition()
        cpu0 = time.process_time() + self.server.cpu_s()
        self.pair_walls.append(self._drive(cycle, self.clients, open_loop=False))
        self.pair_cpu.append(time.process_time() + self.server.cpu_s() - cpu0)
        self._absorb("pair", cycle)

    def run_open(self) -> None:
        cycle = self.repetition()
        self._drive(cycle, self.clients, open_loop=True)
        self.lateness_s += [r.sent - r.due for r in cycle]
        if not self.first_open:
            self.first_open = cycle
        self._absorb("open", cycle)

    def _absorb(self, phase: str, cycle: List[Request], score: bool = False) -> None:
        """Verify one repetition (``score``: its compress replies give
        the run's ratio and PSNR — one cycle's worth, as for the library
        workloads) and keep its latencies."""
        self.verify(cycle, score)
        for samples, req in zip(self.latency[phase], cycle):
            if req.error is None:
                samples.append(req.done - req.due)

    def measure(self, seconds: float) -> None:
        """Alternate the two closed-loop phases, so that both are spread
        over the whole run (a slow episode of the machine lasts seconds;
        a phase measured in one stretch can fall inside one)."""
        t0 = time.perf_counter()
        while (self.cycles < self.shapes["min_reps"]
               or time.perf_counter() - t0 < seconds):
            self.run_single()
            self.run_pair()
            self.cycles += 1

    def stats(self) -> Dict:
        return dict(self.clients[0].stats())

    # -------------------------------------------------------- verification
    def verify(self, requests: List[Request], score: bool = False) -> None:
        import repro

        for req in requests:
            what = f"{req.kind} request"
            if req.error is not None:
                self.tally.fail(f"{what}: {req.error}")
            elif req.kind in ("interactive", "batch"):
                recon = repro.decompress(req.reply)
                ok = self.tally.check(
                    lib.within_bound(req.arg, recon, tolerance(req.arg)),
                    f"{what}: reply decodes outside the bound",
                )
                if ok and score:
                    self.raw_bytes += req.nbytes
                    self.compressed_bytes += len(req.reply)
                    self.psnr.append(lib.psnr_db(req.arg, recon))
            else:
                reply = req.reply
                self.tally.check(
                    isinstance(reply, np.ndarray)
                    and reply.dtype == req.expect.dtype
                    and np.array_equal(reply, req.expect),
                    f"{what}: reply differs from the local decode",
                )

    # ------------------------------------------------------------- metrics
    def _slots(self, kinds: Tuple[str, ...]) -> List[int]:
        return [i for i, t in enumerate(self.template) if t.kind in kinds]

    def typical_ms(self, kinds: Tuple[str, ...], phase: str = "single") -> List[float]:
        """Typical latency of each of the cycle's ``kinds`` slots in a
        phase: the fastest of its repetitions."""
        return [1e3 * min(self.latency[phase][i])
                for i in self._slots(kinds) if self.latency[phase][i]]

    def single_mbps(self, kinds: Tuple[str, ...]) -> float:
        nbytes = sum(self.template[i].nbytes for i in self._slots(kinds))
        return nbytes / 1e6 / (sum(self.typical_ms(kinds)) / 1e3)

    def peak_rss_mb(self) -> float:
        return max(super().peak_rss_mb(), self.server.peak_rss_mb())

    def timing_metrics(self) -> Dict[str, Dict]:
        compress = ("interactive", "batch")
        comp = self.typical_ms(compress)
        cycle_bytes = sum(t.nbytes for t in self.template)
        return {
            "compress_mbps": lib.metric(self.single_mbps(compress), "MB/s"),
            "decompress_mbps": lib.metric(self.single_mbps(("decompress",)), "MB/s"),
            "compress_p50_ms": lib.metric(lib.pct(comp, 50), "ms"),
            "compress_p90_ms": lib.metric(lib.pct(comp, 90), "ms"),
            "decompress_p50_ms": lib.metric(
                lib.pct(self.typical_ms(("decompress",)), 50), "ms"),
            "read_p50_ms": lib.metric(lib.pct(self.typical_ms(("read",)), 50), "ms"),
            "closed_loop_rps": lib.metric(
                len(self.template) / min(self.pair_walls), "1/s"),
            "cpu_s_per_gb": lib.metric(
                min(self.pair_cpu) / (cycle_bytes / 1e9), "s/GB"),
        }

    def detail(self) -> Dict[str, object]:
        """Median + quartiles + n over every request, per phase and kind,
        and every sample."""
        out: Dict[str, object] = {}
        for phase, slots in self.latency.items():
            for kind, _p in MIX:
                lat = [1e3 * s for i in self._slots((kind,)) for s in slots[i]]
                if lat:
                    out[f"{phase}.{kind}"] = lib.summarize(lat)
        out["pair.cycle_wall_s"] = self.pair_walls
        out["samples_s"] = self.latency
        return out

    def close(self) -> None:
        if self.server is not None:
            for c in self.clients:
                c.close()
            self.server.stop()
            self.server = None


# ------------------------------------------------------------- traced run

#: requests of each kind, from the cycle's first open-loop repetition,
#: replayed layer by layer (what per-layer times are "per")
SAMPLE_PER_KIND = 4
LATENCY_REPEATS = 3


def _streaming_bound(x: np.ndarray) -> Tuple[float, float]:
    """(absolute bound, value range) as the service resolves ``rel:1e-3``."""
    vrange = float(x.max()) - float(x.min())
    return REL * vrange, vrange


def _protocol_request(req: Request):
    from repro.service import protocol

    if req.kind in ("interactive", "batch"):
        return protocol.CompressRequest(
            data=req.arg, codec="qoz", bound=BOUND, family=req.extra,
            priority=req.kind,
        )
    if req.kind == "decompress":
        return protocol.DecompressRequest(blob=req.arg)
    return protocol.ReadSlabRequest(source=req.arg, slab=req.extra)


def _time(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def traced(wl: ServiceMixed, rp, seconds: float) -> Dict[str, float]:
    """Per-layer numbers of ``service_mixed``.

    The real server runs the cycle open loop for the counters only it
    can give and the per-class latencies; plan-cache deltas and queue
    waits are read after the first repetition (so the counts are exact),
    rejects over the whole run.  Then a fixed sample of that
    repetition's requests is replayed in this process: protocol
    encode/decode on their own frames, the codec layers under each
    (against the server's reply bytes), and the same interactive
    requests through an in-process service and one socket connection to
    split scheduler from wire overhead.
    """
    import repro
    from repro.core.qoz import QoZ
    from repro.service import ServiceClient, ServiceConfig, protocol

    import suite_replay as replay

    out: Dict[str, float] = {"service.server.start_s": wl.server.start_s}
    before = wl.stats()
    wl.run_open()
    mid = wl.stats()
    t0 = time.perf_counter()
    wl.cycles = 1
    while wl.cycles < wl.shapes["min_reps"] or time.perf_counter() - t0 < seconds:
        wl.run_open()
        wl.cycles += 1
    after = wl.stats()

    def delta(key: str, end: Dict = mid) -> float:
        return end.get(key, 0) - before.get(key, 0)

    lookups = delta("plan_cache_hits") + delta("plan_cache_misses")
    out["service.plan_cache.hit_rate"] = delta("plan_cache_hits") / max(1, lookups)
    out["service.plan_cache.derives"] = delta("plan_derives")
    out["service.scheduler.queue_wait_ms_interactive"] = mid["queue_wait_ms_interactive"]
    out["service.scheduler.queue_wait_ms_batch"] = mid["queue_wait_ms_batch"]
    out["service.scheduler.batch_fill"] = mid["batch_fill_ewma"]
    out["service.admission.rejected"] = (
        delta("rejected_interactive", after) + delta("rejected_batch", after))
    out["service.client.retries"] = wl.retries
    interactive = wl.typical_ms(("interactive",), "open")
    out["service.latency.interactive_p50_ms"] = lib.pct(interactive, 50)
    out["service.latency.interactive_p90_ms"] = lib.pct(interactive, 90)
    out["service.latency.batch_p50_ms"] = lib.pct(
        wl.typical_ms(("batch",), "open"), 50)
    out["loadgen.lateness_p90_ms"] = lib.pct([1e3 * s for s in wl.lateness_s], 90)

    # the plan each family's requests ran under: derived by the server
    # from the first request that carried the tag
    family_plan = {}
    for req in wl.warmup:
        if req.kind == "interactive" and req.extra not in family_plan:
            eb, vrange = _streaming_bound(req.arg)
            family_plan[req.extra] = QoZ().derive_plan(
                req.arg, error_bound=eb, data_range=vrange)

    sample: List[Request] = []
    for kind, _p in MIX:
        sample += [r for r in wl.first_open
                   if r.kind == kind and r.error is None][:SAMPLE_PER_KIND]

    # ---- protocol frames of the sampled requests
    spent = {"encode_request": 0.0, "decode_request": 0.0,
             "encode_response": 0.0, "decode_response": 0.0}
    for req in sample:
        preq = _protocol_request(req)
        body, dt = _time(lambda: protocol.encode_request(preq))
        spent["encode_request"] += dt
        spent["decode_request"] += _time(lambda: protocol.decode_request(body))[1]
        encode_ok = (protocol.encode_ok_bytes if isinstance(req.reply, bytes)
                     else protocol.encode_ok_array)
        rbody, dt = _time(lambda: encode_ok(req.reply))
        spent["encode_response"] += dt
        spent["decode_response"] += _time(
            lambda: protocol.decode_response(rbody, protocol.op_for_request(preq)))[1]
    for name, value in spent.items():
        out[f"service.protocol.{name}_s"] = value

    # ---- codec layers under each sampled request, against the reply
    for req in sample:
        what = f"replayed {req.kind} request"
        if req.kind in ("interactive", "batch"):
            plan = family_plan[req.extra] if req.kind == "interactive" else None
            want = rp.public(lambda: repro.compress(
                req.arg, codec="qoz", bound=BOUND, chunked=True, plan=plan))
            got = rp.replayed(lambda: replay.chunked_compress(
                rp, req.arg, None, None, plan=plan))
            wl.tally.check(got[4] == want == req.reply, f"{what}: bytes differ")
            if got[3] is not None:
                replay.probe_estimate_bits(rp, got[1], got[0], got[3])
        elif req.kind == "decompress":
            want = rp.public(lambda: repro.decompress(req.arg))

            def decode():
                with rp.span("op.decompress"):
                    return replay.decode_stream(rp, req.arg)

            wl.tally.check(
                np.array_equal(rp.replayed(decode), want)
                and np.array_equal(want, req.reply), f"{what}: array differs")
        else:
            def read_public():
                with repro.open(req.arg) as f:
                    return f.read(req.extra)

            want = rp.public(read_public)
            got = rp.replayed(
                lambda: replay.chunked_read(rp, req.arg, req.extra))
            wl.tally.check(
                np.array_equal(got, want) and np.array_equal(want, req.reply),
                f"{what}: array differs")
    replay.probe_quantize(rp, wl.batch_base, _streaming_bound(wl.batch_base)[0])

    # ---- the same interactive requests three ways: direct library call,
    # in-process service (scheduler, no socket), one socket connection
    warm = [r for r in sample if r.kind == "interactive"]
    direct, inproc, remote = [], [], []
    svc = ServiceClient(
        ServiceConfig(processes=1, client_rate=1e9, client_burst=1e9))
    client = wl.clients[0]
    try:
        for req in wl.warmup:  # derive the family plans here too
            if req.kind == "interactive":
                req.send(svc)
        for _ in range(LATENCY_REPEATS):
            for req in warm:
                plan = family_plan[req.extra]
                direct.append(_time(lambda: repro.compress(
                    req.arg, codec="qoz", bound=BOUND, chunked=True, plan=plan))[1])
                reply, dt = _time(lambda: svc.compress(
                    req.arg, codec="qoz", bound=BOUND, family=req.extra))
                inproc.append(dt)
                wl.tally.check(reply == req.reply,
                               "in-process service bytes differ from the server's")
                remote.append(_time(lambda: client.compress(
                    req.arg, codec="qoz", bound=BOUND, family=req.extra))[1])
    finally:
        svc.close()
    out["service.scheduler.inproc_overhead_ms"] = 1e3 * (
        lib.pct(inproc, 50) - lib.pct(direct, 50))
    out["service.wire.overhead_ms"] = 1e3 * (
        lib.pct(remote, 50) - lib.pct(inproc, 50))
    return out
