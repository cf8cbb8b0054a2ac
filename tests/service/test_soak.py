"""Opt-in soak test: one real server, a storm of mixed-priority clients.

Not part of tier 1 — run explicitly with ``pytest -m soak`` (the default
invocation carries ``-m "not soak"`` via pyproject addopts).  The CI
``service-soak`` job runs it with ``REPRO_SOAK_PROCESSES=4`` and uploads
the final stats snapshot as an artifact.

What it pins, after REPRO_SOAK_SECONDS (default 30) of closed-loop load
from REPRO_SOAK_CLIENTS threads hammering a deliberately small job bound
(``--max-queue``) and per-client quota (``--client-rate`` /
``--client-burst``; every thread is its own client id):

* zero dropped connections and zero ERROR responses — overload is
  expressed *only* through the RETRY path;
* every RETRY carries a positive ``retry_after`` and a known reason;
* the server's STATS counters reconcile **exactly** with the clients'
  own tallies: ``admitted_<cls>`` == OK responses, ``rejected_<cls>`` ==
  RETRY responses, ``retried_<cls>`` == OKs that needed attempt > 0.

Environment knobs: REPRO_SOAK_SECONDS, REPRO_SOAK_CLIENTS,
REPRO_SOAK_PROCESSES, REPRO_SOAK_STATS (path for the JSON snapshot).
"""

import copy
import json
import os
import pathlib
import random
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.service import protocol

pytestmark = pytest.mark.soak

SOAK_SECONDS = float(os.environ.get("REPRO_SOAK_SECONDS", "30"))
SOAK_CLIENTS = int(os.environ.get("REPRO_SOAK_CLIENTS", "8"))
SOAK_PROCESSES = int(os.environ.get("REPRO_SOAK_PROCESSES", "1"))
STATS_PATH = os.environ.get("REPRO_SOAK_STATS", "")

MAX_ATTEMPTS = 5  # per logical op, then abandon and move on
REASONS = {"queue-full", "client-quota"}
CLASSES = ("interactive", "batch")


def smooth3d(shape, seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(shape), axis=0)
    x += np.cumsum(rng.standard_normal(shape), axis=1)
    return (x / np.abs(x).max()).astype(np.float32)


@pytest.fixture(scope="module")
def server():
    src = pathlib.Path(__file__).parent.parent.parent / "src"
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + ((os.pathsep + existing) if existing else "")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0",
            "--processes", str(SOAK_PROCESSES),
            # a small job bound and quota so the storm actually trips
            # both admission rules, not just the happy path: at most
            # one request per client thread is in flight, and a cycle
            # declares ~1.2 megaelements
            "--max-queue", "4",
            "--client-rate", "0.2",
            "--client-burst", "1.0",
            "--stats-interval", "10",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert "listening on" in line, (line, proc.stderr.read())
        yield int(line.rsplit(":", 1)[1])
    finally:
        proc.terminate()
        proc.wait(timeout=10)


class Tally:
    """One client thread's bookkeeping, merged after the join."""

    def __init__(self):
        self.ok = {c: 0 for c in CLASSES}
        self.rejected = {c: 0 for c in CLASSES}
        self.retried_ok = {c: 0 for c in CLASSES}
        self.errors = []
        self.bad_retries = []  # RETRY responses violating the contract
        self.dropped = False

    def merge(self, other):
        for c in CLASSES:
            self.ok[c] += other.ok[c]
            self.rejected[c] += other.rejected[c]
            self.retried_ok[c] += other.retried_ok[c]
        self.errors.extend(other.errors)
        self.bad_retries.extend(other.bad_retries)
        self.dropped = self.dropped or other.dropped


def fetch_stats(port):
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        req = protocol.StatsRequest()
        sock.sendall(protocol.frame(protocol.encode_request(req)))
        resp = protocol.decode_response(
            protocol.read_frame_sync(sock), protocol.op_for_request(req)
        )
    assert resp.status == protocol.ST_OK
    return resp.mapping


def client_storm(port, client_index, deadline, requests, tally):
    """Closed-loop raw-protocol client: send, tally, retry, repeat."""
    rng = random.Random(0xC0FFEE + client_index)
    try:
        with socket.create_connection(
            ("127.0.0.1", port), timeout=120
        ) as sock:
            op_i = 0
            while time.monotonic() < deadline:
                # shallow-copy the shared template: each thread stamps
                # its own client_id/attempt without racing the others
                req = copy.copy(requests[op_i % len(requests)])
                op_i += 1
                req.client_id = f"soak-{client_index}"
                for attempt in range(MAX_ATTEMPTS):
                    req.attempt = attempt
                    sock.sendall(
                        protocol.frame(protocol.encode_request(req))
                    )
                    resp = protocol.decode_response(
                        protocol.read_frame_sync(sock),
                        protocol.op_for_request(req),
                    )
                    if resp.status == protocol.ST_OK:
                        tally.ok[req.priority] += 1
                        if attempt > 0:
                            tally.retried_ok[req.priority] += 1
                        break
                    if resp.status == protocol.ST_RETRY:
                        tally.rejected[req.priority] += 1
                        if (
                            not resp.retry_after
                            or resp.retry_after <= 0.0
                            or resp.reason not in REASONS
                        ):
                            tally.bad_retries.append(
                                (resp.retry_after, resp.reason)
                            )
                        # honor the hint, jittered, but capped so one
                        # long hint cannot idle the thread out of the run
                        time.sleep(
                            min(0.2, resp.retry_after)
                            * (0.5 + rng.random())
                        )
                        continue
                    tally.errors.append(resp.message)
                    break
    except Exception as exc:  # noqa: BLE001 - any escape = dropped conn
        tally.dropped = True
        tally.errors.append(repr(exc))


class TestSoak:
    def test_sustained_mixed_load_reconciles_exactly(self, server):
        interactive_field = smooth3d((48, 48, 48), seed=1)
        batch_field = smooth3d((96, 96, 96), seed=2)

        # warm both plan families (and build decompress payloads) before
        # the storm so its unit costs are the warm, predictable ones
        with socket.create_connection(
            ("127.0.0.1", server), timeout=300
        ) as sock:
            blobs = {}
            for name, field in (
                ("interactive", interactive_field), ("batch", batch_field),
            ):
                req = protocol.CompressRequest(
                    data=field, codec="qoz", rel_error_bound=1e-3,
                    family=f"soak-{name}",
                )
                sock.sendall(protocol.frame(protocol.encode_request(req)))
                resp = protocol.decode_response(
                    protocol.read_frame_sync(sock),
                    protocol.op_for_request(req),
                )
                assert resp.status == protocol.ST_OK, resp.message
                blobs[name] = resp.blob

        requests = [
            protocol.CompressRequest(
                data=interactive_field, codec="qoz", rel_error_bound=1e-3,
                family="soak-interactive", priority="interactive",
            ),
            protocol.DecompressRequest(
                blob=blobs["interactive"], priority="interactive",
            ),
            protocol.CompressRequest(
                data=interactive_field, codec="qoz", rel_error_bound=1e-3,
                family="soak-interactive", priority="interactive",
            ),
            protocol.CompressRequest(
                data=batch_field, codec="qoz", rel_error_bound=1e-3,
                family="soak-batch", priority="batch",
            ),
        ]

        before = fetch_stats(server)
        deadline = time.monotonic() + SOAK_SECONDS
        tallies = [Tally() for _ in range(SOAK_CLIENTS)]
        threads = [
            threading.Thread(
                target=client_storm,
                args=(server, i, deadline, requests, tallies[i]),
            )
            for i in range(SOAK_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=SOAK_SECONDS + 300)
        assert not any(t.is_alive() for t in threads), "stuck client thread"

        total = Tally()
        for t in tallies:
            total.merge(t)
        after = fetch_stats(server)

        if STATS_PATH:
            pathlib.Path(STATS_PATH).write_text(json.dumps(
                {
                    "soak_seconds": SOAK_SECONDS,
                    "clients": SOAK_CLIENTS,
                    "processes": SOAK_PROCESSES,
                    "stats": after,
                    "client_ok": total.ok,
                    "client_rejected": total.rejected,
                    "client_retried_ok": total.retried_ok,
                },
                indent=2, sort_keys=True,
            ) + "\n")

        # hard failures first: they would explain any reconcile mismatch
        assert not total.dropped, total.errors
        assert not total.errors, total.errors[:10]
        assert not total.bad_retries, total.bad_retries[:10]

        # the storm must have exercised both admission outcomes, and
        # both rules
        assert sum(total.ok.values()) > 0
        assert sum(total.rejected.values()) > 0
        for rule in ("rejects_queue_full", "rejects_client_quota"):
            assert after.get(rule, 0) > before.get(rule, 0), rule

        # exact reconciliation, per class — not approximate, not fuzzy
        for cls in CLASSES:
            delta = {
                k: after[f"{k}_{cls}"] - before[f"{k}_{cls}"]
                for k in ("admitted", "rejected", "retried", "completed",
                          "failed")
            }
            assert delta["admitted"] == total.ok[cls], (cls, delta, total.ok)
            assert delta["rejected"] == total.rejected[cls], (
                cls, delta, total.rejected
            )
            assert delta["retried"] == total.retried_ok[cls], (
                cls, delta, total.retried_ok
            )
            assert delta["completed"] == total.ok[cls]
            assert delta["failed"] == 0

        # every connection the storm opened was also closed by the join
        assert after["connections_open"] == before["connections_open"]
        assert (
            after["connections_total"] - before["connections_total"]
            >= SOAK_CLIENTS
        )
