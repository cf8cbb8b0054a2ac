"""End-to-end tests for ``repro serve --shards N`` (DESIGN.md §14).

This is the test file behind the ``sharded-smoke`` CI job: spawn the
sharded runtime as a subprocess, reach both shards through real
sockets, and pin the contracts that make sharding invisible to
clients —

* the same field compressed via two different shards yields the exact
  bytes the in-process library path yields (byte-identity);
* a plan derived on one shard warms the other through the replication
  bus (observed via ``bus_plans_installed`` / ``plan_cache_hits``);
* two shards that meet one ``family=`` at the same moment, each with
  its own data, end up serving that family under ONE plan;
* the supervisor's admin endpoint serves an aggregated snapshot whose
  per-shard rows reconcile with the fleet totals;
* killing a shard mid-connection costs a ``reconnects``-enabled client
  one redial and nothing else (and surfaces as the typed
  :class:`ServiceConnectionError` for a default client).

There is one accept path (``SO_REUSEPORT``); ``--router`` is gone and
argparse says so.
"""

import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.chunked import compress_chunked
from repro.errors import ServiceConnectionError
from repro.service import RemoteClient

SHARD_LINE = re.compile(
    r"repro shard (\d+)/(\d+) pid=(\d+) listening on [\d.]+:(\d+)"
)
LISTEN_LINE = re.compile(r"repro service listening on [\d.]+:(\d+)")


def smooth3d(shape=(24, 24, 24), seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(shape), axis=0)
    return (x / np.abs(x).max()).astype(np.float32)


def subprocess_env():
    src = pathlib.Path(__file__).parent.parent.parent / "src"
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (
        (os.pathsep + existing) if existing else ""
    )
    return env


class ShardedServer:
    """A ``repro serve --shards N`` subprocess, with parsed topology."""

    def __init__(self, shards=2, extra=()):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0", "--shards", str(shards), *extra,
            ],
            env=subprocess_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.pids = {}
        self.port = None
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            m = SHARD_LINE.match(line)
            if m:
                self.pids[int(m.group(1))] = int(m.group(3))
                continue
            m = LISTEN_LINE.match(line)
            if m:
                self.port = int(m.group(1))
                break
        if self.port is None:
            err = self.proc.stderr.read()
            self.close()
            raise AssertionError(f"sharded server never came up: {err}")
        self.admin_port = self.port + 1

    def close(self):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=15)


@pytest.fixture(scope="module")
def server():
    srv = ShardedServer(shards=2)
    yield srv
    srv.close()


def client_on_shard(port, shard_id, attempts=60, **kwargs):
    """Dial until a connection lands on ``shard_id`` (reuseport hashes
    the 4-tuple, so fresh source ports eventually cover every shard)."""
    for _ in range(attempts):
        client = RemoteClient(port=port, **kwargs)
        if client.stats().get("shard_id") == shard_id:
            return client
        client.close()
    raise AssertionError(f"never reached shard {shard_id} on :{port}")


def shard_stats(port, shard_id):
    with client_on_shard(port, shard_id) as client:
        return client.stats()


class TestShardedSmoke:
    def test_both_shards_reachable_and_identified(self, server):
        seen = set()
        for _ in range(60):
            with RemoteClient(port=server.port) as client:
                stats = client.stats()
                assert stats["n_shards"] == 2
                seen.add(stats["shard_id"])
            if seen == {0, 1}:
                break
        assert seen == {0, 1}

    def test_two_shards_serve_identical_bytes(self, server):
        data = smooth3d(seed=11)
        inline = compress_chunked(
            data, codec="qoz", rel_error_bound=1e-3, chunks=12
        )
        blobs = {}
        for shard_id in (0, 1):
            with client_on_shard(server.port, shard_id) as client:
                blobs[shard_id] = client.compress(
                    data, codec="qoz", rel_error_bound=1e-3, chunks=12
                )
        # the tentpole contract: which shard answered is unobservable
        assert blobs[0] == inline
        assert blobs[1] == inline

    def test_replication_warms_the_other_shard(self, server):
        data = smooth3d(seed=23)
        with client_on_shard(server.port, 0) as deriver:
            before = shard_stats(server.port, 1)
            deriver.compress(
                data, codec="qoz", rel_error_bound=1e-3, chunks=12,
                family="replication-probe",
            )
        # the bus is asynchronous: wait for shard 1 to install the plan
        deadline = time.monotonic() + 20
        after = shard_stats(server.port, 1)
        while (
            after["bus_plans_installed"] <= before["bus_plans_installed"]
            and time.monotonic() < deadline
        ):
            time.sleep(0.1)
            after = shard_stats(server.port, 1)
        assert after["bus_plans_installed"] > before["bus_plans_installed"]
        assert after["plan_replicated"] > before["plan_replicated"]

        # shard 1 never derived this plan, yet serves it from cache
        with client_on_shard(server.port, 1) as warmed:
            pre = warmed.stats()
            blob = warmed.compress(
                data, codec="qoz", rel_error_bound=1e-3, chunks=12,
                family="replication-probe",
            )
            post = warmed.stats()
        assert post["plan_derives"] == pre["plan_derives"]
        assert post["plan_cache_hits"] == pre["plan_cache_hits"] + 1
        assert blob == compress_chunked(
            data, codec="qoz", rel_error_bound=1e-3, chunks=12
        )

    def test_one_family_met_on_two_shards_at_once_converges(self, server):
        """Each shard derives the family's plan from the block *it* was
        sent (the plans differ); after the bus settles the same block
        compresses to the same bytes on both."""
        from repro.datasets import get_dataset

        blocks = {
            0: get_dataset("nyx", shape=(32, 32, 32), seed=0),
            1: get_dataset("miranda", shape=(32, 32, 32), seed=0),
        }
        probe = get_dataset("hurricane", shape=(32, 32, 32), seed=0)
        call = dict(codec="qoz", bound="rel:1e-3", family="race-probe")
        clients = {i: client_on_shard(server.port, i) for i in (0, 1)}
        try:
            before = {i: c.stats()["plan_derives"] for i, c in clients.items()}
            gate = threading.Barrier(2)

            def first_contact(shard_id):
                gate.wait()
                clients[shard_id].compress(blocks[shard_id], **call)

            threads = [
                threading.Thread(target=first_contact, args=(i,))
                for i in (0, 1)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            time.sleep(1.0)  # the settle: one pipe round trip, generously
            derived = sum(
                c.stats()["plan_derives"] - before[i]
                for i, c in clients.items()
            )
            assert derived >= 1  # 2 when the race happened (the usual case)
            blobs = [clients[i].compress(probe, **call) for i in (0, 1)]
        finally:
            for c in clients.values():
                c.close()
        assert blobs[0] == blobs[1]

    def test_admin_aggregate_reconciles_with_per_shard_rows(self, server):
        # make sure both shards have admitted something first
        for shard_id in (0, 1):
            with client_on_shard(server.port, shard_id) as client:
                client.compress(
                    smooth3d(seed=31 + shard_id), codec="qoz",
                    rel_error_bound=1e-3, chunks=12,
                )
        with RemoteClient(port=server.admin_port) as admin:
            agg = admin.stats()
        assert agg["shards"] == 2
        assert agg["shards_reporting"] == 2
        for key in ("admitted_interactive", "completed_interactive",
                    "plan_cache_hits", "plan_derives"):
            assert agg[key] == agg[f"shard0_{key}"] + agg[f"shard1_{key}"], key
        total_hits = agg["plan_cache_hits"]
        total_misses = agg["plan_cache_misses"]
        if total_hits + total_misses:
            # the wire snapshot rounds floats to 4 significant digits
            assert agg["plan_cache_hit_rate"] == pytest.approx(
                total_hits / (total_hits + total_misses), abs=1e-3
            )

    def test_serve_stats_all_shards_cli(self, server):
        out = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve-stats",
                "--port", str(server.port), "--all-shards", "--json",
            ],
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        agg = json.loads(out.stdout)
        assert agg["shards"] == 2
        assert not any(k.startswith("shard0_") for k in agg)  # aggregate only

        out = subprocess.run(
            [
                sys.executable, "-m", "repro", "serve-stats",
                "--port", str(server.port), "--all-shards", "--per-shard",
                "--json",
            ],
            env=subprocess_env(), capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        agg = json.loads(out.stdout)
        assert any(k.startswith("shard0_") for k in agg)

    # -- keep last in the file: killing a shard perturbs the topology ----
    def test_shard_death_mid_connection(self, server):
        data = smooth3d(seed=47)
        expected = compress_chunked(
            data, codec="qoz", rel_error_bound=1e-3, chunks=12
        )
        fragile = client_on_shard(server.port, 0, timeout=30)
        hardened = client_on_shard(
            server.port, 0, timeout=30, reconnects=5
        )
        try:
            os.kill(server.pids[0], signal.SIGKILL)
            time.sleep(0.3)  # let the kernel drop shard 0's listener
            # default client: the death surfaces as the typed error
            with pytest.raises(ServiceConnectionError):
                fragile.compress(
                    data, codec="qoz", rel_error_bound=1e-3, chunks=12
                )
            # hardened client: one redial lands on a live shard and the
            # resent request yields the exact same bytes
            blob = hardened.compress(
                data, codec="qoz", rel_error_bound=1e-3, chunks=12
            )
            assert blob == expected
        finally:
            fragile.close()
            hardened.close()

    def test_shard_respawns_after_kill(self, server):
        # the supervisor replaces the shard killed by the previous test
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            with RemoteClient(port=server.admin_port) as admin:
                agg = admin.stats()
            if agg["shards_reporting"] == 2 and agg["shard_respawns"] >= 1:
                return
            time.sleep(0.5)
        raise AssertionError(f"shard never respawned: {agg}")


def test_the_router_flag_is_gone():
    """One accept path: ``--router`` was removed, not aliased."""
    out = subprocess.run(
        [sys.executable, "-m", "repro", "serve", "--shards", "2",
         "--router", "hash"],
        env=subprocess_env(), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 2
    assert "unrecognized arguments: --router hash" in out.stderr
