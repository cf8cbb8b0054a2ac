"""In-process service tests: byte identity, plan caching, backpressure.

The acceptance contract this file pins:

* a served compress / decompress / hyperslab-read is byte- (or bit-)
  identical to the in-process ``compress_chunked`` / ``decompress_chunked``
  / ``ChunkedFile.read`` path;
* a warm plan-cache hit skips derivation entirely (asserted via a
  derive-call counter spy on the codec, plus the service's own stats);
* a full queue rejects with ``ServiceOverloadedError`` + retry_after
  instead of buffering.
"""

import asyncio
import inspect

import numpy as np
import pytest

import repro
from repro.chunked import ChunkedFile, compress_chunked, decompress_chunked
from repro.core.qoz import QoZ
from repro.errors import ServiceOverloadedError
from repro.service import RemoteClient, ServiceClient, ServiceConfig
from repro.service.protocol import CompressRequest
from repro.service.scheduler import CompressionService


def smooth3d(shape=(40, 40, 40), seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(shape), axis=0)
    x += np.cumsum(rng.standard_normal(shape), axis=1)
    return (x / np.abs(x).max()).astype(dtype)


@pytest.fixture(scope="module")
def svc():
    with ServiceClient(ServiceConfig(processes=1, plan_cache_size=16)) as client:
        yield client


class TestByteIdentity:
    def test_compress_matches_inline_chunked_path(self, svc):
        data = smooth3d(seed=1)
        served = svc.compress(data, codec="qoz", rel_error_bound=1e-3, chunks=20)
        inline = compress_chunked(
            data, codec="qoz", rel_error_bound=1e-3, chunks=20
        )
        assert served == inline

    def test_abs_bound_and_sz3(self, svc):
        data = smooth3d(seed=2, dtype=np.float32)
        served = svc.compress(data, codec="sz3", error_bound=1e-3, chunks=20)
        inline = compress_chunked(data, codec="sz3", error_bound=1e-3, chunks=20)
        assert served == inline

    def test_codec_without_plan_support(self, svc):
        data = smooth3d(seed=3)
        served = svc.compress(data, codec="zfp", error_bound=1e-3, chunks=20)
        inline = compress_chunked(
            data, codec="zfp", error_bound=1e-3, chunks=20
        )
        assert served == inline

    def test_codec_kwargs_affect_the_stream(self, svc):
        data = smooth3d(seed=4)
        served = svc.compress(
            data, codec="qoz", rel_error_bound=1e-3, chunks=20,
            codec_kwargs={"metric": "psnr"},
        )
        inline = compress_chunked(
            data, codec="qoz", rel_error_bound=1e-3, chunks=20,
            codec_kwargs={"metric": "psnr"},
        )
        assert served == inline

    def test_per_chunk_tuning_opt_out(self, svc):
        data = smooth3d(seed=5)
        served = svc.compress(
            data, codec="qoz", error_bound=1e-3, chunks=20,
            per_chunk_tuning=True,
        )
        inline = compress_chunked(
            data, codec="qoz", error_bound=1e-3, chunks=20,
            per_chunk_tuning=True,
        )
        assert served == inline

    def test_decompress_matches_inline(self, svc):
        data = smooth3d(seed=6)
        blob = compress_chunked(data, codec="qoz", error_bound=1e-3, chunks=20)
        served = svc.decompress(blob)
        inline = decompress_chunked(blob)
        assert served.dtype == inline.dtype
        assert np.array_equal(served, inline)

    def test_decompress_plain_unchunked_stream(self, svc):
        data = smooth3d(seed=7)
        blob = QoZ().compress(data, error_bound=1e-3)
        assert np.array_equal(served := svc.decompress(blob), QoZ().decompress(blob))
        assert served.shape == data.shape

    def test_hyperslab_read_matches_chunkedfile(self, svc):
        data = smooth3d(seed=8)
        blob = compress_chunked(data, codec="qoz", error_bound=1e-3, chunks=16)
        slab = (slice(3, 37), slice(None), slice(10, 11))
        served = svc.read(blob, slab)
        with ChunkedFile(blob) as f:
            inline = f.read(slab)
        assert np.array_equal(served, inline)

    def test_hyperslab_read_from_server_side_path(self, tmp_path):
        from repro.chunked import compress_chunked_to_file

        data = smooth3d(seed=9)
        path = tmp_path / "field.rpz"
        compress_chunked_to_file(
            data, str(path), codec="qoz", error_bound=1e-3, chunks=16
        )
        slab = (slice(0, 20), slice(5, 25), slice(None))
        with ChunkedFile(str(path)) as f:
            inline = f.read(slab)
        config = ServiceConfig(processes=1, serve_root=str(tmp_path))
        with ServiceClient(config) as svc:
            # relative to the root and absolute-under-root both work
            assert np.array_equal(svc.read("field.rpz", slab), inline)
            served = svc.read(str(path), slab)
            assert np.array_equal(served, inline)
            # second read reuses the cached open container
            assert np.array_equal(svc.read(str(path), slab), inline)
            assert svc.stats()["open_containers"] >= 1

    def test_path_reads_refused_without_serve_root(self, svc, tmp_path):
        path = tmp_path / "anything.rpz"
        path.write_bytes(b"irrelevant")
        with pytest.raises(PermissionError, match="disabled"):
            svc.read(str(path), (slice(0, 4),))

    def test_path_reads_cannot_escape_serve_root(self, tmp_path):
        root = tmp_path / "root"
        root.mkdir()
        secret = tmp_path / "secret.rpz"
        secret.write_bytes(b"secret")
        config = ServiceConfig(processes=1, serve_root=str(root))
        with ServiceClient(config) as svc:
            for escape in (
                str(secret),                      # absolute, outside root
                "../secret.rpz",                  # traversal
                "sub/../../secret.rpz",           # nested traversal
            ):
                with pytest.raises(PermissionError, match="outside"):
                    svc.read(escape, (slice(0, 4),))


class TestOneClientSurface:
    @pytest.mark.parametrize(
        "method", ["compress", "decompress", "read", "stats", "ping"]
    )
    def test_both_clients_take_the_same_keywords(self, method):
        assert inspect.signature(
            getattr(ServiceClient, method)
        ) == inspect.signature(getattr(RemoteClient, method))

    def test_shard_key_is_gone_from_every_surface(self, svc):
        """``shard_key`` went with the hash router that read it: removed,
        not aliased, so a stale call site fails loudly."""
        data = smooth3d(seed=9, dtype=np.float32)
        with pytest.raises(TypeError, match="shard_key"):
            repro.compress(
                data, bound="abs:1e-3", chunks=20, client=svc, shard_key="k"
            )
        with pytest.raises(TypeError, match="shard_key"):
            svc.decompress(b"", shard_key="k")
        with pytest.raises(TypeError, match="shard_key"):
            RemoteClient(port=1, shard_key="k")  # raises before it dials


class TestPlanCache:
    def test_warm_hit_skips_derivation(self):
        """The headline amortization: repeat traffic never re-tunes."""
        data = smooth3d(seed=10)
        calls = {"n": 0}
        orig = QoZ.derive_plan

        def counting(self, *a, **k):
            calls["n"] += 1
            return orig(self, *a, **k)

        QoZ.derive_plan = counting
        try:
            with ServiceClient(ServiceConfig(processes=1)) as svc:
                first = svc.compress(
                    data, codec="qoz", rel_error_bound=1e-3, chunks=20
                )
                second = svc.compress(
                    data, codec="qoz", rel_error_bound=1e-3, chunks=20
                )
                stats = svc.stats()
        finally:
            QoZ.derive_plan = orig
        assert calls["n"] == 1
        assert first == second
        assert stats["plan_derives"] == 1
        assert stats["plan_cache_hits"] == 1

    def test_different_bound_is_a_different_plan(self, svc):
        data = smooth3d(seed=11)
        before = svc.stats()["plan_derives"]
        svc.compress(data, codec="qoz", rel_error_bound=1e-3, chunks=20)
        svc.compress(data, codec="qoz", rel_error_bound=1e-2, chunks=20)
        assert svc.stats()["plan_derives"] == before + 2

    def test_family_tag_shares_plans_across_siblings(self):
        """Sibling fields (time steps) tagged with one family derive once."""
        calls = {"n": 0}
        orig = QoZ.derive_plan

        def counting(self, *a, **k):
            calls["n"] += 1
            return orig(self, *a, **k)

        QoZ.derive_plan = counting
        eb = 1e-3
        try:
            with ServiceClient(ServiceConfig(processes=1)) as svc:
                blobs = [
                    svc.compress(
                        smooth3d(seed=20 + t), codec="qoz",
                        error_bound=eb, chunks=20, family="turbulence-u",
                    )
                    for t in range(3)
                ]
        finally:
            QoZ.derive_plan = orig
        assert calls["n"] == 1
        # plan sharing trades only ratio, never the bound
        for t, blob in enumerate(blobs):
            recon = decompress_chunked(blob)
            assert np.abs(recon - smooth3d(seed=20 + t)).max() <= eb

    def test_chunk_shape_does_not_fragment_the_cache(self, svc):
        data = smooth3d(seed=12)
        before = svc.stats()["plan_derives"]
        svc.compress(data, codec="qoz", error_bound=2e-3, chunks=20)
        svc.compress(data, codec="qoz", error_bound=2e-3, chunks=10)
        # the plan is derived from the full field; tiling is irrelevant
        assert svc.stats()["plan_derives"] == before + 1


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self):
        async def main():
            service = CompressionService(
                ServiceConfig(max_queue=2, retry_after=0.25)
            )
            # scheduler deliberately NOT started: the queue can only fill
            req = CompressRequest(
                data=np.zeros((4, 4), dtype=np.float32), error_bound=1.0
            )
            futures = [service.submit(req) for _ in range(2)]
            with pytest.raises(ServiceOverloadedError) as err:
                service.submit(req)
            assert err.value.retry_after == 0.25
            for f in futures:
                f.cancel()

        asyncio.run(main())

    def test_draining_reopens_admission(self):
        async def main():
            service = CompressionService(ServiceConfig(max_queue=1))
            await service.start()
            try:
                req = CompressRequest(
                    data=np.linspace(0, 1, 64, dtype=np.float32).reshape(8, 8),
                    error_bound=0.1,
                    codec="zfp",
                )
                # admission either succeeds or backpressures; after the
                # queue drains, a retried submit must succeed
                for _ in range(5):
                    try:
                        blob = await service.submit(req)
                    except ServiceOverloadedError:
                        await asyncio.sleep(0.01)
                        continue
                    assert isinstance(blob, bytes)
                    break
                else:
                    pytest.fail("queue never drained")
            finally:
                await service.close()

        asyncio.run(main())


class TestErrorPropagation:
    def test_unknown_codec_raises(self, svc):
        with pytest.raises(KeyError):
            svc.compress(
                smooth3d(seed=13), codec="no-such-codec", error_bound=1e-3
            )

    def test_bad_bound_raises(self, svc):
        from repro.errors import CompressionError

        with pytest.raises(CompressionError):
            svc.compress(smooth3d(seed=14), codec="qoz", error_bound=-1.0)

    def test_missing_path_raises(self, svc):
        with pytest.raises(OSError):
            svc.read("/no/such/file.rpz", (slice(0, 4),))

    def test_forged_giant_header_cannot_size_an_allocation(self, svc):
        """A few-byte blob declaring a TiB field must be rejected before
        np.empty, not OOM the server (decode-side frame-cap discipline)."""
        from repro.core.header import FLAG_CHUNKED, pack_header
        from repro.errors import DecompressionError

        for flags in (0, FLAG_CHUNKED):
            bomb = pack_header(
                2, np.dtype(np.float32), (1 << 40, 1 << 20), 1e-3,
                flags=flags,
            ) + b"\x00" * 64
            with pytest.raises(DecompressionError, match="frame cap"):
                svc.decompress(bomb)

    def test_service_survives_errors(self, svc):
        # the scheduler task must still be alive after the failures above
        data = smooth3d(seed=15)
        blob = svc.compress(data, codec="qoz", error_bound=1e-3, chunks=20)
        assert blob == compress_chunked(
            data, codec="qoz", error_bound=1e-3, chunks=20
        )


class TestStats:
    def test_stats_surface(self, svc):
        svc.ping()
        stats = svc.stats()
        for key in (
            "queue_depth", "max_queue", "batch_max", "processes",
            "jobs_compress", "jobs_decompress", "jobs_read", "batches",
            "plan_cache_size", "plan_cache_capacity", "plan_cache_hits",
            "plan_cache_misses", "plan_derives", "open_containers",
        ):
            assert key in stats, key
        assert stats["max_queue"] == 64
        assert stats["jobs_compress"] > 0


class TestRetryJitter:
    """Two clients rejected together must not wake up together.

    A fake server answers every request with the same RETRY hint; the
    clients' retry sleeps are captured instead of slept.  Each sleep must
    be the hint times a factor in [0.5, 1.5), and two independent clients
    must draw *distinct* delays — the thundering-herd fix.
    """

    HINT = 0.2

    @pytest.fixture()
    def retry_server(self):
        import socket
        import threading

        from repro.service import protocol

        srv = socket.create_server(("127.0.0.1", 0))
        port = srv.getsockname()[1]
        stop = threading.Event()
        reply = protocol.frame(protocol.encode_retry(self.HINT, "capacity"))

        def serve():
            srv.settimeout(0.2)
            conns = []
            while not stop.is_set():
                try:
                    conn, _ = srv.accept()
                except socket.timeout:
                    continue
                conns.append(conn)
                threading.Thread(
                    target=self._serve_conn, args=(conn, reply, stop),
                    daemon=True,
                ).start()
            for conn in conns:
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        yield port
        stop.set()
        thread.join(timeout=5)
        srv.close()

    @staticmethod
    def _serve_conn(conn, reply, stop):
        from repro.errors import ProtocolError
        from repro.service import protocol

        conn.settimeout(1.0)
        while not stop.is_set():
            try:
                protocol.read_frame_sync(conn)
            except (ProtocolError, OSError):
                return
            conn.sendall(reply)

    def test_rejected_clients_wake_at_distinct_times(
        self, retry_server, monkeypatch
    ):
        import time as time_module

        from repro.service import RemoteClient

        sleeps = []
        monkeypatch.setattr(
            time_module, "sleep", lambda s: sleeps.append(s)
        )
        per_client = []
        for _ in range(2):
            with RemoteClient(port=retry_server, retries=3) as client:
                before = len(sleeps)
                with pytest.raises(ServiceOverloadedError) as exc_info:
                    client.ping()
                per_client.append(sleeps[before:])
                assert exc_info.value.retry_after == pytest.approx(self.HINT)
                assert exc_info.value.reason == "capacity"
        for client_sleeps in per_client:
            assert len(client_sleeps) == 3  # retries, then gave up
            for s in client_sleeps:
                assert 0.5 * self.HINT <= s < 1.5 * self.HINT
        # the herd fix: independent clients draw different delays
        assert per_client[0] != per_client[1]

    def test_retry_exhaustion_carries_reason(self, retry_server, monkeypatch):
        import time as time_module

        from repro.service import RemoteClient

        monkeypatch.setattr(time_module, "sleep", lambda s: None)
        with RemoteClient(port=retry_server, retries=0) as client:
            with pytest.raises(ServiceOverloadedError, match="capacity"):
                client.ping()


class TestPriorityAndQuota:
    def test_bad_priority_rejected_client_side(self, svc):
        with pytest.raises(Exception, match="priority"):
            svc.compress(smooth3d((8, 8, 8)), codec="zfp",
                         error_bound=1e-3, priority="urgent")

    def test_batch_priority_roundtrips(self, svc):
        data = smooth3d((16, 16, 16), seed=5)
        blob = svc.compress(data, codec="zfp", error_bound=1e-3,
                            priority="batch", client_id="tests")
        recon = svc.decompress(blob, priority="batch", client_id="tests")
        assert np.abs(recon - data).max() <= 1e-3
        stats = svc.stats()
        assert stats["admitted_batch"] >= 2
        assert stats["quota_clients_tracked"] >= 1


class TestStatsSchema:
    def test_versioned_snapshot_keys(self, svc):
        svc.ping()
        stats = svc.stats()
        assert stats["stats_version"] == 1
        for key in (
            "uptime_s", "queue_units_interactive", "queue_units_batch",
            "work_capacity_units", "batch_share", "drain_rate_units_s",
            "admitted_interactive", "rejected_interactive",
            "retried_interactive", "completed_interactive",
            "admitted_batch", "rejected_batch", "retried_batch",
            "batch_fill_ewma", "plan_cache_hit_rate",
            "queue_depth_interactive", "queue_depth_batch",
            "connections_total", "connections_open",
        ):
            assert key in stats, key
        assert all(isinstance(v, (int, float)) for v in stats.values())

    def test_stats_line_renders_live_snapshot(self, svc):
        from repro.service import format_stats_line

        line = format_stats_line(svc.stats())
        assert line.startswith("repro service stats: v=1 ")
