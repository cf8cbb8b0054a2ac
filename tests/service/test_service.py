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
import os
import pathlib
import threading
import time

import numpy as np
import pytest

import repro
from repro.chunked import ChunkedFile, compress_chunked, decompress_chunked
from repro.compressors.base import Compressor, register
from repro.core.qoz import QoZ
from repro.errors import DeadlineExceededError, ServiceOverloadedError
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


@register
class RendezvousCodec(Compressor):
    """Test codec whose compress returns only once ``parties`` calls are
    in it at the same time (each leaves a marker file in ``dir`` and waits
    for the others'), so a service that runs them one after the other
    fails instead of merely being slow."""

    name = "rendezvous"
    codec_id = 203

    def __init__(self, dir=None, parties=2, patience=10.0):
        self.dir, self.parties, self.patience = dir, parties, patience

    def _compress(self, data, eb):
        here = pathlib.Path(self.dir)
        (here / f"{os.getpid()}-{time.monotonic_ns()}").touch()
        deadline = time.monotonic() + self.patience
        while len(list(here.iterdir())) < self.parties:
            if time.monotonic() > deadline:
                raise RuntimeError("compressed alone: the other call never started")
            time.sleep(0.005)
        return data.astype(np.float64).tobytes()

    def _decompress(self, payload, header):
        return np.frombuffer(payload, dtype=np.float64).reshape(header.shape)


class TestJobSlots:
    """One dispatch path: each job its own task in one of S slots
    (S = ``processes`` with a pool, else 1), interactive first, the batch
    lane at most ``max(1, S - 1)`` wide."""

    def test_two_one_chunk_requests_overlap_on_two_workers(self, tmp_path):
        data = smooth3d((8, 8, 8), seed=30)
        request = dict(
            codec="rendezvous", error_bound=1e-3,
            codec_kwargs={"dir": str(tmp_path)},
        )
        replies, errors = [], []

        def send(svc):
            try:
                replies.append(svc.compress(data, **request))
            except Exception as exc:
                errors.append(exc)

        with ServiceClient(ServiceConfig(processes=2)) as svc:
            threads = [threading.Thread(target=send, args=(svc,)) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert len(replies) == 2 and replies[0] == replies[1]
        # and they met in two different worker processes
        assert len({p.name.split("-")[0] for p in tmp_path.iterdir()}) == 2

    class Harness:
        """A service whose compress work is a gate per request, so a test
        decides which job ends when and reads the start order."""

        def __init__(self, processes):
            self.service = CompressionService(ServiceConfig(processes=processes))
            self.started = []
            self.gates = {}
            self.service._compress = self._work  # shadows the method

        async def _work(self, req):
            self.started.append(req.family)
            await self.gates.setdefault(req.family, asyncio.Event()).wait()
            return req.family.encode()

        def submit(self, name, priority="interactive", deadline_ms=None):
            return self.service.submit(CompressRequest(
                data=np.zeros((4, 4), dtype=np.float32), error_bound=1.0,
                family=name, priority=priority, deadline_ms=deadline_ms,
            ))

        async def finish(self, name):
            self.gates.setdefault(name, asyncio.Event()).set()
            await asyncio.sleep(0.01)  # let the freed slot refill

    @pytest.mark.parametrize("processes", [1, 2])
    def test_interactive_overtakes_queued_batch_work(self, processes):
        async def main():
            h = self.Harness(processes)
            batch = [h.submit(f"b{i}", "batch") for i in range(3)]
            late = h.submit("i0")  # admitted last, started first
            await h.service.start()
            await asyncio.sleep(0.01)
            assert h.started == (["i0"] if processes == 1 else ["i0", "b0"])
            for name in ("i0", "b0", "b1", "b2"):
                await h.finish(name)
            assert h.started == ["i0", "b0", "b1", "b2"]
            assert await late == b"i0"
            assert [await f for f in batch] == [b"b0", b"b1", b"b2"]
            await h.service.close()

        asyncio.run(main())

    @pytest.mark.parametrize("processes", [1, 2])
    def test_an_interactive_arrival_waits_behind_at_most_one_batch_job(
        self, processes
    ):
        async def main():
            h = self.Harness(processes)
            await h.service.start()
            for i in range(3):
                h.submit(f"b{i}", "batch")
            await asyncio.sleep(0.01)
            # however much bulk work waits, the batch lane is one job wide
            # here (max(1, S - 1)): a second worker is not handed to it
            assert h.started == ["b0"]
            h.submit("i0")
            await asyncio.sleep(0.01)
            if processes == 2:
                assert h.started == ["b0", "i0"]  # a free slot: no wait at all
            else:
                assert h.started == ["b0"]
                await h.finish("b0")
                assert h.started == ["b0", "i0"]  # one batch job, not three
            await h.service.close()

        asyncio.run(main())

    @pytest.mark.parametrize("processes", [1, 2])
    def test_a_job_queued_past_its_deadline_is_shed_when_a_slot_frees(
        self, processes
    ):
        async def main():
            h = self.Harness(processes)
            await h.service.start()
            for i in range(processes):
                h.submit(f"i{i}")  # every slot taken
            doomed = h.submit("late", deadline_ms=20.0)
            alive = h.submit("patient")
            await asyncio.sleep(0.06)
            await h.finish("i0")
            with pytest.raises(DeadlineExceededError) as err:
                await doomed
            assert err.value.stage == "queued"
            assert "late" not in h.started and h.started[-1] == "patient"
            assert h.service.stats()["deadline_shed_interactive"] == 1
            await h.finish("patient")
            assert await alive == b"patient"
            await h.service.close()

        asyncio.run(main())

    @pytest.mark.parametrize("processes", [1, 2])
    def test_close_resolves_every_future_and_releases_each_job_once(
        self, processes
    ):
        async def main():
            h = self.Harness(processes)
            released = []
            release = h.service.admission.release
            h.service.admission.release = lambda units, cls: (
                released.append(cls), release(units, cls)
            )
            await h.service.start()
            futures = [h.submit(f"i{i}") for i in range(4)]
            futures += [h.submit(f"b{i}", "batch") for i in range(2)]
            await asyncio.sleep(0.01)
            assert len(h.started) == processes  # the rest still queued
            done = h.started[0]
            await h.finish(done)
            await h.service.close()
            assert all(f.done() for f in futures)
            outcomes = [f.exception() for f in futures]
            assert outcomes.count(None) == 1
            assert all(
                isinstance(exc, ServiceOverloadedError)
                and exc.reason == "shutting-down"
                for exc in outcomes if exc is not None
            )
            await asyncio.sleep(0)  # done-callbacks of the drained futures
            assert sorted(released) == 2 * ["batch"] + 4 * ["interactive"]
            stats = h.service.stats()
            assert stats["queue_units_interactive"] == 0
            assert stats["queue_units_batch"] == 0

        asyncio.run(main())

    @pytest.mark.parametrize("processes", [1, 2])
    def test_close_right_after_submit_resolves_unstarted_tasks(self, processes):
        """No await between submit and close: the job tasks are cancelled
        before their first step, so no line of ``_run_job`` ever runs."""

        async def main():
            h = self.Harness(processes)
            await h.service.start()
            futures = [h.submit(f"i{i}") for i in range(3)]
            await h.service.close()
            assert h.started == []
            for f in futures:
                assert f.done()
                assert f.exception().reason == "shutting-down"
            await asyncio.sleep(0)  # done-callbacks of the failed futures
            assert h.service.stats()["queue_units_interactive"] == 0

        asyncio.run(main())

    def test_slot_fill_is_jobs_in_flight_over_slots(self):
        async def main():
            h = self.Harness(2)
            await h.service.start()
            h.submit("i0")
            await asyncio.sleep(0.01)
            assert h.service.stats()["batch_fill_ewma"] == 0.5  # 1 of 2
            h.submit("i1")
            await asyncio.sleep(0.01)
            assert h.service.stats()["batch_fill_ewma"] == 0.6  # ewma to 2 of 2
            await h.service.close()

        asyncio.run(main())


@pytest.fixture(scope="module")
def pooled():
    with ServiceClient(ServiceConfig(processes=2)) as client:
        yield client


class TestSameRepliesWithAPool:
    """``processes=2`` sends all of a job's codec work to the workers —
    derive trials, execution, plain-stream decodes, reads of any part
    count; every reply equals the in-process service's and the library's."""

    @pytest.mark.parametrize("chunks", [None, 16], ids=["one-chunk", "tiled"])
    @pytest.mark.parametrize("family", [None, "pooled-siblings"])
    def test_compress(self, svc, pooled, chunks, family):
        data = smooth3d((32, 32, 32), seed=40, dtype=np.float32)
        request = dict(codec="qoz", rel_error_bound=1e-3, chunks=chunks)
        want = compress_chunked(data, **request)
        assert pooled.compress(data, family=family, **request) == want
        assert svc.compress(data, family=family, **request) == want

    @pytest.mark.parametrize("chunks", [None, 16], ids=["plain", "tiled"])
    def test_decompress(self, svc, pooled, chunks):
        data = smooth3d((32, 32, 32), seed=41, dtype=np.float32)
        blob = repro.compress(data, codec="qoz", bound="rel:1e-3", chunks=chunks)
        want = repro.decompress(blob)
        for client in (svc, pooled):
            got = client.decompress(blob)
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize(
        "slab",
        [(slice(2, 14), slice(0, 16), slice(5, 6)),
         (slice(3, 29), slice(None), slice(10, 20))],
        ids=["one-part", "eight-parts"],
    )
    def test_read(self, svc, pooled, slab):
        data = smooth3d((32, 32, 32), seed=42, dtype=np.float32)
        blob = compress_chunked(data, codec="qoz", rel_error_bound=1e-3, chunks=16)
        with ChunkedFile(blob) as f:
            want = f.read(slab)
        for client in (svc, pooled):
            assert np.array_equal(client.read(blob, slab), want)

    def test_concurrent_first_requests_of_a_family_run_one_plan(self, pooled):
        """Two siblings that arrive together before the family has a plan:
        one derive, and both replies (and every later one) run under it —
        whichever of the two fields it was derived from."""
        fields = [smooth3d((32, 32, 32), seed=50 + i, dtype=np.float32)
                  for i in range(2)]
        request = dict(codec="qoz", rel_error_bound=1e-3, family="two-at-once")
        before = pooled.stats()
        replies = [None, None]

        def send(i):
            replies[i] = pooled.compress(fields[i], **request)

        threads = [threading.Thread(target=send, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        after = pooled.stats()
        assert after["plan_derives"] == before["plan_derives"] + 1
        assert after["plan_cache_size"] == before["plan_cache_size"] + 1
        plans = [
            QoZ().derive_plan(
                x, error_bound=1e-3 * float(x.max() - x.min()),
                data_range=float(x.max() - x.min()),
            )
            for x in fields
        ]
        both_ways = [
            [compress_chunked(x, plan=plan, codec="qoz", rel_error_bound=1e-3)
             for x in fields]
            for plan in plans
        ]
        assert replies in both_ways
        assert pooled.compress(fields[1], **request) == replies[1]


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
            "queue_depth", "max_queue", "processes",
            "jobs_compress", "jobs_decompress", "jobs_read",
            "plan_cache_size", "plan_cache_capacity", "plan_cache_hits",
            "plan_cache_misses", "plan_derives", "open_containers",
        ):
            assert key in stats, key
        assert stats["max_queue"] == 64
        assert stats["processes"] == 1
        assert "batch_max" not in stats  # went with the dispatch groups
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
        assert stats["stats_version"] == 2
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
        assert line.startswith("repro service stats: v=2 ")
        assert " slot_fill=" in line
