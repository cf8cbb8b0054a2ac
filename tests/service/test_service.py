"""In-process service tests: path reads, plan caching, backpressure.

The acceptance contract this file pins:

* a path read stays under the serve root and sees the file as it is;
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
from repro.chunked import ChunkedFile
from repro.compressors.base import Compressor, register
from repro.core.qoz import QoZ
from repro.errors import DeadlineExceededError, ServiceOverloadedError
from repro.service import RemoteClient, ServiceClient, ServiceConfig
from repro.service.protocol import CompressRequest
from repro.service.scheduler import RETRY_AFTER, CompressionService


def smooth3d(shape=(40, 40, 40), seed=0, dtype=np.float64):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(shape), axis=0)
    x += np.cumsum(rng.standard_normal(shape), axis=1)
    return (x / np.abs(x).max()).astype(dtype)


@pytest.fixture(scope="module")
def svc():
    with ServiceClient(ServiceConfig(processes=1)) as client:
        yield client


class TestPathReads:
    """A path read opens its container inside the job's one call and
    closes it there: no reader outlives its read, so none can be closed
    under one, or read a file that changed since it was opened."""

    @staticmethod
    def containers(tmp_path, n):
        paths = [str(tmp_path / f"f{i}.rpz") for i in range(n)]
        for i, path in enumerate(paths):
            repro.compress(
                smooth3d((16, 16, 16), seed=80 + i), file=path, codec="zfp",
                bound=1e-3, chunks=8,
            )
        return paths

    @pytest.mark.parametrize("processes", [1, 2])
    def test_a_path_read_sees_the_file_as_it_is_now(self, tmp_path, processes):
        """Rewritten in place with the same size and mtime, the next read
        still gets the new field (a transposed field compresses to the
        same size here)."""
        (path,) = self.containers(tmp_path, 1)
        stamp = os.stat(path)
        config = ServiceConfig(processes=processes, serve_root=str(tmp_path))
        with ServiceClient(config) as svc:
            before = svc.read(path, (slice(None),) * 3)
            repro.compress(
                smooth3d((16, 16, 16), seed=80).transpose(1, 0, 2).copy(),
                file=path, codec="zfp", bound=1e-3, chunks=8,
            )
            assert os.stat(path).st_size == stamp.st_size
            os.utime(path, ns=(stamp.st_atime_ns, stamp.st_mtime_ns))
            after = svc.read(path, (slice(None),) * 3)
        with ChunkedFile(path) as f:
            assert np.array_equal(after, f.read((slice(None),) * 3))
        assert not np.array_equal(after, before)

    def test_path_reads_leave_no_file_open(self, tmp_path):
        paths = self.containers(tmp_path, 3)
        config = ServiceConfig(serve_root=str(tmp_path))
        with ServiceClient(config) as svc:
            svc.read(paths[0], (slice(0, 4),) * 3)  # warm: threads, imports
            fds = len(os.listdir("/proc/self/fd"))
            for path in paths * 3:
                svc.read(path, (slice(2, 14), slice(None), slice(4, 12)))
            assert len(os.listdir("/proc/self/fd")) == fds

    def test_close_lets_a_running_read_finish(self, tmp_path, monkeypatch):
        from repro.service.protocol import ReadSlabRequest

        (path,) = self.containers(tmp_path, 1)
        slab = (slice(2, 14), slice(None), slice(4, 12))
        with ChunkedFile(path) as f:
            want = f.read(slab)
        outcomes = []
        real = ChunkedFile.read

        def slow(self, *args, **kwargs):
            time.sleep(0.3)
            try:
                outcomes.append(real(self, *args, **kwargs))
            except Exception as exc:
                outcomes.append(exc)
                raise

        monkeypatch.setattr(ChunkedFile, "read", slow)

        async def main():
            service = CompressionService(ServiceConfig(serve_root=str(tmp_path)))
            await service.start()
            job = service.submit(ReadSlabRequest(source=path, slab=slab))
            await asyncio.sleep(0.1)  # the read is on its thread now
            await service.close()
            assert job.exception().reason == "shutting-down"

        asyncio.run(main())
        assert len(outcomes) == 1 and np.array_equal(outcomes[0], want)

    def test_hyperslab_read_from_server_side_path(self, tmp_path):
        data = smooth3d(seed=9)
        path = tmp_path / "field.rpz"
        repro.compress(
            data, file=str(path), codec="qoz", bound=1e-3, chunks=16
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
            # a second read opens the file again
            assert np.array_equal(svc.read(str(path), slab), inline)

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

    def test_the_fleet_api_is_gone(self):
        """One serving process: the shard fleet's hooks went with it,
        removed, not aliased."""
        from dataclasses import fields

        import repro.service
        from repro.core.plan_cache import PlanLRU
        from repro.service.server import ServiceServer

        names = [f.name for f in fields(ServiceConfig)]
        assert len(names) == 6
        assert "shard_id" not in names and "n_shards" not in names
        with pytest.raises(TypeError, match="plans"):
            CompressionService(ServiceConfig(), plans=PlanLRU())
        with pytest.raises(TypeError, match="reuse_port"):
            ServiceServer(None, reuse_port=True)
        with pytest.raises(TypeError, match="on_derive"):
            PlanLRU(8, on_derive=print)
        for gone in ("install", "peek"):
            assert not hasattr(PlanLRU, gone), gone
        assert not hasattr(repro.service, "aggregate_snapshots")


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
                    data, codec="qoz", bound="rel:1e-3", chunks=20
                )
                second = svc.compress(
                    data, codec="qoz", bound="rel:1e-3", chunks=20
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
        svc.compress(data, codec="qoz", bound="rel:1e-3", chunks=20)
        svc.compress(data, codec="qoz", bound="rel:1e-2", chunks=20)
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
                        bound=eb, chunks=20, family="turbulence-u",
                    )
                    for t in range(3)
                ]
        finally:
            QoZ.derive_plan = orig
        assert calls["n"] == 1
        # plan sharing trades only ratio, never the bound
        for t, blob in enumerate(blobs):
            recon = repro.decompress(blob)
            assert np.abs(recon - smooth3d(seed=20 + t)).max() <= eb

    def test_chunk_shape_does_not_fragment_the_cache(self, svc):
        data = smooth3d(seed=12)
        before = svc.stats()["plan_derives"]
        svc.compress(data, codec="qoz", bound=2e-3, chunks=20)
        svc.compress(data, codec="qoz", bound=2e-3, chunks=10)
        # the plan is derived from the full field; tiling is irrelevant
        assert svc.stats()["plan_derives"] == before + 1


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self):
        async def main():
            service = CompressionService(ServiceConfig(max_queue=2))
            # scheduler deliberately NOT started: the queue can only fill
            req = CompressRequest(
                data=np.zeros((4, 4), dtype=np.float32), bound=1.0
            )
            futures = [service.submit(req) for _ in range(2)]
            with pytest.raises(ServiceOverloadedError) as err:
                service.submit(req)
            assert err.value.retry_after == RETRY_AFTER
            for f in futures:
                f.cancel()

        asyncio.run(main())

    @pytest.mark.parametrize("field,bad", [
        ("deadline_ms", -1.0), ("deadline_ms", float("nan")),
        ("priority", "urgent"),
    ])
    def test_a_malformed_request_is_refused_before_admission(self, field, bad):
        """Refused at the door without taking a place or a client's
        tokens: a full queue's worth of bad requests leaves it empty."""
        from repro.errors import ProtocolError

        async def main():
            service = CompressionService(ServiceConfig(max_queue=2))
            request = dict(
                data=np.zeros((4, 4), dtype=np.float32), bound=1.0,
                client_id="c1",
            )
            for _ in range(3):
                with pytest.raises(ProtocolError):
                    service.submit(CompressRequest(**request, **{field: bad}))
            stats = service.stats()
            assert stats["admission_jobs"] == 0
            assert stats["quota_clients_tracked"] == 0
            future = service.submit(CompressRequest(**request))
            assert service.stats()["admission_jobs"] == 1
            future.cancel()

        asyncio.run(main())

    def test_draining_reopens_admission(self):
        async def main():
            service = CompressionService(ServiceConfig(max_queue=1))
            await service.start()
            try:
                req = CompressRequest(
                    data=np.linspace(0, 1, 64, dtype=np.float32).reshape(8, 8),
                    bound=0.1,
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
    (S = ``processes + 1`` with a pool, else 1), interactive first, the
    batch lane at most ``max(1, S - 1)`` wide."""

    def test_two_one_chunk_requests_overlap_on_two_workers(self, tmp_path):
        data = smooth3d((8, 8, 8), seed=30)
        request = dict(
            codec="rendezvous", bound=1e-3,
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

        async def _work(self, job, req):
            self.started.append(req.family)
            await self.gates.setdefault(req.family, asyncio.Event()).wait()
            return req.family.encode()

        def submit(self, name, priority="interactive", deadline_ms=None):
            return self.service.submit(CompressRequest(
                data=np.zeros((4, 4), dtype=np.float32), bound=1.0,
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
            assert h.started == (["i0"] if processes == 1 else ["i0", "b0", "b1"])
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
            # however much bulk work waits, the batch lane leaves a slot
            # free (max(1, S - 1) wide): one job without a pool, and with
            # two workers two of the three slots
            batch_lane = ["b0"] if processes == 1 else ["b0", "b1"]
            assert h.started == batch_lane
            h.submit("i0")
            await asyncio.sleep(0.01)
            if processes == 2:
                assert h.started == batch_lane + ["i0"]  # no wait at all
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
            for i in range(h.service._slots):
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
            h.service.admission.release = lambda: (
                released.append(1), release()
            )
            await h.service.start()
            futures = [h.submit(f"i{i}") for i in range(4)]
            futures += [h.submit(f"b{i}", "batch") for i in range(2)]
            await asyncio.sleep(0.01)
            assert len(h.started) == h.service._slots  # the rest still queued
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
            assert len(released) == 6
            assert h.service.stats()["admission_jobs"] == 0

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
            assert h.service.stats()["admission_jobs"] == 0

        asyncio.run(main())

    @pytest.mark.parametrize("processes,slots", [(1, 1), (2, 3), (4, 5)])
    def test_slots_are_the_workers_and_one_more(self, processes, slots):
        """Derived, never configured: one slot without a pool, else one per
        worker and one to keep them busy through a job's hand-over.  A job
        holds at most one thread at a time, so there is one per slot."""

        async def main():
            service = CompressionService(ServiceConfig(processes=processes))
            await service.start()
            try:
                assert service._slots == slots
                assert service._threads._max_workers == slots
            finally:
                await service.close()

        asyncio.run(main())

    def test_slot_fill_is_jobs_in_flight_over_slots(self):
        async def main():
            h = self.Harness(3)
            await h.service.start()
            h.submit("i0")
            await asyncio.sleep(0.01)
            assert h.service.stats()["batch_fill_ewma"] == 0.25  # 1 of 4
            h.submit("i1")
            await asyncio.sleep(0.01)
            assert h.service.stats()["batch_fill_ewma"] == 0.375  # mean of 1/4, 2/4
            await h.service.close()

        asyncio.run(main())


@pytest.fixture(scope="module")
def pooled():
    with ServiceClient(ServiceConfig(processes=2)) as client:
        yield client


class TestSameRepliesWithAPool:
    """``processes=2`` sends all of a job's codec work to the workers —
    a compress whole to one worker, whatever its chunk count, a plain
    stream decode, a read of any part count.  That every reply equals
    the in-process service's and the library's is P2
    (``tests/api/test_route_matrix.py``); here, what a pool adds: plans
    shared between concurrent siblings and one-chunk jobs."""

    def test_concurrent_first_requests_of_a_family_run_one_plan(self, pooled):
        """Two siblings that arrive together before the family has a plan:
        one derive, and both replies (and every later one) run under it —
        whichever of the two fields it was derived from."""
        fields = [smooth3d((32, 32, 32), seed=50 + i, dtype=np.float32)
                  for i in range(2)]
        request = dict(codec="qoz", bound="rel:1e-3", family="two-at-once")
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
            [repro.compress(x, plan=plan, codec="qoz", bound="rel:1e-3")
             for x in fields]
            for plan in plans
        ]
        assert replies in both_ways
        assert pooled.compress(fields[1], **request) == replies[1]

    def test_a_one_chunk_job_caches_the_plan_its_worker_derived(self, pooled):
        """The worker that runs a one-chunk job whole hands back the plan
        it derived: the family's next member is a cache hit, and runs it."""
        fields = [smooth3d((32, 32, 32), seed=55 + i, dtype=np.float32)
                  for i in range(2)]
        request = dict(codec="qoz", bound="rel:1e-3", family="one-worker")
        before = pooled.stats()
        replies = [pooled.compress(x, **request) for x in fields]
        after = pooled.stats()
        assert after["plan_derives"] == before["plan_derives"] + 1
        assert after["plan_cache_hits"] == before["plan_cache_hits"] + 1
        x = fields[0]
        plan = QoZ().derive_plan(
            x, error_bound=1e-3 * float(x.max() - x.min()),
            data_range=float(x.max() - x.min()),
        )
        assert replies == [
            repro.compress(y, plan=plan, codec="qoz", bound="rel:1e-3")
            for y in fields
        ]

    @pytest.mark.parametrize("request_kwargs", [
        dict(codec="zfp", bound=1e-3),
        dict(codec="qoz", bound=1e-3, per_chunk_tuning=True),
    ], ids=["planless-codec", "per-chunk-tuning"])
    def test_a_one_chunk_job_without_a_cached_plan(self, pooled, request_kwargs):
        """No plan to look up: the worker runs the library walk as is, and
        the cache neither derives nor counts a lookup."""
        data = smooth3d((24, 24, 24), seed=57, dtype=np.float32)
        before = pooled.stats()
        assert pooled.compress(data, **request_kwargs) == repro.compress(
            data, chunked=True, **request_kwargs
        )
        after = pooled.stats()
        for key in ("plan_derives", "plan_cache_hits", "plan_cache_misses"):
            assert after[key] == before[key], key

    def test_a_failed_one_chunk_job_frees_its_place(self, pooled):
        """The worker's error crosses back as the library's error, and the
        job leaves no admission place or slab behind."""
        from repro.errors import CompressionError

        data = smooth3d((24, 24, 24), seed=58, dtype=np.float32)
        data[12, 20, 14] = np.nan
        with pytest.raises(CompressionError, match="non-finite"):
            pooled.compress(data, codec="sz3", bound=1e-2)
        assert pooled.stats()["admission_jobs"] == 0
        data[12, 20, 14] = 0.0
        assert pooled.compress(data, codec="sz3", bound=1e-2) == (
            repro.compress(data, chunked=True, codec="sz3", bound=1e-2)
        )


class TestPooledHandOver:
    """The scheduler's helper around a pooled hand-over."""

    def test_a_cancelled_hand_over_cancels_only_a_pool_future(self):
        """A deadline can land while the helper still runs on its thread:
        a pool future it hands back is cancelled (which frees its slab);
        a finished container or a helper error is left alone."""
        from concurrent.futures import Future

        from repro.service.scheduler import _cancel_pooled

        def started_with(result=None, error=None):
            started = Future()
            if error is not None:
                started.set_exception(error)
            else:
                started.set_result(result)
            return started

        pooled = Future()
        _cancel_pooled(started_with(pooled))
        assert pooled.cancelled()
        _cancel_pooled(started_with((None, b"container")))
        _cancel_pooled(started_with(error=ValueError("admit failed")))
        cancelled = Future()
        cancelled.cancel()
        _cancel_pooled(cancelled)


class TestErrorPropagation:
    def test_unknown_codec_raises(self, svc):
        with pytest.raises(KeyError):
            svc.compress(
                smooth3d(seed=13), codec="no-such-codec", bound=1e-3
            )

    def test_bad_bound_raises(self, svc):
        from repro.errors import CompressionError

        with pytest.raises(CompressionError):
            svc.compress(smooth3d(seed=14), codec="qoz", bound=-1.0)

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

    @pytest.mark.parametrize("client", ["svc", "pooled"])
    def test_a_wire_container_too_big_to_decode_is_refused_for_any_slab(
        self, request, monkeypatch, client
    ):
        """A slab read decodes every chunk it touches in full, and a
        run-length coded chunk declares its size in a few hundred bytes:
        the declared field of a container sent over the wire is held to
        the frame cap however small the slab.  The cap is lowered here so
        the field that crosses it stays small."""
        import repro.service.scheduler as scheduler
        from repro.errors import DecompressionError

        data = np.zeros((64, 64, 64), dtype=np.float32)  # one chunk
        blob = repro.compress(data, chunked=True, codec="sz3", bound=1e-2)
        assert len(blob) < 1024
        client = request.getfixturevalue(client)
        corner = (slice(0, 1),) * 3
        monkeypatch.setattr(scheduler, "MAX_FRAME", data.nbytes - 1)
        with pytest.raises(DecompressionError, match="declared field"):
            client.read(blob, corner)
        monkeypatch.undo()
        assert np.array_equal(client.read(blob, corner), data[corner])

    def test_service_survives_errors(self, svc):
        # the scheduler task must still be alive after the failures above
        data = smooth3d(seed=15)
        blob = svc.compress(data, codec="qoz", bound=1e-3, chunks=20)
        assert blob == repro.compress(
            data, codec="qoz", bound=1e-3, chunks=20
        )


def run_one_compress(svc):
    """One job on the shared server, so a test that reads the counters
    and histograms a job fills does not rest on what earlier tests ran."""
    svc.compress(smooth3d((8, 8, 8), seed=81), codec="qoz", bound=1e-3)


class TestStats:
    def test_stats_surface(self, svc):
        before = svc.stats()["jobs_compress"]
        run_one_compress(svc)
        svc.ping()
        stats = svc.stats()
        for key in (
            "queue_depth", "max_queue", "processes",
            "jobs_compress", "jobs_decompress", "jobs_read",
            "plan_cache_size", "plan_cache_capacity", "plan_cache_hits",
            "plan_cache_misses", "plan_derives",
        ):
            assert key in stats, key
        assert stats["max_queue"] == 64
        assert stats["processes"] == 1
        assert "batch_max" not in stats  # went with the dispatch groups
        assert stats["jobs_compress"] > before

    def test_histograms_agree_with_the_clients_stamps(self):
        """Sequential requests of each kind and class: every one is in
        its class's run histogram, none waited in the queue, and the
        server's run p50 is the client's p50 less the hand-over — at most
        one bucket below it, never above.  "No wait" is the lowest decade
        of buckets: admitting a job and starting it takes 5-15 us here,
        either side of the first edge (10 us)."""
        from bisect import bisect_left

        from repro.service.admission import HIST_EDGES_MS

        data = smooth3d((16, 16, 16), seed=70, dtype=np.float32)
        plain = repro.compress(data, codec="qoz", bound="rel:1e-3")
        tiled = repro.compress(data, codec="qoz", bound="rel:1e-3", chunks=8)
        slab = (slice(2, 14), slice(0, 16), slice(4, 12))
        sends = [
            lambda c, p: c.compress(
                data, codec="qoz", bound="rel:1e-3", family="stamped",
                priority=p,
            ),
            lambda c, p: c.decompress(plain, priority=p),
            lambda c, p: c.read(tiled, slab, priority=p),
        ]
        stamps = {"interactive": [], "batch": []}
        with ServiceClient(ServiceConfig(processes=1)) as client:
            for _ in range(4):
                for cls, seen in stamps.items():
                    for send in sends:
                        t0 = time.perf_counter()
                        send(client, cls)
                        seen.append(1e3 * (time.perf_counter() - t0))
            stats = client.stats()
        for cls, seen in stamps.items():
            assert stats[f"run_count_{cls}"] == len(seen) == 12
            assert stats[f"queue_wait_count_{cls}"] == len(seen)
            assert stats[f"queue_wait_p90_ms_{cls}"] <= HIST_EDGES_MS[8]  # 0.1 ms
            # the percentile rank the STATS histograms use
            client_p50 = sorted(seen)[(50 * len(seen) + 99) // 100 - 1]
            server = HIST_EDGES_MS.index(stats[f"run_p50_ms_{cls}"])
            assert 0 <= bisect_left(HIST_EDGES_MS, client_p50) - server <= 1


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
        reply = protocol.frame(protocol.encode_retry(self.HINT, "queue-full"))

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
                assert exc_info.value.reason == "queue-full"
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
            with pytest.raises(ServiceOverloadedError, match="queue-full"):
                client.ping()


class TestPriorityAndQuota:
    def test_bad_priority_rejected_client_side(self, svc):
        with pytest.raises(Exception, match="priority"):
            svc.compress(smooth3d((8, 8, 8)), codec="zfp",
                         bound=1e-3, priority="urgent")

    def test_batch_priority_roundtrips(self, svc):
        data = smooth3d((16, 16, 16), seed=5)
        blob = svc.compress(data, codec="zfp", bound=1e-3,
                            priority="batch", client_id="tests")
        recon = svc.decompress(blob, priority="batch", client_id="tests")
        assert np.abs(recon - data).max() <= 1e-3
        stats = svc.stats()
        assert stats["admitted_batch"] >= 2
        assert stats["quota_clients_tracked"] >= 1


class TestStatsSchema:
    def test_versioned_snapshot_keys(self, svc):
        run_one_compress(svc)
        svc.ping()
        stats = svc.stats()
        assert stats["stats_version"] == 3
        for key in (
            "uptime_s", "admission_jobs", "quota_clients_tracked",
            "admitted_interactive", "rejected_interactive",
            "retried_interactive", "completed_interactive",
            "admitted_batch", "rejected_batch", "retried_batch",
            "batch_fill_ewma", "slot_busy_sum", "slot_count_sum",
            "plan_cache_hit_rate", "plan_cache_hits", "plan_cache_misses",
            "plan_derives", "queue_depth_interactive", "queue_depth_batch",
            "connections_total", "connections_open",
        ):
            assert key in stats, key
        for stage in ("queue_wait", "run"):
            for cls in ("interactive", "batch"):
                for key in ("count", "sum_us", "p50_ms", "p90_ms", "p99_ms"):
                    assert f"{stage}_{key}_{cls}" in stats
                assert f"{stage}_ms_{cls}" in stats  # the mean
        for gone in ("queue_units_interactive", "work_capacity_units",
                     "batch_share", "drain_rate_units_s"):
            assert gone not in stats
        assert not any(k.startswith("throughput_") for k in stats)
        assert all(isinstance(v, (int, float)) for v in stats.values())

    def test_stats_line_renders_live_snapshot(self, svc):
        from repro.service import format_stats_line

        line = format_stats_line(svc.stats())
        assert line.startswith("repro service stats: v=3 ")
        assert " slot_fill=" in line
        assert " queue_wait_interactive=" in line and " run_batch=" in line
