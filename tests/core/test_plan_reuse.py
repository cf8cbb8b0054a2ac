"""Frozen-plan derivation/execution split (`repro.core.plan_cache`).

The contract has three legs: (1) a plan derived from a field and executed
on the same field is byte-identical to inline compression (derivation is
deterministic, execution is the same code path); (2) a plan derived from
the *full* field and applied chunk-wise still honors the strict error
bound on every chunk — the quantizer enforces the bound at execution
time, sharing a plan only trades compression ratio; (3) plans are small,
picklable, and survive the process-pool broadcast.
"""

import pickle
import threading

import numpy as np
import pytest

import repro
from repro.chunked import ChunkedFile
from repro.chunked.tiling import grid_for
from repro.core.plan_cache import FrozenPlan, execute_frozen_plan
from repro.core.qoz import QoZ
from repro.compressors.sz3 import SZ3
from repro.errors import CompressionError, ConfigurationError


def smooth3d(shape=(48, 48, 48), seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(shape), axis=0)
    x += np.cumsum(rng.standard_normal(shape), axis=1)
    return x / np.abs(x).max()


class TestPlanByteIdentity:
    @pytest.mark.parametrize("metric", ["cr", "psnr"])
    def test_qoz_plan_reuse_is_byte_identical(self, metric):
        data = smooth3d(seed=1)
        codec = QoZ(metric=metric)
        inline = codec.compress(data, rel_error_bound=1e-3)
        plan = codec.derive_plan(data, rel_error_bound=1e-3)
        replay = codec.compress_with_plan(data, plan)
        assert replay == inline

    def test_sz3_plan_reuse_is_byte_identical(self):
        data = smooth3d(seed=2)
        codec = SZ3()
        inline = codec.compress(data, error_bound=1e-3)
        plan = codec.derive_plan(data, error_bound=1e-3)
        assert codec.compress_with_plan(data, plan) == inline

    def test_inline_report_exposes_the_reusable_plan(self):
        data = smooth3d(seed=3)
        codec = QoZ(metric="cr")
        inline = codec.compress(data, error_bound=1e-3)
        plan = codec.last_report.plan
        assert isinstance(plan, FrozenPlan)
        assert codec.compress_with_plan(data, plan) == inline
        assert codec.last_report.from_plan is True

    def test_plan_streams_decode_without_the_plan(self):
        data = smooth3d(seed=4)
        codec = QoZ(metric="cr")
        plan = codec.derive_plan(data, error_bound=1e-3)
        blob = codec.compress_with_plan(data, plan)
        recon = QoZ().decompress(blob)
        assert np.abs(recon - data).max() <= 1e-3


class TestChunkWiseReuse:
    def test_full_field_plan_holds_bound_on_every_chunk(self):
        data = smooth3d((64, 64, 64), seed=5)
        eb = 1e-3
        codec = QoZ(metric="cr")
        plan = codec.derive_plan(data, error_bound=eb)
        grid = grid_for(data.shape, 32)
        for i in grid:
            chunk = np.ascontiguousarray(data[grid.chunk_slices(i)])
            blob = codec.compress_with_plan(chunk, plan, error_bound=eb)
            recon = QoZ().decompress(blob)
            violations = np.abs(recon - chunk) > eb
            assert int(violations.sum()) == 0

    def test_chunked_container_shared_vs_per_chunk_same_bound(self):
        data = smooth3d((48, 48, 48), seed=6).astype(np.float32)
        eb = 1e-3
        shared = repro.compress(data, codec="qoz", chunks=24, bound=eb)
        tuned = repro.compress(
            data, codec="qoz", chunks=24, bound=eb, per_chunk_tuning=True
        )
        for blob in (shared, tuned):
            with ChunkedFile(blob) as f:
                out = f.to_array()
            assert np.abs(out.astype(np.float64) - data).max() <= eb

    def test_injected_plan_matches_derived_plan_bytes(self):
        """repro.compress(plan=...) must equal the derive-inside path
        (the service layer injects its cached plan through this kwarg)."""
        data = smooth3d((48, 48, 48), seed=9)
        eb = 1e-3
        plan = QoZ(metric="cr").derive_plan(data, error_bound=eb)
        injected = repro.compress(
            data, codec="qoz", chunks=24, bound=eb, plan=plan
        )
        derived = repro.compress(
            data, codec="qoz", chunks=24, bound=eb
        )
        assert injected == derived

    def test_injected_plan_rejected_for_planless_codec(self):
        data = smooth3d(seed=10)
        plan = QoZ(metric="cr").derive_plan(data, error_bound=1e-3)
        with pytest.raises(CompressionError, match="does not support plan"):
            repro.compress(
                data, codec="zfp", chunks=24, bound=1e-3, plan=plan
            )

    def test_injected_plan_contradicts_per_chunk_tuning(self):
        data = smooth3d(seed=11)
        plan = QoZ(metric="cr").derive_plan(data, error_bound=1e-3)
        with pytest.raises(CompressionError, match="contradictory"):
            repro.compress(
                data, codec="qoz", chunks=24, bound=1e-3,
                plan=plan, per_chunk_tuning=True,
            )

    def test_shared_plan_amortizes_tuning_work(self):
        """The shared-plan path must not re-derive per chunk (the point of
        the split); spy on derive_plan to count invocations."""
        data = smooth3d((48, 48, 48), seed=7)
        calls = {"n": 0}
        orig = QoZ.derive_plan

        def counting(self, *a, **k):
            calls["n"] += 1
            return orig(self, *a, **k)

        QoZ.derive_plan = counting
        try:
            repro.compress(data, codec="qoz", chunks=24, bound=1e-3)
        finally:
            QoZ.derive_plan = orig
        assert calls["n"] == 1


class TestFrozenPlanObject:
    def test_plan_pickles_small(self):
        data = smooth3d(seed=8)
        plan = QoZ(metric="cr").derive_plan(data, rel_error_bound=1e-3)
        blob = pickle.dumps(plan)
        assert len(blob) < 4096
        assert pickle.loads(blob) == plan

    def test_codec_mismatch_rejected(self):
        data = smooth3d(seed=9)
        plan = QoZ().derive_plan(data, error_bound=1e-3)
        with pytest.raises(CompressionError):
            SZ3().compress_with_plan(data, plan)

    def test_derive_plan_needs_exactly_one_bound(self):
        # same exception type as Compressor.compress for the same misuse
        data = smooth3d(seed=10)
        with pytest.raises(CompressionError):
            QoZ().derive_plan(data)
        with pytest.raises(CompressionError):
            QoZ().derive_plan(data, error_bound=1e-3, rel_error_bound=1e-3)

    def test_empty_plan_cannot_execute(self):
        plan = FrozenPlan(codec="qoz", eb=1e-3)
        with pytest.raises(ConfigurationError):
            execute_frozen_plan(np.zeros((8, 8)), plan, 1e-3)

    def test_plan_applies_at_a_different_bound(self):
        data = smooth3d(seed=11)
        codec = QoZ(metric="cr")
        plan = codec.derive_plan(data, error_bound=1e-3)
        blob = codec.compress_with_plan(data, plan, error_bound=5e-4)
        recon = QoZ().decompress(blob)
        assert np.abs(recon - data).max() <= 5e-4

    def test_derive_plan_on_memmap_input(self, tmp_path):
        data = smooth3d((48, 48, 48), seed=12)
        path = tmp_path / "field.npy"
        np.save(path, data)
        mm = np.load(path, mmap_mode="r")
        plan = QoZ(metric="cr").derive_plan(mm, rel_error_bound=1e-3)
        ref = QoZ(metric="cr").derive_plan(data, rel_error_bound=1e-3)
        assert plan == ref


class TestPlanLRU:
    """Eviction order and hit/miss accounting of the service plan cache."""

    @staticmethod
    def plan(tag):
        return FrozenPlan(codec="qoz", eb=1e-3, interpolators={1: (0, 0)},
                          metric=tag)

    @staticmethod
    def key(sig):
        from repro.core.plan_cache import plan_cache_key

        return plan_cache_key("qoz", {}, "rel", 1e-3, sig)

    def keys(self):
        """Interleaved family- and content-signature keys."""
        from repro.core.plan_cache import field_signature

        fields = [np.full((4, 4), float(i), dtype=np.float32)
                  for i in range(4)]
        sigs = []
        for i, data in enumerate(fields):
            sigs.append(field_signature(data, family=f"fam{i}"))
            sigs.append(field_signature(data))  # content-hash key
        return [self.key(s) for s in sigs]

    def test_eviction_is_least_recently_used(self):
        from repro.core.plan_cache import PlanLRU

        cache = PlanLRU(capacity=4)
        keys = self.keys()[:5]
        for i, k in enumerate(keys[:4]):
            cache.put(k, self.plan(str(i)))
        # touch key 0 (a get counts as use); key 1 becomes LRU
        assert cache.get(keys[0]).metric == "0"
        cache.put(keys[4], self.plan("4"))
        assert len(cache) == 4
        assert cache.get(keys[1]) is None  # evicted
        for k, tag in ((keys[0], "0"), (keys[2], "2"),
                       (keys[3], "3"), (keys[4], "4")):
            assert cache.get(k).metric == tag

    def test_family_and_content_keys_never_alias(self):
        from repro.core.plan_cache import PlanLRU

        cache = PlanLRU(capacity=16)
        keys = self.keys()
        assert len(set(keys)) == len(keys)
        for i, k in enumerate(keys):
            cache.put(k, self.plan(str(i)))
        for i, k in enumerate(keys):
            assert cache.get(k).metric == str(i)

    def test_hit_miss_counters_exact(self):
        from repro.core.plan_cache import PlanLRU

        cache = PlanLRU(capacity=2)
        k_fam, k_content, k_other = self.keys()[:3]
        assert cache.get(k_fam) is None  # miss 1
        cache.put(k_fam, self.plan("a"))
        assert cache.get(k_fam) is not None  # hit 1
        assert cache.get(k_content) is None  # miss 2
        cache.get_or_derive(k_content, lambda: self.plan("b"))  # miss 3 + derive
        cache.get_or_derive(k_content, lambda: self.plan("x"))  # hit 2
        cache.put(k_other, self.plan("c"))  # evicts k_fam (LRU)
        assert cache.get(k_fam) is None  # miss 4
        s = cache.stats()
        assert s["plan_cache_hits"] == 2
        assert s["plan_cache_misses"] == 4
        assert s["plan_derives"] == 1
        assert s["plan_cache_hit_rate"] == pytest.approx(2 / 6, abs=1e-4)

    def test_hit_rate_zero_before_any_lookup(self):
        from repro.core.plan_cache import PlanLRU

        assert PlanLRU().stats()["plan_cache_hit_rate"] == 0.0

    def test_capacity_bounds_the_cache(self):
        from repro.core.plan_cache import PlanLRU

        cache = PlanLRU(capacity=2)
        keys = self.keys()[:5]
        for i, k in enumerate(keys):
            cache.put(k, self.plan(str(i)))
        assert len(cache) == cache.stats()["plan_cache_size"] == 2
        assert [cache.get(k).metric for k in keys[3:]] == ["3", "4"]
        with pytest.raises(ConfigurationError, match=">= 1"):
            PlanLRU(capacity=0)

    def test_put_on_a_resident_key_replaces_in_place(self):
        """A second plan for a cached key takes its place: nothing else is
        evicted, and nothing counts as a derivation."""
        from repro.core.plan_cache import PlanLRU

        cache = PlanLRU(capacity=2)
        k0, k1 = self.keys()[:2]
        cache.put(k0, self.plan("old"))
        cache.put(k1, self.plan("other"))
        cache.put(k0, self.plan("new"))
        assert len(cache) == 2
        assert cache.get_or_derive(k0, lambda: self.plan("x")).metric == "new"
        assert cache.get(k1).metric == "other"
        assert cache.stats()["plan_derives"] == 0

    def test_only_a_miss_calls_derive(self):
        from repro.core.plan_cache import PlanLRU

        cache = PlanLRU(capacity=4)
        k0, k1 = self.keys()[:2]
        calls = []

        def derive(tag):
            calls.append(tag)
            return self.plan(tag)

        first = cache.get_or_derive(k0, lambda: derive("a"))
        assert cache.get_or_derive(k0, lambda: derive("b")) is first
        cache.put(k1, self.plan("put"))
        assert cache.get_or_derive(k1, lambda: derive("c")).metric == "put"
        assert calls == ["a"]
        assert cache.stats()["plan_derives"] == 1

    def test_concurrent_misses_of_one_key_derive_once(self):
        """A thread that misses while another derives the key waits and
        takes that plan, although its own data would derive another."""
        from repro.core.plan_cache import PlanLRU

        cache = PlanLRU(capacity=4)
        key = self.keys()[0]
        entered, release = threading.Event(), threading.Event()
        calls = []

        def slow_derive():
            calls.append("first")
            entered.set()
            assert release.wait(10)
            return self.plan("first")

        got = {}
        first = threading.Thread(
            target=lambda: got.update(a=cache.get_or_derive(key, slow_derive))
        )
        first.start()
        assert entered.wait(10)
        second = threading.Thread(target=lambda: got.update(
            b=cache.get_or_derive(key, lambda: calls.append("second"))
        ))
        second.start()
        second.join(0.1)
        assert second.is_alive()  # waiting on the derive in flight
        release.set()
        first.join(10)
        second.join(10)
        assert got["a"] is got["b"] and got["a"].metric == "first"
        assert calls == ["first"]
        assert cache.stats()["plan_derives"] == 1

    def test_a_failed_derive_hands_the_key_to_a_waiter(self):
        """The first derive raises on its own input: the waiter derives
        from its own, and the key is left with no derive in flight."""
        from repro.core.plan_cache import PlanLRU

        cache = PlanLRU(capacity=4)
        key = self.keys()[0]
        entered, release = threading.Event(), threading.Event()

        def failing_derive():
            entered.set()
            assert release.wait(10)
            raise ValueError("non-finite input")

        errors, got = [], {}

        def first():
            try:
                cache.get_or_derive(key, failing_derive)
            except ValueError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=first)]
        threads[0].start()
        assert entered.wait(10)
        threads.append(threading.Thread(target=lambda: got.update(
            b=cache.get_or_derive(key, lambda: self.plan("second"))
        )))
        threads[1].start()
        threads[1].join(0.1)
        assert threads[1].is_alive()  # waiting on the failing derive
        release.set()
        for t in threads:
            t.join(10)
        assert len(errors) == 1
        assert got["b"].metric == "second"
        assert cache.get(key) is got["b"]
        assert cache.stats()["plan_derives"] == 1
        assert cache._deriving == {}

    def test_a_derive_in_flight_blocks_only_its_own_key(self):
        from repro.core.plan_cache import PlanLRU

        cache = PlanLRU(capacity=4)
        k0, k1 = self.keys()[:2]
        entered, release = threading.Event(), threading.Event()

        def slow_derive():
            entered.set()
            assert release.wait(10)
            return self.plan("slow")

        slow = threading.Thread(target=cache.get_or_derive, args=(k0, slow_derive))
        slow.start()
        try:
            assert entered.wait(10)
            # k1 derives and returns while k0's derive is still running
            assert cache.get_or_derive(k1, lambda: self.plan("fast")).metric == "fast"
            assert slow.is_alive()
        finally:
            release.set()
            slow.join(10)
        assert cache.get(k0).metric == "slow"
