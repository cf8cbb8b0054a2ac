"""Per-rule good/bad fixture pairs.

Every rule gets at least one *bad* fixture proving it fires (with the
exact rule ID and line number asserted) and a *good* twin proving the
sanctioned idiom passes.  Line numbers are counted inside the dedented
fixture strings — the leading newline of each triple-quoted block makes
the first code line line 2.
"""

import textwrap

from repro.lint import build_rules, lint_source


def run(rule_id, source, relpath="repro/mod.py", **options):
    overrides = {rule_id: {"modules": [relpath], **options}}
    rules = build_rules(select=[rule_id], overrides=overrides)
    return lint_source(textwrap.dedent(source), relpath, rules)


def hits(findings):
    return [(f.rule, f.line) for f in findings]


# ------------------------------------------------------------------- RL001


def test_rl001_fires_on_header_sized_allocation():
    findings = run(
        "RL001",
        """
        import struct
        import numpy as np

        def decode_stream(blob):
            n = struct.unpack("<Q", blob[:8])[0]
            return np.empty(n, dtype="<f8")
        """,
    )
    assert hits(findings) == [("RL001", 7)]


def test_rl001_passes_with_max_size_guard():
    findings = run(
        "RL001",
        """
        import struct
        import numpy as np
        from repro.errors import DecompressionError

        def decode_stream(blob, max_size=None):
            n = struct.unpack("<Q", blob[:8])[0]
            if max_size is not None and n > max_size:
                raise DecompressionError("declared size exceeds cap")
            return np.empty(n, dtype="<f8")
        """,
    )
    assert findings == []


def test_rl001_fires_on_unvalidated_repeat_and_count():
    findings = run(
        "RL001",
        """
        import numpy as np

        def decode_runs(vals, lens, blob):
            out = np.repeat(vals, lens)
            raw = np.frombuffer(blob, dtype="<u4", count=lens[0])
            return out, raw
        """,
    )
    assert hits(findings) == [("RL001", 5), ("RL001", 6)]


def test_rl001_passes_validator_call_and_len():
    findings = run(
        "RL001",
        """
        import numpy as np

        def decode_runs(vals, lens, blob):
            validate_run_lengths(lens, vals)
            out = np.repeat(vals, lens)
            raw = np.frombuffer(blob, dtype="<u4", count=len(blob) // 4)
            return out, raw
        """,
    )
    assert findings == []


def test_rl001_ignores_non_decode_functions():
    findings = run(
        "RL001",
        """
        import numpy as np

        def build_table(n):
            return np.empty(n)
        """,
    )
    assert findings == []


# ------------------------------------------------------------------- RL002


def test_rl002_fires_on_blocking_calls_in_async_def():
    findings = run(
        "RL002",
        """
        import time
        import subprocess

        async def worker(fut, sock):
            time.sleep(0.1)
            subprocess.run(["ls"])
            fut.result()
            sock.recv(1024)
        """,
        relpath="repro/service/worker.py",
    )
    assert hits(findings) == [
        ("RL002", 6),
        ("RL002", 7),
        ("RL002", 8),
        ("RL002", 9),
    ]


def test_rl002_passes_awaited_and_sync_contexts():
    findings = run(
        "RL002",
        """
        import asyncio
        import time

        async def worker(loop, job):
            await asyncio.sleep(0.1)
            return await loop.run_in_executor(None, job)

        def retry_sleep(delay):
            time.sleep(delay)  # sync helper: runs off the loop
        """,
        relpath="repro/service/client.py",
    )
    assert findings == []


def test_rl002_result_with_timeout_arg_not_flagged():
    # result(timeout=0) is a non-blocking poll; only the bare blocking
    # wait is the loop hazard this rule targets
    findings = run(
        "RL002",
        """
        async def f(fut):
            return fut.result(0)
        """,
        relpath="repro/service/x.py",
    )
    assert findings == []


# ------------------------------------------------------------------- RL003


def test_rl003_fires_on_unregistered_format():
    findings = run(
        "RL003",
        """
        import struct

        def read_count(prelude, ndim):
            return struct.unpack_from("<QQQ", prelude, 4 * ndim)

        def read_ok(prelude, ndim):
            return struct.unpack_from("<Q", prelude, 4 * ndim)
        """,
        relpath="repro/chunked/container.py",
    )
    assert hits(findings) == [("RL003", 5)]
    assert "wire_registry" in findings[0].message


def test_rl003_fires_on_registry_drift():
    # the registered "<Q" never appears -> the registry and the module
    # have drifted apart
    findings = run(
        "RL003",
        """
        import struct
        """,
        relpath="repro/chunked/container.py",
    )
    assert hits(findings) == [("RL003", 1)]
    assert "drifted" in findings[0].message


def test_rl003_fires_on_changed_constant_without_registry_bump():
    source = (
        "import struct\n"
        "PROTOCOL_VERSION = 3\n"
        "MAX_FRAME = 1 << 30\n"
        "OP_PING = 1\n"
        "OP_COMPRESS = 2\n"
        "OP_DECOMPRESS = 3\n"
        "OP_READ_SLAB = 4\n"
        "OP_STATS = 5\n"
        "ST_OK = 0\n"
        "ST_ERROR = 1\n"
        "ST_RETRY = 2\n"
        'FMTS = (struct.pack("<B", 0), struct.pack("<H", 0),\n'
        '        struct.pack("<I", 0), struct.pack("<Q", 0),\n'
        '        struct.pack("<q", 0), struct.pack("<d", 0.0))\n'
    )
    findings = run("RL003", source, relpath="repro/service/protocol.py")
    assert hits(findings) == [("RL003", 2)]
    assert "PROTOCOL_VERSION" in findings[0].message
    assert "bumping the revision" in findings[0].message


def test_rl003_passes_fstring_count_normalization():
    findings = run(
        "RL003",
        """
        import struct
        MAGIC = b"RPZ1"
        VERSION = 2
        VERSION_CHECKSUM = 3
        FLAG_CHUNKED = 0x01
        _PREFIX = struct.Struct("<4sB")
        _FIXED_V1 = struct.Struct("<4sBBBBd")
        _FIXED_V2 = struct.Struct("<4sBBBBBd")

        def pack_all(shape, ndim, e):
            a = struct.pack(f"<{len(shape)}Q", *shape)
            b = struct.pack(f"<{ndim}I", *shape)
            c = struct.pack("<I", 1) + struct.pack("<Q", 2)
            d = struct.pack("<QQ", e.offset, e.nbytes)
            return a + b + c + d
        """,
        relpath="repro/core/header.py",
    )
    assert findings == []


def test_rl003_fires_on_dynamic_format_string():
    findings = run(
        "RL003",
        """
        import struct

        def sneaky_pack(fmt):
            struct.unpack_from("<Q", b"", 0)
            return struct.pack(fmt, 1)
        """,
        relpath="repro/chunked/container.py",
    )
    assert hits(findings) == [("RL003", 6)]
    assert "statically auditable" in findings[0].message


def test_rl003_ignores_unregistered_modules():
    findings = run(
        "RL003",
        """
        import struct
        X = struct.pack("<QQQQQ", 1, 2, 3, 4, 5)
        """,
        relpath="repro/analysis/report.py",
    )
    assert findings == []


# ------------------------------------------------------------------- RL004


def test_rl004_fires_on_plan_mutation():
    findings = run(
        "RL004",
        """
        def tune(plan: FrozenPlan, eb):
            plan.eb = eb
            return plan
        """,
    )
    assert hits(findings) == [("RL004", 3)]


def test_rl004_fires_on_constructed_and_derived_plans():
    findings = run(
        "RL004",
        """
        def retune(cache, field, eb):
            plan = FrozenPlan(codec="qoz", eb=eb)
            plan.alpha = 1.5
            other = cache.get_or_derive(field)
            other.beta = 2.0
        """,
    )
    assert hits(findings) == [("RL004", 4), ("RL004", 6)]


def test_rl004_allows_init_and_derive_plan():
    findings = run(
        "RL004",
        """
        class Planner:
            def __init__(self, eb):
                plan = FrozenPlan(codec="qoz", eb=eb)
                plan.eb = eb  # inside __init__: allowed
                self.plan = plan

        def derive_plan(field, eb):
            plan = FrozenPlan(codec="qoz", eb=eb)
            plan.eb = eb
            return plan

        def rebuild(old: FrozenPlan, eb):
            import dataclasses
            return dataclasses.replace(old, eb=eb)
        """,
    )
    assert findings == []


# ------------------------------------------------------------------- RL005


def test_rl005_fires_on_cross_class_metrics_mutation():
    findings = run(
        "RL005",
        """
        class CompressionService:
            def _on_job_done(self, job):
                self.metrics.jobs_done += 1
                self.admission.inflight = 0
        """,
        relpath="repro/service/scheduler.py",
    )
    assert hits(findings) == [("RL005", 4), ("RL005", 5)]
    assert "ServiceMetrics" in findings[0].message
    assert "AdmissionController" in findings[1].message


def test_rl005_fires_on_local_binding_mutation():
    findings = run(
        "RL005",
        """
        def make():
            admission = AdmissionController(budget=64)
            admission.inflight = 3
        """,
        relpath="repro/service/scheduler.py",
    )
    assert hits(findings) == [("RL005", 4)]


def test_rl005_allows_owning_class_and_method_calls():
    findings = run(
        "RL005",
        """
        class ServiceMetrics:
            def record_done(self):
                self.jobs_done += 1

        class CompressionService:
            def __init__(self):
                self.metrics = ServiceMetrics()

            def _on_job_done(self, job):
                self.metrics.record_done()
        """,
        relpath="repro/service/scheduler.py",
    )
    assert findings == []


# ------------------------------------------------------------------- RL006


def test_rl006_fires_on_swallowed_broad_except():
    findings = run(
        "RL006",
        """
        def f():
            try:
                g()
            except Exception:
                return None
            try:
                g()
            except (ValueError, BaseException) as exc:
                log(exc)
        """,
    )
    assert hits(findings) == [("RL006", 5), ("RL006", 9)]


def test_rl006_fires_on_bare_except():
    findings = run(
        "RL006",
        """
        def f():
            try:
                g()
            except:
                pass
        """,
    )
    assert hits(findings) == [("RL006", 5)]


def test_rl006_allows_reraise_conversion_and_narrow():
    findings = run(
        "RL006",
        """
        def f(fut, writer):
            try:
                g()
            except BaseException:
                cleanup()
                raise
            try:
                g()
            except Exception as exc:
                fut.set_exception(exc)
            try:
                g()
            except Exception as exc:
                writer.write(encode_error(str(exc)))
            try:
                g()
            except ValueError:
                pass
        """,
    )
    assert findings == []


# ------------------------------------------------------------------- RL007


def test_rl007_fires_on_native_order_dtypes():
    findings = run(
        "RL007",
        """
        import numpy as np

        def load(raw, vals):
            a = np.frombuffer(raw, dtype=np.uint32)
            b = np.frombuffer(raw, dtype="float64")
            c = vals.astype(np.int64).tobytes()
            return a, b, c
        """,
    )
    assert hits(findings) == [("RL007", 5), ("RL007", 6), ("RL007", 7)]


def test_rl007_allows_explicit_and_single_byte():
    findings = run(
        "RL007",
        """
        import numpy as np

        def load(raw, vals, dtype):
            a = np.frombuffer(raw, dtype="<u4")
            b = np.frombuffer(raw, dtype=np.uint8)
            c = vals.astype("<f8", copy=False).tobytes()
            d = np.frombuffer(raw, dtype=dtype)  # runtime dtype: wire-checked
            e = vals.astype(np.float64)  # stays in process, no tobytes
            return a, b, c, d, e
        """,
    )
    assert findings == []


# ------------------------------------------------------------------- RL008


def test_rl008_fires_on_pickle_loads():
    findings = run(
        "RL008",
        """
        import pickle
        from pickle import loads as pl

        def read(blob):
            a = pickle.loads(blob)
            b = pl(blob)
            return a, b
        """,
    )
    assert hits(findings) == [("RL008", 6), ("RL008", 7)]


def test_rl008_allows_plan_broadcast_module():
    findings = run(
        "RL008",
        """
        import pickle

        def rehydrate(blob):
            return pickle.loads(blob)
        """,
        relpath="repro/parallel/executor.py",
        allow_modules=["repro/parallel/executor.py"],
    )
    assert findings == []


def test_rl008_dumps_is_fine():
    findings = run(
        "RL008",
        """
        import pickle

        def save(obj):
            return pickle.dumps(obj)
        """,
    )
    assert findings == []


# ------------------------------------------------------------------- RL009


def test_rl009_fires_on_swallowed_pool_break():
    findings = run(
        "RL009",
        """
        from concurrent.futures.process import BrokenProcessPool

        def submit(pool, fn):
            try:
                return pool.submit(fn)
            except BrokenProcessPool:
                return None
        """,
        relpath="repro/parallel/executor.py",
    )
    assert hits(findings) == [("RL009", 7)]


def test_rl009_fires_on_bare_reraise_of_timeout():
    findings = run(
        "RL009",
        """
        import asyncio

        async def guard(coro, timeout):
            try:
                return await asyncio.wait_for(coro, timeout)
            except asyncio.TimeoutError:
                raise
        """,
        relpath="repro/service/scheduler.py",
    )
    assert hits(findings) == [("RL009", 7)]


def test_rl009_allows_supervisor_route_and_typed_raise():
    findings = run(
        "RL009",
        """
        import asyncio
        from concurrent.futures.process import BrokenProcessPool
        from repro.errors import DeadlineExceededError, WorkerCrashError

        def dispatch(self, fn, gen):
            try:
                return self._pool.submit(fn)
            except BrokenProcessPool:
                self._note_crash(gen)

        async def guard(coro, timeout):
            try:
                return await asyncio.wait_for(coro, timeout)
            except asyncio.TimeoutError:
                raise DeadlineExceededError(timeout * 1e3, "running")

        def finish(outer, exc):
            try:
                raise exc
            except BrokenProcessPool:
                outer.set_exception(WorkerCrashError("job poisoned"))
        """,
        relpath="repro/parallel/executor.py",
    )
    assert findings == []


def test_rl009_ignores_unscoped_modules():
    findings = run(
        "RL009",
        """
        def wait(fut):
            try:
                return fut.result(1.0)
            except TimeoutError:
                return None
        """,
        relpath="repro/cli/progress.py",
        modules=["repro/service/*", "repro/parallel/*"],
    )
    assert findings == []


# ------------------------------------------------------------------- RL011


def test_rl011_fires_on_shard_state_in_process_args():
    findings = run(
        "RL011",
        """
        import multiprocessing

        def launch(config):
            metrics = ServiceMetrics()
            proc = multiprocessing.Process(
                target=shard_main, args=(config, metrics)
            )
            proc.start()
        """,
        relpath="repro/service/sharding.py",
    )
    assert hits(findings) == [("RL011", 6)]
    assert "ServiceMetrics" in findings[0].message
    assert "planbus" in findings[0].message


def test_rl011_fires_on_pickling_tracked_attribute():
    findings = run(
        "RL011",
        """
        import pickle

        class ShardRuntime:
            def snapshot(self):
                return pickle.dumps(self._plans)
        """,
        relpath="repro/service/sharding.py",
    )
    assert hits(findings) == [("RL011", 6)]
    assert "PlanLRU" in findings[0].message


def test_rl011_fires_on_sending_tracked_object_over_pipe():
    findings = run(
        "RL011",
        """
        def publish(conn):
            admission = AdmissionController(budget=64)
            conn.send(admission)
        """,
        relpath="repro/service/sharding.py",
    )
    assert hits(findings) == [("RL011", 4)]
    assert "AdmissionController" in findings[0].message


def test_rl011_passes_on_encoded_messages_and_local_use():
    findings = run(
        "RL011",
        """
        import multiprocessing
        from repro.service.planbus import encode_plan

        def launch(config):
            metrics = ServiceMetrics()
            metrics.record_done()
            proc = multiprocessing.Process(
                target=shard_main, args=(config,)
            )
            conn, other = multiprocessing.Pipe()
            conn.send_bytes(encode_plan("climate", plan))
            return proc, metrics
        """,
        relpath="repro/service/sharding.py",
    )
    assert findings == []


def test_rl011_allowlists_the_bus_module_itself():
    # the bus IS the sanctioned boundary: the same pickling that fires
    # anywhere else in the service layer is the bus's whole job
    findings = run(
        "RL011",
        """
        import pickle

        def encode_plan(family):
            plans = PlanLRU(capacity=8)
            return pickle.dumps(plans)
        """,
        relpath="repro/service/planbus.py",
        allow_modules=["repro/service/planbus.py"],
    )
    assert findings == []
