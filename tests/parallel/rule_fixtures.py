"""The fixtures of the reprolint rules that became structure pins.

Each entry is ``(rule id, path under src/repro, source, flagged lines)``:
the bad/good snippet pairs the rules were written against,
kept so ``test_structure.py`` can show that a pin flags everything its
rule flagged and nothing its rule let through.  Lines count inside the
dedented string; the leading newline makes the first code line line 2.
The lines are the rule's own, except RL008's aliased ``from pickle
import loads``, which its pin flags at the import (line 3), not the call.
``WIRE_FIXTURES`` are RL003's, for the wire-registry pin; its pin runs
each one as a module, since it compares live constant values.
"""

FIXTURES = [
    # ---------------------------------------------------------------- RL002
    ("RL002", "service/worker.py", """
        import time
        import subprocess

        async def worker(fut, sock):
            time.sleep(0.1)
            subprocess.run(["ls"])
            fut.result()
            sock.recv(1024)
        """, [6, 7, 8, 9]),
    ("RL002", "service/client.py", """
        import asyncio
        import time

        async def worker(loop, job):
            await asyncio.sleep(0.1)
            return await loop.run_in_executor(None, job)

        def retry_sleep(delay):
            time.sleep(delay)  # sync helper: runs off the loop
        """, []),
    # result(timeout) is a bounded poll; only the bare wait stalls the loop
    ("RL002", "service/x.py", """
        async def f(fut):
            return fut.result(0)
        """, []),
    # ---------------------------------------------------------------- RL004
    ("RL004", "mod.py", """
        def tune(plan: FrozenPlan, eb):
            plan.eb = eb
            return plan
        """, [3]),
    ("RL004", "mod.py", """
        def retune(cache, field, eb):
            plan = FrozenPlan(codec="qoz", eb=eb)
            plan.alpha = 1.5
            other = cache.get_or_derive(field)
            other.beta = 2.0
        """, [4, 6]),
    ("RL004", "mod.py", """
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
        """, []),
    # ---------------------------------------------------------------- RL005
    ("RL005", "service/scheduler.py", """
        class CompressionService:
            def _on_job_done(self, job):
                self.metrics.jobs_done += 1
                self.admission.inflight = 0
        """, [4, 5]),
    ("RL005", "service/scheduler.py", """
        def make():
            admission = AdmissionController(budget=64)
            admission.inflight = 3
        """, [4]),
    ("RL005", "service/scheduler.py", """
        class ServiceMetrics:
            def record_done(self):
                self.jobs_done += 1

        class CompressionService:
            def __init__(self):
                self.metrics = ServiceMetrics()

            def _on_job_done(self, job):
                self.metrics.record_done()
        """, []),
    # ---------------------------------------------------------------- RL006
    ("RL006", "mod.py", """
        def f():
            try:
                g()
            except Exception:
                return None
            try:
                g()
            except (ValueError, BaseException) as exc:
                log(exc)
        """, [5, 9]),
    ("RL006", "mod.py", """
        def f():
            try:
                g()
            except:
                pass
        """, [5]),
    ("RL006", "mod.py", """
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
        """, []),
    # a pool worker's loop: its job's error is its reply
    ("RL006", "parallel/executor.py", """
        def serve(conn):
            while True:
                try:
                    fn, arg = pickle.loads(conn.recv_bytes())
                    result = fn(arg)
                except BaseException:
                    continue
                _reply(conn, True, result)
        """, [7]),
    ("RL006", "parallel/executor.py", """
        def serve(conn):
            while True:
                try:
                    fn, arg = pickle.loads(conn.recv_bytes())
                    result = fn(arg)
                except BaseException as exc:
                    _reply(conn, False, exc)
                else:
                    _reply(conn, True, result)
        """, []),
    # ---------------------------------------------------------------- RL007
    ("RL007", "encoding/mod.py", """
        import numpy as np

        def load(raw, vals):
            a = np.frombuffer(raw, dtype=np.uint32)
            b = np.frombuffer(raw, dtype="float64")
            c = vals.astype(np.int64).tobytes()
            return a, b, c
        """, [5, 6, 7]),
    ("RL007", "encoding/mod.py", """
        import numpy as np

        def load(raw, vals, dtype):
            a = np.frombuffer(raw, dtype="<u4")
            b = np.frombuffer(raw, dtype=np.uint8)
            c = vals.astype("<f8", copy=False).tobytes()
            d = np.frombuffer(raw, dtype=dtype)  # runtime dtype: wire-checked
            e = vals.astype(np.float64)  # stays in process, no tobytes
            return a, b, c, d, e
        """, []),
    # ---------------------------------------------------------------- RL008
    ("RL008", "mod.py", """
        import pickle
        from pickle import loads as pl

        def read(blob):
            a = pickle.loads(blob)
            b = pl(blob)
            return a, b
        """, [3, 6]),
    ("RL008", "parallel/executor.py", """
        import pickle

        def rehydrate(blob):
            return pickle.loads(blob)
        """, []),
    ("RL008", "mod.py", """
        import pickle

        def save(obj):
            return pickle.dumps(obj)
        """, []),
    # ---------------------------------------------------------------- RL009
    ("RL009", "parallel/executor.py", """
        def collect(worker):
            try:
                return worker.conn.recv_bytes()
            except (EOFError, OSError):
                return None
        """, [5]),
    ("RL009", "service/scheduler.py", """
        import asyncio

        async def guard(coro, timeout):
            try:
                return await asyncio.wait_for(coro, timeout)
            except asyncio.TimeoutError:
                raise
        """, [7]),
    ("RL009", "parallel/executor.py", """
        import asyncio
        from repro.errors import DeadlineExceededError, WorkerCrashError

        def collect(self, worker):
            try:
                return worker.conn.recv_bytes()
            except (EOFError, OSError):
                self._lost(worker)

        def hand_out(self, worker, job):
            try:
                worker.conn.send_bytes(job.payload)
            except OSError:
                job.future.set_exception(WorkerCrashError("job lost"))

        async def guard(coro, timeout):
            try:
                return await asyncio.wait_for(coro, timeout)
            except asyncio.TimeoutError:
                raise DeadlineExceededError(timeout * 1e3, "running")

        def spawn(self):
            try:
                return self._spawn()
            except OSError:
                return None  # not a pipe: the caller's business
        """, []),
    # outside service/ and parallel/ a timeout is the caller's business
    ("RL009", "cli/progress.py", """
        def wait(fut):
            try:
                return fut.result(1.0)
            except TimeoutError:
                return None
        """, []),
]

WIRE_FIXTURES = [
    # an unregistered format
    ("RL003", "chunked/container.py", """
        import struct

        def read_count(prelude, ndim):
            return struct.unpack_from("<QQQ", prelude, 4 * ndim)

        def read_ok(prelude, ndim):
            return struct.unpack_from("<Q", prelude, 4 * ndim)
        """, [5]),
    ("RL003", "chunked/container.py", """
        import struct

        def read_count(prelude):
            return struct.unpack_from("<Q", prelude)[0]

        def read_flags(prelude):
            return struct.unpack_from("<H", prelude, 8)[0]
        """, [8]),
    ("RL003", "chunked/container.py", """
        import struct

        def read_count(prelude):
            return struct.unpack_from("<Q", prelude)[0]

        def read_flags(prelude):
            return struct.unpack_from("<Q", prelude, 8)[0]
        """, []),
    # the registered "<Q" never appears: the registry has drifted
    ("RL003", "chunked/container.py", """
        import struct
        """, [1]),
    # a computed format cannot be audited at rest
    ("RL003", "chunked/container.py", """
        import struct

        def sneaky_pack(fmt):
            struct.unpack_from("<Q", b"", 0)
            return struct.pack(fmt, 1)
        """, [6]),
    # a wire constant changed without a registry revision
    ("RL003", "service/protocol.py", """
        import struct
        PROTOCOL_VERSION = 3
        MAX_FRAME = 1 << 30
        OP_PING = 1
        OP_COMPRESS = 2
        OP_DECOMPRESS = 3
        OP_READ_SLAB = 4
        OP_STATS = 5
        ST_OK = 0
        ST_ERROR = 1
        ST_RETRY = 2
        FMTS = (struct.pack("<B", 0), struct.pack("<H", 0),
                struct.pack("<I", 0), struct.pack("<Q", 0),
                struct.pack("<q", 0), struct.pack("<d", 0.0))
        """, [3]),
    # f-string counts normalize to {}
    ("RL003", "core/header.py", """
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
        """, []),
    # an unregistered module is not a wire module
    ("RL003", "analysis/report.py", """
        import struct
        X = struct.pack("<QQQQQ", 1, 2, 3, 4, 5)
        """, []),
]
