"""The fixtures of the eight reprolint rules that became structure pins.

Each entry is ``(rule id, path under src/repro, source, flagged lines)``:
the bad/good snippet pairs the rules were written against (PR 7, 8, 10),
kept so ``test_structure.py`` can show that a pin flags everything its
rule flagged and nothing its rule let through.  Lines count inside the
dedented string; the leading newline makes the first code line line 2.
The lines are the rule's own, except RL008's aliased ``from pickle
import loads``, which its pin flags at the import (line 3), not the call.
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
        from concurrent.futures.process import BrokenProcessPool

        def submit(pool, fn):
            try:
                return pool.submit(fn)
            except BrokenProcessPool:
                return None
        """, [7]),
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
        """, []),
    # outside service/ and parallel/ a timeout is the caller's business
    ("RL009", "cli/progress.py", """
        def wait(fut):
            try:
                return fut.result(1.0)
            except TimeoutError:
                return None
        """, []),
    # ---------------------------------------------------------------- RL011
    ("RL011", "service/sharding.py", """
        import multiprocessing

        def launch(config):
            metrics = ServiceMetrics()
            proc = multiprocessing.Process(
                target=shard_main, args=(config, metrics)
            )
            proc.start()
        """, [6]),
    ("RL011", "service/sharding.py", """
        import pickle

        class ShardRuntime:
            def snapshot(self):
                return pickle.dumps(self._plans)
        """, [6]),
    ("RL011", "service/sharding.py", """
        def publish(conn):
            admission = AdmissionController(budget=64)
            conn.send(admission)
        """, [4]),
    ("RL011", "service/sharding.py", """
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
        """, []),
    # the bus IS the sanctioned boundary: what fires anywhere else in the
    # service layer is the bus's whole job
    ("RL011", "service/planbus.py", """
        import pickle

        def encode_plan(family):
            plans = PlanLRU(capacity=8)
            return pickle.dumps(plans)
        """, []),
]
