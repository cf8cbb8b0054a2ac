"""Shared pieces of the benchmark suite: statistics, the span recorder,
process accounting and output verification.

Nothing here imports ``repro`` at module level — ``run.py`` times the
package import as part of ``setup_s``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Sequence

import numpy as np

SUITE_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parent.parent
#: already ignored by the root .gitignore (``benchmarks/results/``)
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results" / "suite"

_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ------------------------------------------------------------- statistics

def pct(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (linear interpolation)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count — how every timing is reported.
    Quartiles are ``statistics.quantiles(values, n=4)``, the rule the
    acceptance check of BENCHMARK.json uses for spreads."""
    values = [float(v) for v in values]
    q1, _q2, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# ------------------------------------------------------------------ spans

class Tracer:
    """In-memory span recorder for the traced replay.

    A span is ``[name, start, end, parent, op_id]`` (``parent`` is the
    index of the enclosing span, -1 for an operation's root).  Spans are
    kept in a list and written out once, when the run ends.  A layer's
    *self time* is its span's duration minus the part its child spans
    cover.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._op = -1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._op += 1
        row = [name, 0.0, 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        row[1] = time.perf_counter()
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> Dict[str, float]:
        """Self time summed by span name."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _parent, _op), covered in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start) - covered
        return out

    def totals(self) -> Dict[str, float]:
        """Inclusive duration summed by span name."""
        out: Dict[str, float] = {}
        for name, start, end, _parent, _op in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def root_time(self) -> float:
        return sum(e - s for _n, s, e, parent, _o in self.spans if parent < 0)

    def root_self_time(self) -> float:
        """Root time no named child span accounts for."""
        roots = {i for i, row in enumerate(self.spans) if row[3] < 0}
        covered = sum(
            e - s for _n, s, e, parent, _o in self.spans if parent in roots
        )
        return self.root_time() - covered

    def dump(self, path: pathlib.Path, extra: Dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra)
        doc["columns"] = ["name", "start", "end", "parent", "op_id"]
        doc["spans"] = self.spans
        path.write_text(json.dumps(doc))


# ----------------------------------------------------- process accounting

def _status_kb(pid, key: str) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(key + ":"):
                return float(line.split()[1])
    return 0.0


def peak_rss_mb(pid="self") -> float:
    """High-water resident set (``VmHWM``) of a live process, in MB."""
    return _status_kb(pid, "VmHWM") * 1024 / 1e6


def children_peak_rss_mb() -> float:
    """Largest resident set among reaped children (pool workers, probes)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


def proc_cpu_s(pid) -> float:
    """user+system CPU seconds of a live process (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def adopt_orphans() -> None:
    """Make this process the parent of every descendant whose own parent
    exits first (Linux ``PR_SET_CHILD_SUBREAPER``), so that
    :func:`reap_children` can wait for them: the server's and the set-up
    probes' ``multiprocessing`` resource trackers outlive their parents
    by a moment and would otherwise be handed to init still running."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: reap_children still waits for direct children


def _child_pids() -> List[int]:
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue  # gone between listdir and open
        if ppid == me:
            pids.append(int(entry))
    return pids


def reap_children(grace_s: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    Workloads stop what they start (server, pools); what is left is this
    process's ``multiprocessing`` resource tracker — it runs until its
    pipe closes, which Python otherwise leaves to process exit — and
    orphans adopted through :func:`adopt_orphans`.  Anything still alive
    after ``grace_s`` is terminated, then killed."""
    tracker = getattr(
        sys.modules.get("multiprocessing.resource_tracker"),
        "_resource_tracker", None)
    fd = getattr(tracker, "_fd", None)
    if fd is not None:
        os.close(fd)  # EOF on the tracker's pipe ends its main loop
        tracker._fd = None
    import signal

    escalation = [signal.SIGTERM, signal.SIGKILL]
    deadline = time.monotonic() + grace_s
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return  # no child left
        if pid:
            continue
        if time.monotonic() > deadline:
            if not escalation:
                return  # unkillable; nothing more this process can do
            sig = escalation.pop(0)
            for child in _child_pids():
                try:
                    os.kill(child, sig)
                except ProcessLookupError:
                    pass
            deadline = time.monotonic() + 5.0
        time.sleep(0.005)


def own_cpu_s() -> float:
    """CPU seconds of this process plus every child it has reaped."""
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + ru.ru_utime + ru.ru_stime


def environment() -> Dict[str, object]:
    """The block recorded beside every result."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------ verification

class Tally:
    """Attempted / failed operation counts; ``failed`` feeds ``error_rate``.

    A failure is an exception, a RETRY/reject, a violated bound, a wrong
    shape or dtype, or a byte mismatch.  The first few reasons are kept
    so a failing run says why.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(reason, count_attempt=False)
        return ok

    def fail(self, reason: str, count_attempt: bool = True) -> None:
        if count_attempt:
            self.attempted += 1
        self.failed += 1
        if len(self.reasons) < 8:
            self.reasons.append(reason)


def within_bound(original: np.ndarray, recon: np.ndarray, eb: float) -> bool:
    """DESIGN.md §8: same shape and dtype, and ``max|x - x'| <= eb``."""
    if recon.shape != original.shape or recon.dtype != original.dtype:
        return False
    err = np.abs(original.astype(np.float64) - recon.astype(np.float64))
    return bool(err.max() <= eb)


def psnr_db(original: np.ndarray, recon: np.ndarray) -> float:
    a = original.astype(np.float64)
    mse = float(np.mean((a - recon.astype(np.float64)) ** 2))
    vrange = float(a.max() - a.min())
    if mse == 0.0 or vrange == 0.0:
        return 200.0  # lossless: cap instead of inf so means stay finite
    return 20.0 * float(np.log10(vrange / np.sqrt(mse)))


def digest_arrays(arrays: Iterable[np.ndarray]) -> str:
    """One hex digest over a sequence of input arrays (seed fingerprint)."""
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype.str, a.shape)).encode())
        h.update(memoryview(a).cast("B"))
    return h.hexdigest()


def subprocess_env() -> Dict[str, str]:
    """Child environment with ``src/`` importable (server, set-up probes)."""
    env = os.environ.copy()
    src = str(REPO_ROOT / "src")
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
    return env


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def scratch_dir() -> pathlib.Path:
    """Per-process scratch for container files, inside the results dir."""
    path = RESULTS_DIR / f"tmp-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def load_benchmark_json() -> Dict:
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def eprint(*args: object) -> None:
    print(*args, file=sys.stderr, flush=True)
