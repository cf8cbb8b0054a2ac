"""Shared pytest fixtures and subprocess helpers."""

import logging
import os
import pathlib
import time

import numpy as np
import pytest

#: the package lives under src/ (no install step); every test that spawns
#: a python subprocess must propagate this on PYTHONPATH explicitly —
#: the parent's sys.path tweaks do NOT reach child processes
SRC_DIR = pathlib.Path(__file__).parent.parent / "src"


def _env_with_src() -> dict:
    env = os.environ.copy()
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SRC_DIR) + (os.pathsep + existing if existing else "")
    )
    return env


@pytest.fixture
def subprocess_env() -> dict:
    """os.environ copy with src/ prepended to PYTHONPATH.

    Use this as the ``env=`` of any subprocess that imports ``repro``
    (a fixture, not an import, so it cannot collide with
    ``benchmarks/conftest.py`` on sys.path).
    """
    return _env_with_src()


@pytest.fixture
def rng():
    """Deterministic RNG for tests."""
    return np.random.default_rng(12345)


def live_children(parent=None):
    """``(pid, command line)`` of a process's children that still run
    (default: this process's), multiprocessing's resource tracker (which
    lives until exit) aside."""
    parent = os.getpid() if parent is None else parent
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
            with open(f"/proc/{entry}/cmdline") as fh:
                cmdline = fh.read().replace("\0", " ").strip()
        except (OSError, ValueError):
            continue  # gone between listdir and open
        if (
            int(ppid) == parent
            and state != "Z"
            and "multiprocessing.resource_tracker" not in cmdline
        ):
            found.append((int(entry), cmdline))
    return found


@pytest.fixture(name="live_children")
def live_children_fixture():
    """:func:`live_children` for test modules (conftest is not importable
    by name when ``benchmarks/conftest.py`` is collected too)."""
    return live_children


class _CallbackErrors(logging.Handler):
    """Collects what ``concurrent.futures`` logs when a done-callback
    raises: the exception goes nowhere else, and a callback that was
    meant to resolve another future leaves that future pending."""

    def __init__(self):
        super().__init__(logging.ERROR)
        self.records = []

    def emit(self, record):
        if "exception calling callback" in record.getMessage():
            self.records.append(record)


@pytest.fixture(autouse=True)
def no_done_callback_raises():
    """Fail any test during which a future's done-callback raised."""
    handler = _CallbackErrors()
    logger = logging.getLogger("concurrent.futures")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
    if handler.records:
        pytest.fail(
            "a done-callback raised:\n" + "\n".join(
                logging.Formatter().format(r) for r in handler.records
            ),
            pytrace=False,
        )


@pytest.fixture(scope="session", autouse=True)
def nothing_outlives_the_session():
    """Release the kept worker pool (DESIGN.md §7) when the session ends,
    then require what a per-call pool's teardown used to guarantee: no
    worker process and no shared-memory slab of this process is left."""
    yield
    from repro.parallel import active_slab_names, shutdown_pool

    shutdown_pool()
    if not os.path.isdir("/proc/self"):
        return  # no way to look from here
    deadline = time.monotonic() + 10.0
    while live_children() and time.monotonic() < deadline:
        time.sleep(0.1)
    assert live_children() == []
    assert active_slab_names() == []
    assert list(pathlib.Path("/dev/shm").glob(f"repro-slab-{os.getpid()}-*")) == []
