"""Concurrent reads on ONE shared ChunkedFile must not corrupt each other.

Before the service layer, ``ChunkedFile`` read payloads with a shared
seek+read on one file handle — a latent race the single-threaded CLI
never tripped but a server decoding chunks from many worker threads
would: thread A's ``seek`` lands between thread B's ``seek`` and
``read``, and B decodes A's bytes (usually a DecompressionError, worst
case a silently wrong chunk).  Reads now use positioned I/O
(``os.pread``) for real files and a seek lock for ``BytesIO`` sources;
this file hammers both paths from a thread pool and compares every
result against the serial answer.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro
from repro.chunked import ChunkedFile

N_THREADS = 8
ROUNDS = 6  # per thread, per scenario


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.standard_normal((48, 48, 48)), axis=0)
    x += np.cumsum(rng.standard_normal((48, 48, 48)), axis=2)
    return (x / np.abs(x).max()).astype(np.float32)


@pytest.fixture(scope="module")
def container(field):
    # 3x3x3 = 27 chunks so threads genuinely interleave byte ranges
    return repro.compress(field, codec="qoz", bound=1e-3, chunks=16)


@pytest.fixture(scope="module")
def container_path(container, tmp_path_factory):
    path = tmp_path_factory.mktemp("concurrent") / "field.rpz"
    path.write_bytes(container)
    return str(path)


def _hammer(open_file, expected_chunks, expected_slabs, slabs):
    """Fire chunk+slab reads from N threads; return collected mismatches."""
    barrier = threading.Barrier(N_THREADS)
    errors = []

    def worker(tid):
        rng = np.random.default_rng(tid)
        barrier.wait()  # maximize interleaving
        for r in range(ROUNDS):
            i = int(rng.integers(0, len(expected_chunks)))
            got = open_file.chunk(i)
            if not np.array_equal(got, expected_chunks[i]):
                errors.append(f"thread {tid} round {r}: chunk {i} mismatch")
            s = int(rng.integers(0, len(slabs)))
            got = open_file.read(slabs[s])
            if not np.array_equal(got, expected_slabs[s]):
                errors.append(f"thread {tid} round {r}: slab {s} mismatch")

    with ThreadPoolExecutor(max_workers=N_THREADS) as pool:
        list(pool.map(worker, range(N_THREADS)))
    return errors


@pytest.fixture(scope="module")
def slabs():
    return [
        (slice(0, 48), slice(0, 48), slice(0, 48)),
        (slice(5, 40), slice(None), slice(17, 18)),
        (slice(None), slice(30, 48), slice(0, 20)),
        (slice(15, 17), slice(15, 17), slice(15, 17)),
    ]


class TestConcurrentReads:
    def test_file_backed_reads_from_many_threads(
        self, container_path, slabs
    ):
        with ChunkedFile(container_path) as f:
            expected_chunks = [f.chunk(i) for i in range(f.n_chunks)]
            expected_slabs = [f.read(s) for s in slabs]
            assert f.n_chunks == 27
            errors = _hammer(f, expected_chunks, expected_slabs, slabs)
        assert not errors, errors[:5]

    def test_bytesio_backed_reads_from_many_threads(self, container, slabs):
        # bytes sources have no fd -> exercises the seek-lock fallback
        with ChunkedFile(container) as f:
            expected_chunks = [f.chunk(i) for i in range(f.n_chunks)]
            expected_slabs = [f.read(s) for s in slabs]
            errors = _hammer(f, expected_chunks, expected_slabs, slabs)
        assert not errors, errors[:5]

    def test_concurrent_reads_share_one_open_handle(self, container_path):
        # the whole point: no per-thread reopen is needed for safety
        with ChunkedFile(container_path) as f:
            results = []

            def read_all():
                results.append(f.to_array())

            threads = [
                threading.Thread(target=read_all) for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert len(results) == 4
            for out in results[1:]:
                assert np.array_equal(out, results[0])
