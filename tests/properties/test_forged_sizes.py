"""P3 for declared sizes: a forged size fails typed, small and fast.

Every case starts from an honest input — a plain stream of each codec in
both dtypes; a chunked container (v3, and v2 ones whose header carries
no checksum, sz3 and zfp) decoded whole or read by hyperslab, through the
library and through the in-process ``ServiceClient``, each read also with
``processes=2`` (chunks decoded on pool workers); a service protocol
request or response body — and forges it once:

* a 1-, 2-, 4- or 8-byte window overwritten with an adversarial size, in
  either byte order;
* a single-bit flip, or a truncation;
* one section of a plain stream replaced by a self-consistent symbol
  stream that declares 2**62 symbols (a decompression bomb only the
  declared-size checks can refuse).

The decode must then raise a :class:`~repro.errors.ReproError` or return
what the forged input declares (an array of the header's shape and dtype,
a protocol message); its traced peak stays within 4x the honest decode's
plus 8 MiB, and it finishes within 2 s (DESIGN.md §11).

The seeded slice also records every function it runs
(``sys.setprofile`` / ``threading.setprofile``): each decode-path function
that calls a numpy allocator must be among them, so a new decoder is
fuzzed from the day it lands.  ``-m soak`` runs a 20x longer slice.
"""

import ast
import fnmatch
import io
import os
import re
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings, strategies as st

import repro
from repro.chunked import ChunkedFile
from repro.chunked.container import ChunkedWriter
from repro.compressors.base import get_compressor
from repro.core.header import VERSION, pack_sections, parse_header, unpack_sections
from repro.datasets import get_dataset
from repro.encoding.bitstream import BitWriter
from repro.encoding.huffman import HuffmanCode
from repro.encoding.rle import RUN_CLASSES
from repro.errors import ChunkCorruptionError, ReproError
from repro.service import ServiceClient, ServiceConfig, protocol

CODECS = ("qoz", "sz3", "sz2", "zfp", "mgard")
SLICE_EXAMPLES = 1500
MAX_SECONDS = 2.0
SLACK_BYTES = 8 << 20
SLAB = (slice(5, 19), slice(3, 21), slice(2, 10))
#: written into a window, masked to its width
SIZES = (0, 1, 2**7, 2**8 - 1, 2**15, 2**16 - 1, 2**31, 2**32 - 1, 2**63, 2**64 - 1)
#: forgeries land here most of the time: headers, section tables, the
#: chunk index and the entropy tables all sit in the first bytes
HEAD_BYTES = 512


class Target(NamedTuple):
    blob: bytes
    #: ``(clients, forged bytes) -> result``
    decode: Callable
    #: ``(forged bytes, result)``: asserts the result is what was declared
    declared: Callable


class Clients(NamedTuple):
    serial: ServiceClient
    #: ``processes=2``: a read's chunks decode on its pool's workers
    pooled: ServiceClient


@contextmanager
def serving():
    with ServiceClient() as serial, \
            ServiceClient(ServiceConfig(processes=2)) as pooled:
        yield Clients(serial, pooled)


def array_as_header_says(forged, out, slab=None):
    header, _ = parse_header(forged)
    shape = header.shape
    if slab is not None:
        shape = tuple(len(range(*s.indices(n))) for s, n in zip(slab, shape))
    assert out.shape == shape and out.dtype == header.dtype


def slab_as_header_says(forged, out):
    array_as_header_says(forged, out, SLAB)


def read_slab(_, blob, processes=None):
    with ChunkedFile(blob) as f:
        return f.read(SLAB, processes=processes)


def as_v2(container):
    """The same container written by a v2 writer (no checksums)."""
    buf = io.BytesIO()
    with ChunkedFile(container) as f:
        writer = ChunkedWriter(
            buf, f.info.header.codec_id, f.dtype, f.grid, f.error_bound,
            version=VERSION,
        )
        for i in f.grid:
            writer.write_chunk(i, f.chunk_bytes(i))
        writer.finalize()
    return buf.getvalue()


@lru_cache(maxsize=None)
def corpus():
    targets = {}
    field = get_dataset("miranda", shape=(24, 24, 24))
    for dtype in (np.float32, np.float64):
        data = field.astype(dtype)
        tag = np.dtype(dtype).name
        for codec in CODECS:
            targets[f"{codec}-{tag}"] = Target(
                get_compressor(codec).compress(data, rel_error_bound=1e-3),
                lambda _, b: repro.decompress(b),
                array_as_header_says,
            )
        container = repro.compress(
            data, codec="sz3", chunks=(12, 24, 12), bound="rel:1e-3"
        )
        containers = {f"v3-{tag}": container}
        if dtype is np.float64:
            containers["v2-float64"] = as_v2(container)
        else:
            # zfp decodes a chunk whose header declares another shape:
            # the case the index-entry check exists for
            containers["v2zfp-float32"] = as_v2(repro.compress(
                data, codec="zfp", chunks=(12, 24, 12), bound="rel:1e-3"
            ))
        for name, blob in containers.items():
            targets[f"{name}-decode"] = Target(
                blob, lambda _, b: repro.decompress(b), array_as_header_says
            )
            targets[f"{name}-read"] = Target(blob, read_slab, slab_as_header_says)
            targets[f"{name}-pool-read"] = Target(
                blob, lambda c, b: read_slab(c, b, processes=2), slab_as_header_says
            )
            targets[f"{name}-serve-decode"] = Target(
                blob, lambda c, b: c.serial.decompress(b), array_as_header_says
            )
            targets[f"{name}-serve-read"] = Target(
                blob, lambda c, b: c.serial.read(b, SLAB), slab_as_header_says
            )
            targets[f"{name}-pool-serve-read"] = Target(
                blob, lambda c, b: c.pooled.read(b, SLAB), slab_as_header_says
            )

    def message(kind):
        def declared(forged, out):
            assert isinstance(out, kind)
        return declared

    requests = {
        "compress": protocol.CompressRequest(
            data=field[:4, :5, :6], codec="sz3", codec_kwargs={"method": "cubic"},
            bound="rel:1e-3", chunks=(2, 3, 4), family="climate",
            priority="batch", client_id="c1", deadline_ms=500.0,
        ),
        "decompress": protocol.DecompressRequest(blob=targets["sz3-float32"].blob),
        "read": protocol.ReadSlabRequest(source=container, slab=SLAB),
    }
    for name, req in requests.items():
        targets[f"request-{name}"] = Target(
            protocol.encode_request(req),
            lambda _, b: protocol.decode_request(b),
            message(type(req)),
        )
    responses = {
        "array": (protocol.encode_ok_array(field[:4, :5, :6]), protocol.OP_DECOMPRESS),
        "bytes": (protocol.encode_ok_bytes(b"\x07" * 64), protocol.OP_COMPRESS),
        "stats": (
            protocol.encode_ok_kv({"a": 1, "b": 2.5, "c": True, "d": "x"}),
            protocol.OP_STATS,
        ),
        "retry": (protocol.encode_retry(0.25, "queue-full"), protocol.OP_COMPRESS),
        "error": (protocol.encode_error("boom"), protocol.OP_READ_SLAB),
    }
    for name, (body, op) in responses.items():
        targets[f"response-{name}"] = Target(
            body,
            lambda _, b, op=op: protocol.decode_response(b, op),
            message(protocol.Response),
        )
    return targets


def symbol_bomb(count=2**62):
    """A self-consistent symbol stream of ``count`` zeros (one run)."""
    k = count.bit_length() - 1
    w = BitWriter()
    w.write_uint(count, 64)
    w.write_uint(0, 32)  # lo
    w.write_uint(1, 32)  # alphabet
    w.write_uint(1, 1)  # run tokens
    w.write_uint(0, 32)  # dominant
    w.write_uint(1, 64)  # tokens
    freqs = np.zeros(1 + RUN_CLASSES, dtype=np.int64)
    freqs[1 + k] = 1
    code = HuffmanCode.from_frequencies(freqs)
    code.serialize(w)
    code.encode(np.array([1 + k]), w)
    w.write_uint(count - (1 << k), k)
    return w.getvalue()


class Forgery(NamedTuple):
    target: str
    kind: str  # "window", "flip", "truncate" or "bomb"
    offset: int  # byte offset; the section index of a bomb
    width: int = 0  # window bytes
    value: int = 0  # the size written, or the bit flipped
    order: str = "little"

    def apply(self, blob):
        if self.kind == "truncate":
            return blob[: self.offset]
        if self.kind == "flip":
            out = bytearray(blob)
            out[self.offset] ^= 1 << self.value
            return bytes(out)
        if self.kind == "bomb":
            _, off = parse_header(blob)
            sections = unpack_sections(blob, off)
            sections[self.offset] = symbol_bomb()
            return blob[:off] + pack_sections(sections)
        offset = min(self.offset, len(blob) - self.width)
        window = self.value.to_bytes(self.width, self.order)
        return blob[:offset] + window + blob[offset + self.width:]


@st.composite
def forgeries(draw):
    name = draw(st.sampled_from(sorted(corpus())))
    blob = corpus()[name].blob
    if name.split("-")[0] in CODECS and draw(st.integers(0, 9)) == 0:
        _, off = parse_header(blob)
        count = len(unpack_sections(blob, off))
        return Forgery(name, "bomb", draw(st.integers(0, count - 1)))
    offset = draw(st.one_of(
        st.integers(0, min(len(blob), HEAD_BYTES) - 1),
        st.integers(0, len(blob) - 1),
    ))
    kind = draw(st.sampled_from(("window", "window", "flip", "truncate")))
    if kind == "window":
        width = draw(st.sampled_from((1, 2, 4, 8)))
        value = draw(st.sampled_from(SIZES)) & ((1 << 8 * width) - 1)
        order = draw(st.sampled_from(("little", "big")))
        return Forgery(name, kind, offset, width, value, order)
    if kind == "flip":
        return Forgery(name, kind, offset, value=draw(st.integers(0, 7)))
    return Forgery(name, kind, offset)


def traced(decode, *args):
    """``(result or None if it raised a ReproError, peak bytes, seconds)``.

    Tracing only the call keeps hypothesis's own allocations out of the
    peak, and the slice fast."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        out = decode(*args)
    except ReproError:
        out = None
    finally:
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return out, peak, elapsed


_honest_peaks = {}


def honest_peak(clients, name):
    if name not in _honest_peaks:
        target = corpus()[name]
        target.decode(clients, target.blob)  # first-use caches
        out, peak, _ = traced(target.decode, clients, target.blob)
        assert out is not None, name
        _honest_peaks[name] = peak
    return _honest_peaks[name]


def check_forgery(clients, forgery):
    """The requirement, for one forged case."""
    target = corpus()[forgery.target]
    budget = 4 * honest_peak(clients, forgery.target) + SLACK_BYTES
    forged = forgery.apply(target.blob)
    out, peak, elapsed = traced(target.decode, clients, forged)
    if out is not None:
        target.declared(forged, out)
    assert peak <= budget, f"traced peak {peak} > {budget}"
    assert elapsed <= MAX_SECONDS, f"took {elapsed:.2f} s"


def forged_sizes_property(clients, examples, seed_value):
    @seed(seed_value)
    @settings(
        max_examples=examples, database=None, deadline=None,
        suppress_health_check=list(HealthCheck),
    )
    @given(forgery=forgeries())
    def forged_decode_fails_typed_and_bounded(forgery):
        check_forgery(clients, forgery)

    forged_decode_fails_typed_and_bounded()


@contextmanager
def profiled(codes):
    """Collect the code object of every call, on every thread started
    inside the block too."""

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(hook)
    threading.setprofile(hook)
    try:
        yield
    finally:
        threading.setprofile(None)
        sys.setprofile(None)


_runs = {}


def run_slice(examples, seed_value):
    """Run one seeded slice (once per session); the code objects it ran."""
    key = (examples, seed_value)
    if key not in _runs:
        codes = set()
        with profiled(codes), serving() as clients:
            forged_sizes_property(clients, examples, seed_value)
        _runs[key] = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}
    return _runs[key]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # forged-value math
def test_forged_sizes_fail_typed_and_bounded():
    run_slice(SLICE_EXAMPLES, 0)


@pytest.mark.soak
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_forged_sizes_long_slice():
    run_slice(20 * SLICE_EXAMPLES, 1)


#: one forged case per site the property once found raising an untyped
#: error or overrunning its budget, keyed by that site; each holds
#: whatever seed the slice runs with
PINNED = {
    "engine-level_plan-qoz": Forgery("qoz-float32", "bomb", 0),
    "engine-level_plan-sz3": Forgery("sz3-float64", "bomb", 0),
    "zfp-_unblockify": Forgery("zfp-float32", "window", 17, 8, 2**64 - 1),
    "bitstream-_extract": Forgery("zfp-float32", "window", 18, 8, 2**64 - 1),
    "container-read_container_info": Forgery("zfp-float32", "window", 8, 4, 2**32 - 1),
    "api-_read_at-offset": Forgery("v3-float64-read", "window", 101, 8, 128, "big"),
    "api-_read_at-length": Forgery("v2-float64-decode", "window", 214, 4, 2**15, "big"),
    "api-to_array-v2": Forgery("v2-float64-decode", "flip", 165, value=6),
    "api-to_array-v3": Forgery("v3-float32-decode", "window", 155, 4, 1),
    "api-read": Forgery("v3-float32-read", "window", 91, 2, 128),
    "utils-ceil_div": Forgery("v2-float64-serve-decode", "window", 31, 8, 2**16 - 1),
    "scheduler-_read": Forgery("v3-float64-serve-decode", "window", 100, 4, 128),
    "protocol-string": Forgery("response-error", "window", 4, 1, 255, "big"),
    "protocol-_unpack_array-dtype": Forgery("response-array", "flip", 6, value=6),
    "protocol-_unpack_array-descr": Forgery("response-array", "flip", 4, value=4),
    "mgard-budget": Forgery("mgard-float32", "flip", 171, value=0),
    "executor-_decode_parts": Forgery(
        "v2zfp-float32-pool-read", "flip", 286, value=2
    ),
    "executor-_decode_parts-served": Forgery(
        "v2zfp-float32-pool-serve-read", "flip", 286, value=2
    ),
}

#: chunk streams of the zfp container forged to declare another shape
#: than their index entries: chunk 0 as (8, 24, 12), which the slab's
#: part of it cannot fill, and chunk 2 as (1, 24, 12), which numpy would
#: broadcast over the slab's seven rows of it without a word
SHAPE_FORGERIES = {
    "short": Forgery("v2zfp-float32-read", "flip", 286, value=2),
    "broadcast": Forgery("v2zfp-float32-read", "window", 7707, 1, 1),
}


@pytest.fixture(scope="module")
def clients():
    with serving() as c:
        yield c


@pytest.mark.parametrize("forgery", list(PINNED.values()), ids=list(PINNED))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_pinned_forgery_fails_typed_and_bounded(clients, forgery):
    check_forgery(clients, forgery)


@pytest.mark.parametrize("route", ["read", "pool-read", "serve-read", "pool-serve-read"])
@pytest.mark.parametrize("forgery", list(SHAPE_FORGERIES.values()), ids=list(SHAPE_FORGERIES))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_chunk_of_another_shape_is_corruption_on_every_read_route(
    clients, route, forgery
):
    target = corpus()[f"v2zfp-float32-{route}"]
    with pytest.raises(ChunkCorruptionError, match="disagrees with index entry"):
        target.decode(clients, forgery.apply(target.blob))


# ---------------------------------------------------------------------------
# forward reach: RL001's scope and name pattern, numpy's allocators
# ---------------------------------------------------------------------------

SRC = Path(repro.__file__).resolve().parent
DECODE_SCOPE = ("encoding/*", "compressors/*", "core/stream.py", "core/header.py",
                "chunked/*", "service/*")
DECODE_NAME = re.compile(r"(^|_)(decode|decompress|unpack|deserialize|detokenize|parse|read)")
ALLOCATORS = {"empty", "zeros", "ones", "full", "repeat", "frombuffer"}
FUNCTION = (ast.FunctionDef, ast.AsyncFunctionDef)


def functions(node, scope=()):
    """``(qualified name, def)`` of every function under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.ClassDef, *FUNCTION)):
            inner = scope + (child.name,)
            if isinstance(child, FUNCTION):
                yield ".".join(inner), child
        yield from functions(child, inner)


def own_calls(func):
    """Calls in a function's body, not in the functions it defines."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, FUNCTION):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def allocating_decoders():
    """``{(path, first line): 'module:qualname'}`` of every decode-path
    function that calls a numpy allocator."""
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if not any(fnmatch.fnmatch(rel, glob) for glob in DECODE_SCOPE):
            continue
        for name, func in functions(ast.parse(path.read_text())):
            if DECODE_NAME.search(func.name) and any(
                isinstance(call.func, ast.Attribute)
                and call.func.attr in ALLOCATORS
                and getattr(call.func.value, "id", "") in ("np", "numpy")
                for call in own_calls(func)
            ):
                first = min([func.lineno] + [d.lineno for d in func.decorator_list])
                found[(str(path), first)] = f"{rel}:{name}"
    return found


def test_the_slice_reaches_every_allocating_decoder():
    decoders = allocating_decoders()
    assert "chunked/api.py:ChunkedFile.read" in decoders.values()
    reached = run_slice(SLICE_EXAMPLES, 0)
    missed = sorted(name for key, name in decoders.items() if key not in reached)
    assert missed == [], f"decoders the forged-size slice never runs: {missed}"
