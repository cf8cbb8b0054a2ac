"""Registry ↔ reality: wire_registry constants vs live code vs golden bytes.

The ``wire_drift`` structure pin (``tests/parallel/test_structure.py``)
holds source code to the registry; these tests pin the registry to
the *actual bytes* of the committed golden fixtures and the live
protocol encoder, closing the loop.  If any of the three drifts, one
side of a test here goes red."""

from pathlib import Path

import numpy as np
import pytest

from repro.wire_registry import WIRE_SPECS, spec_for

GOLDEN = Path(__file__).resolve().parents[1] / "data" / "golden" / "golden_streams.npz"


@pytest.fixture(scope="module")
def golden():
    return np.load(GOLDEN)


@pytest.fixture(scope="module")
def header_spec():
    return spec_for("repro/core/header.py")


@pytest.fixture(scope="module")
def protocol_spec():
    return spec_for("repro/service/protocol.py")


def test_every_registered_module_exists():
    src = Path(__file__).resolve().parents[2] / "src"
    for spec in WIRE_SPECS:
        assert (src / spec.module).is_file(), spec.module


def test_registry_matches_live_header_module(header_spec):
    from repro.core import header

    assert header.MAGIC == header_spec.constants["MAGIC"]
    assert header.VERSION == header_spec.constants["VERSION"]
    assert header.FLAG_CHUNKED == header_spec.constants["FLAG_CHUNKED"]


def test_registry_matches_live_protocol_module(protocol_spec):
    from repro.service import protocol

    for name, expected in protocol_spec.constants.items():
        assert getattr(protocol, name) == expected, name


def test_registry_matches_live_slab_module():
    from repro.parallel import slab

    spec = spec_for("repro/parallel/slab.py")
    for name, expected in spec.constants.items():
        assert getattr(slab, name) == expected, name
    # the array job ships its array under the registered descriptor
    assert slab.ArrayJob._fields == tuple(
        spec.constants["ARRAY_JOB_LAYOUT"].split(",")
    )
    assert slab.ChunkDescriptor._fields == tuple(
        spec.constants["SLAB_DESCRIPTOR_LAYOUT"].split(",")
    )
    assert slab.DecodePart._fields == tuple(
        spec.constants["DECODE_PART_LAYOUT"].split(",")
    )


def test_decode_parts_are_built_in_the_registered_layout():
    from repro.chunked import ChunkedFile, compress_chunked
    from repro.parallel.slab import DecodePart

    class Recorder:
        """Stands in for the pool: keeps what ``submit_read`` ships."""

        def submit_decode_parts(self, parts, out_shape, out_dtype):
            self.parts, self.out = parts, (out_shape, out_dtype)
            return "future"

    def bounds(slices):
        return tuple((s.start, s.stop) for s in slices)

    blob = compress_chunked(
        np.zeros((8, 8), dtype=np.float32), codec="zfp",
        error_bound=1e-3, chunks=4,
    )
    slab = (slice(2, 6), slice(0, 8))
    pool = Recorder()
    with ChunkedFile(blob) as f:
        assert f.submit_read(slab, pool) == "future"
        assert pool.out == ((4, 8), f.dtype)
        _, plan = f.slab_plan(slab)
        assert len(pool.parts) == len(plan) == 4
        for part, (i, src, dst) in zip(pool.parts, plan):
            entry = f.info.entries[i]
            assert DecodePart._make(part) == DecodePart(
                f.chunk_bytes(i), bounds(src), bounds(dst), i, entry.start,
                entry.shape,
            )


def test_golden_codec_blobs_start_with_registered_magic(golden, header_spec):
    magic = header_spec.constants["MAGIC"]
    version = header_spec.constants["VERSION"]
    checked = 0
    for key in golden.files:
        if not (key.startswith("codec_") and key.endswith("__blob")):
            continue
        blob = bytes(golden[key])
        assert blob[:4] == magic, key
        expected_version = 1 if "_v1_" in key or key.endswith("_v1__blob") else version
        assert blob[4] == expected_version, key
        checked += 1
    assert checked >= 5  # qoz, sz3, sz2, zfp, mgard (+ the v1 variant)


def test_golden_v1_variant_prevents_version_retirement(golden):
    # the committed v1-header stream keeps "accept every version ever
    # written" honest: bumping VERSION without keeping the v1 branch
    # readable fails decode tests, and re-registering v1 bytes as v2
    # fails here
    blob = bytes(golden["codec_sz3_v1__blob"])
    assert blob[4] == 1


def test_live_request_bytes_carry_registered_protocol_version(protocol_spec):
    from repro.service.protocol import PingRequest, encode_request, frame

    version = protocol_spec.constants["PROTOCOL_VERSION"]
    body = encode_request(PingRequest())
    assert body[0] == version
    assert body[1] == protocol_spec.constants["OP_PING"]

    framed = frame(body)
    length = int.from_bytes(framed[:4], "little")
    assert length == len(body)
    assert length <= protocol_spec.constants["MAX_FRAME"]


def test_registered_formats_are_valid_struct_formats():
    import struct

    for spec in WIRE_SPECS:
        for fmt in spec.formats:
            concrete = fmt.replace("{}", "3")
            struct.calcsize(concrete)  # raises on an invalid format
            assert fmt.startswith("<"), f"{spec.module}: {fmt} not little-endian"
