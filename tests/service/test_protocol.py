"""Wire-format tests: every message round-trips, every bomb is defused."""

import struct

import numpy as np
import pytest

from repro.errors import ProtocolError
from repro.service import protocol as p


def roundtrip_request(req):
    return p.decode_request(p.encode_request(req))


class TestRequestRoundtrip:
    def test_ping(self):
        assert isinstance(roundtrip_request(p.PingRequest()), p.PingRequest)

    def test_stats(self):
        assert isinstance(roundtrip_request(p.StatsRequest()), p.StatsRequest)

    @pytest.mark.parametrize("chunks", [None, 32, (16, 8, 24), (4,)])
    def test_compress_fields_survive(self, chunks):
        data = np.arange(60, dtype=np.float32).reshape(3, 4, 5)
        req = p.CompressRequest(
            data=data,
            codec="qoz",
            codec_kwargs={"metric": "psnr", "radius": 16, "tune": True},
            rel_error_bound=1e-3,
            chunks=chunks,
            family="hurricane-U",
            per_chunk_tuning=True,
        )
        out = roundtrip_request(req)
        assert out.codec == "qoz"
        assert out.codec_kwargs == {"metric": "psnr", "radius": 16, "tune": True}
        assert out.error_bound is None
        assert out.rel_error_bound == 1e-3
        assert out.chunks == chunks
        assert out.family == "hurricane-U"
        assert out.per_chunk_tuning is True
        assert out.data.dtype == data.dtype
        assert np.array_equal(out.data, data)

    def test_compress_abs_bound_and_defaults(self):
        req = p.CompressRequest(
            data=np.zeros(7, dtype=np.float64), error_bound=0.25
        )
        out = roundtrip_request(req)
        assert out.error_bound == 0.25
        assert out.rel_error_bound is None
        assert out.family is None
        assert out.chunks is None
        assert out.per_chunk_tuning is False

    def test_compress_array_is_writable(self):
        req = p.CompressRequest(
            data=np.ones((2, 3), dtype=np.float32), error_bound=1.0
        )
        out = roundtrip_request(req)
        out.data[0, 0] = 5.0  # must not raise (frombuffer default is RO)

    def test_compress_requires_exactly_one_bound(self):
        data = np.zeros(4, dtype=np.float32)
        with pytest.raises(ProtocolError):
            p.encode_request(p.CompressRequest(data=data))
        with pytest.raises(ProtocolError):
            p.encode_request(
                p.CompressRequest(
                    data=data, error_bound=1.0, rel_error_bound=1.0
                )
            )

    def test_decompress(self):
        out = roundtrip_request(p.DecompressRequest(blob=b"\x01\x02payload"))
        assert out.blob == b"\x01\x02payload"

    def test_read_slab_inline_bytes(self):
        slab = (slice(0, 16), slice(None), slice(8, 24))
        out = roundtrip_request(p.ReadSlabRequest(source=b"RPZ1...", slab=slab))
        assert out.source == b"RPZ1..."
        assert out.slab == slab

    def test_read_slab_path_and_open_dims(self):
        slab = (slice(None, 5), slice(3, None), slice(None))
        out = roundtrip_request(
            p.ReadSlabRequest(source="/data/field.rpz", slab=slab)
        )
        assert out.source == "/data/field.rpz"
        assert out.slab == slab

    def test_slab_rejects_strides(self):
        with pytest.raises(ProtocolError):
            p.encode_request(
                p.ReadSlabRequest(source=b"x", slab=(slice(0, 8, 2),))
            )

    def test_kwargs_reject_unencodable_types(self):
        req = p.CompressRequest(
            data=np.zeros(4, dtype=np.float32),
            error_bound=1.0,
            codec_kwargs={"alpha": [1, 2]},
        )
        with pytest.raises(ProtocolError):
            p.encode_request(req)


class TestResponseRoundtrip:
    def test_ok_bytes(self):
        resp = p.decode_response(p.encode_ok_bytes(b"abc"), p.OP_COMPRESS)
        assert resp.status == p.ST_OK and resp.blob == b"abc"

    def test_ok_array(self):
        arr = np.linspace(0, 1, 24).reshape(2, 3, 4).astype(np.float32)
        resp = p.decode_response(p.encode_ok_array(arr), p.OP_READ_SLAB)
        assert resp.status == p.ST_OK
        assert resp.array.dtype == arr.dtype
        assert np.array_equal(resp.array, arr)

    def test_ok_kv(self):
        stats = {"hits": 3, "ratio": 0.5, "codec": "qoz", "warm": True}
        resp = p.decode_response(p.encode_ok_kv(stats), p.OP_STATS)
        assert resp.mapping == stats

    def test_error(self):
        resp = p.decode_response(
            p.encode_error("boom\nsecret traceback"), p.OP_COMPRESS
        )
        assert resp.status == p.ST_ERROR
        assert resp.message == "boom"  # one line only

    def test_retry(self):
        resp = p.decode_response(p.encode_retry(0.125), p.OP_COMPRESS)
        assert resp.status == p.ST_RETRY
        assert resp.retry_after == 0.125


class TestBombProofing:
    def test_version_mismatch_rejected(self):
        body = bytearray(p.encode_request(p.PingRequest()))
        body[0] = 99
        with pytest.raises(ProtocolError, match="version"):
            p.decode_request(bytes(body))
        with pytest.raises(ProtocolError, match="version"):
            p.decode_response(bytes(body), p.OP_PING)

    def test_unknown_opcode_rejected(self):
        body = bytes([p.PROTOCOL_VERSION, 250])
        with pytest.raises(ProtocolError, match="opcode"):
            p.decode_request(body)

    def test_trailing_bytes_rejected(self):
        body = p.encode_request(p.PingRequest()) + b"\x00"
        with pytest.raises(ProtocolError, match="trailing"):
            p.decode_request(body)

    def test_truncated_field_rejected(self):
        body = p.encode_request(p.DecompressRequest(blob=b"x" * 100))[:-20]
        with pytest.raises(ProtocolError, match="truncated"):
            p.decode_request(body)

    def test_forged_blob_length_cannot_allocate(self):
        # u8 version, u8 op, empty meta kv, u64 blob length claiming
        # 2**60 bytes
        body = (
            bytes([p.PROTOCOL_VERSION, p.OP_DECOMPRESS])
            + struct.pack("<H", 0)
            + struct.pack("<Q", 1 << 60)
        )
        with pytest.raises(ProtocolError):
            p.decode_request(body)

    def test_forged_array_shape_rejected(self):
        # hand-build a compress body whose declared shape disagrees with
        # the shipped payload bytes
        w = p._Writer()
        w.u8(p.PROTOCOL_VERSION)
        w.u8(p.OP_COMPRESS)
        w.kv({})  # v2 request meta (priority/client_id/attempt)
        w.string("qoz")
        w.kv({})
        w.u8(0)
        w.f64(1.0)
        w.u8(0)
        w.string("")
        w.u8(0)
        w.string("<f4")
        w.u8(1)
        w.u64(1000)  # claims 1000 elements
        w.blob(b"\x00" * 32)  # ... but ships 8
        with pytest.raises(ProtocolError, match="imply"):
            p.decode_request(w.getvalue())

    def test_frame_cap_enforced_on_encode(self):
        with pytest.raises(ProtocolError):
            p.frame(b"x" * (p.MAX_FRAME + 1))


class TestRequestMeta:
    """v2 meta (priority / client_id / attempt) rides every work request."""

    def test_meta_roundtrips_on_compress(self):
        req = p.CompressRequest(
            data=np.zeros(4, dtype=np.float32), error_bound=1.0,
            priority="batch", client_id="sim-07", attempt=3,
        )
        out = roundtrip_request(req)
        assert out.priority == "batch"
        assert out.client_id == "sim-07"
        assert out.attempt == 3

    def test_meta_roundtrips_on_decompress_and_read(self):
        out = roundtrip_request(
            p.DecompressRequest(blob=b"abc", priority="batch",
                                client_id="c1", attempt=1)
        )
        assert (out.priority, out.client_id, out.attempt) == ("batch", "c1", 1)
        out = roundtrip_request(
            p.ReadSlabRequest(source=b"xyz", slab=(slice(0, 2),),
                              priority="batch", client_id="c2")
        )
        assert (out.priority, out.client_id) == ("batch", "c2")

    def test_default_meta_adds_no_bytes(self):
        # defaults are omitted from the wire: an all-default request
        # carries an empty meta kv, not three redundant entries
        plain = p.encode_request(p.DecompressRequest(blob=b"abc"))
        tagged = p.encode_request(
            p.DecompressRequest(blob=b"abc", priority="batch",
                                client_id="c", attempt=1)
        )
        assert len(plain) < len(tagged)
        out = p.decode_request(plain)
        assert out.priority == "interactive"
        assert out.client_id is None
        assert out.attempt == 0

    def test_shard_key_meta_from_an_old_client_is_ignored(self):
        """Unknown meta keys are skipped.  ``shard_key`` (written by
        clients up to wire-registry revision 3) is now one of them, so an
        old client keeps working against a new server."""
        req = p.CompressRequest(
            data=np.arange(16, dtype=np.float32).reshape(4, 4),
            codec="qoz", error_bound=1e-3, family="climate",
            priority="batch",
        )
        new = p.encode_request(req)
        # hand-build the old frame: same body, one more meta entry
        w = p._Writer()
        w.u8(p.PROTOCOL_VERSION)
        w.u8(p.OP_COMPRESS)
        w.kv({"priority": "batch", "shard_key": "pin-7"})
        r = p._Reader(new)
        r.u8(), r.u8(), r.kv()
        old = w.getvalue() + new[r._pos:]
        assert old != new
        a, b = p.decode_request(old), p.decode_request(new)
        assert not hasattr(a, "shard_key")
        np.testing.assert_array_equal(a.data, b.data)
        a.data = b.data = None
        assert a == b

    def test_invalid_priority_rejected_on_both_sides(self):
        req = p.DecompressRequest(blob=b"abc")
        req.priority = "urgent"
        with pytest.raises(ProtocolError, match="priority"):
            p.encode_request(req)  # never leaves the client
        w = p._Writer()  # ... and a forged body never enters the server
        w.u8(p.PROTOCOL_VERSION)
        w.u8(p.OP_DECOMPRESS)
        w.kv({"priority": "urgent"})
        w.blob(b"abc")
        with pytest.raises(ProtocolError, match="priority"):
            p.decode_request(w.getvalue())

    def test_validate_priority(self):
        p.validate_priority("interactive")
        p.validate_priority("batch")
        with pytest.raises(ProtocolError, match="priority"):
            p.validate_priority("bulk")

    def test_negative_attempt_rejected(self):
        req = p.DecompressRequest(blob=b"abc")
        req.attempt = -1
        with pytest.raises(ProtocolError):
            p.decode_request(p.encode_request(req))


class TestRetryReason:
    def test_retry_response_carries_reason(self):
        body = p.encode_retry(0.75, "client-quota")
        resp = p.decode_response(body, p.OP_PING)
        assert resp.status == p.ST_RETRY
        assert resp.retry_after == 0.75
        assert resp.reason == "client-quota"

    def test_retry_reason_defaults_to_overloaded(self):
        resp = p.decode_response(p.encode_retry(0.1), p.OP_PING)
        assert resp.reason == "overloaded"
