"""The facade must be a router, not a re-implementation: byte parity.

Every route through :func:`repro.compress` / :func:`repro.decompress` /
:func:`repro.open` is checked against the layer it routes to (a codec
class, :class:`~repro.chunked.api.CompressJob`) — identical bytes out,
identical arrays back.
"""

import io
import warnings

import numpy as np
import pytest

import repro
from repro.chunked.api import CompressJob
from repro.compressors.base import decompress_any, get_compressor
from repro.chunked.container import read_container_info
from repro.errors import CompressionError, DecompressionError


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.standard_normal((24, 20, 12)), axis=0)
    return (x / np.abs(x).max()).astype(np.float32)


BOUNDS = [
    # (facade bound= spelling, codec-level kwargs) — all four accepted forms
    ("abs:1e-3", {"error_bound": 1e-3}),
    ("rel:1e-3", {"rel_error_bound": 1e-3}),
    (("rel", 1e-3), {"rel_error_bound": 1e-3}),
    (1e-3, {"error_bound": 1e-3}),
]


class TestSingleArrayRoute:
    @pytest.mark.parametrize("codec", ["qoz", "sz3"])
    @pytest.mark.parametrize("bound,legacy", BOUNDS)
    def test_bytes_match_direct_codec_call(self, field, codec, bound, legacy):
        facade = repro.compress(field, codec=codec, bound=bound)
        direct = get_compressor(codec).compress(field, **legacy)
        assert facade == direct
        np.testing.assert_array_equal(
            repro.decompress(facade), decompress_any(direct)
        )



def _job_bytes(field, chunks, processes=None):
    """The container the layer under the facade writes."""
    buf = io.BytesIO()
    CompressJob(
        field, "qoz", chunks, None, repro.ErrorBound.parse("rel:1e-3")
    ).compress_to(buf, processes)
    return buf.getvalue()


class TestChunkedRoute:
    @pytest.mark.parametrize("processes", [None, 2])
    def test_chunks_arg_routes_to_chunked_bytes(self, field, processes):
        facade = repro.compress(
            field, bound="rel:1e-3", chunks=10, processes=processes
        )
        assert facade == _job_bytes(field, 10, processes)
        with repro.open(facade) as f:
            whole = f.to_array()
        np.testing.assert_array_equal(
            repro.decompress(facade, processes=processes), whole
        )

    def test_chunked_true_alone_selects_the_container_path(self, field):
        facade = repro.compress(field, bound="rel:1e-3", chunked=True)
        assert facade == _job_bytes(field, None)

    def test_file_arg_routes_to_container_on_disk(self, field, tmp_path):
        target = tmp_path / "facade.rpc"
        repro.compress(field, bound=1e-3, chunks=10, file=target)
        buf = io.BytesIO()
        repro.compress(field, file=buf, chunks=10, bound=1e-3)
        assert target.read_bytes() == buf.getvalue()
        np.testing.assert_array_equal(
            repro.decompress(target),
            repro.decompress(buf.getvalue()),
        )

    def test_open_read_matches_the_whole_decode(self, field):
        blob = repro.compress(field, bound=1e-3, chunks=10)
        slab = (slice(3, 17), slice(None), slice(2, 9))
        with repro.open(blob) as f:
            got = f.read(slab)
        np.testing.assert_array_equal(got, repro.decompress(blob)[slab])


class TestDecompressSources:
    """One header read routes every source kind: a plain stream and a
    container decode the same from bytes, a path and an open file."""

    @pytest.fixture(scope="class")
    def streams(self, field):
        return {
            "plain": repro.compress(field, bound=1e-3),
            "container": repro.compress(field, bound=1e-3, chunks=10),
        }

    @pytest.mark.parametrize("kind", ["plain", "container"])
    @pytest.mark.parametrize("source", ["bytes", "path", "BytesIO"])
    def test_every_source_kind_decodes(self, streams, tmp_path, kind, source):
        blob = streams[kind]
        if source == "path":
            arg = tmp_path / f"{kind}.rpz"
            arg.write_bytes(blob)
        elif source == "BytesIO":
            arg = io.BytesIO(blob)
        else:
            arg = blob
        np.testing.assert_array_equal(
            repro.decompress(arg), decompress_any(blob)
        )

    def test_an_open_file_stays_open(self, streams, tmp_path):
        path = tmp_path / "plain.rpz"
        path.write_bytes(streams["plain"])
        with io.open(path, "rb") as fh:
            repro.decompress(fh)
            assert not fh.closed

    def test_the_wrong_kind_of_stream_names_the_facade(self, streams):
        with pytest.raises(DecompressionError) as err:
            read_container_info(io.BytesIO(streams["plain"]))
        assert "repro.decompress()" in str(err.value)
        assert "decompress_any" not in str(err.value)
        with pytest.raises(DecompressionError) as err:
            get_compressor("qoz").decompress(streams["container"])
        assert "repro.decompress() or repro.open()" in str(err.value)


class TestRoutingErrors:
    def test_chunked_false_refuses_chunked_only_args(self, field):
        with pytest.raises(CompressionError, match="chunked=False"):
            repro.compress(field, bound=1e-3, chunked=False, chunks=8)

    def test_service_kwargs_require_a_client(self, field):
        with pytest.raises(CompressionError, match="client="):
            repro.compress(field, bound=1e-3, priority="batch")
        with pytest.raises(CompressionError, match="client="):
            repro.decompress(b"\x00", deadline_ms=5.0)

    def test_bound_is_required(self, field):
        with pytest.raises(CompressionError, match="error bound"):
            repro.compress(field)

    @pytest.mark.parametrize("legacy", ["error_bound", "rel_error_bound"])
    def test_removed_bound_spellings_fail_loudly(self, field, legacy):
        with pytest.raises(CompressionError, match=legacy):
            repro.compress(field, bound=1e-3, **{legacy: 1e-3})


class TestCanonicalSpellings:
    def test_canonical_chunked_spellings_do_not_warn(self, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            blob = repro.compress(field, chunks=10, bound=1e-3)
            repro.decompress(blob)
