"""The facade must be a router, not a re-implementation: byte parity.

Every route through :func:`repro.compress` / :func:`repro.decompress` /
:func:`repro.open` is checked against the legacy entry point it routes
to — identical bytes out, identical arrays back.
"""

import io
import warnings

import numpy as np
import pytest

import repro
from repro.chunked import api as chunked_api
from repro.compressors.base import decompress_any, get_compressor
from repro.errors import CompressionError


@pytest.fixture(scope="module")
def field():
    rng = np.random.default_rng(7)
    x = np.cumsum(rng.standard_normal((24, 20, 12)), axis=0)
    return (x / np.abs(x).max()).astype(np.float32)


BOUNDS = [
    # (facade bound= spelling, legacy kwargs) — all four accepted forms
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

    def test_legacy_kwargs_accepted_on_the_facade_too(self, field):
        assert repro.compress(field, error_bound=1e-3) == repro.compress(
            field, bound="abs:1e-3"
        )
        assert repro.compress(field, rel_error_bound=1e-3) == repro.compress(
            field, bound="rel:1e-3"
        )


class TestChunkedRoute:
    @pytest.mark.parametrize("processes", [None, 2])
    def test_chunks_arg_routes_to_chunked_bytes(self, field, processes):
        facade = repro.compress(
            field, bound="rel:1e-3", chunks=10, processes=processes
        )
        legacy = chunked_api.compress_chunked(
            field, chunks=10, rel_error_bound=1e-3, processes=processes
        )
        assert facade == legacy
        np.testing.assert_array_equal(
            repro.decompress(facade, processes=processes),
            chunked_api.decompress_chunked(legacy),
        )

    def test_chunked_true_alone_selects_the_container_path(self, field):
        facade = repro.compress(field, bound=1e-3, chunked=True)
        legacy = chunked_api.compress_chunked(field, error_bound=1e-3)
        assert facade == legacy

    def test_file_arg_routes_to_container_on_disk(self, field, tmp_path):
        target = tmp_path / "facade.rpc"
        repro.compress(field, bound=1e-3, chunks=10, file=target)
        buf = io.BytesIO()
        chunked_api.compress_chunked_to_file(
            field, buf, chunks=10, error_bound=1e-3
        )
        assert target.read_bytes() == buf.getvalue()
        np.testing.assert_array_equal(
            repro.decompress(target),
            chunked_api.decompress_chunked(buf.getvalue()),
        )

    def test_open_read_matches_read_hyperslab(self, field):
        blob = repro.compress(field, bound=1e-3, chunks=10)
        slab = (slice(3, 17), slice(None), slice(2, 9))
        with repro.open(blob) as f:
            got = f.read(f.grid.normalize_slab(slab))
        np.testing.assert_array_equal(
            got, chunked_api.read_hyperslab(blob, slab)
        )


class TestRoutingErrors:
    def test_chunked_false_refuses_chunked_only_args(self, field):
        with pytest.raises(CompressionError, match="chunked=False"):
            repro.compress(field, bound=1e-3, chunked=False, chunks=8)

    def test_service_kwargs_require_a_client(self, field):
        with pytest.raises(CompressionError, match="client="):
            repro.compress(field, bound=1e-3, priority="batch")
        with pytest.raises(CompressionError, match="client="):
            repro.decompress(b"\x00", deadline_ms=5.0)

    def test_bound_spellings_are_exclusive(self, field):
        with pytest.raises(CompressionError, match="exactly one"):
            repro.compress(field, bound=1e-3, error_bound=1e-3)
        with pytest.raises(CompressionError, match="exactly one"):
            repro.compress(field)


class TestCanonicalSpellings:
    def test_canonical_chunked_spellings_do_not_warn(self, field):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            blob = chunked_api.compress_chunked(
                field, chunks=10, error_bound=1e-3
            )
            chunked_api.decompress_chunked(blob)
