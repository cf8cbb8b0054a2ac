"""The facade routes: every source kind decodes, and a call it cannot
route fails typed.  That every route writes the same bytes and decodes
the same array is P2 (``tests/api/test_route_matrix.py``).
"""

import io
import warnings

import numpy as np
import pytest

import repro
from inputs import walk
from repro.compressors.base import decompress_any, get_compressor
from repro.errors import CompressionError, DecompressionError


@pytest.fixture(scope="module")
def field():
    return walk((24, 20, 12), 7, np.float32)


BOUNDS = [
    # (facade bound= spelling, codec-level kwargs) — all four accepted forms
    ("abs:1e-3", {"error_bound": 1e-3}),
    ("rel:1e-3", {"rel_error_bound": 1e-3}),
    (("rel", 1e-3), {"rel_error_bound": 1e-3}),
    (1e-3, {"error_bound": 1e-3}),
]


class TestDecompressSources:
    """One reader for every source kind: a plain stream and a container
    decode the same from bytes, a path and an open file."""

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
        # a codec class decodes only its own plain stream; the facade
        # reads both kinds
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
