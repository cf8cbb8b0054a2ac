"""Snapshot of the public API surface: names and facade signatures.

The facade contract is that ``repro``'s top level is small, stable, and
routed — so the surface itself is under test.  A symbol appearing or
vanishing, or a facade parameter being renamed/reordered, must show up
as a reviewed diff of this file, not as a silent change discovered by a
downstream caller.
"""

import inspect

import pytest

import repro

#: every name importable from the top-level package (``repro.<name>``)
PUBLIC_SYMBOLS = [
    "ChunkedFile",
    "CompressionError",
    "Compressor",
    "ConfigurationError",
    "DecompressionError",
    "ErrorBound",
    "FrozenPlan",
    "MGARDPlus",
    "QoZ",
    "ReproError",
    "SZ2",
    "SZ3",
    "ZFP",
    "__version__",
    "available_compressors",
    "bit_rate",
    "compress",
    "compression_ratio",
    "decompress",
    "error_autocorrelation",
    "get_compressor",
    "open",
    "psnr",
    "ssim",
]

#: pinned parameter lists of the facade (names, order, defaults)
FACADE_SIGNATURES = {
    "compress": (
        "(data, codec='qoz', bound=None, chunks=None, chunked=None, "
        "file=None, codec_kwargs=None, processes=None, "
        "per_chunk_tuning=False, plan=None, client=None, **service_kwargs)"
    ),
    "decompress": "(source, processes=None, client=None, **service_kwargs)",
    "open": "(source, verify=True)",
}


def _unannotated(func) -> str:
    """``inspect.signature`` with annotations and return type stripped."""
    sig = inspect.signature(func)
    params = [
        p.replace(annotation=inspect.Parameter.empty)
        for p in sig.parameters.values()
    ]
    return str(
        sig.replace(
            parameters=params, return_annotation=inspect.Signature.empty
        )
    )


def test_public_symbol_set_is_pinned():
    assert sorted(repro.__all__) == PUBLIC_SYMBOLS


def test_every_public_symbol_resolves():
    for name in PUBLIC_SYMBOLS:
        assert getattr(repro, name) is not None


def test_dir_matches_all():
    assert sorted(set(dir(repro)) & set(PUBLIC_SYMBOLS)) == PUBLIC_SYMBOLS


@pytest.mark.parametrize("name,expected", sorted(FACADE_SIGNATURES.items()))
def test_facade_signatures_are_pinned(name, expected):
    assert _unannotated(getattr(repro, name)) == expected


def test_facade_module_exports_exactly_the_facade():
    import repro.api

    assert repro.api.__all__ == ["compress", "decompress", "open"]


#: what ``repro.chunked`` exports: types and the verifier, but no compress,
#: decompress or hyperslab function — those enter through the facade only
CHUNKED_SYMBOLS = [
    "ChunkFault",
    "ChunkGrid",
    "ChunkedFile",
    "ChunkedWriter",
    "ContainerInfo",
    "DEFAULT_CHUNK",
    "VerifyReport",
    "grid_for",
    "normalize_chunk_shape",
    "read_container_info",
    "verify_container",
]


def test_the_chunked_layer_is_no_second_door():
    import repro.chunked

    assert sorted(repro.chunked.__all__) == CHUNKED_SYMBOLS


def test_error_bound_surface():
    eb = repro.ErrorBound
    assert eb.MODES == ("abs", "rel")
    assert _unannotated(eb.parse) == "(spec)"
    parsed = eb.parse("rel:1e-3")
    assert (parsed.mode, parsed.value) == ("rel", 1e-3)
    assert str(parsed) == "rel:0.001"
    assert eb.absolute(0.5).kwargs() == {"error_bound": 0.5}
    assert eb.relative(0.5).kwargs() == {"rel_error_bound": 0.5}
