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


#: each library codec's constructor parameters, in order: only what a
#: caller sets.  Fixed configuration (anchor stride, sample block and rate,
#: block edge, quantizer radius) is module constants read at derive time,
#: so a knob can come back only together with a caller that sets it
CODEC_PARAMETERS = {
    "MGARDPlus": [],
    "QoZ": ["metric", "selection", "tune", "alpha", "beta"],
    "SZ2": [],
    "SZ3": ["method"],
    "ZFP": [],
}


def test_codec_constructors_take_only_the_kept_parameters():
    for name, expected in CODEC_PARAMETERS.items():
        codec = getattr(repro, name)
        assert codec.name in repro.available_compressors()
        assert list(inspect.signature(codec).parameters) == expected, name


def test_the_registry_builds_codecs_by_name():
    assert repro.get_compressor("qoz", metric="ssim").metric == "ssim"
    with pytest.raises(KeyError):
        repro.get_compressor("lzma")


def test_compress_fields_parallel_spells_the_bound_as_the_facade_does():
    # bound= only: no error_bound= / rel_error_bound= above the codecs
    from repro.parallel import compress_fields_parallel

    assert _unannotated(compress_fields_parallel) == (
        "(fields, codec_name, codec_kwargs=None, bound=None, processes=None)"
    )


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
