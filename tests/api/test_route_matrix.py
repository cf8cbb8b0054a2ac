"""P2, route identity: every route gives the same outcome.

Compress routes: the codec class, its derive-then-execute halves, the
facade's single-array call, ``compress_fields_parallel`` serially and
on two workers, and the chunked container written in-process, to a
path, with ``processes=2``, through an in-process :class:`ServiceClient`
(cold, then a warm plan-cache hit) and through a pooled one.  Decode
routes: the whole decode and a hyperslab read, serially, with
``processes=2``, and through both clients -- of a container, and of each
codec's plain stream, which every reader opens as a container of one
chunk (``repro.decompress`` from bytes, a path and an open file too),
each returning ``decompress_any``'s array.  Each compress is admit ->
derive -> execute through the same three implementations (DESIGN.md
§4), so for a valid probe -- every codec x ndim 1-4 x dtype, the single
routes under both bound modes -- the routes that chunk the same way
emit the same bytes and every decode route returns the same array; for
an invalid probe every route that accepts the argument raises the same
:class:`ReproError` subclass.  The in-process routes run on every
probe; the fan-out routes (a pool of two workers) only move bytes and
arrays between processes, so they run on one rank and dtype per codec.
"""

import io
import pathlib

import numpy as np
import pytest

import repro
from inputs import LIBRARY_CODECS, walk
from repro.chunked import ChunkedFile
from repro.compressors.base import (
    available_compressors,
    decompress_any,
    get_compressor,
)
from repro.errors import CompressionError
from repro.parallel import compress_fields_parallel, decompress_blobs_parallel
from repro.service import ServiceClient, ServiceConfig
from repro.utils import ErrorBound

SHAPE = (24, 20, 16)
CHUNKS = 12
#: ndim -> (shape, chunk shape): two chunks, cut along a different axis
#: per rank, so the hyperslab below spans both
TILINGS = {
    1: ((61,), (32,)),
    2: ((26, 21), (26, 11)),
    3: ((14, 12, 9), (7, 12, 9)),
    4: ((6, 5, 4, 7), (6, 3, 4, 7)),
}

CODECS = [
    pytest.param("qoz", {"metric": "cr"}, id="qoz-cr"),
    pytest.param("qoz", {"metric": "psnr"}, id="qoz-psnr"),
    pytest.param("sz3", {}, id="sz3"),
]
BOUNDS = [ErrorBound("abs", 2e-3), ErrorBound("rel", 1e-3)]


@pytest.fixture(scope="module")
def svc():
    with ServiceClient(ServiceConfig(processes=1)) as client:
        yield client


@pytest.fixture(scope="module")
def pooled():
    with ServiceClient(ServiceConfig(processes=2)) as client:
        yield client


def single_routes(x, codec, kwargs, bound):
    return {
        "codec": lambda: get_compressor(codec, **kwargs).compress(
            x, **bound.kwargs()
        ),
        "facade": lambda: repro.compress(
            x, codec=codec, bound=bound, codec_kwargs=kwargs
        ),
    }


def chunked_routes(x, codec, kwargs, bound, svc, **extra):
    call = dict(
        codec=codec, bound=bound, codec_kwargs=kwargs, chunks=CHUNKS, **extra
    )
    return {
        "chunked": lambda: repro.compress(x, **call),
        "pooled": lambda: repro.compress(x, processes=2, **call),
        "service": lambda: repro.compress(x, client=svc, **call),
    }


def raised(call):
    with pytest.raises(repro.ReproError) as err:
        call()
    return type(err.value)


def derive_then_execute(x, codec, kwargs, bound):
    plan = get_compressor(codec, **kwargs).derive_plan(x, **bound.kwargs())
    if plan is None:  # a codec without an analysis stage
        return get_compressor(codec, **kwargs).compress(x, **bound.kwargs())
    return get_compressor(codec, **kwargs).compress_with_plan(x, plan)


def agree(outcomes):
    """Every route's outcome equals the first route's."""
    (first, want), *rest = outcomes.items()
    for name, got in rest:
        if isinstance(want, bytes):
            assert got == want, f"{name} != {first}"
        else:
            assert got.dtype == want.dtype, f"{name} != {first}"
            np.testing.assert_array_equal(got, want, err_msg=f"{name} != {first}")
    return want


def plain_stream_decodes(blob, tmp_path, client, processes=None):
    """Every decode route of a plain stream returns ``decompress_any``'s
    array, dtype included: ``repro.decompress`` from bytes, a path and an
    open file, ``repro.open().read`` of the whole field and of a slab, and
    the client's decompress and read."""
    path = tmp_path / "plain.rpz"
    path.write_bytes(blob)
    want = decompress_any(blob)
    whole = tuple(slice(0, n) for n in want.shape)
    slab = tuple(slice(1, n - 1) for n in want.shape)
    with repro.open(blob) as f, open(path, "rb") as fh:
        agree({
            "router": want,
            "bytes": repro.decompress(blob, processes=processes),
            "path": repro.decompress(path, processes=processes),
            "file": repro.decompress(fh, processes=processes),
            "read": f.read(whole, processes=processes),
            "client": client.decompress(blob),
            "client-read": client.read(blob, whole),
        })
        agree({
            "router": want[slab],
            "read": f.read(slab, processes=processes),
            "client-read": client.read(blob, slab),
        })


MATRIX = [
    pytest.param(
        codec, ndim, dtype, bound,
        id=f"{codec}-{ndim}d-{np.dtype(dtype).name}-{bound}",
    )
    for codec in LIBRARY_CODECS
    for ndim in TILINGS
    for dtype in (np.float32, np.float64)
    for bound in BOUNDS
    if not (codec == "sz2" and ndim == 4)  # SZ2 is 1-3 D (P1)
]


#: codec -> the rank and dtype its fan-out routes run on, varied across
#: the codecs so the pool carries every rank and both dtypes
FAN_OUT = {
    "mgard": (4, np.float32), "qoz": (3, np.float64), "sz2": (2, np.float32),
    "sz3": (1, np.float64), "zfp": (3, np.float32),
}


def probe(codec, ndim, dtype, bound):
    """The field, its tiling and the chunked call of a valid probe."""
    shape, chunks = TILINGS[ndim]
    x = walk(shape, ndim, dtype)
    return x, dict(codec=codec, bound=bound, chunks=chunks)


class TestValidProbes:
    @pytest.mark.parametrize("codec,ndim,dtype,bound", MATRIX)
    def test_every_route_agrees(self, codec, ndim, dtype, bound, svc, tmp_path):
        x, call = probe(codec, ndim, dtype, bound)
        plain = agree({
            "codec": get_compressor(codec).compress(x, **bound.kwargs()),
            "facade": repro.compress(x, codec=codec, bound=bound),
            "derive-then-execute": derive_then_execute(x, codec, {}, bound),
        })
        plain_stream_decodes(plain, tmp_path, svc)
        if not bound.is_relative:
            # the bound is read by admission and derivation, which every
            # route shares: the routes below run once per codec x ndim x
            # dtype (an absolute bound's chunked routes are
            # TestOneChunkContainer's and the codec-option probes')
            return
        family = f"{codec}-{ndim}-{np.dtype(dtype).name}"
        path = tmp_path / "f.rpz"
        repro.compress(x, file=path, **call)
        containers = {
            "chunked": repro.compress(x, **call),
            "path": path.read_bytes(),
            "service": svc.compress(x, family=family, **call),
        }
        if get_compressor(codec).derives_plan:
            # the family's plan, cached by the service call above
            containers["service-warm"] = svc.compress(x, family=family, **call)
        container = agree(containers)
        # two distinct fields, so a mix-up of their order shows
        serial = compress_fields_parallel([x, -x], codec, bound=bound)
        assert serial[0] == plain
        for blob, decoded in zip(serial, decompress_blobs_parallel(serial)):
            agree({
                "router": decompress_any(blob),
                "serial": decoded,
                "service": svc.decompress(blob),
            })
        # the default tiling: one chunk
        agree({
            "chunked": repro.compress(x, codec=codec, bound=bound, chunked=True),
            "service": svc.compress(x, codec=codec, bound=bound),
        })
        whole = agree({
            "serial": repro.decompress(container),
            "router": decompress_any(container),
            "service": svc.decompress(container),
        })
        slab = tuple(slice(1, n - 1) for n in x.shape)
        with ChunkedFile(container) as f:
            agree({
                "whole": whole[slab],
                "serial": f.read(slab),
                "service": svc.read(container, slab),
            })

    @pytest.mark.parametrize("codec", LIBRARY_CODECS)
    def test_fan_out_routes_agree(self, codec, pooled, tmp_path):
        x, call = probe(codec, *FAN_OUT[codec], BOUNDS[1])
        bound = call["bound"]
        container = agree({
            "chunked": repro.compress(x, **call),
            "pooled": repro.compress(x, processes=2, **call),
            "pooled-service": pooled.compress(x, **call),
        })
        # the default tiling: one chunk, sent whole to one pool worker
        agree({
            "chunked": repro.compress(x, codec=codec, bound=bound, chunked=True),
            "pooled-service": pooled.compress(x, codec=codec, bound=bound),
        })
        # two distinct fields, so a mix-up of their order shows
        fields = [x, -x]
        serial = compress_fields_parallel(fields, codec, bound=bound)
        assert compress_fields_parallel(
            fields, codec, bound=bound, processes=2
        ) == serial
        in_pool = decompress_blobs_parallel(serial, processes=2)
        for blob, decoded in zip(serial, in_pool):
            agree({
                "router": decompress_any(blob),
                "pool": decoded,
                "pooled-service": pooled.decompress(blob),
            })
        plain_stream_decodes(serial[0], tmp_path, pooled, processes=2)
        whole = agree({
            "serial": repro.decompress(container),
            "pooled": repro.decompress(container, processes=2),
            "pooled-service": pooled.decompress(container),
        })
        slab = tuple(slice(1, n - 1) for n in x.shape)
        with ChunkedFile(container) as f:
            agree({
                "whole": whole[slab],
                "pooled": f.read(slab, processes=2),
                "pooled-service": pooled.read(container, slab),
            })

    @pytest.mark.parametrize("bound", BOUNDS, ids=str)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("codec,kwargs", [
        *CODECS, pytest.param("sz3", {"method": "linear"}, id="sz3-linear"),
    ])
    def test_codec_options_reach_every_route(
        self, codec, kwargs, dtype, bound, svc
    ):
        x = walk(SHAPE, 0, dtype)
        plain = {name: call() for name, call in single_routes(
            x, codec, kwargs, bound
        ).items()}
        plain["derive-then-execute"] = derive_then_execute(x, codec, kwargs, bound)
        fields = dict(codec_name=codec, codec_kwargs=kwargs, bound=bound)
        (plain["fields"],) = compress_fields_parallel([x], **fields)
        plain["fields-pool"], _ = compress_fields_parallel(
            [x, x], processes=2, **fields
        )
        agree(plain)
        routes = chunked_routes(x, codec, kwargs, bound, svc)
        agree({name: call() for name, call in routes.items()})

    @pytest.mark.parametrize("bound", BOUNDS, ids=str)
    def test_every_spelling_of_a_bound_is_that_bound(self, bound):
        # the facade parses the spelling before a codec or dtype enters
        spellings = [bound, str(bound), (bound.mode, bound.value)]
        if not bound.is_relative:
            spellings.append(bound.value)  # a bare number is absolute
        x = walk(SHAPE)
        agree({
            repr(spelling): repro.compress(x, codec="sz3", bound=spelling)
            for spelling in spellings
        })

    @pytest.mark.parametrize("bound", BOUNDS, ids=str)
    def test_per_chunk_tuning_reaches_every_route(self, bound, svc):
        routes = chunked_routes(
            walk(SHAPE), "qoz", {}, bound, svc, per_chunk_tuning=True
        )
        agree({name: call() for name, call in routes.items()})

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("metric", ["cr", "psnr", "ssim", "ac"])
    def test_pooled_derive_writes_the_serial_container(self, metric, dtype):
        # processes= lends the pool to the tuning trials too (DESIGN.md §7)
        x = walk(SHAPE, 3, dtype)
        call = dict(
            codec="qoz", bound=BOUNDS[1], chunks=CHUNKS,
            codec_kwargs={"metric": metric},
        )
        assert repro.compress(x, processes=2, **call) == repro.compress(x, **call)


class TestOneChunkContainer:
    @pytest.mark.parametrize("codec,ndim,dtype,bound", MATRIX)
    def test_it_holds_the_single_route_stream(self, codec, ndim, dtype, bound):
        x, _ = probe(codec, ndim, dtype, bound)
        plain = repro.compress(x, codec=codec, bound=bound)
        container = repro.compress(x, codec=codec, bound=bound, chunks=x.shape)
        with repro.open(container) as f:
            assert f.n_chunks == 1
            assert f.chunk_bytes(0) == plain


def poisoned(value, where=(0, 0, 0)):
    x = walk(SHAPE)
    x[where] = value
    return x


def overflowing():
    x = walk(SHAPE)
    x[0, 0, 0], x[-1, -1, -1] = 1.5e308, -1.5e308  # max - min = inf
    return x


class TestInvalidProbes:
    @pytest.mark.parametrize("bound", BOUNDS, ids=str)
    @pytest.mark.parametrize("sampled", [True, False], ids=["first", "last"])
    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("codec,kwargs", CODECS)
    def test_non_finite_input(self, codec, kwargs, value, sampled, bound, svc):
        # the first point is in the first sampled block, so derivation
        # itself meets it; the last is in no block and is met only by the
        # chunk that holds it (in a pool worker, on the pooled route)
        x = poisoned(value, (0, 0, 0) if sampled else (-1, -1, -1))
        routes = {
            **single_routes(x, codec, kwargs, bound),
            **chunked_routes(x, codec, kwargs, bound, svc),
        }
        if sampled or bound.is_relative:
            routes["derive"] = lambda: get_compressor(
                codec, **kwargs
            ).derive_plan(x, **bound.kwargs())
        outcomes = {name: raised(call) for name, call in routes.items()}
        assert set(outcomes.values()) == {CompressionError}, outcomes

    @pytest.mark.parametrize("bound", BOUNDS, ids=str)
    def test_sz2_refuses_a_4d_field_on_every_route(self, bound, svc):
        x = walk(TILINGS[4][0])
        routes = {
            **single_routes(x, "sz2", {}, bound),
            **chunked_routes(x, "sz2", {}, bound, svc),
        }
        outcomes = {name: raised(call) for name, call in routes.items()}
        assert set(outcomes.values()) == {CompressionError}, outcomes

    @pytest.mark.parametrize("codec,kwargs", CODECS)
    def test_relative_bound_over_an_overflowing_range(self, codec, kwargs, svc):
        x, bound = overflowing(), BOUNDS[1]
        routes = {
            **single_routes(x, codec, kwargs, bound),
            **chunked_routes(x, codec, kwargs, bound, svc),
            "derive": lambda: get_compressor(codec, **kwargs).derive_plan(
                x, **bound.kwargs()
            ),
        }
        outcomes = {name: raised(call) for name, call in routes.items()}
        assert set(outcomes.values()) == {CompressionError}, outcomes

    @pytest.mark.parametrize("codec", available_compressors())
    def test_no_codec_writes_a_non_finite_bound(self, codec):
        with pytest.raises(CompressionError):
            get_compressor(codec).compress(overflowing(), rel_error_bound=1e-3)
        with pytest.raises(CompressionError):
            get_compressor(codec).compress(
                poisoned(np.nan), rel_error_bound=1e-3
            )

    @pytest.mark.parametrize(
        "target", ["sz3", "sz2"], ids=["wrong-codec", "plan-less-codec"]
    )
    def test_a_plan_the_codec_cannot_run(self, target):
        x = walk(SHAPE)
        plan = get_compressor("qoz").derive_plan(x, error_bound=2e-3)
        call = dict(codec=target, bound="abs:2e-3", chunks=CHUNKS, plan=plan)
        routes = {
            "codec": lambda: get_compressor(target).compress_with_plan(x, plan),
            "chunked": lambda: repro.compress(x, **call),
            "pooled": lambda: repro.compress(x, processes=2, **call),
        }
        outcomes = {name: raised(call) for name, call in routes.items()}
        assert set(outcomes.values()) == {CompressionError}, outcomes


class TestClientDecompressSources:
    def test_client_route_accepts_what_the_local_route_accepts(
        self, svc, tmp_path
    ):
        x = walk(SHAPE, 0, np.float32)
        path = tmp_path / "f.rpz"
        repro.compress(x, bound="rel:1e-3", chunks=CHUNKS, file=path)
        local = repro.decompress(str(path))
        sources = {
            "str": str(path),
            "Path": pathlib.Path(path),
            "BytesIO": io.BytesIO(path.read_bytes()),
            "bytes": path.read_bytes(),
        }
        for name, source in sources.items():
            served = repro.decompress(source, client=svc)
            assert np.array_equal(served, local), name
        with open(path, "rb") as fh:
            assert np.array_equal(repro.decompress(fh, client=svc), local)
