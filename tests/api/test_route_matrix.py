"""One front door: every compress route gives the same outcome.

Routes: the codec class, the facade's single-array call, the chunked
container written in-process, the same with ``processes=2``, and an
in-process :class:`ServiceClient`.  Each is admit -> derive -> execute
through the same three implementations (DESIGN.md §4), so for a valid
probe the routes that chunk the same way must emit the same bytes, and
for an invalid probe every route that accepts the argument must raise
the same :class:`ReproError` subclass.
"""

import io
import pathlib

import numpy as np
import pytest

import repro
from repro.compressors.base import available_compressors, get_compressor
from repro.errors import CompressionError
from repro.service import ServiceClient, ServiceConfig
from repro.utils import ErrorBound

SHAPE = (24, 20, 16)
CHUNKS = 12

CODECS = [
    pytest.param("qoz", {"metric": "cr"}, id="qoz-cr"),
    pytest.param("qoz", {"metric": "psnr"}, id="qoz-psnr"),
    pytest.param("sz3", {}, id="sz3"),
]
BOUNDS = [ErrorBound("abs", 2e-3), ErrorBound("rel", 1e-3)]


def field(dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.standard_normal(SHAPE), axis=0)
    x += np.cumsum(rng.standard_normal(SHAPE), axis=1)
    return (x / np.abs(x).max()).astype(dtype)


@pytest.fixture(scope="module")
def svc():
    with ServiceClient(ServiceConfig(processes=1)) as client:
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


class TestValidProbes:
    @pytest.mark.parametrize("bound", BOUNDS, ids=str)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("codec,kwargs", CODECS)
    def test_routes_agree_byte_for_byte(self, codec, kwargs, dtype, bound, svc):
        x = field(dtype)
        plain = {
            name: call()
            for name, call in single_routes(x, codec, kwargs, bound).items()
        }
        assert plain["codec"] == plain["facade"]
        routes = chunked_routes(x, codec, kwargs, bound, svc)
        containers = {name: call() for name, call in routes.items()}
        assert containers["chunked"] == containers["pooled"]
        assert containers["chunked"] == containers["service"]
        tol = bound.value * (1 + 1e-6)
        if bound.is_relative:
            tol *= float(x.max()) - float(x.min())
        for blob in (plain["codec"], containers["chunked"]):
            recon = repro.decompress(blob).astype(np.float64)
            assert np.abs(recon - x).max() <= tol

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("metric", ["cr", "psnr", "ssim", "ac"])
    def test_pooled_derive_writes_the_serial_container(self, metric, dtype):
        # processes= lends the pool to the tuning trials too (DESIGN.md §7)
        x = field(dtype, seed=3)
        call = dict(
            codec="qoz", bound=BOUNDS[1], chunks=CHUNKS,
            codec_kwargs={"metric": metric},
        )
        assert repro.compress(x, processes=2, **call) == repro.compress(x, **call)

    @pytest.mark.parametrize("bound", BOUNDS, ids=str)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("codec,kwargs", CODECS)
    def test_compress_is_derive_then_execute(self, codec, kwargs, dtype, bound):
        x = field(dtype, seed=1)
        inline = get_compressor(codec, **kwargs).compress(x, **bound.kwargs())
        plan = get_compressor(codec, **kwargs).derive_plan(x, **bound.kwargs())
        replay = get_compressor(codec, **kwargs).compress_with_plan(x, plan)
        assert replay == inline

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("codec,kwargs", CODECS)
    def test_one_chunk_container_holds_the_single_route_stream(
        self, codec, kwargs, dtype
    ):
        # absolute bound only: a float32 field's *relative* bound is scaled
        # by a float32 difference on the single route and a float64 one on
        # the chunked route (both pinned by golden streams), so those two
        # eb values differ in the last bits
        x = field(dtype, seed=2)
        bound = BOUNDS[0]
        plain = repro.compress(x, codec=codec, bound=bound, codec_kwargs=kwargs)
        container = repro.compress(
            x, codec=codec, bound=bound, codec_kwargs=kwargs, chunks=SHAPE
        )
        with repro.open(container) as f:
            assert f.n_chunks == 1
            assert f.chunk_bytes(0) == plain


def poisoned(value, where=(0, 0, 0)):
    x = field()
    x[where] = value
    return x


def overflowing():
    x = field()
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
        x = field()
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
        x = field(np.float32)
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
