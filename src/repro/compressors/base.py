"""Common compressor API and registry.

Every codec maps ``ndarray -> bytes`` and back; streams are self-describing
(:mod:`repro.core.header`), so :func:`decompress_any` can route a blob to
the codec that produced it.  :class:`Compressor` owns the compress
contract — admit, derive, execute, each written once — so a subclass
supplies only its analysis (``_derive``) or its plan-less payload
(``_compress``), plus ``_decompress``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

import numpy as np

from repro.core.header import pack_header, parse_header
from repro.core.plan_cache import FrozenPlan, PlanExecution, execute_frozen_plan
from repro.errors import CompressionError, DecompressionError
from repro.utils import (
    resolve_error_bound,
    validate_error_bound,
    validate_field_lazy,
    validate_input,
    value_range,
)

_REGISTRY: Dict[str, Type["Compressor"]] = {}
_BY_ID: Dict[int, Type["Compressor"]] = {}


def register(cls: Type["Compressor"]) -> Type["Compressor"]:
    """Class decorator adding a codec to the registry."""
    if cls.name in _REGISTRY or cls.codec_id in _BY_ID:
        raise ValueError(f"duplicate codec registration: {cls.name}")
    _REGISTRY[cls.name] = cls
    _BY_ID[cls.codec_id] = cls
    return cls


def available_compressors() -> List[str]:
    """Names of all registered codecs."""
    _ensure_loaded()
    return sorted(_REGISTRY)


def get_compressor(name: str, **kwargs) -> "Compressor":
    """Instantiate a codec by name (constructor kwargs pass through)."""
    _ensure_loaded()
    if name not in _REGISTRY:
        raise KeyError(f"unknown compressor {name!r}; have {sorted(_REGISTRY)}")
    return _REGISTRY[name](**kwargs)


def decompress_any(blob: bytes) -> np.ndarray:
    """Decompress a stream produced by any registered codec.

    Routes both plain streams and chunked containers
    (:mod:`repro.chunked`) — the header's ``FLAG_CHUNKED`` decides.
    """
    _ensure_loaded()
    header, _ = parse_header(blob)
    if header.is_chunked:
        from repro.chunked.api import ChunkedFile

        with ChunkedFile(blob) as f:
            return f.to_array()
    if header.codec_id not in _BY_ID:
        raise DecompressionError(f"unknown codec id {header.codec_id}")
    return _BY_ID[header.codec_id]().decompress(blob)


def codec_derives_plan(name: str) -> bool:
    """Whether codec ``name`` has a derivation a plan cache can amortize
    (False for unknown names: the request fails later with its real error)."""
    _ensure_loaded()
    return name in _REGISTRY and _REGISTRY[name].derives_plan


def codec_name_for_id(codec_id: int) -> str:
    """Registry name of a stream codec id (e.g. ``2 -> 'qoz'``)."""
    _ensure_loaded()
    if codec_id not in _BY_ID:
        raise KeyError(f"unknown codec id {codec_id}")
    return _BY_ID[codec_id].name


def _ensure_loaded() -> None:
    """Import every codec module so registration side effects run."""
    import repro.compressors.mgard  # noqa: F401
    import repro.compressors.sz2  # noqa: F401
    import repro.compressors.sz3  # noqa: F401
    import repro.compressors.zfp  # noqa: F401
    import repro.core.qoz  # noqa: F401


def _admit_bound(
    data: np.ndarray,
    error_bound: Optional[float],
    rel_error_bound: Optional[float],
    data_range: Optional[float] = None,
) -> Tuple[float, Optional[float]]:
    """``(absolute bound, value range | None)``: a relative bound costs one
    min/max scan, whose result derivation reuses."""
    if rel_error_bound is not None and data_range is None:
        data_range = value_range(data)
    eb = resolve_error_bound(
        data, error_bound, rel_error_bound, data_range=data_range
    )
    return eb, data_range


class Compressor(ABC):
    """Abstract error-bounded lossy compressor.

    Compression is three steps on every route, each written once here:
    **admit** (array check; the bound made absolute), **derive** (the
    codec's :class:`~repro.core.plan_cache.FrozenPlan`, or ``None`` for a
    codec without an analysis stage) and **execute** (``plan | None`` ->
    self-describing stream).  :meth:`compress` runs all three;
    :meth:`derive_plan` and :meth:`compress_with_plan` are the halves the
    chunked and service routes run apart.
    """

    #: registry name, e.g. ``"sz3"``
    name: str = "abstract"
    #: stable stream codec id
    codec_id: int = -1
    #: True when compression starts with an analysis (sampling, selection,
    #: tuning) that ``_derive`` freezes into a reusable plan
    derives_plan: bool = False

    def compress(
        self,
        data: np.ndarray,
        error_bound: Optional[float] = None,
        rel_error_bound: Optional[float] = None,
    ) -> bytes:
        """Compress ``data`` under an absolute or value-range-relative bound.

        The returned stream is self-describing; the point-wise bound
        ``|x - x'| <= eb`` holds unconditionally on the decompressed array.
        """
        data = validate_input(data)
        eb, data_range = _admit_bound(data, error_bound, rel_error_bound)
        return self._execute(data, None, eb, data_range)

    def derive_plan(
        self,
        data: np.ndarray,
        error_bound: Optional[float] = None,
        rel_error_bound: Optional[float] = None,
        data_range: Optional[float] = None,
        *,
        fan_out: Optional[Callable] = None,
    ) -> Optional[FrozenPlan]:
        """Run the codec's analysis only; ``None`` if it has none.

        The plan pickles small and is shape-free: apply it to the same
        field, to its chunks, or to sibling fields of the same dump via
        :meth:`compress_with_plan`.  ``data`` is validated lazily and read
        block-wise, so a memory-mapped field stays out of core.
        ``data_range`` (max - min of the full field) short-circuits the
        value scan that a relative bound or a reconstruction metric would
        otherwise need — the chunked route passes the one it already has.
        ``fan_out`` (:data:`repro.core.tuning.FanOut`) lends the analysis
        a pool for its independent trial compressions; the plan is the
        same with or without it.
        """
        data = validate_field_lazy(data)
        eb, data_range = _admit_bound(
            data, error_bound, rel_error_bound, data_range
        )
        return self._derive(data, eb, data_range, fan_out)[0]

    def compress_with_plan(
        self,
        data: np.ndarray,
        plan: Optional[FrozenPlan],
        error_bound: Optional[float] = None,
    ) -> bytes:
        """Compress ``data`` under an absolute bound, executing ``plan``.

        A plan skips sampling, selection and tuning entirely; ``plan=None``
        derives on ``data`` itself (a plan-less codec, or per-chunk
        tuning).  ``error_bound`` defaults to the bound the plan was
        derived at; a different one rescales the per-level bounds through
        the plan's (alpha, beta).  Decompression needs no plan.
        """
        if plan is not None and not self.derives_plan:
            raise CompressionError(
                f"codec {self.name!r} does not support plan execution; "
                "omit plan= or use a plan-capable codec (qoz, sz3)"
            )
        if plan is not None and plan.codec != self.name:
            raise CompressionError(
                f"plan was derived by codec {plan.codec!r}, not {self.name!r}"
            )
        if error_bound is None:
            if plan is None:
                raise CompressionError("give a plan or error_bound=")
            error_bound = plan.eb
        data = validate_input(data)
        return self._execute(data, plan, validate_error_bound(error_bound))

    def _execute(
        self,
        data: np.ndarray,
        plan: Optional[FrozenPlan],
        eb: float,
        data_range: Optional[float] = None,
    ) -> bytes:
        """Derive (unless a plan was handed in), then execute."""
        trace = None
        if plan is None:
            plan, trace = self._derive(data, eb, data_range)
        if plan is None:
            payload = self._compress(data, eb)
        else:
            payload, execution = execute_frozen_plan(data, plan, eb)
            self._note_execution(plan, execution, trace)
        return pack_header(self.codec_id, data.dtype, data.shape, eb) + payload

    def decompress(self, blob: bytes) -> np.ndarray:
        """Decompress a plain stream produced by this codec."""
        header, offset = parse_header(blob)
        if header.is_chunked:
            raise DecompressionError(
                "stream is a chunked container; use repro.decompress() "
                "or repro.open()"
            )
        if header.codec_id != self.codec_id:
            raise DecompressionError(
                f"stream was written by codec id {header.codec_id}, "
                f"not {self.name} ({self.codec_id}); use repro.decompress()"
            )
        recon = self._decompress(blob[offset:], header)
        return recon.astype(header.dtype)

    def _derive(
        self, data: np.ndarray, eb: float, data_range: Optional[float],
        fan_out: Optional[Callable] = None,
    ) -> Tuple[Optional[FrozenPlan], Any]:
        """``(plan, trace)`` of the codec's analysis; ``trace`` comes back
        in :meth:`_note_execution`.  A codec without independent trials
        ignores ``fan_out``."""
        return None, None

    def _note_execution(
        self, plan: FrozenPlan, execution: PlanExecution, trace: Any
    ) -> None:
        """Diagnostics hook; ``trace`` is None for a handed-in plan."""

    def _compress(self, data: np.ndarray, eb: float) -> bytes:
        """Payload of a codec without a plan stage."""
        raise NotImplementedError

    @abstractmethod
    def _decompress(self, payload: bytes, header) -> np.ndarray:
        """Reconstruct a float64 array from the codec payload.

        ``header`` is the parsed :class:`repro.core.header.StreamHeader`
        (shape, dtype, error bound).
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
