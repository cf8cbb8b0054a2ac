"""Small shared helpers: input validation, dtype handling, array geometry."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Optional, Tuple, Union

import numpy as np

from repro.errors import CompressionError

#: floating dtypes every codec accepts as input
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


@dataclass(frozen=True)
class ErrorBound:
    """The one spelling of an error bound: a mode plus a positive value.

    Every entry point above the codec classes (the facade, the service
    clients, ``CompressRequest``, the CLI's ``--eb``) takes its bound as
    ``bound=`` and parses it into this type.  ``abs`` is an absolute
    point-wise bound; ``rel`` is relative to the field's value range
    (``max - min``), the paper's ``REL`` mode.
    """

    mode: str
    value: float

    MODES = ("abs", "rel")

    def __post_init__(self) -> None:
        if self.mode not in self.MODES:
            raise CompressionError(
                f"error-bound mode must be one of {self.MODES}, "
                f"got {self.mode!r}"
            )
        object.__setattr__(self, "value", validate_error_bound(self.value))

    @classmethod
    def absolute(cls, value: float) -> "ErrorBound":
        return cls("abs", value)

    @classmethod
    def relative(cls, value: float) -> "ErrorBound":
        return cls("rel", value)

    @classmethod
    def parse(cls, spec: "BoundLike") -> "ErrorBound":
        """Normalize any accepted spelling into an :class:`ErrorBound`.

        Accepts an :class:`ErrorBound`, a ``"mode:value"`` string (the
        CLI's ``--eb abs:1e-3``), a ``(mode, value)`` pair, or a bare
        number (taken as absolute — the conservative reading, since an
        absolute bound never silently scales with the data).
        """
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, str):
            mode, sep, value = spec.partition(":")
            if not sep:
                raise CompressionError(
                    f"error-bound spec must look like 'abs:1e-3' or "
                    f"'rel:1e-4', got {spec!r}"
                )
            try:
                return cls(mode.strip(), float(value))
            except ValueError:
                raise CompressionError(
                    f"error-bound value in {spec!r} is not a number"
                ) from None
        if isinstance(spec, (int, float, np.floating)):
            return cls("abs", float(spec))
        if isinstance(spec, (tuple, list)) and len(spec) == 2:
            return cls(str(spec[0]), float(spec[1]))
        raise CompressionError(
            f"cannot interpret {spec!r} as an error bound; use "
            f"ErrorBound(mode, value), 'mode:value', or (mode, value)"
        )

    @property
    def is_relative(self) -> bool:
        return self.mode == "rel"

    def kwargs(self) -> Dict[str, float]:
        """The codec-level kwarg spelling: the one translation into
        ``Compressor.compress`` / ``derive_plan`` and
        :func:`resolve_error_bound`."""
        key = "rel_error_bound" if self.is_relative else "error_bound"
        return {key: self.value}

    def __str__(self) -> str:
        return f"{self.mode}:{self.value:g}"


BoundLike = Union[ErrorBound, str, float, Tuple[Any, Any]]


def fans_out(processes: Optional[int]) -> bool:
    """The one reading of ``processes=`` on every library call: fan out
    over worker processes only above 1; ``None``, ``0``, ``1`` and
    anything below run in-process.  (Here, not in the pool's module, so
    an in-process call never imports ``multiprocessing``.)"""
    return processes is not None and processes > 1


def validate_input(data: np.ndarray, name: str = "data") -> np.ndarray:
    """Check that *data* is a finite, non-empty float32/float64 ndarray.

    Returns a C-contiguous view (copying only if needed).
    """
    if not isinstance(data, np.ndarray):
        raise CompressionError(f"{name} must be a numpy ndarray, got {type(data)!r}")
    data = validate_field_lazy(data, name)
    if not np.all(np.isfinite(data)):
        raise CompressionError(f"{name} contains non-finite values")
    return np.ascontiguousarray(data)


def validate_field_lazy(data, name: str = "data") -> np.ndarray:
    """Shape/dtype validation that neither copies nor scans the values.

    The out-of-core entry points (chunked compression, plan derivation)
    use this instead of :func:`validate_input`: a memory-mapped field must
    not be materialized, and finiteness is checked by whoever actually
    reads the values (chunk-wise or block-wise).
    """
    data = np.asanyarray(data)
    if data.dtype not in SUPPORTED_DTYPES:
        raise CompressionError(
            f"{name} must be float32 or float64, got dtype {data.dtype}"
        )
    if data.size == 0:
        raise CompressionError(f"{name} must be non-empty")
    if data.ndim < 1 or data.ndim > 4:
        raise CompressionError(f"{name} must have 1..4 dimensions, got {data.ndim}")
    return data


def validate_error_bound(eb: float) -> float:
    """Check that an absolute error bound is a positive finite float."""
    eb = float(eb)
    if not np.isfinite(eb) or eb <= 0.0:
        raise CompressionError(f"error bound must be positive and finite, got {eb}")
    return eb


def value_range(data: np.ndarray, grid=None) -> float:
    """max(X) - min(X), the paper's ``vrange`` (relative bounds, PSNR):
    the field's extremes subtracted in float64, whatever its dtype.

    With a chunk ``grid`` (:class:`~repro.chunked.tiling.ChunkGrid`) the
    field is read one chunk at a time, so a memory-mapped input stays out
    of core.  ``nan`` when the field holds one and ``inf`` when it holds
    an infinity or the difference overflows — :func:`resolve_error_bound`
    rejects both.
    """
    parts: Iterable[np.ndarray] = (
        [data] if grid is None else (data[grid.chunk_slices(i)] for i in grid)
    )
    lo, hi = np.array([(np.min(p), np.max(p)) for p in parts]).T
    return float(np.max(hi)) - float(np.min(lo))


def admit_bound(
    data: np.ndarray,
    error_bound: Optional[float] = None,
    rel_error_bound: Optional[float] = None,
    data_range: Optional[float] = None,
    grid=None,
) -> Tuple[float, Optional[float]]:
    """The admission of every compress route: ``(absolute bound, value
    range | None)``.  A relative bound costs one :func:`value_range` scan
    (chunk by chunk over ``grid``) unless the caller passes the range it
    has; derivation reuses it."""
    if rel_error_bound is not None and data_range is None:
        data_range = value_range(data, grid)
    eb = resolve_error_bound(data, error_bound, rel_error_bound, data_range)
    return eb, data_range


def resolve_error_bound(
    data: np.ndarray,
    error_bound: float | None = None,
    rel_error_bound: float | None = None,
    data_range: float | None = None,
) -> float:
    """Turn (absolute | value-range-relative) bound into an absolute bound.

    The one place a relative bound becomes absolute, on every route.
    Exactly one of the two must be given.  A relative bound on a constant
    field (vrange == 0) falls back to a tiny absolute bound so compression
    still succeeds (and is lossless in effect).  Callers that already know
    the field's value range pass it as ``data_range`` so ``data`` is not
    re-scanned.  A range that is not finite — the field holds NaN/Inf, or
    ``max - min`` overflows — yields no usable bound and is rejected like
    any other bad bound.
    """
    if (error_bound is None) == (rel_error_bound is None):
        raise CompressionError(
            "specify exactly one of error_bound= or rel_error_bound="
        )
    if error_bound is not None:
        return validate_error_bound(error_bound)
    rel = validate_error_bound(rel_error_bound)
    vr = value_range(data) if data_range is None else data_range
    if not np.isfinite(vr):
        raise CompressionError(
            f"relative bound needs a finite value range, got {vr}: data "
            "contains non-finite values or its range overflows"
        )
    if vr == 0.0:
        # constant field: any positive bound works; keep it tiny
        vr = abs(float(data.flat[0])) or 1.0
    return validate_error_bound(rel * vr)


def dtype_code(dtype: np.dtype) -> int:
    """Stable 1-byte code for a supported dtype (stream headers)."""
    if np.dtype(dtype) == np.float32:
        return 0
    if np.dtype(dtype) == np.float64:
        return 1
    raise CompressionError(f"unsupported dtype {dtype}")


def dtype_from_code(code: int) -> np.dtype:
    """Inverse of :func:`dtype_code`."""
    if code == 0:
        return np.dtype(np.float32)
    if code == 1:
        return np.dtype(np.float64)
    raise CompressionError(f"unknown dtype code {code}")


def ceil_div(a: int, b: int) -> int:
    """Integer ceiling division."""
    return -(-a // b)


def is_pow2(n: int) -> bool:
    """True when n is a positive power of two."""
    return n >= 1 and (n & (n - 1)) == 0


def index_dtype(max_value: int) -> np.dtype:
    """Narrowest unsigned integer dtype holding ``0..max_value``: the
    type of a code or symbol array whose largest value is known.  Past
    uint32 it is int64, never uint64, which ``np.bincount`` refuses."""
    for t in (np.uint8, np.uint16, np.uint32):
        if max_value <= np.iinfo(t).max:
            return np.dtype(t)
    return np.dtype(np.int64)


def as_index_array(values) -> np.ndarray:
    """``values`` as a contiguous integer array, kept in its own dtype
    when ``np.bincount`` takes that (every signed type and unsigned up to
    uint32), as int64 otherwise (uint64, bool, float, a list)."""
    a = np.ascontiguousarray(values)
    if a.dtype.kind in "iu" and np.can_cast(a.dtype, np.intp):
        return a
    return a.astype(np.int64)
