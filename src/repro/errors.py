"""Exception hierarchy for the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError, ValueError):
    """Raised when a compressor or experiment is configured inconsistently."""


class CompressionError(ReproError):
    """Raised when compression fails (bad input shape, dtype, or bound)."""


class DecompressionError(ReproError):
    """Raised when a compressed stream is malformed or truncated."""


class ProtocolError(ReproError):
    """Raised when a service protocol frame is malformed or oversized."""


class ServiceOverloadedError(ReproError):
    """Raised when the service sheds a request (backpressure).

    ``retry_after`` is the server's suggested delay in seconds before the
    client retries and ``reason`` names the admission rule that rejected
    the request (``queue-full``, ``client-quota``, or ``shutting-down``
    for a job still queued when the service closed); the wire protocol
    carries both in the RETRY response.
    """

    def __init__(
        self, retry_after: float = 0.05, reason: str = "overloaded"
    ) -> None:
        super().__init__(
            f"service overloaded ({reason}); retry after {retry_after:.3g}s"
        )
        self.retry_after = float(retry_after)
        self.reason = str(reason)


class RemoteServiceError(ReproError):
    """An error reported by a remote compression service.

    The server maps any request-handling exception to an ERROR response
    carrying one message line; the client re-raises it as this type (the
    original class does not survive the wire).
    """


class ServiceConnectionError(RemoteServiceError, ProtocolError):
    """A service connection dropped mid-request (send or receive).

    Distinct from :class:`RemoteServiceError` proper — the server did not
    *report* anything; the transport died under the request (the server
    was killed, the peer reset, a socket timed out mid-frame).  It descends
    from both :class:`RemoteServiceError` (the RPC failed) and
    :class:`ProtocolError` (the framing can no longer be trusted), so
    callers written against either family keep catching it.

    All service requests are idempotent, so
    :class:`~repro.service.client.RemoteClient` may transparently
    reconnect and resend when constructed with ``reconnects > 0``; once
    that budget is exhausted the last failure surfaces as this type.
    """


class WorkerCrashError(ReproError):
    """Raised when a job kills the worker processes that run it.

    A worker death is charged to the one job that worker held: the pool
    re-dispatches it at its first death, and at its second the job is
    *poisoned* and fails with this error, while the jobs on the other
    workers never notice.  A job the pool could not rerun because it
    was shutting down fails with it too.
    """


class DeadlineExceededError(ReproError):
    """Raised when a request misses its client-supplied deadline.

    Covers both lifecycles: a queued job shed before it ever ran, and a
    running job cancelled by the server-side timeout.  ``stage`` records
    which one (``"queued"`` or ``"running"``).
    """

    def __init__(self, deadline_ms: float, stage: str = "running") -> None:
        super().__init__(
            f"deadline of {deadline_ms:.3g}ms exceeded while {stage}"
        )
        self.deadline_ms = float(deadline_ms)
        self.stage = str(stage)


class ChunkCorruptionError(DecompressionError):
    """Raised when a stored chunk fails its integrity checksum.

    Carries the chunk's coordinates so callers (and ``repro verify``)
    can report exactly which region of the array is damaged instead of
    returning silently wrong bytes.
    """

    def __init__(
        self,
        index: int,
        start: tuple = (),
        shape: tuple = (),
        detail: str = "checksum mismatch",
    ) -> None:
        super().__init__(
            f"chunk {index} at start={tuple(start)} "
            f"shape={tuple(shape)}: {detail}"
        )
        self.index = int(index)
        self.start = tuple(start)
        self.shape = tuple(shape)
        self.detail = str(detail)

    def __reduce__(self) -> tuple:
        # rebuilt from its fields: a pool worker raises it across the
        # pickle channel, where the default (message only) cannot rebuild
        return type(self), (self.index, self.start, self.shape, self.detail)


def shape_disagreement(decoded: tuple) -> str:
    """The ``detail`` of a chunk whose stream describes (or decodes to)
    another shape than its container index entry gives."""
    return f"chunk header shape {tuple(decoded)} disagrees with index entry"
