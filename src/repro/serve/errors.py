"""Serving outcome errors: every request resolves to exactly one outcome.

The fault-tolerant serving path guarantees **no silent drops**: a submitted
request terminates in exactly one of three explicit outcomes — a result, a
:class:`RequestShed` (the service refused admission and told the client how
long to back off), or a :class:`DeadlineExceeded` (the request's deadline
passed before a result could be produced).  These exceptions *are* that
contract: anything the batcher, supervisor or front-end cannot answer is
raised as one of them, never swallowed, and each carries enough context for
a client to act (retry hint, elapsed budget).

Kept dependency-free so the batcher, supervisor, front-end and wire client
can all share them without import cycles.
"""

from __future__ import annotations

from typing import Optional


class ServeError(RuntimeError):
    """Base class for explicit serving outcomes."""


class RequestShed(ServeError):
    """The service refused admission (queue saturated, draining, no replica).

    ``retry_after_ms`` is the front-end's adaptive backoff hint, derived
    from the intake queue-depth EWMA: the deeper the sustained backlog, the
    longer well-behaved clients are told to wait — the DCF-style
    contention-window idea, with the server publishing the window.  A
    draining batcher's in-process refusal carries no hint (0); the
    front-end attaches one when it answers the shed.
    ``reason`` distinguishes *why* admission failed (``"queue_full"``,
    ``"draining"``, ``"no_replica"``) so shed accounting can be sliced.
    """

    def __init__(self, retry_after_ms: float = 0.0,
                 reason: str = "queue_full") -> None:
        self.retry_after_ms = float(retry_after_ms)
        self.reason = str(reason)
        super().__init__(
            f"request shed ({self.reason}); retry after "
            f"{self.retry_after_ms:.1f} ms"
        )


class DeadlineExceeded(ServeError):
    """The request's deadline passed before a result could be produced.

    Raised by the batcher when a queued request's deadline expires before
    (or while waiting for) its engine pass, by the supervisor when every
    in-budget replica attempt is exhausted, and by the synchronous client
    helpers on timeout.  The request's pending/dedup slot is always
    released before this raises — a later identical key never waits on a
    dead future.
    """

    def __init__(self, message: str = "deadline exceeded",
                 deadline_ms: Optional[float] = None) -> None:
        self.deadline_ms = deadline_ms
        if deadline_ms is not None:
            message = f"{message} (deadline {deadline_ms:.1f} ms)"
        super().__init__(message)


class ReplicaUnavailable(ServeError):
    """No healthy replica could take the request right now.

    An *internal* signal between the supervisor and the front-end: the
    front-end maps it to a :class:`RequestShed` response (reason
    ``"no_replica"``) so the wire contract stays three-outcome.
    """


__all__ = ["ServeError", "RequestShed", "DeadlineExceeded",
           "ReplicaUnavailable"]
