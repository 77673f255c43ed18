"""Deterministic FIFO + coalesce scheduler.

Queued requests are grouped by their moment key — ``(fingerprint,
config_key)`` — and drained as batches:

* batches leave in order of their key's *first arrival* (FIFO over
  groups, so a burst of repeats cannot starve an older singleton);
* requests within a batch keep their submission order;
* an optional ``max_batch_size`` splits an oversized group into
  consecutive batches — the first computes, and the service hands its
  entry to the sibling batches through the cache when one is enabled or
  through a flush-local forward table at ``cache_capacity=0``, so split
  siblings never silently recompute.

The service keys groups on :func:`repro.serve.moment_identity_key`
(truncation order excluded), so requests differing only in ``N``
coalesce: the batch computes at :attr:`Batch.num_moments` — the largest
member order — and shorter members are served prefix slices.

:class:`EdfCoalesceScheduler` (serving v2) keeps the identical
coalescing — same groups, same membership, same within-batch member
order — but drains groups earliest-deadline-first instead of
first-arrival-first: batches leave ordered by ``(earliest member
deadline, -highest member priority, first member seq)``.  Deadlines are
modeled-clock absolutes (requests without one sort last via ``+inf``),
and the trailing ``seq`` makes every tie-break total, so the order is
still a pure function of the submitted trace.  Because only the *order*
of batches changes — never their contents — full-precision results stay
bit-identical to the FIFO drain (the equivalence property pins this).

Both schedulers support :meth:`~FifoCoalesceScheduler.cancel`: a queued
request may be withdrawn by sequence number any time before the drain
that would have served it.

Every decision is a pure function of the submission sequence — no
wall-clock reads, no random draws — so replaying a request trace yields
the same batches, the same engine assignments, and bit-identical
responses.  The CI contract check (RA001/RA004 over this module)
enforces the no-RNG half of that statically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ValidationError
from repro.util.validation import check_positive_int

__all__ = [
    "QueuedRequest",
    "Batch",
    "FifoCoalesceScheduler",
    "EdfCoalesceScheduler",
]


@dataclass(frozen=True)
class QueuedRequest:
    """One admitted request waiting in the queue.

    Attributes
    ----------
    seq:
        Submission sequence number (service-global, 0-based).
    request:
        The original request object (DoS/LDoS/Green).
    operator:
        The validated operator (:func:`repro.kpm.validate_spectral_operator`
        output) — coerced once at submit so every batch member shares it.
    key:
        ``(fingerprint, config_key)`` — the coalescing/cache identity.
    """

    seq: int
    request: object
    operator: object
    key: tuple


@dataclass
class Batch:
    """A coalesced group of compatible requests drained together.

    ``entries[0]`` is the triggering request (earliest ``seq``); the rest
    ride along and are reported as ``"coalesced"`` in their responses.
    """

    batch_id: int
    key: tuple
    entries: list[QueuedRequest] = field(default_factory=list)

    @property
    def size(self) -> int:
        """Number of requests served by this batch."""
        return len(self.entries)

    @property
    def num_moments(self) -> int:
        """Largest member truncation order — what the batch computes at.

        Moments are prefix-closed, so one run at the maximum ``N``
        serves every member; shorter members get bit-identical slices.
        """
        return max(entry.request.config.num_moments for entry in self.entries)

    @property
    def earliest_deadline(self) -> float:
        """Tightest member deadline (``+inf`` when no member has one)."""
        return min(
            getattr(entry.request, "effective_deadline", float("inf"))
            for entry in self.entries
        )


class FifoCoalesceScheduler:
    """FIFO queue with compatibility coalescing.

    Parameters
    ----------
    max_batch_size:
        Largest number of requests per drained batch (``None`` =
        unbounded).
    """

    def __init__(self, max_batch_size: int | None = None):
        if max_batch_size is not None:
            max_batch_size = check_positive_int(max_batch_size, "max_batch_size")
        self.max_batch_size = max_batch_size
        self._queue: list[QueuedRequest] = []
        self._next_batch_id = 0
        self.peak_depth = 0
        self.enqueued_total = 0
        self.cancelled_total = 0

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Requests currently waiting."""
        return len(self._queue)

    def enqueue(self, item: QueuedRequest) -> None:
        """Append ``item`` to the queue."""
        if not isinstance(item, QueuedRequest):
            raise ValidationError(
                f"item must be a QueuedRequest, got {type(item).__name__}"
            )
        self._queue.append(item)
        self.enqueued_total += 1
        self.peak_depth = max(self.peak_depth, len(self._queue))

    def cancel(self, seq: int) -> QueuedRequest | None:
        """Withdraw the queued request with sequence ``seq``.

        Returns the removed :class:`QueuedRequest`, or ``None`` when no
        waiting request carries that sequence number (already drained,
        already cancelled, or never enqueued) — cancellation after
        service is not an error, just a no-op.
        """
        for index, item in enumerate(self._queue):
            if item.seq == seq:
                del self._queue[index]
                self.cancelled_total += 1
                return item
        return None

    def drain(self) -> list[Batch]:
        """Empty the queue into coalesced batches (see module docstring)."""
        batches: list[Batch] = []
        for entries in self._grouped():
            step = self.max_batch_size or len(entries)
            for start in range(0, len(entries), step):
                batch = Batch(
                    batch_id=self._next_batch_id,
                    key=entries[0].key,
                    entries=entries[start : start + step],
                )
                self._next_batch_id += 1
                batches.append(batch)
        return batches

    def _grouped(self) -> list[list[QueuedRequest]]:
        """Coalesce the queue into per-key groups, first-arrival order."""
        groups: dict[tuple, list[QueuedRequest]] = {}
        for item in self._queue:
            groups.setdefault(item.key, []).append(item)
        self._queue.clear()
        # dict preserves first-arrival order
        return list(groups.values())


class EdfCoalesceScheduler(FifoCoalesceScheduler):
    """Earliest-deadline-first drain over the same coalesced groups.

    Group membership and within-group member order are identical to
    :class:`FifoCoalesceScheduler` — only the order in which groups
    leave changes, so every response stays bit-identical to the FIFO
    drain.  Groups are ordered by ``(earliest member deadline, -highest
    member priority, first member seq)``: tightest deadline first,
    higher priority breaks deadline ties, and the submission sequence
    makes the order total and deterministic.  ``max_batch_size``
    splitting happens after ordering, so an oversized group's sibling
    batches stay adjacent (the first computes, siblings forward).
    """

    def _grouped(self) -> list[list[QueuedRequest]]:
        """The FIFO groups, reordered tightest deadline first."""
        groups = super()._grouped()
        groups.sort(
            key=lambda entries: (
                min(
                    getattr(e.request, "effective_deadline", float("inf"))
                    for e in entries
                ),
                -max(getattr(e.request, "priority", 0) for e in entries),
                entries[0].seq,
            )
        )
        return groups
