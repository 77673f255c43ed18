"""Bounded LRU cache of moment computations with prefix lookup.

Weiße et al. (RMP 2006) note that Chebyshev moments are reusable across
reconstructions: once ``mu_n`` is known for an operator/config pair,
every kernel, energy grid, or derived observable is a cheap host-side
transform.  Moments are also *prefix-closed* — ``mu_n`` never depends on
the truncation order — so the cache keys entries on the
moment-determining identity **minus** ``N``
(:func:`repro.serve.moment_identity_key`) and stores the order per
entry:

* ``get(key, num_moments=N')`` with ``N' <= N_cached`` is a **hit**,
  served as a bit-identical slice of the stored table;
* ``put`` keeps the *longer* of the stored and offered entries, so an
  extension replaces its prefix and a stale short recompute never
  clobbers a longer table;
* entries may carry the :class:`~repro.kpm.moments.RecursionState` of
  their run, letting the service extend an entry in place by resuming
  the three-term recursion instead of replaying from ``mu_0`` —
  :meth:`MomentCache.peek_extendable` finds such candidates.

Cached arrays are frozen (``writeable=False``) at insertion: every
caller shares the one stored table, so a caller mutating a response's
moments must fail loudly instead of silently corrupting later hits.

Eviction is strict LRU over a fixed capacity; all bookkeeping is
counter-based (no wall-clock timestamps), keeping the service layer's
determinism contract.  ``prefix=False`` restores the PR 3 exact-order
matching — kept for A/B measurement of the prefix win (the
``BENCH_PR7`` gate pins prefix >= exact hit-rate on the synthetic
trace).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ValidationError
from repro.kpm.moments import MomentData
from repro.util.validation import check_nonnegative_int, check_positive_int

__all__ = ["CacheEntry", "MomentCache"]


def _freeze(moments) -> None:
    """Mark the entry's arrays read-only (shared across all consumers)."""
    if isinstance(moments, MomentData):
        moments.mu.setflags(write=False)
        moments.per_realization.setflags(write=False)
    elif isinstance(moments, np.ndarray):
        moments.setflags(write=False)


@dataclass
class CacheEntry:
    """One cached moment computation.

    Attributes
    ----------
    moments:
        :class:`~repro.kpm.MomentData` (trace requests) or the raw moment
        array (LDoS).  Frozen read-only once cached.
    rescaling:
        The :class:`~repro.kpm.Rescaling` used to produce the moments.
    engine:
        Name of the engine that computed the entry.
    modeled_seconds:
        The engine's cumulative modeled cost invested in the entry —
        the original run plus any extensions (``None`` when the backend
        has no hardware model).  Used for the naive-vs-served
        throughput accounting.
    state:
        The :class:`~repro.kpm.moments.RecursionState` the moments were
        produced up to (``None`` when the engine is not resumable).
        Only valid at the entry's full stored order, so prefix slices
        drop it.
    """

    moments: object
    rescaling: object
    engine: str
    modeled_seconds: float | None
    state: object = None

    @property
    def num_moments(self) -> int:
        """Truncation order of the stored moments."""
        n = getattr(self.moments, "num_moments", None)
        if n is not None:
            return int(n)
        return int(len(self.moments))

    def prefix(self, num_moments: int) -> "CacheEntry":
        """This entry truncated to ``num_moments`` orders (views, no copy)."""
        num_moments = check_positive_int(num_moments, "num_moments")
        if num_moments > self.num_moments:
            raise ValidationError(
                f"prefix of {num_moments} moments exceeds the stored "
                f"{self.num_moments}"
            )
        if num_moments == self.num_moments:
            return self
        if isinstance(self.moments, MomentData):
            sliced = self.moments.prefix(num_moments)
        else:
            sliced = self.moments[:num_moments]
        return replace(self, moments=sliced, state=None)


class MomentCache:
    """Bounded LRU mapping ``(fingerprint, identity_key) -> CacheEntry``.

    Parameters
    ----------
    capacity:
        Maximum number of entries; ``0`` disables caching (every lookup
        misses, nothing is stored).
    prefix:
        ``True`` (default) serves ``N' <= N_cached`` lookups as slices;
        ``False`` restores exact-order matching (the PR 3 behaviour,
        kept for A/B hit-rate comparison).
    """

    def __init__(self, capacity: int = 128, *, prefix: bool = True):
        self.capacity = check_nonnegative_int(capacity, "capacity")
        self.prefix = bool(prefix)
        self._entries: OrderedDict[tuple, CacheEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Hits served as a strict prefix slice (``N' < N_cached``).
        self.prefix_hits = 0
        #: Stored entries replaced by their own in-place extension.
        self.extensions = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        return key in self._entries

    def entry_at(self, key: tuple) -> CacheEntry | None:
        """The stored entry, full length, without touching counters/LRU."""
        return self._entries.get(key)

    def get(self, key: tuple, num_moments: int | None = None) -> CacheEntry | None:
        """Look up ``key`` at order ``num_moments``; count hit/miss.

        ``num_moments=None`` requires nothing of the stored order and
        returns the full entry.  Otherwise the lookup hits when the
        stored order covers the request — exactly in ``prefix=False``
        mode, ``N' <= N_cached`` in prefix mode (served as a
        bit-identical slice).  A hit refreshes LRU recency.
        """
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if num_moments is not None:
            num_moments = check_positive_int(num_moments, "num_moments")
            stored = entry.num_moments
            if num_moments > stored:
                self.misses += 1
                return None
            if num_moments < stored:
                if not self.prefix:
                    self.misses += 1
                    return None
                self._entries.move_to_end(key)
                self.hits += 1
                self.prefix_hits += 1
                return entry.prefix(num_moments)
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def peek_extendable(self, key: tuple, num_moments: int) -> CacheEntry | None:
        """The stored entry if it is a resumable strict prefix of ``num_moments``.

        Returns the *full-length* entry (recursion state included) when
        one is stored below the requested order with a checkpoint to
        resume from; ``None`` otherwise.  Does not count a hit or miss —
        the caller already recorded the lookup via :meth:`get`.
        """
        if not self.prefix:
            return None
        num_moments = check_positive_int(num_moments, "num_moments")
        entry = self._entries.get(key)
        if entry is None or entry.state is None:
            return None
        if entry.num_moments >= num_moments:
            return None
        self._entries.move_to_end(key)
        return entry

    def put(self, key: tuple, entry: CacheEntry, *, extended: bool = False) -> None:
        """Insert ``entry``, keeping the longer table on key collision.

        The stored arrays are frozen read-only.  ``extended=True`` marks
        the insertion as an in-place extension of the previously stored
        entry (counted separately from fresh inserts).  Eviction is
        LRU beyond ``capacity``.
        """
        if not isinstance(entry, CacheEntry):
            raise ValidationError(
                f"entry must be a CacheEntry, got {type(entry).__name__}"
            )
        if self.capacity == 0:
            return
        existing = self._entries.get(key)
        if existing is not None:
            if existing.num_moments > entry.num_moments:
                # Never clobber a longer table with its own prefix.
                self._entries.move_to_end(key)
                return
            if extended:
                self.extensions += 1
            self._entries.move_to_end(key)
        _freeze(entry.moments)
        self._entries[key] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()
