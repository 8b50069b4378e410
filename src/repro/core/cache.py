"""Bounded model cache: LRU capacity, exact counters.

Long-running multi-tenant deployments register far more query templates
than are hot at any moment.  :class:`ModelCache` bounds the per-template
estimation engines (e.g. :class:`~repro.core.dream.OnlineDreamEstimator`
instances) that :class:`~repro.ires.modelling.DreamStrategy` used to
keep for the process lifetime (the ROADMAP "model cache eviction" item):

* **LRU capacity** — at most ``capacity`` entries; inserting past that
  evicts the least-recently-used entry.
* **Exact stats** — every lookup is classified as exactly one of hit /
  miss, and every removal (capacity, ``clear``, or a recycled-key
  replacement) counts as an eviction, under one lock, so tests can
  assert the counters precisely.

Eviction is always safe for estimation engines: their state is derived
from the (append-only) execution history, so a re-created engine refits
to the identical window and predictions — only the incremental speedup
is lost for one call.  The cache is thread-safe; the factory passed to
:meth:`ModelCache.get_or_create` runs under the cache lock and must be
cheap (construct the engine, do not fit it).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.common.validation import require

@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of the cache counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    size: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class _Entry:
    __slots__ = ("value", "anchor")

    def __init__(self, value: Any, anchor: Any):
        self.value = value
        self.anchor = anchor


class ModelCache:
    """Thread-safe LRU cache for per-template model engines.

    Parameters
    ----------
    capacity:
        Maximum number of live entries (>= 1).
    """

    def __init__(self, capacity: int = 64):
        require(capacity >= 1, f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._entries: OrderedDict[Any, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # Lookup ---------------------------------------------------------------

    def get_or_create(
        self, key: Any, factory: Callable[[], Any], anchor: Any = None
    ) -> Any:
        """Return the cached value for ``key``, creating it on a miss.

        ``anchor`` guards against key reuse: an ``id()``-based key can be
        recycled after garbage collection, so a cached entry only counts
        as a hit when its anchor is the *same object* that was passed at
        creation time.  The anchor is held by the entry, keeping the
        anchored object (e.g. an execution history) alive while cached.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if anchor is not None and entry.anchor is not anchor:
                    # Recycled key: the stale entry's removal counts as
                    # an eviction so every removal stays accounted for,
                    # and the lookup itself is a miss.
                    del self._entries[key]
                    self._evictions += 1
                else:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    return entry.value
            self._misses += 1
            value = factory()
            self._entries[key] = _Entry(value, anchor)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1
            return value

    def peek(self, key: Any) -> Any | None:
        """The cached value without touching LRU order or counters."""
        with self._lock:
            entry = self._entries.get(key)
            return None if entry is None else entry.value

    # Maintenance ----------------------------------------------------------

    def clear(self) -> None:
        """Drop all entries (counted as evictions)."""
        with self._lock:
            self._evictions += len(self._entries)
            self._entries.clear()

    # Introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Any) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
            )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        s = self.stats
        return (
            f"ModelCache(size={s.size}/{self.capacity}, "
            f"hits={s.hits}, misses={s.misses}, evictions={s.evictions})"
        )
