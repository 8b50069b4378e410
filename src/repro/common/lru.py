"""A small thread-safe LRU map for bounded hot-path caches.

The enumerator's feature-prefix cache and the per-session enumeration
cache key on query instances, whose number grows with traffic while the
reusable working set stays small; both keep the most recently used
entries only.
(Pure functions of hashable arguments use :func:`functools.lru_cache`
instead.)
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any

from repro.common.validation import require


class LruCache:
    """At most ``capacity`` entries; storing past that evicts the least
    recently used one.  :meth:`get` counts as a use."""

    def __init__(self, capacity: int):
        require(capacity >= 1, f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        #: Entries ever stored, evicted or not.
        self.insertions = 0
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Any) -> Any | None:
        """The value stored under ``key`` (``None`` when absent)."""
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: Any, value: Any) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            self.insertions += 1
            if len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)
