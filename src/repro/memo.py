"""Process-wide memo for pure derivations keyed by content.

A :class:`ContentMemo` maps a key to the result of a derivation that
reads nothing but what the key covers: layer digests, content digests,
refs, the arguments that decide a mutation.  Equal keys therefore mean
equal results, so one result serves every caller in the process: every
engine, session and service tenant.  The memo hands out the stored
object itself, so a result must be immutable or copied by the caller
before it changes anything.  Past ``cap`` entries the least recently
used one is dropped.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generic, Hashable, TypeVar

V = TypeVar("V")


class ContentMemo(Generic[V]):
    """A bounded LRU map from content keys to derived values."""

    def __init__(self, cap: int) -> None:
        self.cap = cap
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def get(self, key: Hashable, derive: Callable[[], V]) -> V:
        """The value stored under *key*, derived (and stored) on a miss."""
        entries = self._entries
        if key in entries:
            self.hits += 1
            entries.move_to_end(key)
            return entries[key]
        self.misses += 1
        value = entries[key] = derive()
        if len(entries) > self.cap:
            entries.popitem(last=False)
        return value

    def clear(self) -> None:
        self._entries.clear()
