"""Per-session cost-curve cache: repeat solves read the curve, not re-run it.

Every dispatch case of ``ComputeADP`` produces a whole
:class:`~repro.core.curves.CostCurve` in one pass, and a curve computed at
``kmax`` answers every target ``k <= kmax`` exactly as a fresh solve at
``k`` would (the greedy picks of Theorem 5's partial set cover do not
depend on the target up to the stopping point; the exact curves are optimal
pointwise).  :class:`CurveCache` keeps the last curve per key so that a
repeat solve of an unchanged (query, database version) skips the solver.

Entries
-------
One entry per key -- the session builds it from the query's canonical form,
the solver's type and its configuration.  An entry records the database
``version_token()`` it was computed on, the ``kmax`` it was computed at, the
curve, and the solver's heuristic-fallback count (so a hit reports the same
solution stats as the cold solve).  A lookup hits when the token matches and
the requested ``kmax`` is at most the entry's; otherwise the curve is
recomputed at the requested ``kmax`` and replaces the entry.  A mutation
changes the token, so stale entries simply miss -- nothing is migrated --
and the first insert at the new token drops every entry of an older one.

The cache does not keep the greedy's working state (its
``ProvenanceIndex``) to resume a curve at a larger ``kmax``: that would pin
a mutated index per entry for a rare request shape.

Concurrency
-----------
Concurrent misses on one key compute once: the first caller computes under
that key's flight lock while the others wait on it and then read the new
entry.  Misses on distinct keys never wait on each other.  Lock order is
flight lock, then the table lock; the table lock is never held while a
curve is computed.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, NamedTuple, Optional, Tuple

from repro.core.curves import CostCurve
from repro.engine.cache import MAX_ENTRIES_PER_DATABASE


class CachedCurve(NamedTuple):
    """One cache entry: a curve and what it is valid for."""

    token: Hashable
    kmax: int
    curve: CostCurve
    fallbacks: int


class CurveCache:
    """An LRU of :class:`CachedCurve` entries (see the module docstring)."""

    def __init__(self, max_entries: int = MAX_ENTRIES_PER_DATABASE) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, CachedCurve]" = OrderedDict()
        self._flights: Dict[Hashable, threading.Lock] = {}
        self._max_entries = max_entries
        self.hits = 0
        self.misses = 0

    def _lookup(self, key: Hashable, token: Hashable, kmax: int) -> Optional[CachedCurve]:
        """The entry for ``key`` if it serves ``(token, kmax)``; counts a hit."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or entry.token != token or kmax > entry.kmax:
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def get(
        self,
        key: Hashable,
        token: Hashable,
        kmax: int,
        compute: Callable[[], Tuple[CostCurve, int]],
    ) -> Tuple[CachedCurve, bool]:
        """``(entry, hit)`` for ``key`` at ``(token, kmax)``.

        On a miss ``compute()`` returns ``(curve, fallbacks)`` computed at
        ``kmax``; it runs at most once per key at a time.
        """
        entry = self._lookup(key, token, kmax)
        if entry is not None:
            return entry, True
        with self._lock:
            flight = self._flights.setdefault(key, threading.Lock())
        with flight:
            entry = self._lookup(key, token, kmax)
            if entry is not None:
                return entry, True
            curve, fallbacks = compute()
            entry = CachedCurve(token, kmax, curve, fallbacks)
            with self._lock:
                self.misses += 1
                # Version tokens only grow and a session serves one
                # database, so an entry with another token can never hit
                # again: drop it now rather than pin its curve until LRU
                # eviction (as EvaluationCache.store does).
                stale = [k for k, e in self._entries.items() if e.token != token]
                for old in stale:
                    del self._entries[old]
                self._entries[key] = entry
                self._entries.move_to_end(key)
                while len(self._entries) > self._max_entries:
                    evicted, _ = self._entries.popitem(last=False)
                    self._flights.pop(evicted, None)
        return entry, False

    def tally(self, hits: int, misses: int) -> None:
        """Count lookups served elsewhere (a worker process's session)."""
        with self._lock:
            self.hits += hits
            self.misses += misses

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self._flights.clear()
            self.hits = 0
            self.misses = 0

    def stats(self) -> Tuple[int, int]:
        """``(hits, misses)`` since the last :meth:`clear`."""
        with self._lock:
            return (self.hits, self.misses)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


__all__ = ["CachedCurve", "CurveCache"]
