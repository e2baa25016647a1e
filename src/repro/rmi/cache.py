"""Gateway-side result cache: identical reads answered once per epoch.

The query model is read-dominated — clients repeatedly evaluate XPath
steps over a bulk-loaded encrypted document — so concurrent gateway
sessions running the same query mix redo *identical* upstream scatters,
Lagrange combination and share verification.  :class:`GatewayCache` stops
that: results of the read-only method surface are keyed by
``(method, canonical-args, deployment epoch)`` and shared across every
session behind the gateway.

Design points (mirroring the decoded-share LRU of
:class:`~repro.filters.server.ServerFilter`):

* **bounded bytes, LRU** — entries live in an :class:`OrderedDict`
  ordered by recency; storing past ``max_bytes`` evicts from the cold
  end.  Sizes are cheap recursive estimates of the codec-serialisable
  payloads, not exact interpreter accounting.
* **lock discipline** — one :class:`threading.RLock` guards the entry
  table and byte gauge, so the sync surface (:meth:`lookup` /
  :meth:`store`, used by a cache-aware
  :class:`~repro.filters.cluster.ClusterClient`) is safe from worker
  threads while the gateway's event loop drives the async surface.
* **single-flight** — :meth:`aget_or_compute` keeps a loop-confined map
  of in-flight computations: N sessions awaiting the same missing key
  trigger **one** upstream scatter and all share its result (counted as
  ``coalesced``).  Failures are never cached.
* **epoch invalidation** — every key carries the deployment epoch;
  :meth:`bump_epoch` increments it and drops every entry wholesale.
  This is the invalidation handle the future write path calls when it
  mutates rows (see ROADMAP): until row-granular versions exist, any
  write simply starts a new epoch.  A computation that was in flight
  across a bump completes for its waiters but is *not* stored.
* **immutability contract** — cached values are handed to every session
  by reference.  That is sound here because the cacheable surface
  returns plain codec values (ints, vectors, share bundles) that the
  client stack treats as read-only; anything mutating a result must
  copy it first.

Counters (hits, misses, coalesces, evictions, epoch drops) are a
:class:`~repro.rmi.stats.CacheStats` and surface through the gateway's
``__stats__`` method.
"""

from __future__ import annotations

import asyncio
import threading
from collections import OrderedDict
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from repro.rmi.methods import (
    CACHEABLE_METHODS,
    SHARE_READ_METHODS,
    STRUCTURAL_READ_METHODS,
)
from repro.rmi.stats import CacheStats

# The method sets live in the declarative spec table
# (:mod:`repro.rmi.methods`); the names above are re-exported from their
# historical home so existing imports keep working.  Queue-cursor methods
# (``open_queue``, ``next_node``, …) are deliberately not cacheable
# there: a cursor is per-session mutable state and must NEVER be served
# from a shared cache.

#: default byte bound used by the demo and the benches (the CLI default
#: is 0 = caching off, preserving the PR 6 gateway behaviour)
DEFAULT_CACHE_BYTES = 32 * 1024 * 1024


def canonical_args(args: Any) -> Optional[Tuple[Any, ...]]:
    """A hashable canonical form of a call's positional arguments.

    Lists and tuples collapse to tuples (the wire codec does not
    distinguish them), dicts to sorted item tuples.  Returns ``None``
    when any leaf is unhashable — such a call is simply not cacheable.
    """
    try:
        return _canonical(tuple(args))
    except TypeError:
        return None


def _canonical(value: Any) -> Any:
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, _canonical(item)) for key, item in value.items()))
    hash(value)  # unhashable leaves raise TypeError for canonical_args
    return value


def estimate_bytes(value: Any) -> int:
    """A cheap recursive size estimate of a codec-serialisable value.

    Deliberately approximate (flat per-scalar cost, container overhead
    plus children) — the bound exists to keep the cache from growing
    without limit, not to model the interpreter's allocator.
    """
    if value is None or isinstance(value, (bool, int, float)):
        return 28
    if isinstance(value, (str, bytes)):
        return 49 + len(value)
    if isinstance(value, (list, tuple)):
        return 56 + sum(estimate_bytes(item) for item in value)
    if isinstance(value, dict):
        return 64 + sum(
            estimate_bytes(key) + estimate_bytes(item) for key, item in value.items()
        )
    return 128  # anything exotic: a conservative flat guess


class GatewayCache:
    """Bounded, epoch-keyed, single-flight result cache for read methods.

    The sync surface (:meth:`lookup` / :meth:`store`) serves cache-aware
    sync clients; the async surface (:meth:`aget_or_compute`) adds
    single-flight coalescing for the gateway's event loop.  One instance
    may serve both at once — the entry table is lock-guarded — but the
    in-flight map is loop-confined: ``aget_or_compute`` must only ever
    run on one event loop.
    """

    def __init__(self, max_bytes: int, stats: Optional[CacheStats] = None):
        if max_bytes < 1:
            raise ValueError("max_bytes must be positive, got %r" % (max_bytes,))
        self.max_bytes = int(max_bytes)
        self.stats = stats or CacheStats()
        self._lock = threading.RLock()
        #: key -> (value, estimated bytes); insertion end = most recent
        self._entries: "OrderedDict[Tuple[Any, ...], Tuple[Any, int]]" = OrderedDict()
        self._bytes = 0
        self._epoch = 0
        #: loop-confined: in-flight computations keyed like the entries
        self._inflight: Dict[Tuple[Any, ...], "asyncio.Task"] = {}

    # ------------------------------------------------------------------
    # Keys and epochs
    # ------------------------------------------------------------------

    @property
    def epoch(self) -> int:
        """The current deployment epoch (bumped to invalidate wholesale)."""
        with self._lock:
            return self._epoch

    def key_for(self, method: str, args: Any) -> Optional[Tuple[Any, ...]]:
        """The cache key of one call, or ``None`` when not cacheable."""
        canon = canonical_args(args)
        if canon is None:
            return None
        with self._lock:
            return (method, canon, self._epoch)

    def bump_epoch(self) -> int:
        """Start a new epoch: every cached entry is dropped at once.

        The write path's wholesale invalidation handle — callable from
        any thread.  Returns the new epoch.  Computations in flight
        across the bump still answer their waiters but are not stored
        (their key carries the old epoch).
        """
        with self._lock:
            self._epoch += 1
            dropped = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            epoch = self._epoch
        if dropped:
            self.stats.record_invalidated(dropped)
        return epoch

    # ------------------------------------------------------------------
    # Sync surface (cache-aware sync clients)
    # ------------------------------------------------------------------

    def _probe(self, key: Tuple[Any, ...]) -> Tuple[bool, Any]:
        """(found, value) without counter side effects; refreshes recency."""
        with self._lock:
            if key[2] != self._epoch:
                return False, None
            entry = self._entries.get(key)
            if entry is None:
                return False, None
            self._entries.move_to_end(key)
            return True, entry[0]

    def lookup(self, method: str, args: Any) -> Tuple[bool, Any]:
        """Look one call up: ``(True, value)`` on a hit, ``(False, None)``
        otherwise (also for uncacheable arguments)."""
        key = self.key_for(method, args)
        if key is None:
            self.stats.record_miss()
            return False, None
        found, value = self._probe(key)
        if found:
            self.stats.record_hit()
        else:
            self.stats.record_miss()
        return found, value

    def store(self, method: str, args: Any, value: Any) -> bool:
        """Admit one computed result (returns whether it was stored)."""
        key = self.key_for(method, args)
        if key is None:
            return False
        return self._store_key(key, value)

    def _store_key(self, key: Tuple[Any, ...], value: Any) -> bool:
        size = estimate_bytes(key[1]) + estimate_bytes(value) + 96
        if size > self.max_bytes:
            self.stats.record_oversized()
            return False
        evicted = 0
        with self._lock:
            if key[2] != self._epoch:
                return False  # the epoch moved on while this was computing
            old = self._entries.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            self._entries[key] = (value, size)
            self._bytes += size
            while self._bytes > self.max_bytes and self._entries:
                _, (_, freed) = self._entries.popitem(last=False)
                self._bytes -= freed
                evicted += 1
        self.stats.record_store()
        if evicted:
            self.stats.record_eviction(evicted)
        return True

    # ------------------------------------------------------------------
    # Async surface (the gateway's single-flight path)
    # ------------------------------------------------------------------

    async def aget_or_compute(
        self,
        method: str,
        args: Any,
        compute: Callable[[], Awaitable[Any]],
    ) -> Any:
        """One read through the cache, coalescing identical misses.

        On a miss, the first caller becomes the *leader*: its
        ``compute()`` coroutine runs as an independent task whose result
        is stored and shared.  Every concurrent caller of the same key
        awaits that one task (``coalesced``) instead of scattering
        upstream again.  The task is shielded from waiter cancellation —
        a client disconnecting mid-wait must not kill the computation
        the other N-1 sessions are waiting on.  Errors propagate to all
        waiters and are never cached.
        """
        key = self.key_for(method, args)
        if key is None:
            self.stats.record_miss()
            return await compute()
        found, value = self._probe(key)
        if found:
            self.stats.record_hit()
            return value
        task = self._inflight.get(key)
        if task is not None:
            self.stats.record_coalesced()
            return await asyncio.shield(task)
        self.stats.record_miss()
        task = asyncio.ensure_future(compute())
        self._inflight[key] = task
        task.add_done_callback(lambda done, key=key: self._settle(key, done))
        return await asyncio.shield(task)

    def _settle(self, key: Tuple[Any, ...], task: "asyncio.Task") -> None:
        self._inflight.pop(key, None)
        if task.cancelled():
            return
        # Consuming the exception here keeps abandoned leaders (every
        # waiter gone mid-flight) from warning at teardown; live waiters
        # still receive it from their own await.
        if task.exception() is not None:
            return  # failures are never cached
        self._store_key(key, task.result())

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Counters plus occupancy, as one fresh plain dict."""
        with self._lock:
            data: Dict[str, Any] = {
                "max_bytes": self.max_bytes,
                "bytes": self._bytes,
                "entries": len(self._entries),
                "epoch": self._epoch,
            }
        data.update(self.stats.snapshot())
        return data

    def clear(self) -> None:
        """Drop every entry without starting a new epoch (tests, demos)."""
        with self._lock:
            self._entries.clear()
            self._bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - repr cosmetics
        with self._lock:
            return "GatewayCache(entries=%d, bytes=%d/%d, epoch=%d)" % (
                len(self._entries),
                self._bytes,
                self.max_bytes,
                self._epoch,
            )
