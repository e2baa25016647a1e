"""The gateway result cache, fair scheduler and stats-snapshot units.

Pure in-process tests (no sockets): the :class:`GatewayCache` key/LRU/epoch
semantics, its single-flight coalescing on a local event loop, the
:class:`WeightedFairScheduler` admission order, a shared result cache on
the *sync* :class:`ClusterClient` read path, and the locking discipline of
the stats snapshots under racing writers.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.encode.encoder import Encoder
from repro.encode.tagmap import TagMap
from repro.filters.cluster import ClusterClient
from repro.filters.server import ServerFilter
from repro.gf.factory import make_field
from repro.rmi.aio import WeightedFairScheduler
from repro.rmi.cache import (
    CACHEABLE_METHODS,
    GatewayCache,
    canonical_args,
    estimate_bytes,
)
from repro.rmi.cluster import ClusterTransport
from repro.rmi.stats import CacheStats, CallStats

XML = (
    "<site>"
    "<people><person><name/><city/></person><person><city/></person></people>"
    "<regions><europe><item><name/></item></europe></regions>"
    "</site>"
)
TAGS = ["site", "people", "person", "name", "city", "regions", "europe", "item"]
SEED = b"result-cache-test-seed-012345678"
FIELD = make_field(83)


# ----------------------------------------------------------------------
# Keys, sizes, LRU and epochs
# ----------------------------------------------------------------------


def test_canonical_args_collapses_wire_equivalent_forms():
    # the codec does not distinguish list from tuple, so neither may the key
    assert canonical_args(([1, 2, 3], 5)) == canonical_args(((1, 2, 3), 5))
    assert canonical_args(({"b": 2, "a": [1]},)) == canonical_args(({"a": (1,), "b": 2},))
    # an unhashable leaf simply opts the call out of caching
    assert canonical_args((object(),)) is not None  # objects are hashable
    assert canonical_args(({1, 2},)) is None


def test_queue_cursor_methods_are_not_cacheable():
    for method in ("open_queue", "open_children_queue", "open_descendants_queue",
                   "next_node", "queue_size", "close_queue"):
        assert method not in CACHEABLE_METHODS


def test_estimate_bytes_grows_with_payload():
    small = estimate_bytes([1, 2, 3])
    large = estimate_bytes(list(range(1000)))
    assert 0 < small < large
    assert estimate_bytes("x" * 100) > estimate_bytes("x")


def test_lru_evicts_from_the_cold_end_under_byte_pressure():
    # room for roughly two vector entries, never three
    one_entry = estimate_bytes((1,)) + estimate_bytes(list(range(50))) + 96
    cache = GatewayCache(2 * one_entry + 10)
    cache.store("fetch_share", (1,), list(range(50)))
    cache.store("fetch_share", (2,), list(range(50)))
    assert cache.lookup("fetch_share", (1,))[0]  # touch 1: now most recent
    cache.store("fetch_share", (3,), list(range(50)))  # evicts 2, the coldest
    assert cache.lookup("fetch_share", (1,))[0]
    assert not cache.lookup("fetch_share", (2,))[0]
    assert cache.lookup("fetch_share", (3,))[0]
    assert cache.stats.evictions == 1
    assert len(cache) == 2


def test_oversized_results_are_never_admitted():
    cache = GatewayCache(256)
    assert cache.store("fetch_share", (1,), list(range(10_000))) is False
    assert len(cache) == 0
    assert cache.stats.oversized == 1


def test_epoch_bump_invalidates_wholesale():
    cache = GatewayCache(1 << 20)
    cache.store("evaluate", (1, 5), 42)
    cache.store("node_count", (), 9)
    assert cache.epoch == 0 and len(cache) == 2
    assert cache.bump_epoch() == 1
    assert len(cache) == 0
    assert not cache.lookup("evaluate", (1, 5))[0]
    assert cache.stats.invalidated == 2
    # storing again under the new epoch works
    cache.store("evaluate", (1, 5), 43)
    assert cache.lookup("evaluate", (1, 5)) == (True, 43)


def test_max_bytes_must_be_positive():
    with pytest.raises(ValueError):
        GatewayCache(0)


# ----------------------------------------------------------------------
# Single-flight coalescing (local event loop)
# ----------------------------------------------------------------------


def test_single_flight_coalesces_concurrent_identical_misses():
    cache = GatewayCache(1 << 20)
    calls = []

    async def scenario():
        release = asyncio.Event()

        async def compute():
            calls.append(1)
            await release.wait()
            return [1, 2, 3]

        tasks = [
            asyncio.ensure_future(cache.aget_or_compute("fetch_share", (7,), compute))
            for _ in range(8)
        ]
        await asyncio.sleep(0)  # let every waiter reach the cache
        release.set()
        return await asyncio.gather(*tasks)

    results = asyncio.run(scenario())
    assert len(calls) == 1  # ONE upstream computation for 8 callers
    assert all(value == [1, 2, 3] for value in results)
    assert cache.stats.misses == 1
    assert cache.stats.coalesced == 7
    # and the settled result is cached for later callers
    assert cache.lookup("fetch_share", (7,)) == (True, [1, 2, 3])


def test_single_flight_failures_propagate_and_are_not_cached():
    cache = GatewayCache(1 << 20)

    async def scenario():
        async def boom():
            raise RuntimeError("upstream died")

        with pytest.raises(RuntimeError):
            await cache.aget_or_compute("evaluate", (1, 5), boom)

        async def fine():
            return 42

        return await cache.aget_or_compute("evaluate", (1, 5), fine)

    assert asyncio.run(scenario()) == 42
    assert len(cache) == 1  # only the successful result was stored


def test_result_computed_across_an_epoch_bump_is_not_stored():
    cache = GatewayCache(1 << 20)

    async def scenario():
        release = asyncio.Event()

        async def compute():
            await release.wait()
            return 7

        task = asyncio.ensure_future(cache.aget_or_compute("evaluate", (1, 2), compute))
        await asyncio.sleep(0)
        cache.bump_epoch()  # the write path invalidates mid-flight
        release.set()
        return await task

    assert asyncio.run(scenario()) == 7
    assert len(cache) == 0  # stale-epoch result answered its waiter, not the cache
    assert not cache.lookup("evaluate", (1, 2))[0]


# ----------------------------------------------------------------------
# Weighted fair scheduling
# ----------------------------------------------------------------------


def test_scheduler_admits_cheap_sessions_before_the_hog():
    async def scenario():
        sched = WeightedFairScheduler(session_cap=8, max_inflight=1)
        await sched.acquire("warm", cost=1)  # occupies the single global slot
        hog = asyncio.ensure_future(sched.acquire("hog", cost=100))
        small = asyncio.ensure_future(sched.acquire("small", cost=1))
        await asyncio.sleep(0)
        assert not hog.done() and not small.done()
        sched.release("warm")
        await asyncio.sleep(0)
        # the small call's virtual finish is far earlier: it goes first
        assert small.done() and not hog.done()
        sched.release("small")
        await asyncio.sleep(0)
        assert hog.done()
        sched.release("hog")
        snap = sched.snapshot()
        assert snap["admitted"] == 3 and snap["active"] == 0 and snap["waiting"] == 0

    asyncio.run(scenario())


def test_session_cap_skips_the_capped_session_without_blocking_others():
    async def scenario():
        sched = WeightedFairScheduler(session_cap=1)
        await sched.acquire("a", cost=1)  # a is now at its cap
        second = asyncio.ensure_future(sched.acquire("a", cost=1))
        await asyncio.sleep(0)
        assert not second.done()
        # b queues *behind* a's waiter in virtual time but is admitted
        # immediately — the capped waiter must not head-of-line block it
        await asyncio.wait_for(sched.acquire("b", cost=5), timeout=1.0)
        assert not second.done()
        sched.release("a")
        await asyncio.sleep(0)
        assert second.done()
        sched.release("a")
        sched.release("b")

    asyncio.run(scenario())


def test_forget_frees_slots_and_cancels_queued_waiters():
    async def scenario():
        sched = WeightedFairScheduler(session_cap=1, max_inflight=1)
        await sched.acquire("gone", cost=1)
        queued = asyncio.ensure_future(sched.acquire("gone", cost=1))
        other = asyncio.ensure_future(sched.acquire("live", cost=1))
        await asyncio.sleep(0)
        assert not queued.done() and not other.done()
        sched.forget("gone")  # the session disconnected
        await asyncio.sleep(0)
        assert queued.cancelled()
        assert other.done() and not other.cancelled()  # inherited the slot
        sched.release("live")

    asyncio.run(scenario())


def test_scheduler_rejects_degenerate_bounds():
    with pytest.raises(ValueError):
        WeightedFairScheduler(session_cap=0)
    with pytest.raises(ValueError):
        WeightedFairScheduler(max_inflight=0)


# ----------------------------------------------------------------------
# The sync client's shared result cache
# ----------------------------------------------------------------------


def _deploy():
    tag_map = TagMap.from_names(TAGS, field=FIELD)
    return Encoder(tag_map, SEED).deploy_text(XML, servers=3, threshold=2, sharing="shamir")


def _client(deployment, cache=None):
    filters = [ServerFilter(table, deployment.ring) for table in deployment.node_tables]
    transport = ClusterTransport(filters)
    return ClusterClient(transport, deployment.scheme, result_cache=cache), transport


def test_cluster_client_shares_structural_and_share_reads_through_the_cache():
    deployment = _deploy()
    cache = GatewayCache(1 << 22)
    first, transport_a = _client(deployment, cache)
    second, transport_b = _client(deployment, cache)
    plain, _ = _client(deployment)  # no cache: the reference answers

    root = first.root_pre()
    pres = first.children_of(root)
    evaluated = first.evaluate_batch(pres, 7)
    share = first.fetch_share(root)
    assert cache.stats.stores >= 4

    # the second client answers every repeated read from the shared cache
    assert second.root_pre() == root == plain.root_pre()
    assert second.children_of(root) == pres == plain.children_of(root)
    assert second.evaluate_batch(pres, 7) == evaluated == plain.evaluate_batch(pres, 7)
    assert second.fetch_share(root) == share == plain.fetch_share(root)
    assert cache.stats.hits >= 4
    # ... without a single call of its own crossing the transport
    assert all(t.stats.calls == 0 for t in transport_b.transports)
    # while queue cursors stay per-client and uncached
    qa = first.open_queue(pres)
    qb = second.open_queue(pres)
    assert first.next_node(qa) == second.next_node(qb)  # separate live cursors
    assert any(t.stats.calls > 0 for t in transport_b.transports)


def test_cluster_client_without_cache_is_unchanged():
    deployment = _deploy()
    client, transport = _client(deployment)
    root = client.root_pre()
    assert client.evaluate(root, 5) == client.evaluate(root, 5)
    # both evaluations crossed the wire: no implicit caching crept in
    total = sum(t.stats.calls_by_method.get("evaluate", 0) for t in transport.transports)
    assert total == 2 * transport.num_servers


# ----------------------------------------------------------------------
# Stats snapshots under racing writers
# ----------------------------------------------------------------------


def test_callstats_snapshot_is_consistent_under_racing_writers():
    """Regression: snapshot()/per_method() iterate the by-method dicts; a
    concurrent record() growing them used to be able to tear the iteration.
    Both must copy under the lock and never hand out live references."""
    stats = CallStats()
    stop = threading.Event()
    errors = []

    def writer():
        index = 0
        try:
            while not stop.is_set():
                stats.record("method_%d" % (index % 64), 10, 20, 0.0)
                index += 1
        except Exception as exc:  # pragma: no cover - the regression itself
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(400):
            snapshot = stats.snapshot()
            # the view must be internally consistent, not torn mid-record
            assert sum(row["calls"] for row in snapshot["by_method"].values()) == snapshot["calls"]
            assert snapshot["bytes_sent"] * 2 == snapshot["bytes_received"]
            per = stats.per_method()
            for row in per.values():
                row["calls"] = -1  # a fresh copy: scribbling must not leak back
    finally:
        stop.set()
        for thread in threads:
            thread.join()
    assert not errors
    assert stats.calls > 0
    assert all(count >= 0 for count in stats.calls_by_method.values())


def test_cachestats_snapshot_and_hit_rate():
    stats = CacheStats()
    stats.record_hit()
    stats.record_miss()
    stats.record_coalesced()
    stats.record_store()
    snapshot = stats.snapshot()
    assert snapshot["hits"] == 1 and snapshot["misses"] == 1 and snapshot["coalesced"] == 1
    assert snapshot["hit_rate"] == pytest.approx(2 / 3)
    stats.reset()
    assert stats.snapshot()["hits"] == 0
