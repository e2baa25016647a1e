"""Gateway result cache and per-session QoS over real sockets.

A live three-server fleet behind a cached (and optionally fair) gateway:
byte-identical results and client-side counters against the uncached
gateway and the direct in-process stack, single-flight coalescing across
eight concurrent sessions, over-the-wire epoch invalidation, the
``__stats__`` surface, and session isolation of queue cursors with the
shared cache on.
"""

from __future__ import annotations

import os
import tempfile
import threading

import pytest

from repro.encode.encoder import Encoder
from repro.encode.tagmap import TagMap
from repro.engines.advanced import AdvancedQueryEngine
from repro.engines.simple import SimpleQueryEngine
from repro.filters.client import ClientFilter
from repro.filters.cluster import ClusterClient
from repro.filters.interface import MatchRule
from repro.filters.server import ServerFilter
from repro.gf.factory import make_field
from repro.prg.seed import SeedFile
from repro.rmi.aio import AsyncClusterTransport
from repro.rmi.cluster import ClusterTransport
from repro.rmi.gateway import Gateway, GatewayEndpoint, GatewayProcess
from repro.rmi.server import SocketCluster, SocketServer

XML = (
    "<site>"
    "<people><person><name/><city/></person><person><city/></person></people>"
    "<regions><europe><item><name/></item></europe></regions>"
    "</site>"
)
TAGS = ["site", "people", "person", "name", "city", "regions", "europe", "item"]
SEED = b"gateway-cache-test-seed-01234567"
FIELD = make_field(83)

QUERIES = [
    ("//city", MatchRule.CONTAINMENT),
    ("/site/people/person", MatchRule.EQUALITY),
    ("/site//item/name", MatchRule.CONTAINMENT),
]


def _tag_map():
    return TagMap.from_names(TAGS, field=FIELD)


def _deploy(sharing="shamir"):
    kwargs = {"threshold": 2} if sharing == "shamir" else {}
    return Encoder(_tag_map(), SEED).deploy_text(XML, servers=3, sharing=sharing, **kwargs)


class _Stack:
    """A live fleet with a gateway in front, torn down deterministically."""

    def __init__(self, sharing="shamir", cache_bytes=0, fair=False, delay=0.0):
        self.deployment = _deploy(sharing)
        self.filters = [
            ServerFilter(table, self.deployment.ring)
            for table in self.deployment.node_tables
        ]
        self.fleet = [
            SocketServer(f, name="fleet-%d" % i, delay=delay)
            for i, f in enumerate(self.filters)
        ]
        for server in self.fleet:
            server.start()
        self.cluster = AsyncClusterTransport([server.address for server in self.fleet])
        self.gateway = Gateway(
            self.cluster, self.deployment.scheme, cache_bytes=cache_bytes, fair=fair
        )
        self.gateway.start()

    def endpoint(self, **kwargs):
        kwargs.setdefault("timeout", 15.0)
        return GatewayEndpoint(self.gateway.address, **kwargs)

    def close(self):
        self.gateway.close()
        for server in self.fleet:
            server.close()


def _reference_client(deployment):
    filters = [ServerFilter(table, deployment.ring) for table in deployment.node_tables]
    return ClusterClient(ClusterTransport(filters), deployment.scheme)


# ----------------------------------------------------------------------
# Byte-identical results and counters, cache on vs cache off
# ----------------------------------------------------------------------


@pytest.mark.parametrize("sharing", ["additive", "shamir"])
def test_results_and_counters_identical_cache_on_vs_off(sharing):
    """The cache is invisible to correctness: every query's matches AND
    client-side evaluation counters are identical with caching on, with
    caching off, and against the direct in-process cluster stack — for
    both the additive n=3 and the (2,3)-Shamir deployment."""
    cached = _Stack(sharing=sharing, cache_bytes=1 << 22)
    plain = _Stack(sharing=sharing)
    endpoints = []

    def run_mix(client_filter):
        """The same execution sequence everywhere: each query twice per
        engine, so the cached stack's second pass is served by the cache."""
        trace = []
        for query, rule in QUERIES:
            for engine_cls in (SimpleQueryEngine, AdvancedQueryEngine):
                for _ in range(2):
                    result = engine_cls(client_filter).execute(query, rule=rule)
                    trace.append((query, result.matches, dict(result.counters)))
        return trace

    try:
        on_trace = off_trace = None
        for stack in (cached, plain):
            endpoint = stack.endpoint()
            endpoints.append(endpoint)
            remote = ClientFilter(endpoint, stack.deployment.scheme, _tag_map())
            trace = run_mix(remote)
            if stack is cached:
                on_trace = trace
            else:
                off_trace = trace
        # cache on and cache off are byte-identical, run for run
        assert on_trace == off_trace
        # and both agree with the direct in-process stack
        direct = ClientFilter(
            _reference_client(plain.deployment), plain.deployment.scheme, _tag_map()
        )
        assert run_mix(direct) == off_trace
        assert cached.gateway.cache.stats.hits > 0  # the cache actually served
        assert plain.gateway.cache is None
    finally:
        for endpoint in endpoints:
            endpoint.close()
        cached.close()
        plain.close()


# ----------------------------------------------------------------------
# Single-flight coalescing across sessions
# ----------------------------------------------------------------------


def test_identical_concurrent_requests_scatter_upstream_once():
    """Eight sessions ask the same question at once against a slow fleet:
    ONE upstream scatter answers all eight (the leader misses, seven
    coalesce onto its in-flight computation)."""
    stack = _Stack(cache_bytes=1 << 22, delay=0.3)
    endpoints = [stack.endpoint() for _ in range(8)]
    try:
        warm = stack.endpoint()
        root = warm.root_pre()
        pres = warm.children_of(root)
        warm.close()
        stack.gateway.cache.clear()
        stack.gateway.cache.stats.reset()
        for transport in stack.cluster.transports:
            transport.stats.reset()
        barrier = threading.Barrier(8)
        results, errors = [None] * 8, []

        def worker(slot):
            try:
                barrier.wait(timeout=10.0)
                results[slot] = endpoints[slot].fetch_shares_batch(pres)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        assert not errors
        assert all(value == results[0] and value is not None for value in results)
        stats = stack.gateway.cache.stats
        assert stats.misses == 1  # one leader
        assert stats.coalesced + stats.hits == 7  # everyone else shared it
        upstream = sum(
            transport.stats.calls_by_method.get("fetch_shares_batch", 0)
            for transport in stack.cluster.transports
        )
        assert upstream == 3  # exactly one 3-server scatter for all 8 sessions
    finally:
        for endpoint in endpoints:
            endpoint.close()
        stack.close()


# ----------------------------------------------------------------------
# Epoch invalidation: in-process and over the wire
# ----------------------------------------------------------------------


def test_epoch_bump_invalidates_over_the_wire():
    stack = _Stack(cache_bytes=1 << 22)
    endpoint = stack.endpoint()
    try:
        root = endpoint.root_pre()
        share = endpoint.fetch_share(root)
        assert len(stack.gateway.cache) > 0
        assert endpoint.bump_epoch() == 1  # the remote write-path handle
        assert len(stack.gateway.cache) == 0
        assert stack.gateway.cache.epoch == 1
        # the read recomputes under the new epoch — same (unchanged) data
        assert endpoint.fetch_share(root) == share
        assert stack.gateway.cache.stats.invalidated >= 1
    finally:
        endpoint.close()
        stack.close()


def test_bump_epoch_without_a_cache_is_a_harmless_zero():
    stack = _Stack()
    endpoint = stack.endpoint()
    try:
        assert endpoint.bump_epoch() == 0
        assert endpoint.node_count() > 0
    finally:
        endpoint.close()
        stack.close()


# ----------------------------------------------------------------------
# The __stats__ surface
# ----------------------------------------------------------------------


def test_stats_surface_reports_cache_fairness_and_upstreams():
    stack = _Stack(cache_bytes=1 << 22, fair=True)
    endpoint = stack.endpoint()
    try:
        root = endpoint.root_pre()
        endpoint.fetch_share(root)
        endpoint.fetch_share(root)  # second read: a hit
        snapshot = endpoint.stats()
        assert snapshot["server"] == "repro-gateway"
        assert snapshot["sessions"] == 1
        assert snapshot["cache"]["hits"] >= 1
        assert snapshot["cache"]["stores"] >= 1
        assert snapshot["cache"]["max_bytes"] == 1 << 22
        assert snapshot["fairness"]["admitted"] >= 1  # misses went through admission
        assert snapshot["fairness"]["active"] == 0
        assert len(snapshot["servers"]) == 3
        assert all(row["calls"] > 0 for row in snapshot["servers"])
        # per-server quarantine/heal counters flow through the wire snapshot
        assert all(row["quarantines"] == 0 for row in snapshot["servers"])
        assert all(row["heals"] == 0 for row in snapshot["servers"])
        assert snapshot["health"] == {"quarantines": 0, "heals": 0, "down": []}
    finally:
        endpoint.close()
        stack.close()


def test_stats_surface_without_cache_or_fairness():
    stack = _Stack()
    endpoint = stack.endpoint()
    try:
        snapshot = endpoint.stats()
        assert snapshot["cache"] is None
        assert snapshot["fairness"] is None
    finally:
        endpoint.close()
        stack.close()


# ----------------------------------------------------------------------
# Session isolation with the shared cache on
# ----------------------------------------------------------------------


def test_queue_cursors_stay_isolated_with_cache_on():
    """Queue cursors are mutable per-session state: with the shared cache
    enabled, two sessions' interleaved ``next_node`` streams must still
    drain their own queues only — cursors never pass through the cache."""
    stack = _Stack(cache_bytes=1 << 22, fair=True)
    a = stack.endpoint()
    b = stack.endpoint()
    try:
        root = a.root_pre()
        a_pres = a.children_of(root)
        b_pres = b.descendants_of(root)
        assert a_pres != b_pres
        qa = a.open_queue(a_pres)
        qb = b.open_queue(b_pres)
        assert qa == qb  # same local id in both sessions: isolation, not luck
        drained_a, drained_b = [], []
        for _ in range(max(len(a_pres), len(b_pres))):
            node = a.next_node(qa)
            if node != -1:
                drained_a.append(node)
            node = b.next_node(qb)
            if node != -1:
                drained_b.append(node)
        assert drained_a == a_pres
        assert drained_b == b_pres
        assert a.next_node(qa) == -1
        assert b.close_queue(qb) is True
    finally:
        a.close()
        b.close()
        stack.close()


def test_fair_gateway_matches_direct_results_under_concurrency():
    """Fairness reorders admission, never answers: a query mix from two
    concurrent sessions over the fair cached gateway matches the direct
    stack exactly."""
    stack = _Stack(cache_bytes=1 << 22, fair=True)
    expected = {}
    direct = ClientFilter(
        _reference_client(stack.deployment), stack.deployment.scheme, _tag_map()
    )
    for query, rule in QUERIES:
        expected[query] = SimpleQueryEngine(direct).execute(query, rule=rule).matches
    outcomes, errors = {}, []

    def run_session(name):
        endpoint = stack.endpoint()
        try:
            remote = ClientFilter(endpoint, stack.deployment.scheme, _tag_map())
            outcomes[name] = {
                query: SimpleQueryEngine(remote).execute(query, rule=rule).matches
                for query, rule in QUERIES
            }
        except Exception as exc:  # pragma: no cover - diagnostic
            errors.append(exc)
        finally:
            endpoint.close()

    threads = [threading.Thread(target=run_session, args=(i,)) for i in range(2)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not errors
        for name in outcomes:
            assert outcomes[name] == expected
        snap = stack.gateway.scheduler.snapshot()
        assert snap["admitted"] > 0 and snap["active"] == 0 and snap["waiting"] == 0
    finally:
        stack.close()


# ----------------------------------------------------------------------
# The daemon end to end with --cache-bytes/--fair
# ----------------------------------------------------------------------


def test_gateway_process_serves_cached_fair_sessions():
    """The subprocess daemon wired through the CLI flags: repeated reads
    hit the child's cache (visible over ``__stats__``) and epoch bumps
    work over the wire."""
    deployment = _deploy()
    cluster = SocketCluster.from_deployment(deployment)
    tmp = tempfile.mkdtemp()
    seed_path = os.path.join(tmp, "seed.bin")
    SeedFile(SEED).save(seed_path)
    gateway = GatewayProcess(
        cluster.addresses,
        seed_path,
        p=83,
        sharing="shamir",
        threshold=2,
        cache_bytes=1 << 22,
        fair=True,
        fair_cap=4,
    )
    try:
        gateway.start()
        command = gateway._command()
        assert "--cache-bytes" in command and "--fair" in command
        endpoint = gateway.endpoint(timeout=15.0)
        try:
            root = endpoint.root_pre()
            first = endpoint.fetch_share(root)
            assert endpoint.fetch_share(root) == first
            snapshot = endpoint.stats()
            assert snapshot["cache"]["hits"] >= 1
            assert snapshot["fairness"]["admitted"] >= 1
            assert endpoint.bump_epoch() == 1
            assert endpoint.fetch_share(root) == first
        finally:
            endpoint.close()
    finally:
        gateway.shutdown()
        cluster.shutdown()
    assert not gateway.is_alive()
    assert gateway.process.returncode == 0
