"""The gateway: many concurrent client sessions over one shared fleet.

The in-process tests start a real three-server fleet (each an asyncio
``SocketServer`` hosting a ``ServerFilter`` shard) and a real ``Gateway``
in front of it, then drive it through ``GatewayEndpoint`` client
connections — so session isolation, disconnect cleanup and the graceful
``__shutdown__`` drain are exercised over actual sockets on one event
loop.  One subprocess test runs the full ``repro-gateway`` daemon (READY
handshake, seed file, ``--server`` endpoints) end to end.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time

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
from repro.rmi.socket import UnknownRemoteMethodError

XML = (
    "<site>"
    "<people><person><name/><city/></person><person><city/></person></people>"
    "<regions><europe><item><name/></item></europe></regions>"
    "</site>"
)
TAGS = ["site", "people", "person", "name", "city", "regions", "europe", "item"]
SEED = b"gateway-test-seed-0123456789abcd"
FIELD = make_field(83)


def _tag_map():
    return TagMap.from_names(TAGS, field=FIELD)


@pytest.fixture()
def stack():
    """A live fleet of three share servers with a gateway in front."""
    deployment = Encoder(_tag_map(), SEED).deploy_text(
        XML, servers=3, threshold=2, sharing="shamir"
    )
    filters = [ServerFilter(table, deployment.ring) for table in deployment.node_tables]
    fleet = [SocketServer(f, name="fleet-%d" % i) for i, f in enumerate(filters)]
    for server in fleet:
        server.start()
    cluster = AsyncClusterTransport([server.address for server in fleet])
    gateway = Gateway(cluster, deployment.scheme)
    gateway.start()
    yield deployment, filters, fleet, gateway
    gateway.close()
    for server in fleet:
        server.close()


def _endpoint(gateway, **kwargs):
    kwargs.setdefault("timeout", 10.0)
    return GatewayEndpoint(gateway.address, **kwargs)


def _reference_client(deployment):
    """The same deployment driven directly, without the gateway."""
    filters = [ServerFilter(table, deployment.ring) for table in deployment.node_tables]
    return ClusterClient(ClusterTransport(filters), deployment.scheme)


# ----------------------------------------------------------------------
# The session surface: identity, queries, share recombination
# ----------------------------------------------------------------------


def test_ping_identity(stack):
    _, _, _, gateway = stack
    endpoint = _endpoint(gateway)
    try:
        identity = endpoint.ping()
        assert identity["server"] == "repro-gateway"
        assert identity["target"] == "AsyncClusterClient"
        assert identity["servers"] == 3
    finally:
        endpoint.close()


def test_queries_match_the_direct_cluster_stack(stack):
    """A remote client over the gateway sees exactly what a direct
    in-process cluster client sees — matches and counters."""
    deployment, _, _, gateway = stack
    endpoint = _endpoint(gateway)
    try:
        remote = ClientFilter(endpoint, deployment.scheme, _tag_map())
        direct = ClientFilter(_reference_client(deployment), deployment.scheme, _tag_map())
        for query, rule in [
            ("//city", MatchRule.CONTAINMENT),
            ("/site/people/person", MatchRule.EQUALITY),
            ("/site//item/name", MatchRule.CONTAINMENT),
        ]:
            for engine_cls in (SimpleQueryEngine, AdvancedQueryEngine):
                expected = engine_cls(direct).execute(query, rule=rule)
                actual = engine_cls(remote).execute(query, rule=rule)
                assert actual.matches == expected.matches
                assert actual.counters == expected.counters
    finally:
        endpoint.close()


def test_share_reads_come_back_recombined(stack):
    """The gateway holds the scheme: evaluate/fetch_share answers are the
    *combined* plaintext values, not per-server shares."""
    deployment, _, _, gateway = stack
    endpoint = _endpoint(gateway)
    try:
        direct = _reference_client(deployment)
        root = endpoint.root_pre()
        assert root == direct.root_pre()
        assert endpoint.evaluate(root, 5) == direct.evaluate(root, 5)
        assert endpoint.fetch_share(root) == direct.fetch_share(root)
        pres = endpoint.children_of(root)
        assert endpoint.evaluate_batch(pres, 7) == direct.evaluate_batch(pres, 7)
        assert endpoint.fetch_shares_batch(pres) == direct.fetch_shares_batch(pres)
    finally:
        endpoint.close()


def test_unknown_and_private_methods_are_rejected_typed(stack):
    _, _, _, gateway = stack
    endpoint = _endpoint(gateway)
    try:
        with pytest.raises(UnknownRemoteMethodError, match="exports no method"):
            endpoint.bogus_method()
        with pytest.raises(UnknownRemoteMethodError):
            endpoint.transport.invoke(0, "_acall_any", ("node_count", ()))
        # the rejection executed nothing and broke nothing
        assert endpoint.node_count() > 0
    finally:
        endpoint.close()


def test_keyword_arguments_are_rejected_typed(stack):
    _, _, _, gateway = stack
    endpoint = _endpoint(gateway)
    try:
        with pytest.raises(TypeError, match="positional"):
            endpoint.transport.invoke(0, "node_info", (), {"pre": 1})
    finally:
        endpoint.close()


# ----------------------------------------------------------------------
# Session isolation and lifecycle
# ----------------------------------------------------------------------


def test_concurrent_sessions_have_isolated_queue_state(stack):
    """Two sessions open queues with colliding local ids; each session's
    ``next_node`` stream drains only its own queue."""
    _, _, _, gateway = stack
    a = _endpoint(gateway)
    b = _endpoint(gateway)
    try:
        root = a.root_pre()
        a_pres = a.children_of(root)
        b_pres = b.descendants_of(root)
        assert a_pres != b_pres
        # both sessions get the same first local queue id — isolation, not luck
        qa = a.open_queue(a_pres)
        qb = b.open_queue(b_pres)
        assert qa == qb
        drained_a, drained_b = [], []
        # interleave the two cursors
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


def test_disconnect_releases_per_session_resources(stack):
    """Dropping a client connection mid-session releases its server-side
    queue cursors and forgets the session."""
    _, filters, _, gateway = stack
    endpoint = _endpoint(gateway)
    root = endpoint.root_pre()
    queue_id = endpoint.open_descendants_queue([root])
    assert endpoint.next_node(queue_id) != -1  # the cursor is live
    assert any(f._queues for f in filters)
    assert len(gateway.sessions) == 1
    endpoint.close()  # drop the connection without close_queue
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        if not gateway.sessions and not any(f._queues for f in filters):
            break
        time.sleep(0.02)
    assert not gateway.sessions
    assert not any(f._queues for f in filters)


def test_shutdown_drains_inflight_calls_of_other_sessions(stack):
    """A ``__shutdown__`` from one session completes (and answers) every
    other session's in-flight dispatch before the gateway stops."""
    _, _, fleet, gateway = stack
    for server in fleet:
        server.delay = 0.4  # make the in-flight call observably slow
    a = _endpoint(gateway)
    b = _endpoint(gateway)
    slow_result = {}

    def slow_call():
        slow_result["value"] = a.node_count()

    worker = threading.Thread(target=slow_call)
    try:
        worker.start()
        time.sleep(0.15)  # the slow call is now in flight upstream
        assert b.transport.invoke(0, "__shutdown__") is True
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert slow_result["value"] > 0  # answered, not cut off
        gateway._shutdown.wait(timeout=5.0)
        assert gateway._shutdown.is_set()
    finally:
        for server in fleet:
            server.delay = 0.0
        a.close()
        b.close()
        worker.join(timeout=1.0)


def test_gateway_survives_one_dead_server(stack):
    """(2,3)-Shamir: structural calls fail over and share reads still
    reconstruct with one fleet server gone."""
    deployment, _, fleet, gateway = stack
    direct = _reference_client(deployment)
    expected = direct.fetch_share(direct.root_pre())
    fleet[0].close()  # a real crash, not a marked-down flag
    endpoint = _endpoint(gateway)
    try:
        root = endpoint.root_pre()
        assert endpoint.fetch_share(root) == expected
        assert endpoint.children_of(root) == direct.children_of(root)
    finally:
        endpoint.close()


# ----------------------------------------------------------------------
# The real daemon: repro-gateway as a child process
# ----------------------------------------------------------------------


def test_gateway_process_end_to_end():
    """Subprocess fleet + subprocess gateway + remote client: the READY
    handshake, seed loading, --server endpoints and graceful shutdown."""
    deployment = Encoder(_tag_map(), SEED).deploy_text(
        XML, servers=3, threshold=2, sharing="shamir"
    )
    cluster = SocketCluster.from_deployment(deployment)
    tmp = tempfile.mkdtemp()
    seed_path = os.path.join(tmp, "seed.bin")
    SeedFile(SEED).save(seed_path)
    gateway = GatewayProcess(
        cluster.addresses, seed_path, p=83, sharing="shamir", threshold=2
    )
    try:
        gateway.start()
        identity = gateway.ping()
        assert identity["target"] == "AsyncClusterClient"
        assert identity["servers"] == 3
        endpoint = gateway.endpoint(timeout=10.0)
        try:
            remote = ClientFilter(endpoint, deployment.scheme, _tag_map())
            direct = ClientFilter(_reference_client(deployment), deployment.scheme, _tag_map())
            for engine_cls in (SimpleQueryEngine, AdvancedQueryEngine):
                expected = engine_cls(direct).execute("//city")
                actual = engine_cls(remote).execute("//city")
                assert actual.matches == expected.matches
        finally:
            endpoint.close()
    finally:
        gateway.shutdown()
        cluster.shutdown()
    assert not gateway.is_alive()
    assert gateway.process.returncode == 0  # clean exit, drained loop
