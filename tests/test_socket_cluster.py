"""Multi-process socket deployments: subprocess servers over loopback.

These tests spawn real ``python -m repro.cli server`` child processes
(the ``repro-server`` daemon) and drive them through the unmodified
cluster stack — the CI ``socket-integration`` job runs this file plus
``tests/test_rmi_socket.py`` on the py3.9/py3.12 matrix.  The
heavyweight differential assertions (byte-identical results, shares and
per-server counters vs the simulated transport, including with a killed
server) live in ``benchmarks/bench_socket_transport.py``; here the focus
is process lifecycle, the handshake, kill-based fault injection and the
facade wiring.
"""

from __future__ import annotations

import os

import pytest

from repro.core.database import EncryptedXMLDatabase, QueryConfigError
from repro.encode.encoder import Encoder
from repro.encode.tagmap import TagMap
from repro.rmi.aio import AsyncClusterTransport
from repro.rmi.server import ServerProcess, SocketCluster
from repro.rmi.socket import ServerUnavailable
from repro.rmi.transport import SimulatedTransport
from repro.storage.database import Database
from repro.xmldoc.dtd import XMARK_DTD
from repro.xmldoc.parser import parse_string

SEED = b"socket-cluster-seed-0123456789ab"

SMALL_XML = """
<site>
  <regions>
    <europe><item><name>clock</name></item><item><name>vase</name></item></europe>
    <asia><item><name>scarf</name></item></asia>
  </regions>
  <people>
    <person><name>Joan</name><address><city>Enschede</city></address></person>
    <person><name>Berry</name><address><city>Eindhoven</city></address></person>
  </people>
</site>
"""

QUERIES = [
    ("//city", "advanced", False),
    ("//item/name", "advanced", False),
    ("/site/people/person", "simple", True),
]


def _deployment(servers=3, threshold=2, sharing="shamir"):
    document = parse_string(SMALL_XML)
    tag_map = TagMap.from_names(XMARK_DTD.element_names())
    encoder = Encoder(tag_map, SEED)
    return encoder.deploy_document(
        document, servers=servers, threshold=threshold, sharing=sharing
    )


def _client(address, **kwargs):
    """A sync client of one server: the one-server cluster transport."""
    return AsyncClusterTransport([address], **kwargs)


@pytest.fixture(scope="module")
def shamir_cluster():
    deployment = _deployment()
    cluster = SocketCluster.from_deployment(deployment)
    yield deployment, cluster
    cluster.shutdown()


# ----------------------------------------------------------------------
# ServerProcess lifecycle
# ----------------------------------------------------------------------


def test_server_process_handshake_and_protocol(tmp_path):
    deployment = _deployment(servers=1, threshold=1, sharing="additive")
    path = str(tmp_path / "server-0.json")
    deployment.databases[0].save(path)
    field = deployment.ring.field
    with ServerProcess(path, p=field.characteristic, e=field.degree) as process:
        assert process.is_alive()
        identity = process.ping()
        assert identity["target"] == "ServerFilter"
        assert identity["pid"] == process.pid
        transport = _client(process.address, timeout=5.0)
        try:
            count = transport.invoke(0, "node_count")
            assert count == len(deployment.node_table)
            root = transport.invoke(0, "root_pre")
            infos = transport.invoke(0, "node_infos", ([root],))
            assert infos[0]["pre"] == root
            shares = transport.invoke(0, "fetch_shares_batch", ([root],))
            assert shares == [list(deployment.node_table.lookup("pre", root)[0]["share"])]
            with pytest.raises(LookupError):
                transport.invoke(0, "fetch_share", (10**6,))
        finally:
            transport.close()
    assert not process.is_alive()
    # a graceful stop is a *clean* exit — no interpreter-shutdown crash
    # from the parent-watch thread (a buffered stdin read would fatal)
    assert process.process.returncode == 0
    process.shutdown()  # idempotent after exit


def test_server_process_kill_is_a_real_crash(tmp_path):
    deployment = _deployment(servers=1, threshold=1, sharing="additive")
    path = str(tmp_path / "server-0.json")
    deployment.databases[0].save(path)
    field = deployment.ring.field
    process = ServerProcess(path, p=field.characteristic, e=field.degree)
    process.start()
    try:
        transport = _client(process.address, timeout=2.0, connect_retries=1)
        assert transport.invoke(0, "node_count") > 0
        process.kill()
        assert not process.is_alive()
        (reply,) = transport.invoke_all("node_count")
        assert isinstance(reply.error, ServerUnavailable)
        assert transport.stats_of(0).errors == 1
        transport.close()
    finally:
        process.kill()
        process.shutdown()


def test_server_process_exits_when_parent_pipe_closes(tmp_path):
    """The --parent-watch stdin watchdog: a dead parent (its end of the
    stdin pipe closes with it) must not leave an orphan server behind."""
    deployment = _deployment(servers=1, threshold=1, sharing="additive")
    path = str(tmp_path / "server-0.json")
    deployment.databases[0].save(path)
    field = deployment.ring.field
    process = ServerProcess(path, p=field.characteristic, e=field.degree)
    process.start()
    try:
        assert process.ping()["target"] == "ServerFilter"
        # simulate the parent dying: its pipe end closes, the child sees EOF
        process.process.stdin.close()
        process.process.wait(timeout=10)
        assert not process.is_alive()
        assert process.process.returncode == 0
    finally:
        process.kill()


def test_server_process_frame_limit_is_plumbed_to_the_child(tmp_path):
    """max_frame_bytes configures the spawned server, not just the client:
    an oversized request is rejected typed by the child process."""
    from repro.rmi.socket import WireProtocolError

    deployment = _deployment(servers=1, threshold=1, sharing="additive")
    path = str(tmp_path / "server-0.json")
    deployment.databases[0].save(path)
    field = deployment.ring.field
    with ServerProcess(
        path, p=field.characteristic, e=field.degree, max_frame_bytes=256
    ) as process:
        transport = _client(process.address, timeout=5.0)  # client keeps the default
        try:
            with pytest.raises(WireProtocolError):
                transport.invoke(0, "node_infos", (list(range(500)),))
            assert transport.invoke(0, "node_count") > 0  # still serving
        finally:
            transport.close()


def test_server_process_startup_failure_is_bounded(tmp_path):
    missing = str(tmp_path / "does-not-exist.json")
    process = ServerProcess(missing, p=83, startup_timeout=20.0)
    with pytest.raises(ServerUnavailable, match="before becoming ready"):
        process.start()
    assert not process.is_alive()


def test_cli_server_rejects_databases_without_node_table(tmp_path, capsys):
    from repro.cli import main as cli_main

    path = str(tmp_path / "empty.json")
    Database("empty").save(path)
    exit_code = cli_main(["server", "--db", path, "--p", "83"])
    assert exit_code == 2
    assert "node table" in capsys.readouterr().err


# ----------------------------------------------------------------------
# SocketCluster
# ----------------------------------------------------------------------


def test_cluster_spawns_healthchecked_fleet(shamir_cluster):
    deployment, cluster = shamir_cluster
    assert cluster.num_servers == deployment.num_servers == 3
    pids = {process.pid for process in cluster.processes}
    assert len(pids) == 3 and os.getpid() not in pids
    for process in cluster.processes:
        assert process.is_alive()
    ports = {address.port for address in cluster.addresses}
    assert len(ports) == 3


def test_cluster_transport_scatter_gather(shamir_cluster):
    deployment, cluster = shamir_cluster
    transport = cluster.cluster_transport()
    try:
        replies = transport.invoke_all("node_count")
        assert [reply.value for reply in replies] == [len(deployment.node_table)] * 3
        assert all(reply.latency > 0 for reply in replies)
        quorum = transport.invoke_quorum("root_pre", k=2)
        assert sum(1 for reply in quorum if reply.ok) >= 2
        aggregate = transport.aggregate_stats()
        assert aggregate.calls >= 6 and aggregate.errors == 0
        assert transport.makespan() > 0.0
    finally:
        transport.close()


def test_cluster_transport_is_the_async_wire_over_the_addresses(shamir_cluster):
    _, cluster = shamir_cluster
    transport = cluster.cluster_transport(round_overhead=0.5)
    try:
        assert isinstance(transport, AsyncClusterTransport)
        assert transport.servers == cluster.addresses
        assert [t.address for t in transport.transports] == cluster.addresses
        assert all(t.timeout == cluster.timeout for t in transport.transports)
        assert all(t.connect_retries == 2 for t in transport.transports)
        assert transport.round_overhead == 0.5
        # every call hands out fresh connections: no shared client state
        assert cluster.cluster_transport().transports[0] is not transport.transports[0]
    finally:
        transport.close()


# ----------------------------------------------------------------------
# Facade: transport="asyncio"
# ----------------------------------------------------------------------


def _build(transport_mode, **kwargs):
    return EncryptedXMLDatabase.from_text(
        SMALL_XML,
        tag_names=XMARK_DTD.element_names(),
        seed=SEED,
        p=83,
        servers=3,
        threshold=2,
        sharing="shamir",
        transport=transport_mode,
        **kwargs,
    )


def test_facade_socket_deployment_matches_simulated():
    simulated = _build("simulated")
    with _build("asyncio") as database:
        assert database.is_cluster and database.num_servers == 3
        assert database.socket_cluster is not None
        assert database.server_filter is None  # shards live out of process
        for query, engine, strict in QUERIES:
            socket_result = database.query(query, engine=engine, strict=strict)
            simulated_result = simulated.query(query, engine=engine, strict=strict)
            assert socket_result.matches == simulated_result.matches
        # measured latency is real wall-clock, the traffic is identical
        assert database.transport_stats.calls == simulated.transport_stats.calls
        assert database.transport_stats.total_bytes == simulated.transport_stats.total_bytes
        assert database.makespan > 0.0
    # context-manager exit shut the fleet down
    assert all(not process.is_alive() for process in database.socket_cluster.processes)
    database.close()  # idempotent


def test_facade_socket_survives_a_killed_server():
    with _build("asyncio") as database:
        before = [database.query(q, engine=e, strict=s).matches for q, e, s in QUERIES]
        database.socket_cluster.kill_server(2)
        after = [database.query(q, engine=e, strict=s).matches for q, e, s in QUERIES]
        assert after == before
        # the dead server's failures were recorded, not hidden
        assert database.per_server_stats[2].errors > 0


def test_facade_socket_rejects_modeled_latency_knobs():
    with pytest.raises(QueryConfigError, match="measures latency"):
        _build("asyncio", per_call_latency=1.0)
    with pytest.raises(QueryConfigError, match="measures latency"):
        _build("asyncio", latency_jitter=0.5)
    with pytest.raises(QueryConfigError, match="inherently concurrent"):
        _build("asyncio", concurrency=False)
    with pytest.raises(QueryConfigError, match="cluster=False"):
        _build("asyncio", cluster=False)
    with pytest.raises(QueryConfigError, match="unknown transport"):
        _build("carrier-pigeon")
    with pytest.raises(QueryConfigError, match="unknown transport"):
        _build("socket")


def test_facade_socket_cleans_up_on_construction_failure():
    clusters = []
    original = SocketCluster.from_deployment.__func__

    def tracking(cls, deployment, **kwargs):
        cluster = original(cls, deployment, **kwargs)
        clusters.append(cluster)
        return cluster

    SocketCluster.from_deployment = classmethod(tracking)
    try:
        with pytest.raises(Exception):
            _build("asyncio", read_quorum=99)  # invalid: rejected by the client
    finally:
        SocketCluster.from_deployment = classmethod(original)
    assert len(clusters) == 1
    assert all(not process.is_alive() for process in clusters[0].processes)


# ----------------------------------------------------------------------
# Transport-level parity on a live fleet
# ----------------------------------------------------------------------


# ----------------------------------------------------------------------
# Chaos lifecycle: kill / corrupt / heal
# ----------------------------------------------------------------------


def test_kill_server_and_shutdown_are_idempotent():
    cluster = SocketCluster.from_deployment(_deployment())
    cluster.kill_server(1)
    cluster.kill_server(1)  # already dead: must not raise
    assert not cluster.processes[1].is_alive()
    cluster.shutdown()
    cluster.shutdown()  # already closed: must not raise


def test_sigkilled_then_healed_slot_tears_down_cleanly():
    """Regression: a slot that was SIGKILLed and then replaced by a heal
    must survive a (repeated) fleet teardown."""
    deployment = _deployment()
    cluster = SocketCluster.from_deployment(deployment)
    try:
        cluster.kill_server(1)
        replacement = cluster.spawn_replacement(1, deployment.databases[1])
        assert replacement.address == cluster.addresses[1]
        transport = AsyncClusterTransport([replacement.address], transports=[replacement])
        try:
            assert transport.invoke(0, "node_count") == len(deployment.node_table)
        finally:
            transport.close()
        assert cluster.processes[1].is_alive()
        assert "gen1" in cluster.processes[1].name
    finally:
        cluster.shutdown()
        cluster.shutdown()
    assert all(not process.is_alive() for process in cluster.processes)


def test_chaos_flag_gates_the_wire_fault_injector():
    from repro.rmi.socket import UnknownRemoteMethodError

    deployment = _deployment()
    root = deployment.node_table.lookup("parent", 0)[0]["pre"]
    with SocketCluster.from_deployment(deployment, chaos=True) as cluster:
        transport = cluster.cluster_transport()
        try:
            clean = transport.invoke(0, "fetch_share", (root,))
            corrupted = transport.invoke(0, "corrupt_share", (root, 7))
            assert corrupted != clean
            assert transport.invoke(0, "fetch_share", (root,)) == corrupted
        finally:
            transport.close()
    # without --chaos the injector is not exported
    with SocketCluster.from_deployment(deployment) as cluster:
        transport = cluster.cluster_transport()
        try:
            with pytest.raises(UnknownRemoteMethodError):
                transport.invoke(0, "corrupt_share", (root, 7))
        finally:
            transport.close()


def test_supervisor_heals_a_corrupted_socket_server_byte_identically():
    """The full pipeline over real subprocesses: wire-injected corruption →
    attribution → quarantine → replacement spawn → byte-identical table."""
    from repro.filters.cluster import ClusterClient, InconsistentShareError
    from repro.rmi.supervisor import FleetSupervisor

    deployment = _deployment(servers=4, threshold=2, sharing="shamir")
    with SocketCluster.from_deployment(deployment, chaos=True) as cluster:
        transport = cluster.cluster_transport()
        try:
            client = ClusterClient(transport, deployment.scheme)
            supervisor = FleetSupervisor(transport, deployment.scheme, cluster=cluster)
            root = client.root_pre()
            expected = client.fetch_share(root)
            # corrupt every row of server 2 in subprocess memory; the
            # on-disk slice file stays pristine for the byte comparison
            for pre in [root] + client.descendants_of(root):
                transport.invoke(2, "corrupt_share", (pre, 11))
            with pytest.raises(InconsistentShareError) as excinfo:
                client.fetch_share(root)
            assert excinfo.value.suspects == (2,)
            healed = supervisor.supervised_call(lambda: client.fetch_share(root))
            assert healed == expected
            assert supervisor.status()["heals"] == 1
            # the replacement's table file is byte-identical to the original
            original_path = os.path.join(cluster.directory, "server-2.json")
            healed_path = cluster.processes[2].database_path
            assert healed_path != original_path
            with open(original_path, "rb") as handle:
                original_bytes = handle.read()
            with open(healed_path, "rb") as handle:
                healed_bytes = handle.read()
            assert healed_bytes == original_bytes
            # post-heal the fleet is clean and back to full strength
            assert client.fetch_share(root) == expected
            assert sorted(transport.live_servers()) == [0, 1, 2, 3]
        finally:
            transport.close()


def test_socket_and_simulated_transport_byte_parity(shamir_cluster):
    """One live server answers with byte counts identical to the in-process
    simulated transport wrapping the same share table."""
    deployment, cluster = shamir_cluster
    from repro.filters.server import ServerFilter

    local = ServerFilter(deployment.node_tables[0], deployment.ring)
    simulated = SimulatedTransport()
    socket_transport = _client(cluster.addresses[0], timeout=5.0)
    try:
        root = local.root_pre()
        for method, args in [
            ("node_count", ()),
            ("node_infos", ([root],)),
            ("children_of_many", ([root],)),
            ("fetch_shares_batch", ([root],)),
        ]:
            sim = simulated.invoke_detailed(local, method, args)
            assert socket_transport.invoke(0, method, args) == sim.value
            stats = socket_transport.stats_of(0)
            assert stats.bytes_sent == simulated.stats.bytes_sent
            assert stats.bytes_received == simulated.stats.bytes_received
    finally:
        socket_transport.close()
