"""Tests for the cluster-transparent client over n-server deployments."""

import pytest

from repro.analysis.observer import ObservingServerFilter, ServerView
from repro.core.database import EncryptedXMLDatabase, QueryConfigError
from repro.encode.encoder import Encoder
from repro.encode.tagmap import TagMap
from repro.engines.advanced import AdvancedQueryEngine
from repro.engines.simple import SimpleQueryEngine
from repro.filters.client import ClientFilter
from repro.filters.cluster import (
    ClusterClient,
    ClusterUnavailableError,
    InconsistentShareError,
)
from repro.filters.interface import MatchRule
from repro.filters.server import ServerFilter
from repro.gf.factory import make_field
from repro.gf.kernels import HAS_NUMPY
from repro.rmi.cluster import ClusterTransport
from repro.rmi.proxy import Registry
from repro.rmi.transport import SimulatedTransport
from repro.secretshare.scheme import SharingError

XML = (
    "<site>"
    "<people><person><name/><city/></person><person><city/></person></people>"
    "<regions><europe><item><name/></item></europe></regions>"
    "</site>"
)
TAGS = ["site", "people", "person", "name", "city", "regions", "europe", "item"]
SEED = b"cluster-client-test-seed"
FIELD = make_field(83)


def _tag_map():
    return TagMap.from_names(TAGS, field=FIELD)


def _single_reference():
    encoded = Encoder(_tag_map(), SEED).encode_text(XML)
    registry = Registry(SimulatedTransport())
    registry.bind("ServerFilter", ServerFilter(encoded.node_table, encoded.ring))
    return ClientFilter(registry.lookup("ServerFilter"), encoded.sharing, _tag_map())


def _deploy(observing=False, **kwargs):
    deployment = Encoder(_tag_map(), SEED).deploy_text(XML, **kwargs)
    if observing:
        filters = [
            ObservingServerFilter(table, deployment.ring, view=ServerView())
            for table in deployment.node_tables
        ]
    else:
        filters = [ServerFilter(table, deployment.ring) for table in deployment.node_tables]
    transport = ClusterTransport(filters)
    return deployment, transport


def _client(transport, deployment, **kwargs):
    cluster = ClusterClient(transport, deployment.scheme, **kwargs)
    return cluster, ClientFilter(cluster, deployment.scheme, _tag_map())


def _corrupt(table, delta=7):
    for pre in range(1, len(table) + 1):
        coeffs = table.share_row(pre)
        coeffs[0] = (coeffs[0] + delta) % 83
        table.set_share(pre, coeffs)


DEPLOYMENTS = [
    dict(servers=1),
    dict(servers=3),
    dict(servers=4, threshold=2, sharing="shamir"),
]


class TestDifferentialAgainstSingleServer:
    @pytest.mark.parametrize("kwargs", DEPLOYMENTS)
    @pytest.mark.parametrize("query,rule", [
        ("//city", MatchRule.CONTAINMENT),
        ("/site/people/person", MatchRule.EQUALITY),
        ("/site//item/name", MatchRule.CONTAINMENT),
    ])
    def test_results_and_counters_match(self, kwargs, query, rule):
        reference = _single_reference()
        deployment, transport = _deploy(**kwargs)
        _, client = _client(transport, deployment)
        for engine_cls in (SimpleQueryEngine, AdvancedQueryEngine):
            expected = engine_cls(reference).execute(query, rule=rule)
            actual = engine_cls(client).execute(query, rule=rule)
            assert actual.matches == expected.matches
            assert actual.counters == expected.counters

    def test_structural_surface_matches(self):
        reference = _single_reference()
        deployment, transport = _deploy(servers=3)
        cluster, _ = _client(transport, deployment)
        assert cluster.node_count() == reference.node_count()
        root = cluster.root_pre()
        assert root == reference.root_pre()
        assert cluster.children_of(root) == reference.children_of(root)
        assert cluster.descendants_of(root) == reference.descendants_of(root)
        assert cluster.children_of_many([1, 2]) == [
            reference.children_of(1),
            reference.children_of(2),
        ]


class TestStructuralFailover:
    def test_primary_failover_and_reelection(self):
        deployment, transport = _deploy(servers=3)
        cluster, _ = _client(transport, deployment)
        assert cluster.root_pre() == 1
        assert transport.stats_of(0).calls_by_method.get("root_pre") == 1
        transport.set_down(0)
        assert cluster.root_pre() == 1
        # the structural call failed over to server 1 and stuck there
        assert transport.stats_of(1).calls_by_method.get("root_pre") == 1
        assert cluster.children_of(1)
        assert transport.stats_of(1).calls_by_method.get("children_of") == 1
        assert "children_of" not in transport.stats_of(0).calls_by_method

    def test_all_servers_down_is_unavailable(self):
        deployment, transport = _deploy(servers=2)
        cluster, _ = _client(transport, deployment)
        transport.set_down(0)
        transport.set_down(1)
        with pytest.raises(ClusterUnavailableError):
            cluster.root_pre()

    def test_queues_are_pinned_to_their_server(self):
        deployment, transport = _deploy(servers=3)
        cluster, _ = _client(transport, deployment)
        queue = cluster.open_queue([1, 2, 3])
        assert cluster.queue_size(queue) == 3
        assert cluster.next_node(queue) == 1
        # a later structural failover must not re-route the open queue
        opened_on = next(
            index
            for index in range(3)
            if transport.stats_of(index).calls_by_method.get("open_queue")
        )
        assert cluster.next_node(queue) == 2
        assert transport.stats_of(opened_on).calls_by_method.get("next_node") == 2
        assert cluster.close_queue(queue) is True
        assert cluster.close_queue(queue) is False
        with pytest.raises(LookupError):
            cluster.next_node(queue)


class TestShareFailover:
    def test_additive_lane_down_regenerates_locally(self):
        reference = _single_reference()
        deployment, transport = _deploy(servers=3)
        _, client = _client(transport, deployment)
        transport.set_down(0)  # a PRG-lane server, regenerable
        expected = AdvancedQueryEngine(reference).execute("//city")
        actual = AdvancedQueryEngine(client).execute("//city")
        assert actual.matches == expected.matches
        assert actual.counters == expected.counters

    def test_additive_residual_down_is_unavailable(self):
        deployment, transport = _deploy(servers=3)
        _, client = _client(transport, deployment)
        transport.set_down(2)  # the residual server is irreplaceable
        with pytest.raises(ClusterUnavailableError):
            AdvancedQueryEngine(client).execute("//city")

    def test_shamir_tolerates_n_minus_k_failures(self):
        reference = _single_reference()
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        _, client = _client(transport, deployment)
        expected = SimpleQueryEngine(reference).execute(
            "/site/people/person", rule=MatchRule.EQUALITY
        )
        transport.set_down(1)
        transport.set_down(3)
        actual = SimpleQueryEngine(client).execute(
            "/site/people/person", rule=MatchRule.EQUALITY
        )
        assert actual.matches == expected.matches
        assert actual.counters == expected.counters

    def test_shamir_below_threshold_is_unavailable(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        _, client = _client(transport, deployment)
        for index in (0, 1, 3):
            transport.set_down(index)
        with pytest.raises(ClusterUnavailableError):
            AdvancedQueryEngine(client).execute("//city")

    def test_semantic_server_error_propagates_instead_of_failover(self):
        """A deterministic server-side error is not a connection failure:
        it must re-raise as-is, not dissolve into ClusterUnavailableError."""
        deployment, transport = _deploy(servers=3)
        cluster, _ = _client(transport, deployment)

        def broken(pres, point):
            raise RuntimeError("deterministic server bug")

        transport.servers[0].evaluate_batch = broken
        with pytest.raises(RuntimeError, match="deterministic server bug"):
            cluster.evaluate_batch([1, 2], 5)

    def test_unknown_pre_propagates_without_failover(self):
        deployment, transport = _deploy(servers=3)
        cluster, _ = _client(transport, deployment)
        with pytest.raises(LookupError):
            cluster.evaluate(999, 5)
        # the scatter wave asks each server once; a semantic error is never
        # retried or treated as a connection failure
        assert all(
            stats.calls_by_method.get("evaluate", 0) <= 1
            for stats in transport.per_server_stats
        )


class TestShareVerification:
    def test_corrupted_shamir_server_is_detected_and_reported(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        cluster, client = _client(transport, deployment)
        _corrupt(deployment.node_tables[3])
        with pytest.raises(InconsistentShareError) as excinfo:
            AdvancedQueryEngine(client).execute("//city")
        assert 3 in excinfo.value.servers
        # majority-vote attribution pins the culprit, and the message names
        # the method, the suspects and where the shares first diverged
        assert excinfo.value.suspects == (3,)
        assert excinfo.value.evidence["suspects"] == [3]
        message = str(excinfo.value)
        assert "evaluate" in message
        assert "suspects [3]" in message
        assert "pre" in message or "batch position" in message
        assert cluster.inconsistencies
        assert cluster.inconsistencies[0]["servers"] == (3,)
        assert cluster.inconsistencies[0]["suspects"] == (3,)

    def test_fetch_path_detects_corruption_too(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        cluster, client = _client(transport, deployment)
        _corrupt(deployment.node_tables[2])
        with pytest.raises(InconsistentShareError) as excinfo:
            SimpleQueryEngine(client).execute(
                "/site/people/person", rule=MatchRule.EQUALITY
            )
        assert excinfo.value.suspects == (2,)

    def test_verification_can_be_disabled(self):
        reference = _single_reference()
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        _, client = _client(transport, deployment, verify_shares=False)
        _corrupt(deployment.node_tables[3])
        # reconstruction uses the first k replies; the corrupt surplus is ignored
        expected = AdvancedQueryEngine(reference).execute("//city")
        actual = AdvancedQueryEngine(client).execute("//city")
        assert actual.matches == expected.matches

    def test_exactly_threshold_replies_cannot_be_verified(self):
        deployment, transport = _deploy(servers=2, threshold=2, sharing="shamir")
        _, client = _client(transport, deployment)
        _corrupt(deployment.node_tables[1])
        # no redundancy: the corruption silently changes results, no raise
        AdvancedQueryEngine(client).execute("//city")


class TestReadQuorum:
    def test_minimal_quorum_contacts_threshold_servers(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        cluster, client = _client(transport, deployment, read_quorum=2)
        AdvancedQueryEngine(client).execute("//city")
        contacted = [
            index
            for index in range(4)
            if transport.stats_of(index).calls_by_method.get("evaluate_batch")
        ]
        assert len(contacted) == 2

    def test_quorum_bounds_enforced(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        with pytest.raises(SharingError):
            ClusterClient(transport, deployment.scheme, read_quorum=1)
        with pytest.raises(SharingError):
            ClusterClient(transport, deployment.scheme, read_quorum=5)

    def test_server_count_mismatch_rejected(self):
        deployment, transport = _deploy(servers=3)
        other = Encoder(_tag_map(), SEED).deploy_text(XML, servers=2)
        with pytest.raises(SharingError):
            ClusterClient(transport, other.scheme)


class TestFirstKQuorumReads:
    def test_verify_off_completes_on_first_threshold_replies(self):
        """With verification off a (k, n) read admits only the first k good
        replies; the stragglers still run and land in the stats."""
        reference = _single_reference()
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        _, client = _client(transport, deployment, verify_shares=False)
        expected = AdvancedQueryEngine(reference).execute("//city")
        actual = AdvancedQueryEngine(client).execute("//city")
        assert actual.matches == expected.matches
        assert actual.counters == expected.counters
        transport.drain()
        # every server was still contacted on each scatter round
        batch_calls = [
            stats.calls_by_method.get("evaluate_batch", 0)
            for stats in transport.per_server_stats
        ]
        assert len(set(batch_calls)) == 1 and batch_calls[0] > 0

    def test_concurrent_and_sequential_transports_are_byte_identical(self):
        reference = _single_reference()
        results = {}
        for concurrency in (False, True):
            deployment = Encoder(_tag_map(), SEED).deploy_text(
                XML, servers=3, threshold=2, sharing="shamir"
            )
            filters = [
                ServerFilter(table, deployment.ring) for table in deployment.node_tables
            ]
            transport = ClusterTransport(filters, concurrency=concurrency)
            _, client = _client(transport, deployment)
            result = AdvancedQueryEngine(client).execute("//city")
            transport.drain()
            results[concurrency] = (
                result.matches,
                result.counters,
                [stats.snapshot() for stats in transport.per_server_stats],
            )
        expected = AdvancedQueryEngine(reference).execute("//city")
        assert results[True][0] == expected.matches
        assert results[True] == results[False]

    def test_partial_quorum_failure_escalates_in_one_batched_round(self):
        """When the initial quorum partially fails, the spare candidates are
        contacted in one scatter, not one call per server."""
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        cluster, _ = _client(transport, deployment, read_quorum=2)
        # both quorum targets fail transiently on the first scatter
        transport.inject_faults(0, count=1)
        transport.inject_faults(1, count=1)
        values = cluster.evaluate_batch([1, 2], 5)
        assert len(values) == 2
        # one round against [0, 1], one batched escalation against [2, 3]
        calls = [
            stats.calls_by_method.get("evaluate_batch", 0)
            for stats in transport.per_server_stats
        ]
        assert calls == [1, 1, 1, 1]
        errors = [stats.errors for stats in transport.per_server_stats]
        assert errors == [1, 1, 0, 0]

    def test_escalation_still_fails_cleanly_below_threshold(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        cluster, _ = _client(transport, deployment, read_quorum=2)
        for index in range(1, 4):
            transport.set_down(index)
        with pytest.raises(ClusterUnavailableError):
            cluster.evaluate_batch([1, 2], 5)


class TestHedgedReads:
    def _jittered(self, latencies, **kwargs):
        deployment = Encoder(_tag_map(), SEED).deploy_text(
            XML, servers=len(latencies), threshold=2, sharing="shamir"
        )
        filters = [
            ServerFilter(table, deployment.ring) for table in deployment.node_tables
        ]
        transport = ClusterTransport(filters, per_server_latency=latencies)
        cluster = ClusterClient(transport, deployment.scheme, **kwargs)
        return transport, cluster

    def test_hedge_co_issues_the_fast_spare_and_cuts_the_tail(self):
        latencies = [1.0, 10.0, 1.0]
        transport, hedged = self._jittered(
            latencies, read_quorum=2, verify_shares=False, hedge=True
        )
        values = hedged.evaluate_batch([1, 2, 3], 5)
        makespan_hedged = transport.makespan()
        # the spare (server 2) was co-issued in the same round
        assert transport.stats_of(2).calls_by_method.get("evaluate_batch") == 1
        assert makespan_hedged == pytest.approx(1.0)

        transport2, plain = self._jittered(
            latencies, read_quorum=2, verify_shares=False, hedge=False
        )
        values2 = plain.evaluate_batch([1, 2, 3], 5)
        assert values == values2
        assert transport2.stats_of(2).calls_by_method.get("evaluate_batch") is None
        assert transport2.makespan() == pytest.approx(10.0)

    def test_hedge_stays_idle_when_no_straggler(self):
        transport, hedged = self._jittered(
            [1.0, 1.0, 1.0], read_quorum=2, verify_shares=False, hedge=True
        )
        hedged.evaluate_batch([1, 2], 5)
        transport.drain()
        assert transport.stats_of(2).calls == 0

    def test_hedge_ratio_validated(self):
        deployment, transport = _deploy(servers=3, threshold=2, sharing="shamir")
        with pytest.raises(ValueError):
            ClusterClient(transport, deployment.scheme, hedge=0.5)
        with pytest.raises(ValueError):
            ClusterClient(transport, deployment.scheme, prefetch=-1)


class TestPrefetchPipeline:
    def test_prefetched_structural_rounds_overlap_share_reads(self):
        reference = _single_reference()
        results = {}
        for prefetch in (0, 2):
            deployment = Encoder(_tag_map(), SEED).deploy_text(
                XML, servers=3, threshold=2, sharing="shamir"
            )
            filters = [
                ServerFilter(table, deployment.ring) for table in deployment.node_tables
            ]
            transport = ClusterTransport(filters, per_call_latency=1.0)
            _, client = _client(transport, deployment, prefetch=prefetch)
            result = AdvancedQueryEngine(client).execute("//city")
            transport.drain()
            results[prefetch] = (
                result.matches,
                result.counters,
                transport.makespan(),
                [stats.calls for stats in transport.per_server_stats],
            )
        expected = AdvancedQueryEngine(reference).execute("//city")
        assert results[0][0] == expected.matches
        # identical traffic and results; only the modeled wall-clock drops
        assert results[2][:2] == results[0][:2]
        assert results[2][3] == results[0][3]
        assert results[2][2] < results[0][2]


class TestLeakageObserverUnmodified:
    def test_observer_sees_the_same_leakage_per_server(self):
        """Each cluster server observes the same (point, pres) trace shape
        the single server does — the observer runs unmodified."""
        encoded = Encoder(_tag_map(), SEED).encode_text(XML)
        single_view = ServerView()
        single_server = ObservingServerFilter(encoded.node_table, encoded.ring, view=single_view)
        registry = Registry(SimulatedTransport())
        registry.bind("ServerFilter", single_server)
        single_client = ClientFilter(
            registry.lookup("ServerFilter"), encoded.sharing, _tag_map()
        )
        AdvancedQueryEngine(single_client).execute("//city")

        deployment, transport = _deploy(observing=True, servers=3)
        _, client = _client(transport, deployment)
        AdvancedQueryEngine(client).execute("//city")

        reference_leakage = single_view.evaluations_by_point()
        assert reference_leakage
        for server in transport.servers:
            assert server.view.evaluations_by_point() == reference_leakage
            assert server.view.backend == encoded.ring.kernel.name


class TestFacadeClusterWiring:
    def _database(self, **kwargs):
        return EncryptedXMLDatabase.from_text(
            XML, tag_names=TAGS, seed=SEED, p=83, keep_plaintext=False, **kwargs
        )

    def test_cluster_database_matches_single_server(self):
        single = self._database()
        assert not single.is_cluster and single.num_servers == 1
        for kwargs in (dict(cluster=True), dict(servers=3), dict(servers=3, threshold=2, sharing="shamir")):
            clustered = self._database(**kwargs)
            assert clustered.is_cluster
            for query in ("//city", "/site//item/name"):
                expected = single.query(query, engine="advanced")
                actual = clustered.query(query, engine="advanced")
                assert actual.matches == expected.matches
                assert actual.counters == expected.counters

    def test_transport_stats_aggregate_and_reset(self):
        database = self._database(servers=3)
        database.query("//city")
        aggregate = database.transport_stats
        assert aggregate.queries == 1
        assert aggregate.calls == sum(stats.calls for stats in database.per_server_stats)
        assert len(database.per_server_stats) == 3
        expected = "numpy" if HAS_NUMPY else "prime"
        assert all(stats.backend == expected for stats in database.per_server_stats)
        database.reset_transport_stats()
        assert database.transport_stats.calls == 0

    def test_failed_server_mid_run(self):
        database = self._database(servers=3, threshold=2, sharing="shamir")
        expected = database.query("//city").matches
        database.transport.set_down(1)
        assert database.query("//city").matches == expected
        aggregate = database.transport_stats
        assert aggregate.errors > 0

    def test_cluster_false_with_servers_rejected(self):
        with pytest.raises(QueryConfigError):
            self._database(servers=3, cluster=False)

    def test_cluster_false_cannot_silently_drop_sharing_config(self):
        """Requesting threshold sharing without the cluster stack must fail
        loudly, not fall back to the two-party additive encoding."""
        with pytest.raises(QueryConfigError):
            self._database(sharing="shamir", threshold=2, cluster=False)
        with pytest.raises(QueryConfigError):
            self._database(latency_jitter=0.5)
        with pytest.raises(QueryConfigError):
            self._database(hedge=True)
        with pytest.raises(QueryConfigError):
            self._database(prefetch=2)
        with pytest.raises(QueryConfigError):
            self._database(round_overhead=0.1)
        with pytest.raises(QueryConfigError):
            self._database(concurrency=False)

    def test_concurrency_knob_changes_makespan_not_results(self):
        concurrent = self._database(
            servers=3, threshold=2, sharing="shamir", per_call_latency=1.0
        )
        sequential = self._database(
            servers=3, threshold=2, sharing="shamir", per_call_latency=1.0,
            concurrency=False,
        )
        expected = sequential.query("//city")
        actual = concurrent.query("//city")
        assert actual.matches == expected.matches
        assert actual.counters == expected.counters
        assert concurrent.transport_stats.calls == sequential.transport_stats.calls
        assert concurrent.makespan < sequential.makespan
        assert concurrent.transport_stats.makespan == pytest.approx(concurrent.makespan)

    def test_makespan_property_on_single_server_is_the_latency_sum(self):
        database = self._database(per_call_latency=0.5)
        database.query("//city")
        assert database.makespan == pytest.approx(
            database.transport_stats.simulated_latency
        )
        assert database.makespan > 0

    def test_hedge_and_prefetch_ride_the_facade(self):
        database = self._database(
            servers=3, threshold=2, sharing="shamir",
            read_quorum=2, verify_shares=False, hedge=2.0, prefetch=2,
        )
        plain = self._database(servers=3, threshold=2, sharing="shamir")
        assert database.query("//city").matches == plain.query("//city").matches
        client = database.cluster_client
        assert client._hedge_ratio == 2.0 and client._prefetch == 2

    def test_encoding_stats_cover_every_server(self):
        single = self._database()
        clustered = self._database(servers=3)
        assert clustered.encoding_stats.payload_bytes == pytest.approx(
            3 * single.encoding_stats.payload_bytes
        )
        assert len(clustered.encoded.per_server_stats) == 3
