"""Fleet supervision: attribution-driven quarantine and self-healing.

The pipeline under test (over simulated fleets — the socket variant lives
in ``test_socket_cluster.py``): a corrupt or dead server is observed, voted
past its health threshold, quarantined while quorum holds, and healed by
re-deriving its table from the seed (additive lanes) or from any k healthy
peers (Shamir) — byte-identical to the original deployment slice.
"""

import pytest

from repro.encode.encoder import Encoder
from repro.encode.tagmap import TagMap
from repro.engines.advanced import AdvancedQueryEngine
from repro.filters.client import ClientFilter
from repro.filters.cluster import ClusterClient, InconsistentShareError
from repro.filters.interface import MatchRule
from repro.filters.server import ServerFilter
from repro.gf.factory import make_field
from repro.rmi.cluster import ClusterTransport
from repro.rmi.supervisor import FleetSupervisor, SupervisorError
from repro.secretshare.scheme import SharingError

XML = (
    "<site>"
    "<people><person><name/><city/></person><person><city/></person></people>"
    "<regions><europe><item><name/></item></europe></regions>"
    "</site>"
)
TAGS = ["site", "people", "person", "name", "city", "regions", "europe", "item"]
SEED = b"supervisor-test-seed"
FIELD = make_field(83)


def _tag_map():
    return TagMap.from_names(TAGS, field=FIELD)


def _deploy(transport_kwargs=None, **kwargs):
    deployment = Encoder(_tag_map(), SEED).deploy_text(XML, **kwargs)
    filters = [ServerFilter(table, deployment.ring) for table in deployment.node_tables]
    transport = ClusterTransport(filters, **(transport_kwargs or {}))
    return deployment, transport


def _client(transport, deployment, **kwargs):
    cluster = ClusterClient(transport, deployment.scheme, **kwargs)
    return cluster, ClientFilter(cluster, deployment.scheme, _tag_map())


def _corrupt(table, delta=7):
    for pre in range(1, len(table) + 1):
        coeffs = table.share_row(pre)
        coeffs[0] = (coeffs[0] + delta) % 83
        table.set_share(pre, coeffs)


def _rows(table):
    return list(table.rows())


class TestCorruptionPipeline:
    """Detection → attribution → quarantine → heal on a (2,4) Shamir fleet."""

    def test_supervised_call_quarantines_heals_and_answers(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        _, client = _client(transport, deployment)
        supervisor = FleetSupervisor(transport, deployment.scheme)
        original = _rows(deployment.node_tables[1])
        _corrupt(deployment.node_tables[1])

        clean, clean_transport = _deploy(servers=4, threshold=2, sharing="shamir")
        _, reference = _client(clean_transport, clean)
        expected = AdvancedQueryEngine(reference).execute("//city", rule=MatchRule.CONTAINMENT)

        result = supervisor.supervised_call(
            lambda: AdvancedQueryEngine(client).execute("//city", rule=MatchRule.CONTAINMENT)
        )
        assert result.matches == expected.matches

        status = supervisor.status()
        assert status["quarantines"] == 1
        assert status["heals"] == 1
        assert status["quarantined"] == []  # healed back in
        assert [event["event"] for event in supervisor.log] == ["quarantine", "heal"]
        assert supervisor.log[0]["server"] == 1
        assert supervisor.log[1]["mode"] == "reshare"

        # the healed table is byte-identical to the original slice
        assert _rows(transport.servers[1]._table) == original

        # and the fleet now answers cleanly without supervision
        again = AdvancedQueryEngine(client).execute("//city", rule=MatchRule.CONTAINMENT)
        assert again.matches == expected.matches

    def test_attribution_never_blames_a_healthy_server(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        cluster, _ = _client(transport, deployment)
        _corrupt(deployment.node_tables[3])
        with pytest.raises(InconsistentShareError) as excinfo:
            cluster.fetch_share(1)
        assert excinfo.value.suspects == (3,)

    def test_counters_flow_through_stats(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        _, client = _client(transport, deployment)
        supervisor = FleetSupervisor(transport, deployment.scheme)
        _corrupt(deployment.node_tables[2])
        supervisor.supervised_call(
            lambda: AdvancedQueryEngine(client).execute("//city", rule=MatchRule.CONTAINMENT)
        )
        per_server = transport.stats_of(2).snapshot()
        assert per_server["quarantines"] == 1
        assert per_server["heals"] == 1
        merged = transport.aggregate_stats().snapshot()
        assert merged["quarantines"] == 1
        assert merged["heals"] == 1
        # untouched servers stay at zero
        assert transport.stats_of(0).snapshot()["quarantines"] == 0

    def test_inconclusive_attribution_reraises_without_retry(self):
        """n = k+1 detects but cannot attribute — no quarantine, no loop."""
        deployment, transport = _deploy(servers=3, threshold=2, sharing="shamir")
        cluster, _ = _client(transport, deployment)
        supervisor = FleetSupervisor(transport, deployment.scheme)
        _corrupt(deployment.node_tables[0])
        calls = []

        def operation():
            calls.append(1)
            return cluster.fetch_share(1)

        with pytest.raises(InconsistentShareError) as excinfo:
            supervisor.supervised_call(operation)
        assert excinfo.value.suspects == ()
        assert "inconclusive" in str(excinfo.value)
        assert len(calls) == 1
        assert supervisor.quarantined_servers() == []

    def test_straggler_corruption_outside_quorum_is_never_admitted(self):
        """A corrupt server beyond the first-k read quorum never pollutes
        results — the quorum read doesn't consult it."""
        # pin server 3 slow so the quorum read provably admits 0 and 1 first
        deployment, transport = _deploy(
            servers=4,
            threshold=2,
            sharing="shamir",
            transport_kwargs=dict(per_server_latency=[0.0, 0.0, 0.0, 10.0]),
        )
        cluster, client = _client(transport, deployment, read_quorum=2)
        _corrupt(deployment.node_tables[3])
        clean, clean_transport = _deploy(servers=4, threshold=2, sharing="shamir")
        _, reference = _client(clean_transport, clean)
        expected = AdvancedQueryEngine(reference).execute("//city", rule=MatchRule.CONTAINMENT)
        result = AdvancedQueryEngine(client).execute("//city", rule=MatchRule.CONTAINMENT)
        assert result.matches == expected.matches


class TestQuarantine:
    def test_quarantine_respects_quorum(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        supervisor = FleetSupervisor(transport, deployment.scheme)
        assert supervisor.quarantine(0, reason="corruption")
        assert supervisor.quarantine(1, reason="corruption")
        # two live servers left == threshold: losing another breaks quorum
        assert not supervisor.quarantine(2, reason="corruption")
        assert supervisor.quarantined_servers() == [0, 1]
        assert supervisor.log[-1]["event"] == "quarantine_refused"
        assert 2 in transport.live_servers()

    def test_quarantine_is_idempotent(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        supervisor = FleetSupervisor(transport, deployment.scheme)
        assert supervisor.quarantine(0)
        assert supervisor.quarantine(0)
        assert supervisor.health[0].quarantines == 1

    def test_ping_sweep_quarantines_a_dead_server(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        supervisor = FleetSupervisor(transport, deployment.scheme, ping_failures=2)
        transport.set_down(2)
        first = supervisor.ping_sweep()
        assert first[2] is False
        assert supervisor.quarantined_servers() == []
        second = supervisor.ping_sweep()
        assert second[2] is False
        assert supervisor.quarantined_servers() == [2]
        assert supervisor.health[2].reason == "unreachable"
        # quarantined servers are skipped on later sweeps
        assert 2 not in supervisor.ping_sweep()

    def test_heal_after_ping_quarantine_restores_the_fleet(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        _, client = _client(transport, deployment)
        supervisor = FleetSupervisor(transport, deployment.scheme, ping_failures=1)
        original = _rows(deployment.node_tables[2])
        transport.set_down(2)
        supervisor.ping_sweep()
        assert supervisor.quarantined_servers() == [2]
        report = supervisor.heal(2)
        assert report.mode == "reshare"
        assert report.rows == len(original)
        assert supervisor.quarantined_servers() == []
        assert sorted(transport.live_servers()) == [0, 1, 2, 3]
        assert _rows(transport.servers[2]._table) == original
        # the healed server answers again
        assert transport.invoke(2, "node_count", ()) == len(original)

    def test_observe_failure_streak_threshold(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        supervisor = FleetSupervisor(transport, deployment.scheme, unavailable_streak=3)
        assert not supervisor.observe_failure(1)
        assert not supervisor.observe_failure(1)
        supervisor.observe_success(1)  # streak resets
        assert not supervisor.observe_failure(1)
        assert not supervisor.observe_failure(1)
        assert supervisor.observe_failure(1)
        assert supervisor.quarantined_servers() == [1]


class TestAdditiveHeal:
    def test_lane_heals_by_regeneration_without_peer_shares(self):
        deployment, transport = _deploy(servers=3, sharing="additive")
        supervisor = FleetSupervisor(transport, deployment.scheme)
        original = _rows(deployment.node_tables[0])
        _corrupt(deployment.node_tables[0])
        # a PRG lane is regenerable client-side, so quarantining it keeps
        # the fleet sufficient …
        assert supervisor.quarantine(0, reason="corruption")
        # … while the residual (stored-only) share must never be dropped
        residual = deployment.scheme.residual_index
        assert not supervisor.quarantine(residual, reason="corruption")
        report = supervisor.heal(0)
        assert report.mode == "regenerate"
        assert supervisor.quarantined_servers() == []
        assert _rows(transport.servers[0]._table) == original

    def test_residual_share_is_unhealable(self):
        deployment, transport = _deploy(servers=3, sharing="additive")
        supervisor = FleetSupervisor(transport, deployment.scheme)
        residual = deployment.scheme.residual_index
        with pytest.raises(SupervisorError) as excinfo:
            supervisor.heal(residual)
        assert "neither regenerable" in str(excinfo.value)


class TestParameters:
    def test_fleet_size_must_match_scheme(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        smaller = Encoder(_tag_map(), SEED).deploy_text(
            XML, servers=3, threshold=2, sharing="shamir"
        )
        with pytest.raises(SharingError):
            FleetSupervisor(transport, smaller.scheme)

    def test_thresholds_must_be_positive(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        with pytest.raises(ValueError):
            FleetSupervisor(transport, deployment.scheme, corruption_votes=0)
        with pytest.raises(ValueError):
            FleetSupervisor(transport, deployment.scheme, heal_chunk=0)

    def test_status_shape(self):
        deployment, transport = _deploy(servers=4, threshold=2, sharing="shamir")
        supervisor = FleetSupervisor(transport, deployment.scheme)
        status = supervisor.status()
        assert len(status["servers"]) == 4
        assert status["live"] == [0, 1, 2, 3]
        assert status["events"] == []
