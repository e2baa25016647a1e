"""The versioned write path, end to end.

Covers the full pipeline of a node mutation: the incremental re-encode
(:class:`~repro.encode.mutate.DocumentState`), the two-phase delta apply
across the fleet (:class:`~repro.rmi.write.WriteCoordinator`), the write
journal and replay repair, read-repair at reconstruction time, the
version-aware cache busting (server share LRU, client PRG memo, gateway
result cache) and the supervisor heal fence — on simulated fleets and on
a real (2, 4) Shamir subprocess socket fleet.
"""

import gc
import threading

import pytest

from repro.core.config import (
    ClusterConfig,
    DatabaseConfig,
    FieldConfig,
    TransportConfig,
    WriteConfig,
)
from repro.core.database import EncryptedXMLDatabase
from repro.encode.encoder import Encoder
from repro.encode.mutate import DocumentState, MutationError
from repro.encode.tagmap import TagMap
from repro.filters.cluster import InconsistentShareError
from repro.gf.factory import make_field
from repro.rmi.cache import GatewayCache
from repro.rmi.codec import Codec
from repro.rmi.supervisor import FleetSupervisor
from repro.rmi.write import WriteCoordinator, WriteError, WriteJournal
from repro.storage.errors import StaleVersionError, WriteConflictError
from repro.xmldoc.parser import parse_string

XML = (
    "<site>"
    "<people>"
    "<person><name/><city/></person>"
    "<person><city/></person>"
    "</people>"
    "<regions><europe><item><name/></item><item><name/></item></europe></regions>"
    "</site>"
)
TAGS = ["site", "people", "person", "name", "city", "regions", "europe", "item"]
SEED = b"write-path-test-seed-0123456789!"
FIELD = make_field(83)


def _config(**write_kwargs):
    return DatabaseConfig(
        field=FieldConfig(tag_names=TAGS, seed=SEED, p=83),
        cluster=ClusterConfig(servers=4, threshold=2, sharing="shamir"),
        write=WriteConfig(enabled=True, **write_kwargs),
    )


def _db(**write_kwargs):
    return EncryptedXMLDatabase.from_document(
        parse_string(XML), config=_config(**write_kwargs)
    )


def _rows(table):
    return sorted(
        (dict(row, share=tuple(row["share"])) for row in table.scan()),
        key=lambda row: row["pre"],
    )


def _assert_fleet_matches_oracle(db):
    """Every server's table must equal the from-scratch re-encode oracle.

    Reads the live :class:`ServerFilter` tables off the transport (a heal
    swaps in a freshly built table object; ``db.encoded.node_tables``
    would still point at the abandoned one).
    """
    state = db.document_state
    for index, server in enumerate(db.transport.servers):
        assert _rows(server._table) == state.expected_rows(index), "server %d" % index


def _ancestor_pres(state, pre):
    node = state.node_at(pre)
    pres = []
    while node is not None:
        for candidate in range(1, state.node_count + 1):
            if state.node_at(candidate) is node:
                pres.append(candidate)
                break
        node = node.parent
    return set(pres)


class TestDocumentStateOracle:
    """The incremental re-encode agrees with the bulk encoder byte for byte."""

    def test_fresh_state_matches_bulk_deployment(self):
        db = _db()
        _assert_fleet_matches_oracle(db)
        # version 0 rows never carry the version column at all
        for table in db.encoded.node_tables:
            assert all("version" not in row for row in table.scan())

    def test_update_touches_only_the_ancestor_path(self):
        tag_map = TagMap.from_names(TAGS, field=FIELD)
        deployment = Encoder(tag_map, SEED).deploy_text(
            XML, servers=4, threshold=2, sharing="shamir"
        )
        state = DocumentState(parse_string(XML), tag_map, deployment.scheme)
        # the last leaf whose rename shifts no numbering: a <name/>
        leaf = max(
            pre
            for pre in range(1, state.node_count + 1)
            if state.node_at(pre).tag == "name"
        )
        delta = state.update_tag(leaf, "city")
        # a rename re-shares the root-to-node path — nothing else
        assert set(delta.touched_pres) == _ancestor_pres(state, leaf)
        assert len(delta.touched_pres) < state.node_count // 2
        assert not delta.structural
        assert not delta.deletes

    def test_unknown_tag_is_rejected_before_any_mutation(self):
        db = _db()
        with pytest.raises(Exception):
            db.document_state.update_tag(1, "no-such-tag")
        assert db.document_state.epoch == 0
        _assert_fleet_matches_oracle(db)


class TestEndToEndWrites:
    """insert/update/delete across a simulated (2, 4) Shamir fleet."""

    def test_mutations_match_fresh_redeploy_and_plaintext(self):
        db = _db()
        queries = ["//city", "//name", "//item/name", "/site/people/person"]

        db.update_tag(db.plaintext_query("//city")[0], "name")
        _assert_fleet_matches_oracle(db)

        person = parse_string("<person><name/><city/></person>").root
        parent = db.plaintext_query("/site/people")[0]
        db.insert_subtree(parent, person)
        _assert_fleet_matches_oracle(db)

        victim = db.plaintext_query("//item")[0]
        db.delete_subtree(victim)
        _assert_fleet_matches_oracle(db)

        # reads over the mutated fleet equal ground truth on the mutated tree
        for xpath in queries:
            assert sorted(db.query(xpath, strict=True).matches) == sorted(
                db.plaintext_query(xpath)
            )

        # and equal a from-scratch deployment of the mutated document
        fresh = EncryptedXMLDatabase.from_document(db.document, config=_config())
        for xpath in queries:
            assert sorted(db.query(xpath, strict=True).matches) == sorted(
                fresh.query(xpath, strict=True).matches
            )

    def test_every_server_advances_to_the_same_epoch(self):
        db = _db()
        db.update_tag(db.plaintext_query("//city")[0], "name")
        db.update_tag(db.plaintext_query("//name")[0], "city")
        epochs = db.write_coordinator.server_epochs()
        assert epochs == {0: 2, 1: 2, 2: 2, 3: 2}
        assert db.write_coordinator.journal.latest_epoch == 2
        assert db.write_coordinator.stale_servers() == {}

    def test_journaled_payloads_are_int_tuples_the_collector_skips(self):
        """The journal keeps every committed payload for replay.  Its rows
        are tuples of ints, which the collector untracks, so full
        collections stop rescanning every journaled share; the codec
        ships them byte for byte like the equivalent lists."""
        db = _db()
        person = parse_string("<person><name/><city/></person>").root
        db.insert_subtree(db.plaintext_query("/site/people")[0], person)
        db.update_tag(db.plaintext_query("//city")[0], "name")
        db.delete_subtree(db.plaintext_query("//item")[0])
        gc.collect()
        gc.collect()

        def as_lists(value):
            return [as_lists(item) for item in value] if isinstance(value, tuple) else value

        codec = Codec()
        entries = db.write_coordinator.journal.entries_after(0)
        assert len(entries) == 3
        for entry in entries:
            for payload in entry.payloads:
                assert payload["upserts"]
                for key in ("upserts", "structural", "deletes"):
                    assert type(payload[key]) is tuple
                for row in payload["upserts"] + payload["structural"]:
                    assert not gc.is_tracked(row)
                listed = {key: as_lists(value) for key, value in payload.items()}
                assert codec.encode(payload) == codec.encode(listed)

    def test_writes_require_the_write_config(self):
        from repro.core.database import QueryConfigError

        config = DatabaseConfig(
            field=FieldConfig(tag_names=TAGS, seed=SEED, p=83),
            cluster=ClusterConfig(servers=4, threshold=2, sharing="shamir"),
        )
        db = EncryptedXMLDatabase.from_document(parse_string(XML), config=config)
        assert db.write_coordinator is None
        with pytest.raises(QueryConfigError):
            db.update_tag(1, "city")


class TestCacheInvalidation:
    """No cache may serve bytes from before a committed mutation."""

    def test_share_lru_and_prg_memo_never_serve_stale(self):
        db = _db()
        xpath = "//city"
        before = db.query(xpath, strict=True).matches  # warms share LRU + PRG memo
        target = db.plaintext_query("//city")[0]
        db.update_tag(target, "name")
        after = db.query(xpath, strict=True).matches
        assert sorted(after) == sorted(db.plaintext_query(xpath))
        assert sorted(after) != sorted(before)
        # the committed epoch evicted every touched pre from each LRU
        for server in db.transport.servers:
            assert server.table_epoch() == 1

    def test_gateway_cache_is_bumped_on_every_commit(self):
        db = _db()
        cache = GatewayCache(1 << 20)
        db.write_coordinator.epoch_listeners.append(cache.bump_epoch)
        cache.store("node_count", (), 99)
        hit, value = cache.lookup("node_count", ())
        assert hit and value == 99
        db.update_tag(db.plaintext_query("//city")[0], "name")
        hit, _ = cache.lookup("node_count", ())
        assert not hit


class TestTwoPhase:
    """prepare/commit semantics of the coordinator."""

    def test_refused_prepare_aborts_everywhere(self):
        db = _db()
        coordinator = db.write_coordinator
        delta = db.document_state.update_tag(db.plaintext_query("//city")[0], "name")
        # server 2 refuses: its epoch was forced ahead
        db.transport.servers[2].set_table_epoch(7)
        with pytest.raises(WriteError):
            coordinator.apply(delta)
        assert len(coordinator.journal) == 0
        # no server committed, none is left with a staged delta
        for index, server in enumerate(db.transport.servers):
            expected = 7 if index == 2 else 0
            assert server.table_epoch() == expected
            assert server._staged_delta is None

    def test_missed_commit_is_replayed_from_the_journal(self):
        db = _db()
        coordinator = db.write_coordinator
        transport = coordinator.transport
        real_invoke = transport.invoke

        def flaky_invoke(index, method, args=()):
            if index == 3 and method == "commit_delta":
                raise ConnectionError("server 3 crashed mid-commit")
            return real_invoke(index, method, args)

        transport.invoke = flaky_invoke
        try:
            report = db.update_tag(db.plaintext_query("//city")[0], "name")
        finally:
            transport.invoke = real_invoke
        assert report["failed"] == [3]
        assert coordinator.stale_servers() == {3: 0}
        assert coordinator.repair_stale() == {3: 1}
        assert coordinator.stale_servers() == {}
        _assert_fleet_matches_oracle(db)

    def test_next_write_auto_repairs_a_lagging_server(self):
        """A server that missed a commit is replay-repaired by the next
        write's prepare instead of refusing it forever."""
        db = _db()
        coordinator = db.write_coordinator
        real_invoke = coordinator.transport.invoke

        def flaky_invoke(index, method, args=()):
            if index == 3 and method == "commit_delta":
                raise ConnectionError("server 3 crashed mid-commit")
            return real_invoke(index, method, args)

        coordinator.transport.invoke = flaky_invoke
        try:
            db.update_tag(db.plaintext_query("//city")[0], "name")
        finally:
            coordinator.transport.invoke = real_invoke
        assert coordinator.stale_servers() == {3: 0}
        # no explicit repair: the next write's prepare replays the backlog
        report = db.update_tag(db.plaintext_query("//name")[0], "city")
        assert report["failed"] == []
        assert coordinator.stale_servers() == {}
        _assert_fleet_matches_oracle(db)

    def test_journal_gap_refuses_replay(self):
        """A 1-entry journal cannot bridge a 2-delta lag: replay refuses
        instead of silently skipping the trimmed delta."""
        tag_map = TagMap.from_names(TAGS, field=FIELD)
        deployment = Encoder(tag_map, SEED).deploy_text(
            XML, servers=4, threshold=2, sharing="shamir"
        )
        state = DocumentState(parse_string(XML), tag_map, deployment.scheme)
        journal = WriteJournal(capacity=1)
        journal.record(state.update_tag(4, "city"))
        journal.record(state.update_tag(4, "name"))  # trims epoch 1
        assert journal.covers(1) and not journal.covers(0)

        from repro.filters.server import ServerFilter
        from repro.rmi.cluster import ClusterTransport

        filters = [
            ServerFilter(table, deployment.ring) for table in deployment.node_tables
        ]
        coordinator = WriteCoordinator(ClusterTransport(filters), journal=journal)
        with pytest.raises(WriteConflictError):
            coordinator.repair_server(0)  # still at epoch 0, gap at epoch 1

    def test_stale_structural_target_is_a_typed_error(self):
        db = _db()
        delta = db.document_state.delete_subtree(db.plaintext_query("//item")[0])
        payload = delta.payload(0)
        payload = dict(payload, structural=[[999, 1, 0]] + list(payload["structural"]))
        with pytest.raises(StaleVersionError):
            db.transport.servers[0].prepare_delta(payload)


class TestReadRepair:
    """Version skew is repaired in-line; corruption still raises typed."""

    def _skew_server_three(self, db):
        coordinator = db.write_coordinator
        real_invoke = coordinator.transport.invoke

        def flaky_invoke(index, method, args=()):
            if index == 3 and method == "commit_delta":
                raise ConnectionError("server 3 crashed mid-commit")
            return real_invoke(index, method, args)

        coordinator.transport.invoke = flaky_invoke
        try:
            db.update_tag(db.plaintext_query("//city")[0], "name")
        finally:
            coordinator.transport.invoke = real_invoke

    def test_read_repair_converges_after_a_stale_server(self):
        db = _db()
        self._skew_server_three(db)
        assert db.write_coordinator.stale_servers() == {3: 0}
        # the read hits the stale share, detects skew, repairs and retries
        result = db.query("//name", strict=True).matches
        assert sorted(result) == sorted(db.plaintext_query("//name"))
        assert db.cluster_client.read_repairs == [{3: 1}]
        assert db.write_coordinator.stale_servers() == {}
        # converged: later reads repair nothing
        db.query("//city")
        assert len(db.cluster_client.read_repairs) == 1

    def test_read_repair_can_be_disabled(self):
        db = _db(read_repair=False)
        self._skew_server_three(db)
        with pytest.raises(InconsistentShareError):
            db.query("//name")

    def test_genuine_corruption_still_raises(self):
        db = _db()
        db.update_tag(db.plaintext_query("//city")[0], "name")
        for row in db.encoded.node_tables[2].scan():
            coeffs = list(row["share"])
            coeffs[0] = (coeffs[0] + 7) % 83
            row["share"] = coeffs
        with pytest.raises(InconsistentShareError) as excinfo:
            db.query("//name")
        assert excinfo.value.suspects == (2,)
        # the repair hook ran, found no epoch skew, and re-raised
        assert db.cluster_client.read_repairs == []


class TestHealFence:
    """Supervisor heals fence the write path and rebuild at row versions."""

    def test_heal_rebuilds_mutated_rows_at_their_versions(self):
        db = _db()
        db.update_tag(db.plaintext_query("//city")[0], "name")
        supervisor = FleetSupervisor(
            db.transport, db.encoded.scheme, coordinator=db.write_coordinator
        )
        for row in db.encoded.node_tables[1].scan():
            coeffs = list(row["share"])
            coeffs[0] = (coeffs[0] + 11) % 83
            row["share"] = coeffs
        report = supervisor.heal(1)
        assert report.server == 1
        _assert_fleet_matches_oracle(db)
        assert db.transport.servers[1].table_epoch() == 1

    def test_heal_during_a_concurrent_write_stream(self):
        db = _db()
        city, name = db.plaintext_query("//city")[0], None
        supervisor = FleetSupervisor(
            db.transport, db.encoded.scheme, coordinator=db.write_coordinator
        )
        for row in db.encoded.node_tables[2].scan():
            coeffs = list(row["share"])
            coeffs[0] = (coeffs[0] + 3) % 83
            row["share"] = coeffs

        errors = []

        def writer():
            try:
                for step in range(6):
                    target = db.plaintext_query("//city")[0]
                    db.update_tag(target, "name")
                    db.update_tag(target, "city")
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            supervisor.heal(2)
        finally:
            thread.join()
        assert errors == []
        # the fleet converges on one epoch and the oracle byte-for-byte
        db.write_coordinator.repair_stale()
        epochs = set(db.write_coordinator.server_epochs().values())
        assert epochs == {db.write_coordinator.journal.latest_epoch}
        _assert_fleet_matches_oracle(db)
        assert sorted(db.query("//city", strict=True).matches) == sorted(
            db.plaintext_query("//city")
        )


class TestSocketFleet:
    """The same pipeline over real subprocess servers on the wire."""

    def test_writes_read_repair_and_reads_over_the_wire(self):
        config = DatabaseConfig(
            field=FieldConfig(tag_names=TAGS, seed=SEED, p=83),
            cluster=ClusterConfig(servers=4, threshold=2, sharing="shamir"),
            transport=TransportConfig(transport="asyncio"),
            write=WriteConfig(enabled=True),
        )
        with EncryptedXMLDatabase.from_document(
            parse_string(XML), config=config
        ) as db:
            assert db.write_coordinator is not None
            db.update_tag(db.plaintext_query("//city")[0], "name")
            person = parse_string("<person><city/></person>").root
            db.insert_subtree(db.plaintext_query("/site/people")[0], person)
            db.delete_subtree(db.plaintext_query("//item")[0])
            for xpath in ("//city", "//name", "/site/people/person"):
                assert sorted(db.query(xpath, strict=True).matches) == sorted(
                    db.plaintext_query(xpath)
                )
            # every subprocess reports the same epoch over the wire
            assert db.write_coordinator.server_epochs() == {0: 3, 1: 3, 2: 3, 3: 3}
            # versions travel the wire: the last delta's rows are > 0
            touched = db.write_coordinator.journal.entries_after(2)[0].touched_pres
            versions = db.transport.invoke(
                0, "row_versions", (list(touched),)
            )
            assert all(version > 0 for version in versions)
