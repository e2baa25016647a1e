"""Tests for the batched query pipeline.

Covers the server bulk endpoints (equivalence with N single calls, unknown
``pre`` error behaviour, column-only reads, the retired share-cache report),
the queue-drain fix and subtree ranges, the batched client primitives' counter
parity, and end-to-end engine equivalence between the batched and per-node
remote protocols.
"""

from __future__ import annotations

import time

import pytest

from repro.core.database import EncryptedXMLDatabase
from repro.encode.encoder import Encoder
from repro.encode.tagmap import TagMap
from repro.engines.simple import SimpleQueryEngine
from repro.filters.client import ClientFilter
from repro.filters.interface import MatchRule
from repro.filters.server import ServerFilter
from repro.gf.factory import make_field
from repro.gf.kernels import HAS_NUMPY
from repro.metrics.counters import EvaluationCounters
from repro.storage.table import Table
from repro.xmldoc.parser import parse_string

F83 = make_field(83)
SEED = b"batch-test-seed-0123456789abcdef"

XML = "<a><b><c/><d/></b><e><f/><c/></e></a>"


@pytest.fixture(scope="module")
def encoded():
    document = parse_string(XML)
    tag_map = TagMap.from_names(sorted(document.distinct_tags()) + ["zzz"], field=F83)
    return Encoder(tag_map, SEED).encode_text(XML), tag_map


@pytest.fixture()
def server(encoded):
    database, _ = encoded
    return ServerFilter(database.node_table, database.ring)


def make_client(encoded, server, batched):
    database, tag_map = encoded
    return ClientFilter(
        server, database.sharing, tag_map, counters=EvaluationCounters(), batched=batched
    )


class TestBulkEndpointEquivalence:
    def test_node_infos_match_singles(self, server):
        pres = [1, 3, 999, 2]
        assert server.node_infos(pres) == [server.node_info(pre) for pre in pres]
        assert server.node_infos([999])[0] is None
        assert server.node_infos([]) == []

    def test_children_of_many_match_singles(self, server):
        pres = [1, 2, 5, 999]
        assert server.children_of_many(pres) == [server.children_of(pre) for pre in pres]
        # Duplicates resolve independently (and must not alias one list).
        first, second = server.children_of_many([1, 1])
        assert first == second and first is not second

    def test_children_of_many_match_the_parent_column(self, encoded):
        """Children come off the child-offset index in document order, and
        the unindexed ablation's parent-column scan agrees with it."""
        database, _ = encoded
        table = database.node_table
        server = ServerFilter(table, database.ring)
        pres = list(range(0, len(table) + 2))
        expected = [
            [row["pre"] for row in table.rows() if row["parent"] == pre] for pre in pres
        ]
        assert server.children_of_many(pres) == expected
        unindexed = Table.from_rows(table.rows(), index_columns=[])
        assert ServerFilter(unindexed, database.ring).children_of_many(pres) == expected

    def test_descendants_of_many_match_singles(self, server):
        pres = [1, 2, 5, 999]
        assert server.descendants_of_many(pres) == [
            server.descendants_of(pre) for pre in pres
        ]

    def test_evaluate_batch_matches_singles(self, server):
        pres = [1, 2, 3, 2, 7]
        for point in (1, 5, 42, 82):
            assert server.evaluate_batch(pres, point) == [
                server.evaluate(pre, point) for pre in pres
            ]

    def test_evaluate_batch_unknown_pre_raises_like_single(self, server):
        with pytest.raises(LookupError):
            server.evaluate(999, 5)
        with pytest.raises(LookupError):
            server.evaluate_batch([1, 999], 5)

    def test_fetch_shares_batch_matches_singles(self, server):
        pres = [1, 2, 1, 6]
        assert server.fetch_shares_batch(pres) == [server.fetch_share(pre) for pre in pres]

    def test_fetch_shares_batch_unknown_pre_raises_like_single(self, server):
        with pytest.raises(LookupError):
            server.fetch_share(999)
        with pytest.raises(LookupError):
            server.fetch_shares_batch([1, 999])

    def test_reads_never_materialise_row_objects(self, server, monkeypatch):
        """Every read endpoint answers from the columns: no row dicts."""

        def refuse(*_):
            raise AssertionError("a server read built a row object")

        monkeypatch.setattr(Table, "row", refuse)
        monkeypatch.setattr(Table, "rows", refuse)
        pres = [1, 2, 3, 4, 5, 6, 7]
        assert len(server.node_infos(pres + [999])) == 8
        assert server.children_of_many(pres)[0] == [2, 5]
        assert server.descendants_of_many(pres)[0] == [2, 3, 4, 5, 6, 7]
        assert len(server.evaluate_batch(pres, 5)) == 7
        assert len(server.fetch_shares_batch(pres)) == 7
        assert server.row_versions(pres + [999]) == [0] * 7 + [-1]


class TestShareCacheAccounting:
    """The decoded-share cache is gone; its report keys stay and read zero."""

    def test_info_reads_zero_after_evaluations(self, server):
        server.evaluate_batch([1, 2, 3], 5)
        server.evaluate(4, 9)
        assert server.share_cache_info() == {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "capacity": 0,
            "backend": "numpy" if HAS_NUMPY else "prime",
        }

    def test_share_cache_size_is_a_no_op(self, encoded):
        database, _ = encoded
        results = [
            ServerFilter(database.node_table, database.ring, share_cache_size=size).evaluate_batch(
                [1, 2, 3, 4], 5
            )
            for size in (0, 2, 256)
        ]
        assert results[0] == results[1] == results[2]


class TestQueueDrainIsLinear:
    def test_large_queue_drains_within_linear_time_budget(self, server):
        """Regression: list.pop(0) made draining O(n^2); a 150k-node queue
        would take tens of seconds.  The deque drain must finish in well
        under two seconds even on a loaded machine."""
        size = 150_000
        queue_id = server.open_queue(list(range(size)))
        started = time.perf_counter()
        drained = 0
        while server.next_node(queue_id) != -1:
            drained += 1
        elapsed = time.perf_counter() - started
        server.close_queue(queue_id)
        assert drained == size
        assert elapsed < 2.0, "queue drain took %.2fs — not linear" % elapsed


class TestDescendantsAreASubtreeRange:
    def test_descendants_are_the_contiguous_subtree_range(self):
        """A subtree is the pre range up to its last descendant, found down
        the chain of last children — never by scanning to the table end."""
        # First child owns a 40-node subtree; 60 sibling leaves follow it.
        xml = "<a><b>" + "<c/>" * 40 + "</b>" + "<d/>" * 60 + "</a>"
        document = parse_string(xml)
        tag_map = TagMap.from_names(sorted(document.distinct_tags()), field=F83)
        encoded = Encoder(tag_map, SEED).encode_text(xml)
        server = ServerFilter(encoded.node_table, encoded.ring)
        assert server.descendants_of(2) == list(range(3, 43))  # the <b> node
        assert server.descendants_of(43) == []  # a leaf
        assert server.descendants_of(999) == []

    def test_last_subtree_runs_to_the_table_end(self, server):
        assert server.descendants_of(1) == [2, 3, 4, 5, 6, 7]


class TestClientBatchPrimitives:
    @pytest.fixture()
    def clients(self, encoded):
        database, tag_map = encoded
        batched = make_client(encoded, ServerFilter(database.node_table, database.ring), True)
        per_node = make_client(encoded, ServerFilter(database.node_table, database.ring), False)
        return batched, per_node

    def test_contains_many_matches_singles(self, clients):
        batched, per_node = clients
        pres = [1, 2, 3, 4, 5, 6, 7]
        for tag in ("a", "b", "c", "f", "zzz", "unknown_tag"):
            expected = [per_node.contains(pre, tag) for pre in pres]
            assert batched.contains_many(pres, tag) == expected
            assert per_node.contains_many(pres, tag) == expected

    def test_equals_many_matches_singles(self, clients):
        batched, per_node = clients
        pres = [1, 2, 3, 4, 5, 6, 7]
        for tag in ("a", "b", "c", "unknown_tag"):
            expected = [per_node.equals(pre, tag) for pre in pres]
            assert batched.equals_many(pres, tag) == expected

    def test_matches_many_dispatch(self, clients):
        batched, _ = clients
        pres = [2, 3]
        assert batched.matches_many(pres, "c", MatchRule.CONTAINMENT) == [True, True]
        assert batched.matches_many(pres, "c", MatchRule.EQUALITY) == [False, True]

    def test_parents_of_many_matches_singles(self, clients):
        batched, per_node = clients
        pres = [1, 2, 3, 7]
        expected = [per_node.parent_of(pre) for pre in pres]
        assert batched.parents_of_many(pres) == expected
        with pytest.raises(LookupError):
            batched.parents_of_many([1, 999])

    def test_structure_many_match_singles(self, clients):
        batched, per_node = clients
        pres = [1, 2, 5]
        assert batched.children_of_many(pres) == [per_node.children_of(p) for p in pres]
        assert batched.descendants_of_many(pres) == [
            per_node.descendants_of(p) for p in pres
        ]

    def test_counters_match_per_node_path(self, clients):
        """The batched primitives must record exactly the counters a
        per-node loop records, so the paper's figures are unaffected."""
        batched, per_node = clients
        pres = [1, 2, 3, 4, 5, 6, 7]
        batched.counters.reset()
        per_node.counters.reset()

        batched.contains_many(pres, "c")
        for pre in pres:
            per_node.contains(pre, "c")
        assert batched.counters.snapshot() == per_node.counters.snapshot()

        batched.counters.reset()
        per_node.counters.reset()
        batched.equals_many(pres, "b")
        for pre in pres:
            per_node.equals(pre, "b")
        assert batched.counters.snapshot() == per_node.counters.snapshot()

    def test_reconstruct_many_matches_singles(self, clients):
        batched, per_node = clients
        pres = [1, 2, 2, 6]
        assert batched.reconstruct_many(pres) == [per_node.reconstruct(p) for p in pres]

    def test_empty_batches_are_free(self, clients):
        batched, _ = clients
        batched.counters.reset()
        assert batched.contains_many([], "a") == []
        assert batched.children_of_many([]) == []
        assert batched.descendants_of_many([]) == []
        assert batched.parents_of_many([]) == []
        assert batched.reconstruct_many([]) == []
        assert batched.counters.snapshot() == EvaluationCounters().snapshot()


class TestEngineRuleSelection:
    def test_explicit_rule_overrides_engine_default(self, small_database):
        """Regression for ``rule or self.rule``: an explicitly passed rule —
        any member — must win over the engine default."""
        engine = SimpleQueryEngine(small_database.client_filter, rule=MatchRule.EQUALITY)
        for rule in MatchRule:
            result = engine.execute("/site/regions", rule=rule)
            assert result.rule is rule
        assert engine.execute("/site/regions").rule is MatchRule.EQUALITY

    def test_default_rule_used_when_omitted(self, small_database):
        engine = SimpleQueryEngine(small_database.client_filter, rule=MatchRule.CONTAINMENT)
        assert engine.execute("/site/regions").rule is MatchRule.CONTAINMENT


class TestEndToEndBatchedEquivalence:
    QUERIES = [
        "/site/regions/europe/item",
        "/site/*/person//city",
        "//city",
        "//person[address]",
        "/site/open_auctions/open_auction/bidder/../bidder/date",
        "//nonexistent",
    ]

    @pytest.fixture(scope="class")
    def databases(self, small_document):
        from repro.xmldoc.dtd import XMARK_DTD

        kwargs = dict(
            tag_names=XMARK_DTD.element_names(), seed=SEED, p=83, keep_plaintext=False
        )
        return (
            EncryptedXMLDatabase.from_document(small_document, batched=True, **kwargs),
            EncryptedXMLDatabase.from_document(small_document, batched=False, **kwargs),
        )

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("engine", ["simple", "advanced"])
    def test_matches_and_counters_identical(self, databases, engine, strict):
        batched_db, per_node_db = databases
        for query in self.QUERIES:
            batched = batched_db.query(query, engine=engine, strict=strict)
            per_node = per_node_db.query(query, engine=engine, strict=strict)
            assert batched.matches == per_node.matches, query
            assert batched.counters == per_node.counters, query

    def test_batched_protocol_issues_fewer_calls(self, databases):
        batched_db, per_node_db = databases
        batched_db.transport_stats.reset()
        per_node_db.transport_stats.reset()
        batched_db.query("//city", engine="simple", strict=False)
        per_node_db.query("//city", engine="simple", strict=False)
        assert batched_db.transport_stats.calls < per_node_db.transport_stats.calls

    def test_per_query_call_accounting(self, databases):
        batched_db, _ = databases
        stats = batched_db.transport_stats
        stats.reset()
        assert stats.calls_per_query == 0.0
        batched_db.query("//city", engine="simple", strict=False)
        batched_db.query("//city", engine="simple", strict=False)
        assert stats.queries == 2
        assert stats.calls_per_query == stats.calls / 2
        assert stats.bytes_per_query == stats.total_bytes / 2
        snapshot = stats.snapshot()
        assert snapshot["queries"] == 2
        assert snapshot["calls_per_query"] == stats.calls_per_query
