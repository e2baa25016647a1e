"""Tests for the batched query pipeline.

Covers the server bulk endpoints (equivalence with N single calls, unknown
``pre`` error behaviour, LRU share-cache accounting), the queue-drain and
descendant-scan performance fixes, the batched client primitives' counter
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

    def test_children_of_many_grouped_scan_bails_out_on_fanout(self, encoded):
        """A big-fanout node *between* two requested parents must not make
        the grouped parent-index pass scan its whole child list."""
        database, _ = encoded

        class CountingTable:
            def __init__(self, table):
                self._table = table
                self.rows_examined = 0

            def lookup(self, column, value):
                return self._table.lookup(column, value)

            def range_lookup(self, *args, **kwargs):
                for row in self._table.range_lookup(*args, **kwargs):
                    self.rows_examined += 1
                    yield row

            def __len__(self):
                return len(self._table)

        counting = CountingTable(database.node_table)
        server = ServerFilter(counting, database.ring)
        plain = ServerFilter(database.node_table, database.ring)
        # Pick the biggest-fanout node and bracket it with its neighbours:
        # the key range is tiny (dense heuristic fires) but the unrequested
        # middle parent owns most of the rows in the range.
        fanouts = {}
        for row in database.node_table:
            fanouts[row["parent"]] = fanouts.get(row["parent"], 0) + 1
        fat_parent = max(fanouts, key=lambda pre: fanouts[pre])
        pres = [fat_parent - 1, fat_parent + 1]
        result = server.children_of_many(pres)
        assert result == [plain.children_of(pre) for pre in pres]
        # Whether the scan completed (small fanout) or bailed out to point
        # lookups, it examines at most the wanted rows plus the waste budget.
        budget = 4 * len(pres)  # _DENSE_SCAN_FACTOR
        wanted_rows = sum(len(children) for children in result)
        assert counting.rows_examined <= wanted_rows + budget + 1

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

    def test_evaluate_many_is_an_alias(self, server):
        assert server.evaluate_many([1, 2], 5) == server.evaluate_batch([1, 2], 5)

    def test_fetch_shares_batch_matches_singles(self, server):
        pres = [1, 2, 1, 6]
        assert server.fetch_shares_batch(pres) == [server.fetch_share(pre) for pre in pres]
        assert server.fetch_shares(pres) == server.fetch_shares_batch(pres)

    def test_fetch_shares_batch_unknown_pre_raises_like_single(self, server):
        with pytest.raises(LookupError):
            server.fetch_share(999)
        with pytest.raises(LookupError):
            server.fetch_shares_batch([1, 999])

    def test_sparse_batch_uses_point_lookups(self, encoded):
        """A sparse key set must not trigger a long range scan."""

        class CountingTable:
            def __init__(self, table):
                self._table = table
                self.rows_examined = 0

            def lookup(self, column, value):
                return self._table.lookup(column, value)

            def range_lookup(self, *args, **kwargs):
                for row in self._table.range_lookup(*args, **kwargs):
                    self.rows_examined += 1
                    yield row

            def __len__(self):
                return len(self._table)

        database, _ = encoded
        counting = CountingTable(database.node_table)
        sparse_server = ServerFilter(counting, database.ring)
        # Key span 999 for 2 keys: far below the density threshold, so the
        # resolver must use point lookups, not a near-full range scan.
        infos = sparse_server.node_infos([1, 999])
        assert counting.rows_examined == 0
        assert infos[0] is not None and infos[1] is None


class TestShareCacheAccounting:
    def test_hits_accumulate_on_reuse(self, server):
        info = server.share_cache_info()
        assert info == {
            "hits": 0,
            "misses": 0,
            "size": 0,
            "capacity": 256,
            "backend": "numpy" if HAS_NUMPY else "prime",
        }
        server.evaluate_batch([1, 2, 3], 5)
        info = server.share_cache_info()
        assert info["misses"] == 3 and info["hits"] == 0 and info["size"] == 3
        server.evaluate_batch([1, 2, 3], 7)
        info = server.share_cache_info()
        assert info["hits"] == 3 and info["misses"] == 3

    def test_single_evaluate_shares_the_cache(self, server):
        server.evaluate(4, 5)
        assert server.share_cache_info()["misses"] == 1
        server.evaluate(4, 9)
        assert server.share_cache_info()["hits"] == 1

    def test_capacity_is_bounded(self, encoded):
        database, _ = encoded
        small = ServerFilter(database.node_table, database.ring, share_cache_size=2)
        small.evaluate_batch([1, 2, 3, 4], 5)
        info = small.share_cache_info()
        assert info["size"] == 2 and info["capacity"] == 2
        # Least-recently-used entries were evicted: re-evaluating 1 misses.
        small.evaluate(1, 5)
        assert small.share_cache_info()["misses"] == 5

    def test_zero_capacity_disables_caching(self, encoded):
        database, _ = encoded
        uncached = ServerFilter(database.node_table, database.ring, share_cache_size=0)
        uncached.evaluate(1, 5)
        uncached.evaluate(1, 5)
        assert uncached.share_cache_info()["size"] == 0
        assert uncached.share_cache_info()["hits"] == 0

    def test_negative_capacity_rejected(self, encoded):
        database, _ = encoded
        with pytest.raises(ValueError):
            ServerFilter(database.node_table, database.ring, share_cache_size=-1)


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


class TestDescendantScanIsSubtreeBounded:
    def test_rows_examined_equals_subtree_size(self):
        """Regression: descendants_of used to range-scan to the end of the
        table; it must stop at the contiguous pre-order subtree boundary."""

        class CountingTable:
            def __init__(self, table):
                self._table = table
                self.rows_examined = 0

            def lookup(self, column, value):
                return self._table.lookup(column, value)

            def range_lookup(self, *args, **kwargs):
                for row in self._table.range_lookup(*args, **kwargs):
                    self.rows_examined += 1
                    yield row

            def __len__(self):
                return len(self._table)

        # First child owns a 40-node subtree; 60 sibling leaves follow it.
        xml = "<a><b>" + "<c/>" * 40 + "</b>" + "<d/>" * 60 + "</a>"
        document = parse_string(xml)
        tag_map = TagMap.from_names(sorted(document.distinct_tags()), field=F83)
        encoded = Encoder(tag_map, SEED).encode_text(xml)
        counting = CountingTable(encoded.node_table)
        server = ServerFilter(counting, encoded.ring)

        descendants = server.descendants_of(2)  # the <b> node
        assert len(descendants) == 40
        # Subtree rows plus the single boundary row that ends the scan —
        # nowhere near the 102-row table.
        assert counting.rows_examined == len(descendants) + 1

    def test_last_subtree_scans_to_table_end_without_boundary_row(self, server):
        assert sorted(server.descendants_of(1)) == [2, 3, 4, 5, 6, 7]


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
