"""Tests for the ServerFilter / ClientFilter pair."""

import pytest

from repro.encode.encoder import Encoder
from repro.encode.tagmap import TagMap
from repro.filters.client import ClientFilter
from repro.filters.interface import MatchRule
from repro.filters.server import ServerFilter
from repro.gf.factory import make_field
from repro.metrics.counters import EvaluationCounters
from repro.rmi.proxy import Registry
from repro.xmldoc.numbering import PrePostNumbering
from repro.xmldoc.parser import parse_string

F83 = make_field(83)
SEED = b"filter-test-seed-0123456789abcde"

XML = "<a><b><c/><d/></b><e><f/><c/></e></a>"


@pytest.fixture(scope="module")
def setup():
    document = parse_string(XML)
    tag_map = TagMap.from_names(sorted(document.distinct_tags()) + ["zzz"], field=F83)
    encoded = Encoder(tag_map, SEED).encode_text(XML)
    server = ServerFilter(encoded.node_table, encoded.ring)
    counters = EvaluationCounters()
    client = ClientFilter(server, encoded.sharing, tag_map, counters=counters)
    numbering = PrePostNumbering(document)
    return server, client, numbering, tag_map, counters


class TestServerFilter:
    def test_node_count(self, setup):
        server = setup[0]
        assert server.node_count() == 7

    def test_root_pre(self, setup):
        assert setup[0].root_pre() == 1

    def test_node_info(self, setup):
        server = setup[0]
        info = server.node_info(2)
        assert info == {"pre": 2, "post": 3, "parent": 1}
        assert server.node_info(99) is None

    def test_children_match_reference(self, setup):
        server, _, numbering = setup[0], setup[1], setup[2]
        for node in numbering:
            expected = [child.pre for child in numbering.children_of(node.pre)]
            assert server.children_of(node.pre) == expected

    def test_descendants_match_reference(self, setup):
        server, numbering = setup[0], setup[2]
        for node in numbering:
            expected = sorted(d.pre for d in numbering.descendants_of(node.pre))
            assert sorted(server.descendants_of(node.pre)) == expected

    def test_descendants_of_unknown_node(self, setup):
        assert setup[0].descendants_of(999) == []

    def test_parent_of(self, setup):
        server, numbering = setup[0], setup[2]
        for node in numbering:
            assert server.parent_of(node.pre) == node.parent
        with pytest.raises(LookupError):
            server.parent_of(999)

    def test_fetch_share_and_evaluate(self, setup):
        server = setup[0]
        share = server.fetch_share(1)
        assert len(share) == 82
        assert isinstance(server.evaluate(1, 5), int)
        with pytest.raises(LookupError):
            server.fetch_share(999)

    def test_batch_variants(self, setup):
        server = setup[0]
        assert server.evaluate_batch([1, 2], 5) == [server.evaluate(1, 5), server.evaluate(2, 5)]
        assert server.fetch_shares_batch([1, 2]) == [server.fetch_share(1), server.fetch_share(2)]

    def test_queue_pipeline(self, setup):
        server = setup[0]
        queue_id = server.open_queue([3, 4, 5])
        assert server.queue_size(queue_id) == 3
        assert server.next_node(queue_id) == 3
        assert server.next_node(queue_id) == 4
        assert server.next_node(queue_id) == 5
        assert server.next_node(queue_id) == -1
        assert server.close_queue(queue_id)
        assert not server.close_queue(queue_id)
        with pytest.raises(LookupError):
            server.next_node(queue_id)

    def test_children_queue(self, setup):
        server = setup[0]
        queue_id = server.open_children_queue([1])
        collected = []
        while True:
            node = server.next_node(queue_id)
            if node == -1:
                break
            collected.append(node)
        assert collected == server.children_of(1)

    def test_descendants_queue(self, setup):
        server = setup[0]
        queue_id = server.open_descendants_queue([2])
        assert server.queue_size(queue_id) == len(server.descendants_of(2))


class TestClientFilterContainment:
    def test_containment_true_for_subtree_tags(self, setup):
        _, client, numbering = setup[0], setup[1], setup[2]
        # Node 2 is <b> with children c and d.
        assert client.contains(2, "b")
        assert client.contains(2, "c")
        assert client.contains(2, "d")

    def test_containment_false_for_absent_tags(self, setup):
        _, client = setup[0], setup[1]
        assert not client.contains(2, "e")
        assert not client.contains(2, "f")

    def test_containment_for_unmapped_tag_is_false(self, setup):
        _, client = setup[0], setup[1]
        assert not client.contains(1, "unknown_tag")

    def test_containment_exhaustive_against_plaintext(self, setup):
        _, client, numbering, tag_map = setup[0], setup[1], setup[2], setup[3]
        for node in numbering:
            subtree_tags = {n.tag for n in numbering.descendants_of(node.pre)} | {node.tag}
            for tag in ("a", "b", "c", "d", "e", "f"):
                assert client.contains(node.pre, tag) == (tag in subtree_tags)

    def test_mapped_but_absent_tag(self, setup):
        _, client = setup[0], setup[1]
        assert not client.contains(1, "zzz")


class TestClientFilterEquality:
    def test_equality_true_only_for_own_tag(self, setup):
        _, client, numbering = setup[0], setup[1], setup[2]
        for node in numbering:
            for tag in ("a", "b", "c", "d", "e", "f"):
                assert client.equals(node.pre, tag) == (node.tag == tag)

    def test_equality_for_unmapped_tag_is_false(self, setup):
        _, client = setup[0], setup[1]
        assert not client.equals(1, "unknown_tag")

    def test_matches_dispatch(self, setup):
        _, client = setup[0], setup[1]
        assert client.matches(2, "c", MatchRule.CONTAINMENT)
        assert not client.matches(2, "c", MatchRule.EQUALITY)
        assert client.matches(2, "b", MatchRule.EQUALITY)

    def test_reconstruct_matches_encoding(self, setup):
        _, client, numbering, tag_map = setup[0], setup[1], setup[2], setup[3]
        ring = client._ring
        node = numbering.by_pre(2)
        poly = client.reconstruct(2)
        # b's polynomial is (x - b)(x - c)(x - d)
        expected = ring.from_root_multiset([tag_map.value("b"), tag_map.value("c"), tag_map.value("d")])
        assert poly == expected


class TestCountersAndPipeline:
    def test_counters_increment(self, setup):
        _, client, _, _, counters = setup
        counters.reset()
        client.contains(1, "b")
        assert counters.evaluations == 1
        assert counters.client_regenerations >= 1
        client.equals(2, "b")
        assert counters.equality_tests == 1
        assert counters.reconstructions >= 3  # node + two children

    def test_structure_calls_count_fetches(self, setup):
        _, client, _, _, counters = setup
        counters.reset()
        client.children_of(1)
        client.descendants_of(1)
        client.parent_of(2)
        client.root_pre()
        assert counters.nodes_fetched == 4

    def test_queue_passthrough(self, setup):
        _, client = setup[0], setup[1]
        queue_id = client.open_children_queue([1])
        nodes = []
        while True:
            node = client.next_node(queue_id)
            if node is None:
                break
            nodes.append(node)
        assert nodes == client.children_of(1)
        client.close_queue(queue_id)

    def test_match_rule_helpers(self):
        assert MatchRule.from_strict_flag(True) is MatchRule.EQUALITY
        assert MatchRule.from_strict_flag(False) is MatchRule.CONTAINMENT
        assert MatchRule.EQUALITY.is_strict
        assert not MatchRule.CONTAINMENT.is_strict


class TestClientFilterOverRMI:
    def test_same_results_through_proxy(self, setup):
        server, direct_client, numbering, tag_map, _ = setup
        registry = Registry()
        registry.bind("ServerFilter", server)
        proxied_client = ClientFilter(
            registry.lookup("ServerFilter"), direct_client._sharing, tag_map
        )
        for node in numbering:
            assert proxied_client.contains(node.pre, "c") == direct_client.contains(node.pre, "c")
            assert proxied_client.equals(node.pre, node.tag)
        assert registry.transport.stats.calls > 0
