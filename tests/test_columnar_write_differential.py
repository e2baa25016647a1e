"""Seeded differential of the columnar write path on a (2,3) Shamir fleet.

A seeded random sequence of renames, inserts and deletes runs against the
598-node XMark document.  After every commit each server's table must
equal the re-encode oracle (:meth:`DocumentState.expected_rows`), carry the
structure of a fresh re-deploy of the edited document and reconstruct to
the same share vectors as that re-deploy.  Midway a server's share is
corrupted and healed, and at the end every table survives a
``Database.save``/``load`` round trip.  Throughout, no table holds one
garbage-collected object per row.
"""

import gc
import random

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
from repro.filters.cluster import ClusterClient
from repro.filters.server import CorruptibleServerFilter, ServerFilter
from repro.rmi.cluster import ClusterTransport
from repro.rmi.supervisor import FleetSupervisor
from repro.storage.database import Database
from repro.xmark.generator import generate_document
from repro.xmldoc.dtd import XMARK_DTD
from repro.xmldoc.parser import parse_string

SEED = b"columnar-differential-seed-00000"
FLEET = dict(servers=3, threshold=2, sharing="shamir")
RENAME_TAGS = ("city", "name", "country", "text")
STEPS = 10
#: the step after which server 1 is corrupted and healed
HEAL_STEP = 5


def tracked_objects(root) -> int:
    """How many objects the garbage collector tracks under ``root``
    (types and what they reference are shared, so not followed)."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, type) or not gc.is_tracked(obj):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def _fleet():
    config = DatabaseConfig(
        field=FieldConfig(tag_names=XMARK_DTD.element_names(), seed=SEED, p=83),
        cluster=ClusterConfig(**FLEET),
        transport=TransportConfig(concurrency=False),
        write=WriteConfig(enabled=True),
    )
    document = generate_document(scale=0.05, seed=4242)
    assert document.element_count() == 598
    return EncryptedXMLDatabase.from_document(document, config=config)


def _edit(db, rng):
    """One random edit; deletes only take subtrees of at most ten nodes."""
    state = db.document_state
    count = state.node_count
    kind = rng.choice(("rename", "insert", "delete"))
    if kind == "rename":
        return db.update_tag(rng.randint(1, count), rng.choice(RENAME_TAGS))
    if kind == "insert":
        mail = parse_string("<mail><from/><to/><text/></mail>").root
        return db.insert_subtree(rng.randint(1, count), mail, index=0)
    small = [
        pre for pre in range(2, count + 1) if state.node_at(pre).subtree_size() <= 10
    ]
    return db.delete_subtree(rng.choice(small))


def _check(db):
    state = db.document_state
    servers = db.transport.servers
    for index, server in enumerate(servers):
        table = server.table
        assert list(table.rows()) == state.expected_rows(index), "server %d" % index
        assert tracked_objects(table) < 20
    fresh = Encoder(db.encoded.tag_map, SEED).deploy_document(state.document, **FLEET)
    for server, table in zip(servers, fresh.node_tables):
        assert server.table.post == table.post
        assert server.table.parent == table.parent
    fresh_client = ClusterClient(
        ClusterTransport([ServerFilter(table, fresh.ring) for table in fresh.node_tables]),
        fresh.scheme,
    )
    pres = list(range(1, state.node_count + 1))
    assert db.cluster_client.fetch_shares_batch(pres) == fresh_client.fetch_shares_batch(pres)


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_writes_match_the_oracles(seed, tmp_path):
    rng = random.Random(seed)
    db = _fleet()
    _check(db)
    for step in range(STEPS):
        report = _edit(db, rng)
        assert report["failed"] == [] and len(report["committed"]) == 3
        _check(db)
        if step == HEAL_STEP:
            victim = db.transport.servers[1]
            last = db.document_state.node_count
            CorruptibleServerFilter(victim.table, db.encoded.ring).corrupt_share(last, 5)
            assert list(victim.table.rows()) != db.document_state.expected_rows(1)
            FleetSupervisor(
                db.transport, db.encoded.scheme, coordinator=db.write_coordinator
            ).heal(1)
            assert db.transport.servers[1].table is not victim.table
            _check(db)
    for index, server in enumerate(db.transport.servers):
        database = Database()
        database.add_table(server.table)
        path = str(tmp_path / ("server-%d.json" % index))
        database.save(path)
        loaded = Database.load(path).table("nodes")
        assert list(loaded.rows()) == db.document_state.expected_rows(index)
        assert loaded.shares == server.table.shares
        assert loaded.version == server.table.version
