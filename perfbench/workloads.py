"""The three workloads: deployments, seeded operation schedules, oracles.

Every workload drives the public :class:`EncryptedXMLDatabase` facade from
one client in a closed loop.  The document is the paper harness's XMark
document at the workload's scale; the workload seed fixes the client's
PRG key, the query order and the write schedule.  (Seeding the document
as well moves query costs by about a tenth between seeds at 600 nodes,
which would swamp every bound.)  The program only ever sees the generated
XML text and the operations.

A workload runs in *rounds*.  A round of a read-only workload is every
(query, engine, match rule) configuration once, in a seeded order.  A
round of ``rw5k-fleet`` is its fifteen strict queries twice over (the
tail percentile needs the samples) and five write pairs, each pair
undoing itself: three renames, each followed by the rename back, and two
five-node inserts, each followed by its delete.  Queries therefore always
see the same document.  The two inserts sit at pre-order quantiles ``q``
and ``1 - q`` of one seeded ``q``: an insert or delete re-shares the whole
pre-order tail behind it, so the two cost the same in every round while
``q`` still sweeps the document.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.config import (
    ClusterConfig,
    DatabaseConfig,
    FieldConfig,
    TransportConfig,
    WriteConfig,
)
from repro.experiments.workloads import (
    DEFAULT_DOCUMENT_SEED,
    PAPER_P,
    TABLE1_QUERIES,
    TABLE2_QUERIES,
)
from repro.xmark.generator import generate_document
from repro.xmldoc.dtd import XMARK_DTD
from repro.xmldoc.parser import parse_string
from repro.xmldoc.serializer import serialize

#: the paper's Table 1 and Table 2 queries, plus ``//city``
QUERIES: List[str] = TABLE1_QUERIES + TABLE2_QUERIES + ["//city"]

#: the subtree every insert grafts (an XMark mailbox entry)
INSERT_FRAGMENT = "<mail><from/><to/><date/><text/></mail>"

#: per rw5k-fleet round
ROUND_QUERIES = 30
ROUND_RENAMES = 3


@dataclass(frozen=True)
class Workload:
    name: str
    #: XMark scale (about one MB of XML per unit)
    scale: float
    why: str
    engines: Tuple[str, ...]
    #: match rules run (``True`` = strict equality, ``False`` = containment)
    rules: Tuple[bool, ...]
    build_config: Callable[[bytes], DatabaseConfig]
    #: a round's duration on the reference host (2 vCPUs); ``--seconds``
    #: buys ``seconds / round_seconds`` whole rounds, so every run of a
    #: workload takes the same samples whatever the host's speed
    round_seconds: float
    writes: bool = False

    def rounds_for(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_seconds))


def _field(seed: bytes) -> FieldConfig:
    return FieldConfig(tag_names=XMARK_DTD.element_names(), seed=seed, p=PAPER_P)


def _local(seed: bytes) -> DatabaseConfig:
    # The paper's two-party setup: one additive server behind the
    # simulated RMI transport (codec round trip, no modelled latency).
    return DatabaseConfig(field=_field(seed))


def _wire(seed: bytes) -> DatabaseConfig:
    return DatabaseConfig(
        field=_field(seed),
        cluster=ClusterConfig(servers=2, sharing="additive"),
        transport=TransportConfig(transport="asyncio"),
    )


def _fleet(seed: bytes) -> DatabaseConfig:
    # Sequential scatter: the default pool opens one thread per server,
    # more threads than this workload's two cores.
    return DatabaseConfig(
        field=_field(seed),
        cluster=ClusterConfig(servers=3, threshold=2, sharing="shamir"),
        transport=TransportConfig(concurrency=False),
        write=WriteConfig(enabled=True),
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "q55k-local",
            5.0,
            "55k nodes, one in-process additive server: row resolution, storage, "
            "PRG, Horner and large codec vectors dominate; working set far over the caches",
            ("advanced",),
            (False, True),
            _local,
            20.0,
        ),
        # Runnable, but not in BENCHMARK.json: a client, its loop thread and
        # two server processes on two vCPUs made its latencies too unsteady
        # to gate (successive fleets in one process: p50 21-46 ms).
        Workload(
            "q600-wire",
            0.05,
            "600 nodes, two subprocess servers over the asyncio mux: round trips, "
            "framing and the event loop dominate; rows fit the PRG memo",
            ("simple", "advanced"),
            (False, True),
            _wire,
            2.0,
        ),
        Workload(
            "rw5k-fleet",
            0.5,
            "5.5k nodes, (2,3) Shamir fleet with the write path: renames, inserts and "
            "deletes beside threshold reads with share verification",
            # Strict queries only: the equality test is what reconstructs
            # whole polynomials from k replies and verifies the third.
            ("advanced",),
            (True,),
            _fleet,
            11.0,
            writes=True,
        ),
    )
}


def xml_text(workload: Workload) -> str:
    """The workload's XMark document: the paper harness's document at the
    workload's scale, the same for every workload seed."""
    return serialize(generate_document(scale=workload.scale, seed=DEFAULT_DOCUMENT_SEED))


def encoding_seed(seed: int) -> bytes:
    """The client's PRG master seed, derived from the workload seed."""
    return hashlib.sha256(b"perfbench-encoding-%d" % seed).digest()


# ----------------------------------------------------------------------
# Operations
# ----------------------------------------------------------------------


@dataclass
class Op:
    """One client operation; ``kind`` is ``query`` or a write kind."""

    kind: str
    xpath: str = ""
    engine: str = ""
    strict: bool = False
    pre: int = 0
    tag: str = ""
    #: the subtree an insert grafts or a delete removes (parsed before
    #: the op is timed)
    element: Optional[object] = None

    @property
    def is_query(self) -> bool:
        return self.kind == "query"

    def describe(self) -> str:
        if self.is_query:
            return "%s %s %s" % (self.engine, "strict" if self.strict else "contain", self.xpath)
        return "%s pre=%d %s" % (self.kind, self.pre, self.tag)


class Schedule:
    """Seeded rounds of operations for one workload.

    Two schedules built from the same workload and seed yield the same
    operations against the same document, so a traced pass repeats the
    untraced pass exactly.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.rng = random.Random(seed)
        self.configs = [
            (xpath, engine, strict)
            for xpath in QUERIES
            for engine in workload.engines
            for strict in workload.rules
        ]
        self._order: List[Tuple[str, str, bool]] = []
        self.tags = sorted(XMARK_DTD.element_names())

    def _next_queries(self, count: int) -> List[Op]:
        ops = []
        for _ in range(count):
            if not self._order:
                self._order = list(self.configs)
                self.rng.shuffle(self._order)
            xpath, engine, strict = self._order.pop()
            ops.append(Op("query", xpath=xpath, engine=engine, strict=strict))
        return ops

    def next_round(self, database) -> List[Op]:
        """The next round's operations against ``database``'s current state."""
        if not self.workload.writes:
            return self._next_queries(len(self.configs))
        return self._write_round(database)

    def _write_round(self, database) -> List[Op]:
        state = database.document_state
        count = state.node_count
        pairs: List[List[Op]] = []
        # Renames, each undone by the next write; never the root (pre 1).
        for pre in self.rng.sample(range(2, count + 1), ROUND_RENAMES):
            old = state.node_at(pre).tag
            new = self.rng.choice([tag for tag in self.tags if tag != old])
            pairs.append([Op("rename", pre=pre, tag=new), Op("rename", pre=pre, tag=old)])
        # The antithetic inserts, each deleted by the next write.  The
        # subtree is the anchor's first child, so it sits at anchor + 1.
        quantile = self.rng.random()
        for q in (quantile, 1.0 - quantile):
            anchor = 2 + int(q * (count - 2))
            element = parse_string(INSERT_FRAGMENT).root
            pairs.append(
                [Op("insert", pre=anchor, element=element),
                 Op("delete", pre=anchor + 1, element=element)]
            )
        self.rng.shuffle(pairs)
        # Queries only ever see the document the round started from; the
        # write pairs are spread evenly between them.
        queries = self._next_queries(ROUND_QUERIES)
        slots = len(pairs) + len(queries)
        ops: List[Op] = []
        pair_iter, query_iter = iter(pairs), iter(queries)
        for position in range(slots):
            if (position + 1) * len(pairs) // slots > position * len(pairs) // slots:
                ops.extend(next(pair_iter))
            else:
                ops.append(next(query_iter))
        return ops


def run_op(database, op: Op) -> object:
    """Execute one operation through the facade; returns its result."""
    if op.is_query:
        return database.query(op.xpath, engine=op.engine, strict=op.strict)
    if op.kind == "rename":
        return database.update_tag(op.pre, op.tag)
    if op.kind == "insert":
        return database.insert_subtree(op.pre, op.element, index=0)
    if op.kind == "delete":
        return database.delete_subtree(op.pre)
    raise ValueError("unknown operation %r" % op.kind)


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


def check_query(op: Op, result, expected: Sequence[int]) -> bool:
    """Strict results equal the plaintext answer; containment covers it."""
    got = set(result.matches)
    want = set(expected)
    return got == want if op.strict else got >= want


def check_write(database, report) -> bool:
    """A write must commit on every server."""
    return not report["failed"] and len(report["committed"]) == database.num_servers


def server_rows(server) -> List[Dict[str, object]]:
    """Every row a server holds, read through its public methods."""
    count = server.node_count()
    pres = list(range(1, count + 1))
    infos = server.node_infos(pres)
    shares = server.fetch_shares_batch(pres)
    versions = server.row_versions(pres)
    rows = []
    for info, share, version in zip(infos, shares, versions):
        row = dict(info, share=tuple(share))
        if version:
            row["version"] = version
        rows.append(row)
    return rows


def stale_servers(database) -> List[int]:
    """Servers whose rows differ from the from-scratch re-encode oracle."""
    state = database.document_state
    return [
        index
        for index, server in enumerate(database.server_filters)
        if server_rows(server) != state.expected_rows(index)
    ]
