"""Write path — incremental re-encode vs full re-deploy, repair convergence.

PR 10 gave the share fleet a versioned-row write path: node mutations are
re-encoded *incrementally* — only the contiguous pre-order range a mutation
actually touches (the ancestor path plus any renumbered tail) is re-shared
and shipped to the servers as a two-phase delta — instead of re-deploying
the whole document.  This bench measures and gates that promise on a
(2, 4) Shamir fleet:

* **incremental beats full** — the mean wall-clock of an incremental
  write (delta computation + two-phase apply across all four servers) is
  a multiple of a from-scratch ``deploy_document`` of the same tree;
  tag renames, which re-share only the ancestor path, are gated at a
  higher floor than the blended mix (inserts and deletes must also
  re-share the renumbered pre-order tail),
* **only the affected range** — the mean fraction of rows a delta
  touches stays far below 1.0 on an update-heavy mix,
* **byte-identical writes** — after every committed delta each server's
  table equals the from-scratch re-encode oracle
  (:meth:`~repro.encode.mutate.DocumentState.expected_rows`),
* **reads match a fresh re-deploy** — reconstructed secrets over the
  mutated fleet equal those of a clean re-deploy of the mutated tree
  (share *bytes* differ by the version salt; the reconstruction must not),
* **zero stale reads after repair** — with one server knocked out of a
  commit, the next read detects the version skew, replays the journal
  backlog, and afterwards not a single row on any server is stale.

Run as a script to (re)generate ``BENCH_write_path.json``::

    PYTHONPATH=src python benchmarks/bench_write_path.py [--quick]

``--quick`` (or ``REPRO_BENCH_QUICK=1`` under pytest) shrinks the document
and the schedule for CI; the invariants are asserted in both modes.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import pytest

from repro.encode.encoder import Encoder
from repro.encode.mutate import DocumentState
from repro.encode.tagmap import TagMap
from repro.filters.cluster import ClusterClient
from repro.filters.server import ServerFilter
from repro.prg.generator import SplitMix64
from repro.rmi.cluster import ClusterTransport
from repro.rmi.write import WriteCoordinator, WriteJournal
from repro.xmark.generator import generate_document
from repro.xmldoc.dtd import XMARK_DTD
from repro.xmldoc.parser import parse_string

SEED = b"bench-write-path-0123456789abcde"
SCHEDULE_SEED = 20051005

DOCUMENT_SCALE = 0.05
QUICK_SCALE = 0.02

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

QUICK_WRITES = 8
FULL_WRITES = 24

#: how many from-scratch deploys are timed for the denominator
FULL_DEPLOY_SAMPLES = 3

#: the fleet under test (matches the chaos/recovery benches)
FLEET = dict(servers=4, threshold=2, sharing="shamir")

#: update-heavy mix: renames re-share only the ancestor path; inserts and
#: deletes additionally re-share the renumbered pre-order tail
UPDATE_TAGS = ("city", "name", "date", "price")

OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_write_path.json"


def _tag_map():
    return TagMap.from_names(XMARK_DTD.element_names())


def _document(quick):
    return generate_document(
        scale=QUICK_SCALE if quick else DOCUMENT_SCALE, seed=20051005
    )


class WriteRun:
    """One seeded write schedule against one simulated Shamir fleet."""

    def __init__(self, document, writes):
        self.rng = SplitMix64(SCHEDULE_SEED)
        self.writes = writes
        self.tag_map = _tag_map()
        self.deployment = Encoder(self.tag_map, SEED).deploy_document(
            document, **FLEET
        )
        self.filters = [
            ServerFilter(table, self.deployment.ring)
            for table in self.deployment.node_tables
        ]
        self.transport = ClusterTransport(self.filters)
        self.state = DocumentState(document, self.tag_map, self.deployment.scheme)
        self.coordinator = WriteCoordinator(
            self.transport, journal=WriteJournal(), prg=self.deployment.prg
        )
        self.client = ClusterClient(self.transport, self.deployment.scheme)
        self.client.enable_read_repair(self.coordinator.repair_stale)
        self.metrics = {
            "writes": 0,
            "updates": 0,
            "inserts": 0,
            "deletes": 0,
            "rows_touched": 0,
            "rows_total": 0,
            "byte_identical_writes": 0,
            "incremental_seconds": 0.0,
            "update_seconds": 0.0,
            "read_repairs": 0,
            "stale_reads_after_repair": 0,
            "redeploy_read_mismatches": 0,
        }

    # -- the write schedule ---------------------------------------------

    def _random_pre(self):
        # never the root (pre 1): deletes of the root are refused
        return 2 + self.rng.next_below(self.state.node_count - 1)

    def _one_edit(self):
        roll = self.rng.next_below(10)
        if roll < 7 or self.state.node_count < 20:
            tag = UPDATE_TAGS[self.rng.next_below(len(UPDATE_TAGS))]
            return "updates", self.state.update_tag(self._random_pre(), tag)
        if roll < 9:
            element = parse_string("<emailaddress/>").root
            return "inserts", self.state.insert_subtree(self._random_pre(), element)
        return "deletes", self.state.delete_subtree(self._random_pre())

    def _oracle_mismatches(self):
        mismatches = 0
        for index, server in enumerate(self.transport.servers):
            if list(server.table.rows()) != self.state.expected_rows(index):
                mismatches += 1
        return mismatches

    def run_writes(self):
        for _ in range(self.writes):
            self.metrics["rows_total"] += self.state.node_count
            started = time.perf_counter()
            kind, delta = self._one_edit()
            self.coordinator.apply(delta)
            elapsed = time.perf_counter() - started
            self.metrics["incremental_seconds"] += elapsed
            self.metrics[kind] += 1
            if kind == "updates":
                self.metrics["update_seconds"] += elapsed
            self.metrics["writes"] += 1
            self.metrics["rows_touched"] += delta.write_rows + len(delta.deletes)
            if self._oracle_mismatches() == 0:
                self.metrics["byte_identical_writes"] += 1

    # -- the repair phase -----------------------------------------------

    def run_repair_phase(self):
        """One write misses its commit on one server; the next read must
        repair the skew and leave zero stale rows anywhere."""
        victim = self.rng.next_below(len(self.filters))
        real_invoke = self.transport.invoke

        def flaky_invoke(index, method, args=()):
            if index == victim and method == "commit_delta":
                raise ConnectionError("server %d crashed mid-commit" % victim)
            return real_invoke(index, method, args)

        self.transport.invoke = flaky_invoke
        try:
            delta = self.state.update_tag(self._random_pre(), UPDATE_TAGS[0])
            self.coordinator.apply(delta)
        finally:
            self.transport.invoke = real_invoke
        # the read of a touched row hits the stale share, repairs, retries
        self.client.fetch_shares_batch(list(delta.touched_pres))
        self.metrics["read_repairs"] = sum(
            len(repair) for repair in self.client.read_repairs
        )
        self.metrics["stale_reads_after_repair"] = self._oracle_mismatches()

    # -- the re-deploy comparison ---------------------------------------

    def run_redeploy_comparison(self):
        """Reconstructed reads over the mutated fleet vs a fresh deploy."""
        redeploy_seconds = 0.0
        for _ in range(FULL_DEPLOY_SAMPLES):
            started = time.perf_counter()
            fresh = Encoder(self.tag_map, SEED).deploy_document(
                self.state.document, **FLEET
            )
            redeploy_seconds += time.perf_counter() - started
        self.metrics["redeploy_seconds_per_write"] = (
            redeploy_seconds / FULL_DEPLOY_SAMPLES
        )
        fresh_filters = [
            ServerFilter(table, fresh.ring) for table in fresh.node_tables
        ]
        fresh_transport = ClusterTransport(fresh_filters)
        fresh_client = ClusterClient(fresh_transport, fresh.scheme)
        pres = [self.client.root_pre()] + self.client.descendants_of(
            self.client.root_pre()
        )
        mutated_reads = self.client.fetch_shares_batch(pres)
        fresh_reads = fresh_client.fetch_shares_batch(pres)
        self.metrics["redeploy_read_mismatches"] = sum(
            1 for ours, theirs in zip(mutated_reads, fresh_reads) if ours != theirs
        )

    def run(self):
        self.run_writes()
        self.run_repair_phase()
        self.run_redeploy_comparison()
        return self.metrics


def build_report(document, quick=False):
    run = WriteRun(document, writes=QUICK_WRITES if quick else FULL_WRITES)
    metrics = run.run()
    incremental_per_write = metrics["incremental_seconds"] / metrics["writes"]
    speedup = metrics["redeploy_seconds_per_write"] / incremental_per_write
    update_per_write = metrics["update_seconds"] / max(1, metrics["updates"])
    update_speedup = metrics["redeploy_seconds_per_write"] / update_per_write
    return {
        "benchmark": "write_path",
        "quick": bool(quick),
        "document": {
            "generator": "xmark",
            "scale": QUICK_SCALE if quick else DOCUMENT_SCALE,
            "nodes": run.state.node_count,
        },
        "fleet": dict(FLEET),
        "writes": {
            "count": metrics["writes"],
            "updates": metrics["updates"],
            "inserts": metrics["inserts"],
            "deletes": metrics["deletes"],
            "byte_identical": metrics["byte_identical_writes"],
            "avg_touched_fraction": metrics["rows_touched"]
            / max(1, metrics["rows_total"]),
        },
        "timing": {
            "incremental_ms_per_write": incremental_per_write * 1000.0,
            "update_ms_per_write": update_per_write * 1000.0,
            "full_redeploy_ms": metrics["redeploy_seconds_per_write"] * 1000.0,
            "incremental_vs_full_speedup": speedup,
            "update_vs_full_speedup": update_speedup,
        },
        "repair": {
            "read_repairs": metrics["read_repairs"],
            "stale_reads_after_repair": metrics["stale_reads_after_repair"],
            "redeploy_read_mismatches": metrics["redeploy_read_mismatches"],
        },
    }


def _emit(document, quick, path=OUTPUT_PATH):
    report = build_report(document, quick=quick)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


# ----------------------------------------------------------------------
# The asserted invariants (run under pytest, both modes)
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def write_report(tmp_path_factory):
    document = _document(quick=QUICK)
    path = tmp_path_factory.mktemp("write") / "BENCH_write_path.json"
    return _emit(document, quick=QUICK, path=path)


def test_every_write_is_byte_identical_to_the_oracle(write_report):
    writes = write_report["writes"]
    assert writes["byte_identical"] == writes["count"]


def test_incremental_touches_a_fraction_of_the_table(write_report):
    assert write_report["writes"]["avg_touched_fraction"] < 0.8


def test_incremental_beats_a_full_redeploy(write_report):
    # the mixed schedule includes inserts/deletes whose renumbered tail
    # must be re-shared, so the blended margin is modest; plain renames —
    # the common case — re-share only the ancestor path and win big
    assert write_report["timing"]["incremental_vs_full_speedup"] > 1.2
    assert write_report["timing"]["update_vs_full_speedup"] > 2.0


def test_reads_match_a_fresh_redeploy(write_report):
    assert write_report["repair"]["redeploy_read_mismatches"] == 0


def test_zero_stale_reads_after_repair(write_report):
    repair = write_report["repair"]
    assert repair["read_repairs"] >= 1
    assert repair["stale_reads_after_repair"] == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="CI-sized run")
    parser.add_argument(
        "--output", type=Path, default=OUTPUT_PATH, help="report destination"
    )
    args = parser.parse_args(argv)
    report = _emit(_document(quick=args.quick), quick=args.quick, path=args.output)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
