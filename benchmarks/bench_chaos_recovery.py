"""Chaos recovery — random kills + corruptions under sustained query load.

PR 9 closed the fault loop: majority-vote corruption *attribution*
(``SharingScheme.attribute_corruption``), threshold-based *quarantine*
(``FleetSupervisor``) and seed/Lagrange *healing* that re-derives a lost
server's table without re-encoding the document.  This bench proves the
pipeline end to end on a real (2, 4) Shamir socket fleet — subprocess
servers, wire-injected faults — under a deterministically seeded chaos
schedule:

* **zero wrong results** — every query answered during the run matches the
  clean single-server ground truth; verification + supervised retry means
  corruption is *never* silently served,
* **correct attribution** — every corruption quarantine names exactly the
  server the schedule corrupted; a healthy server is never blamed,
* **byte-identical heals** — every replacement table file equals the
  original deployment slice byte for byte (Shamir re-share from k healthy
  peers reproduces the exact coefficients),
* **bounded unavailability** — SIGKILLed servers are absorbed by the
  read quorum, so no query during the run fails for availability.

The schedule alternates SIGKILLs (``SocketCluster.kill_server`` — a real
``SIGKILL`` to the child) and share corruptions (the ``--chaos``-gated
``corrupt_share`` injector, applied over the wire to the victim's whole
table) on servers drawn from a :class:`~repro.prg.generator.SplitMix64`
stream, with the full query mix replayed and verified after every event.

Run as a script to (re)generate ``BENCH_chaos_recovery.json``::

    PYTHONPATH=src python benchmarks/bench_chaos_recovery.py [--quick]

``--quick`` (or ``REPRO_BENCH_QUICK=1`` under pytest) shrinks the document
and the schedule for CI; the invariants are asserted in both modes.
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path

import pytest

from repro.encode.encoder import Encoder
from repro.encode.tagmap import TagMap
from repro.engines.advanced import AdvancedQueryEngine
from repro.engines.simple import SimpleQueryEngine
from repro.filters.client import ClientFilter
from repro.filters.cluster import ClusterClient
from repro.filters.server import ServerFilter
from repro.prg.generator import SplitMix64
from repro.rmi.proxy import Registry
from repro.rmi.server import SocketCluster
from repro.rmi.transport import SimulatedTransport
from repro.xmark.generator import generate_document
from repro.xmldoc.dtd import XMARK_DTD

SEED = b"bench-chaos-seed-0123456789abcde"
CHAOS_SEED = 20050905

DOCUMENT_SCALE = 0.05
QUICK_SCALE = 0.02

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: chaos events per run (each: one kill or one corruption, then the full
#: query mix, ping sweeps and a heal)
QUICK_ROUNDS = 4
FULL_ROUNDS = 8
ROUNDS = QUICK_ROUNDS if QUICK else FULL_ROUNDS

#: the query mix replayed after every chaos event
QUERIES = [
    ("//city", "advanced", False),
    ("/site//person//city", "advanced", False),
    ("/site/people/person", "simple", True),
]

ENGINES = {"advanced": AdvancedQueryEngine, "simple": SimpleQueryEngine}

#: the fleet under test — the smallest Shamir shape whose surplus supports
#: single-culprit attribution (m = n = 4 >= k + 2)
FLEET = dict(servers=4, threshold=2, sharing="shamir")

OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_chaos_recovery.json"


def _document(scale=None):
    return generate_document(scale=scale or DOCUMENT_SCALE, seed=20050905)


def _deployment(document):
    tag_map = TagMap.from_names(XMARK_DTD.element_names())
    return Encoder(tag_map, SEED).deploy_document(document, **FLEET)


def _ground_truth(document):
    """Query results from a clean single-server in-process reference."""
    tag_map = TagMap.from_names(XMARK_DTD.element_names())
    encoded = Encoder(tag_map, SEED).encode_document(document)
    registry = Registry(SimulatedTransport())
    registry.bind("ServerFilter", ServerFilter(encoded.node_table, encoded.ring))
    client = ClientFilter(registry.lookup("ServerFilter"), encoded.sharing, tag_map)
    return {
        (query, engine, strict): ENGINES[engine](client)
        .execute(query, rule=_rule(strict))
        .matches
        for query, engine, strict in QUERIES
    }


def _rule(strict):
    from repro.filters.interface import MatchRule

    return MatchRule.EQUALITY if strict else MatchRule.CONTAINMENT


class ChaosRun:
    """One seeded chaos schedule against one live socket fleet."""

    def __init__(self, document, seed=CHAOS_SEED, rounds=ROUNDS):
        from repro.rmi.supervisor import FleetSupervisor

        self.rng = SplitMix64(seed)
        self.rounds = rounds
        self.deployment = _deployment(document)
        self.truth = _ground_truth(document)
        self.cluster = SocketCluster.from_deployment(self.deployment, chaos=True)
        self.transport = self.cluster.cluster_transport()
        self.client = ClusterClient(self.transport, self.deployment.scheme)
        self.filter = ClientFilter(
            self.client, self.deployment.scheme, TagMap.from_names(XMARK_DTD.element_names())
        )
        self.supervisor = FleetSupervisor(
            self.transport, self.deployment.scheme, cluster=self.cluster, ping_failures=2
        )
        root = self.client.root_pre()
        self.pres = [root] + self.client.descendants_of(root)
        # ground truth of the fault state, updated by the injectors and
        # checked against every supervisor verdict
        self.corrupted = set()
        self.killed = set()
        self.metrics = {
            "queries": 0,
            "wrong_results": 0,
            "unavailable": 0,
            "corruptions": 0,
            "kills": 0,
            "attribution_events": 0,
            "misattributions": 0,
            "heals": 0,
            "byte_identical_heals": 0,
            "quarantine_refusals": 0,
        }
        self._log_cursor = 0

    # -- fault injection ------------------------------------------------

    def corrupt(self, index):
        delta = 1 + self.rng.next_below(self.deployment.ring.field.order - 1)
        for pre in self.pres:
            self.transport.invoke(index, "corrupt_share", (pre, delta))
        self.corrupted.add(index)
        self.metrics["corruptions"] += 1

    def kill(self, index):
        self.cluster.kill_server(index)
        self.killed.add(index)
        self.metrics["kills"] += 1

    def _pick_victim(self):
        """A currently-healthy server (one bad actor at a time: with n =
        k + 2 the attribution majority needs every other reply honest)."""
        candidates = [
            index
            for index in range(self.transport.num_servers)
            if index not in self.corrupted
            and index not in self.killed
            and index not in self.supervisor.quarantined_servers()
        ]
        return candidates[self.rng.next_below(len(candidates))]

    # -- verification ---------------------------------------------------

    def run_queries(self):
        from repro.filters.cluster import ClusterUnavailableError

        for key, expected in self.truth.items():
            query, engine, strict = key
            self.metrics["queries"] += 1
            try:
                result = self.supervisor.supervised_call(
                    lambda: ENGINES[engine](self.filter).execute(query, rule=_rule(strict))
                )
            except (ClusterUnavailableError, ConnectionError):
                self.metrics["unavailable"] += 1
                continue
            if result.matches != expected:
                self.metrics["wrong_results"] += 1
            self._audit_log()

    def _audit_log(self):
        """Check new supervisor events against the fault ground truth."""
        for event in self.supervisor.log[self._log_cursor :]:
            if event["event"] == "quarantine":
                if event["reason"] == "corruption":
                    self.metrics["attribution_events"] += 1
                    if event["server"] not in self.corrupted:
                        self.metrics["misattributions"] += 1
                elif event["reason"] == "unreachable":
                    if event["server"] not in self.killed:
                        self.metrics["misattributions"] += 1
            elif event["event"] == "heal":
                self._audit_heal(event["server"])
            elif event["event"] == "quarantine_refused":
                self.metrics["quarantine_refusals"] += 1
        self._log_cursor = len(self.supervisor.log)

    def _audit_heal(self, index):
        self.metrics["heals"] += 1
        original = os.path.join(self.cluster.directory, "server-%d.json" % index)
        healed = self.cluster.processes[index].database_path
        with open(original, "rb") as handle:
            original_bytes = handle.read()
        with open(healed, "rb") as handle:
            healed_bytes = handle.read()
        if healed_bytes == original_bytes:
            self.metrics["byte_identical_heals"] += 1
        self.corrupted.discard(index)
        self.killed.discard(index)

    def sweep_and_heal(self):
        """Ping sweeps catch killed servers; heal whatever is quarantined."""
        for _ in range(self.supervisor.ping_failures):
            self.supervisor.ping_sweep()
        for index in list(self.supervisor.quarantined_servers()):
            self.supervisor.heal(index)
        self._audit_log()

    # -- the schedule ---------------------------------------------------

    def run(self):
        try:
            self.run_queries()  # clean baseline pass
            for round_index in range(self.rounds):
                victim = self._pick_victim()
                if self.rng.next_below(2):
                    self.kill(victim)
                else:
                    self.corrupt(victim)
                self.run_queries()
                self.sweep_and_heal()
                self.run_queries()
            assert not self.corrupted and not self.killed, (
                "schedule ended with unhealed faults: corrupted=%s killed=%s"
                % (sorted(self.corrupted), sorted(self.killed))
            )
            return self.metrics
        finally:
            self.transport.close()
            self.cluster.shutdown()


def build_report(document, quick=False):
    run = ChaosRun(document, rounds=QUICK_ROUNDS if quick else FULL_ROUNDS)
    metrics = run.run()
    return {
        "benchmark": "chaos_recovery",
        "quick": bool(quick),
        "document": {
            "generator": "xmark",
            "scale": QUICK_SCALE if quick else DOCUMENT_SCALE,
            "nodes": len(run.pres),
        },
        "fleet": dict(FLEET),
        "schedule": {
            "seed": CHAOS_SEED,
            "rounds": run.rounds,
            "corruptions": metrics["corruptions"],
            "kills": metrics["kills"],
        },
        "queries": {
            "mix": [query for query, _, _ in QUERIES],
            "total": metrics["queries"],
            "wrong_results": metrics["wrong_results"],
            "unavailable": metrics["unavailable"],
        },
        "attribution": {
            "events": metrics["attribution_events"],
            "misattributions": metrics["misattributions"],
        },
        "heals": {
            "count": metrics["heals"],
            "byte_identical": metrics["byte_identical_heals"],
            "quarantine_refusals": metrics["quarantine_refusals"],
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
def chaos_report(tmp_path_factory):
    document = _document(scale=QUICK_SCALE if QUICK else DOCUMENT_SCALE)
    path = tmp_path_factory.mktemp("chaos") / "BENCH_chaos_recovery.json"
    return _emit(document, quick=QUICK, path=path)


def test_zero_wrong_results_under_chaos(chaos_report):
    queries = chaos_report["queries"]
    assert queries["total"] >= (1 + 2 * ROUNDS) * len(QUERIES)
    assert queries["wrong_results"] == 0


def test_unavailability_is_bounded(chaos_report):
    # the (2, 4) quorum absorbs every single-server fault in the schedule
    assert chaos_report["queries"]["unavailable"] == 0


def test_attribution_never_blames_a_healthy_server(chaos_report):
    attribution = chaos_report["attribution"]
    assert attribution["events"] == chaos_report["schedule"]["corruptions"]
    assert attribution["misattributions"] == 0


def test_every_heal_is_byte_identical(chaos_report):
    heals = chaos_report["heals"]
    assert heals["count"] >= chaos_report["schedule"]["rounds"]
    assert heals["byte_identical"] == heals["count"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small document and short schedule (CI mode)",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT_PATH,
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)
    document = _document(scale=QUICK_SCALE if args.quick else DOCUMENT_SCALE)
    report = _emit(document, quick=args.quick, path=args.output)
    queries = report["queries"]
    heals = report["heals"]
    print("wrote %s (%d-node document)" % (args.output, report["document"]["nodes"]))
    print(
        "  schedule: %d rounds (%d corruptions, %d kills) on a (%d, %d) shamir fleet"
        % (
            report["schedule"]["rounds"],
            report["schedule"]["corruptions"],
            report["schedule"]["kills"],
            FLEET["threshold"],
            FLEET["servers"],
        )
    )
    print(
        "  queries: %d total, %d wrong, %d unavailable"
        % (queries["total"], queries["wrong_results"], queries["unavailable"])
    )
    print(
        "  attribution: %d events, %d misattributions"
        % (report["attribution"]["events"], report["attribution"]["misattributions"])
    )
    print(
        "  heals: %d, byte-identical %d, quarantine refusals %d"
        % (heals["count"], heals["byte_identical"], heals["quarantine_refusals"])
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
