"""Socket wire vs simulated transport — the differential + RTT bench.

The asyncio transport puts a real TCP wire (subprocess servers on
loopback) under the unchanged cluster stack; this bench proves the wire
changes *nothing* and measures what it costs:

* **differential identity** — a (2, 3) Shamir and an n=3 additive
  deployment return byte-identical query results, combined shares and
  per-server call/byte counters over
  :class:`~repro.rmi.aio.AsyncClusterTransport` (real subprocess servers,
  one multiplexed connection each) vs :class:`SimulatedTransport`,
  *including with one server killed mid-run* (the socket side takes a real SIGKILL — the
  surviving fleet completes via quorum — and the transport-level down
  marking then maps the crash onto the same client-side semantics the
  simulated side models),
* **measured cost** — wall-clock round-trip of a minimal structural call
  and end-to-end query throughput over the real wire, alongside the
  in-process figures, emitted to ``BENCH_socket_transport.json`` so the
  transport's overhead is tracked.

Run as a script to (re)generate the JSON::

    PYTHONPATH=src python benchmarks/bench_socket_transport.py [--quick]

``--quick`` (or ``REPRO_BENCH_QUICK=1`` under pytest) shrinks the document
and the measurement loops for CI; the identity assertions always run.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import pytest

from repro.core.database import EncryptedXMLDatabase
from repro.rmi.socket import ServerUnavailable
from repro.xmark.generator import generate_document
from repro.xmldoc.dtd import XMARK_DTD

SEED = b"bench-socket-seed-0123456789abcd"

#: scale 0.05 generates the same 598-node document as the cluster benches
DOCUMENT_SCALE = 0.05
QUICK_SCALE = 0.02

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: one containment-heavy, one descendant-heavy, one strict (fetch-path) query
QUERIES = [
    ("//city", "advanced", False),
    ("/site//person//city", "advanced", False),
    ("/site/people/person", "simple", True),
]

#: the two deployments of the acceptance criterion, each with the server
#: the fault half of the differential kills: any server for the threshold
#: scheme, but a regenerable PRG lane for n-of-n additive (the last server
#: stores the irreplaceable residual — losing it is unrecoverable by design)
CONFIGS = [
    ("additive", dict(servers=3, sharing="additive"), 0),
    ("shamir", dict(servers=3, threshold=2, sharing="shamir"), 2),
]

#: the Shamir server killed by the quorum-resilience test
VICTIM = 2

OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_socket_transport.json"


def _document(scale=None):
    return generate_document(scale=scale or (QUICK_SCALE if QUICK else DOCUMENT_SCALE), seed=4242)


def _build(document, mode, **kwargs):
    return EncryptedXMLDatabase.from_document(
        document,
        tag_names=XMARK_DTD.element_names(),
        seed=SEED,
        p=83,
        keep_plaintext=False,
        transport=mode,
        **kwargs,
    )


def _run_queries(database):
    outcomes = []
    for query, engine, strict in QUERIES:
        result = database.query(query, engine=engine, strict=strict)
        outcomes.append((result.matches, result.counters))
    return outcomes


def _comparable_stats(database):
    """Per-server + aggregate counters with the measured-vs-modeled gauges
    (latency, makespan) left out — those are *supposed* to differ."""

    def strip(snapshot):
        snapshot = dict(snapshot)
        snapshot.pop("simulated_latency")
        snapshot.pop("makespan")
        return snapshot

    per_server = [strip(stats.snapshot()) for stats in database.per_server_stats]
    aggregate = strip(database.transport_stats.snapshot())
    return per_server, aggregate


def _assert_byte_identical(simulated, socketed):
    expected = _run_queries(simulated)
    actual = _run_queries(socketed)
    for (expected_matches, expected_counters), (matches, counters) in zip(expected, actual):
        assert matches == expected_matches
        assert counters == expected_counters
    sim_servers, sim_aggregate = _comparable_stats(simulated)
    sock_servers, sock_aggregate = _comparable_stats(socketed)
    assert sock_servers == sim_servers
    assert sock_aggregate == sim_aggregate
    pres = list(range(1, min(41, simulated.node_count)))
    assert socketed.cluster_client.fetch_shares_batch(pres) == (
        simulated.cluster_client.fetch_shares_batch(pres)
    )


@pytest.fixture(scope="module")
def bench_document():
    return _document()


@pytest.mark.parametrize(
    "label,config,victim", CONFIGS, ids=[label for label, _, _ in CONFIGS]
)
def test_socket_transport_is_byte_identical(bench_document, label, config, victim):
    """Acceptance: results, shares and per-server call/byte counters are
    identical over real subprocess servers and the in-process simulation —
    before any fault, and again after one server is killed mid-run."""
    simulated = _build(bench_document, "simulated", **config)
    with _build(bench_document, "asyncio", **config) as socketed:
        _assert_byte_identical(simulated, socketed)

        # --- kill one server mid-run: a real SIGKILL on the socket side ---
        socketed.socket_cluster.kill_server(victim)
        (probe,) = socketed.transport.invoke_all("node_count", indices=[victim])
        assert isinstance(probe.error, ServerUnavailable)  # the crash is real

        # Map the crash onto the transports' down semantics on both sides
        # (the simulated side has no process to kill), settle the probe's
        # traffic out of the counters, and prove the identity again.
        socketed.transport.set_down(victim)
        simulated.transport.set_down(victim)
        socketed.reset_transport_stats()
        simulated.reset_transport_stats()
        _assert_byte_identical(simulated, socketed)
        per_server, _ = _comparable_stats(socketed)
        assert per_server[victim]["errors"] > 0  # the dead server is charged


def test_killed_server_completes_via_quorum_without_down_marking(bench_document):
    """Without any client-side marking, the (2, 3) fleet keeps answering
    after a real SIGKILL: quorum completion and fail-over absorb the crash."""
    config = dict(CONFIGS[1][1])
    with _build(bench_document, "asyncio", **config) as database:
        before = [matches for matches, _ in _run_queries(database)]
        database.socket_cluster.kill_server(VICTIM)
        after = [matches for matches, _ in _run_queries(database)]
        assert after == before
        assert database.per_server_stats[VICTIM].errors > 0


# ----------------------------------------------------------------------
# Measured round-trip and throughput
# ----------------------------------------------------------------------


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def _measure(database, rtt_rounds, query_rounds):
    """Measured RTT of a minimal structural call + end-to-end query cost."""
    client = database.cluster_client
    rtts = []
    for _ in range(rtt_rounds):
        start = time.perf_counter()
        client.node_count()
        rtts.append(time.perf_counter() - start)
    database.reset_transport_stats()
    start = time.perf_counter()
    for _ in range(query_rounds):
        _run_queries(database)
    elapsed = time.perf_counter() - start
    aggregate = database.transport_stats
    executed = query_rounds * len(QUERIES)
    return {
        "rtt_median_us": round(_median(rtts) * 1e6, 1),
        "queries": executed,
        "elapsed_seconds": round(elapsed, 4),
        "queries_per_second": round(executed / elapsed, 2) if elapsed else None,
        "calls": aggregate.calls,
        "total_bytes": aggregate.total_bytes,
        "bytes_per_query": round(aggregate.bytes_per_query, 1),
        "errors": aggregate.errors,
    }


def build_report(document, quick=False):
    """Socket vs simulated cost figures for both deployment schemes."""
    rtt_rounds = 20 if quick else 100
    query_rounds = 2 if quick else 5
    series = []
    for label, config, _ in CONFIGS:
        for mode in ("simulated", "asyncio"):
            database = _build(document, mode, **config)
            try:
                row = _measure(database, rtt_rounds, query_rounds)
            finally:
                database.close()
            row.update({"sharing": label, "n": config["servers"], "mode": mode})
            series.append(row)
    return {
        "benchmark": "socket_transport",
        "document": {
            "generator": "xmark",
            "scale": QUICK_SCALE if quick else DOCUMENT_SCALE,
            "nodes": None,  # filled in by _emit
        },
        "queries": [query for query, _, _ in QUERIES],
        "series": series,
    }


def _emit(document, quick, path=OUTPUT_PATH):
    report = build_report(document, quick=quick)
    probe = _build(document, "simulated", servers=2)
    report["document"]["nodes"] = probe.node_count
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def test_report_json_is_emitted(bench_document, tmp_path):
    report = _emit(bench_document, quick=QUICK, path=tmp_path / "BENCH_socket_transport.json")
    by_key = {(row["sharing"], row["mode"]): row for row in report["series"]}
    for label, _, _ in CONFIGS:
        socketed = by_key[(label, "asyncio")]
        simulated = by_key[(label, "simulated")]
        # the wire costs real time but never extra traffic or failures
        assert socketed["rtt_median_us"] > 0
        assert socketed["errors"] == 0
        assert socketed["calls"] == simulated["calls"]
        assert socketed["total_bytes"] == simulated["total_bytes"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="small document and reduced measurement loops (CI mode)",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT_PATH,
        help="where to write the JSON report (default: repo root)",
    )
    args = parser.parse_args(argv)
    document = _document(scale=QUICK_SCALE if args.quick else DOCUMENT_SCALE)
    report = _emit(document, quick=args.quick, path=args.output)
    print("wrote %s (%d series rows, %d-node document)" % (
        args.output, len(report["series"]), report["document"]["nodes"]
    ))
    for row in report["series"]:
        print(
            "  %-8s n=%d %-10s rtt=%8.1fus  %6.1f q/s  calls=%d bytes/query=%.0f errors=%d"
            % (
                row["sharing"], row["n"], row["mode"], row["rtt_median_us"],
                row["queries_per_second"], row["calls"], row["bytes_per_query"],
                row["errors"],
            )
        )


if __name__ == "__main__":
    main()
