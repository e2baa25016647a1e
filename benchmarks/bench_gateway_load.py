"""Asyncio wire + gateway under load — the differential + scaling bench.

PR 6 put a multiplexed asyncio transport under the unchanged cluster stack
(one pipelined connection per server, first-k quorum admission on real
arrival) and a gateway daemon that serves many concurrent client sessions
over one shared fleet.  This bench proves the new wire changes *nothing*
and measures what the multiplexing buys:

* **differential identity** — a (2, 3) Shamir and an n=3 additive
  deployment return byte-identical query results, combined shares and
  per-server call/byte counters over ``transport="asyncio"`` (a real
  subprocess fleet) vs ``transport="simulated"`` on the same config,
  *including with one server SIGKILLed mid-run*,
* **admission latency** — first-k ``invoke_quorum`` admits the fast
  replies while a delayed straggler is still sleeping, strictly faster
  than ``invoke_all`` (asserted, not just reported),
* **gateway scaling** — N concurrent client sessions share one
  ``repro-gateway`` over a fleet with a modeled per-request service delay
  (an injected WAN round trip: on a zero-latency loopback the pure-Python
  share math is the bottleneck and no transport could scale); pipelining
  sessions onto one connection per upstream server must lift aggregate
  throughput ≥ 2x from 1 to 8 clients.

Run as a script to (re)generate ``BENCH_gateway_load.json``::

    PYTHONPATH=src python benchmarks/bench_gateway_load.py [--quick]

``--quick`` (or ``REPRO_BENCH_QUICK=1`` under pytest) shrinks the document
and the measurement loops for CI; the identity assertions always run.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.core.database import EncryptedXMLDatabase
from repro.encode.encoder import Encoder
from repro.encode.tagmap import TagMap
from repro.engines.advanced import AdvancedQueryEngine
from repro.engines.simple import SimpleQueryEngine
from repro.filters.client import ClientFilter
from repro.filters.interface import MatchRule
from repro.gf.factory import make_field
from repro.prg.seed import SeedFile
from repro.rmi.aio import AsyncClusterTransport, AsyncSocketTransport, LoopThread
from repro.rmi.gateway import GatewayProcess
from repro.rmi.server import SocketCluster, SocketServer
from repro.rmi.socket import ServerUnavailable
from repro.xmark.generator import generate_document
from repro.xmldoc.dtd import XMARK_DTD

SEED = b"bench-gateway-seed-0123456789abc"

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

ENGINES = {"advanced": AdvancedQueryEngine, "simple": SimpleQueryEngine}

#: the two deployments of the acceptance criterion, each with the server
#: the fault half of the differential kills (same choices as the socket
#: transport bench: any server for the threshold scheme, a regenerable PRG
#: lane for n-of-n additive)
CONFIGS = [
    ("additive", dict(servers=3, sharing="additive"), 0),
    ("shamir", dict(servers=3, threshold=2, sharing="shamir"), 2),
]

#: the modeled per-request service delay of the gateway-scaling fleet (an
#: injected WAN round trip; see the module docstring) and the straggler
#: delay of the quorum-admission measurement
GATEWAY_DELAY = 0.005
STRAGGLER_DELAY = 0.4

#: concurrent session counts of the scaling sweep and the asserted
#: aggregate-throughput lift from the first to the last of them
CLIENT_COUNTS = (1, 8) if QUICK else (1, 2, 4, 8)
MIN_SCALING = 1.3 if QUICK else 2.0

#: the repeated-workload scenario: this many sessions replay the same
#: query mix with the gateway cache off vs on; cache-on must lift the
#: aggregate throughput by at least this factor (PR 8 acceptance: 3x
#: full mode, relaxed under --quick where the loops are tiny)
REPEAT_SESSIONS = 8
MIN_CACHE_SPEEDUP = 1.5 if QUICK else 3.0
CACHE_BYTES = 32 * 1024 * 1024

#: the hog-vs-interactive scenario: one mux session keeps HOG_BURST
#: fetch_shares_batch rounds of HOG_BATCH nodes in flight (varying the
#: slices so the cache cannot absorb them) while an interactive session
#: issues single structural calls; under --fair with this per-session
#: cap, the interactive p95 must stay within MAX_FAIR_P95_FACTOR of its
#: solo baseline.  The scenario runs a larger modeled service delay than
#: the scaling sweep: the QoS bound is about *queueing* behind the hog's
#: admitted batches, so the modeled round trip must dominate the raw
#: CPU cost of one batch (on a zero-latency loopback nothing could)
FAIRNESS_DELAY = 0.025
HOG_BURST = 16
HOG_BATCH = 64
FAIR_CAP = 1
INTERACTIVE_CALLS = 30 if QUICK else 120
MAX_FAIR_P95_FACTOR = 4.0 if QUICK else 2.0

OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_gateway_load.json"


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


def _assert_byte_identical(simulated, asyncioed):
    expected = _run_queries(simulated)
    actual = _run_queries(asyncioed)
    for (expected_matches, expected_counters), (matches, counters) in zip(expected, actual):
        assert matches == expected_matches
        assert counters == expected_counters
    sim_servers, sim_aggregate = _comparable_stats(simulated)
    aio_servers, aio_aggregate = _comparable_stats(asyncioed)
    assert aio_servers == sim_servers
    assert aio_aggregate == sim_aggregate
    pres = list(range(1, min(41, simulated.node_count)))
    assert asyncioed.cluster_client.fetch_shares_batch(pres) == (
        simulated.cluster_client.fetch_shares_batch(pres)
    )


@pytest.fixture(scope="module")
def bench_document():
    return _document()


@pytest.mark.parametrize(
    "label,config,victim", CONFIGS, ids=[label for label, _, _ in CONFIGS]
)
def test_asyncio_transport_is_byte_identical(bench_document, label, config, victim):
    """Acceptance: results, shares and per-server call/byte counters are
    identical over the multiplexed asyncio wire and the in-process
    simulation of the same config — before any fault, and again after one
    server takes a real SIGKILL mid-run (marked down on the simulated
    side, which has no process to kill)."""
    simulated = _build(bench_document, "simulated", **config)
    with _build(bench_document, "asyncio", **config) as asyncioed:
        _assert_byte_identical(simulated, asyncioed)

        # --- kill one server mid-run: a real SIGKILL on the asyncio side ---
        asyncioed.socket_cluster.kill_server(victim)
        with pytest.raises(ServerUnavailable):  # the crash is real
            asyncioed.transport.invoke(victim, "node_count")

        # Map the crash onto the transports' down semantics on both sides,
        # settle the probe's traffic out of the counters, and prove the
        # identity again over the surviving quorum.
        asyncioed.transport.set_down(victim)
        simulated.transport.set_down(victim)
        asyncioed.reset_transport_stats()
        simulated.reset_transport_stats()
        _assert_byte_identical(simulated, asyncioed)
        per_server, _ = _comparable_stats(asyncioed)
        assert per_server[victim]["errors"] > 0  # the dead server is charged


# ----------------------------------------------------------------------
# First-k quorum admission vs wait-for-all under an injected delay
# ----------------------------------------------------------------------


class _Echo:
    def whoami(self):  # pragma: no cover - trivial
        return "here"


def _measure_quorum_admission(rounds):
    """invoke_quorum(k=2) vs invoke_all over a fleet whose last server
    sleeps ``STRAGGLER_DELAY`` before every answer."""
    fleet = [SocketServer(_Echo(), name="quorum-%d" % i) for i in range(3)]
    for server in fleet:
        server.start()
    fleet[2].delay = STRAGGLER_DELAY
    cluster = AsyncClusterTransport([server.address for server in fleet])
    try:
        cluster.invoke_all("whoami")  # warm every connection (and the loop)
        cluster.drain()
        quorum_times, all_times = [], []
        for _ in range(rounds):
            start = time.perf_counter()
            replies = cluster.invoke_quorum("whoami", k=2)
            quorum_times.append(time.perf_counter() - start)
            assert sum(1 for reply in replies if reply.ok) >= 2
            cluster.drain()  # settle the straggler before the next round
            start = time.perf_counter()
            replies = cluster.invoke_all("whoami")
            all_times.append(time.perf_counter() - start)
            assert all(reply.ok for reply in replies)
        return _median(quorum_times), _median(all_times)
    finally:
        cluster.close()
        for server in fleet:
            server.close()


def test_quorum_admission_beats_wait_for_all():
    """Acceptance: admit-on-arrival first-k returns strictly before the
    injected straggler; wait-for-all pays the full delay."""
    quorum_s, all_s = _measure_quorum_admission(rounds=2 if QUICK else 3)
    assert all_s >= STRAGGLER_DELAY  # wait-for-all pays the sleep
    assert quorum_s < all_s  # strictly faster, as promised
    assert quorum_s < STRAGGLER_DELAY / 2  # and not by luck: no sleep paid


# ----------------------------------------------------------------------
# Gateway scaling: N concurrent sessions over one shared fleet
# ----------------------------------------------------------------------


class _GatewayStack:
    """A subprocess fleet with a modeled service delay + the gateway daemon.

    The deployment's tag map is pinned to F_83 so it matches the gateway's
    ``--p 83``: the gateway rebuilds the sharing scheme from the seed file
    and its field, and a field mismatch surfaces as share-verification
    failures (the auto-selected field for the XMark alphabet is F_79).
    """

    def __init__(self, document, delay, cache_bytes=0, fair=False, fair_cap=8):
        tag_map = TagMap.from_names(XMARK_DTD.element_names(), field=make_field(83))
        self.tag_map = tag_map
        self.deployment = Encoder(tag_map, SEED).deploy_document(
            document, servers=3, threshold=2, sharing="shamir"
        )
        self.cluster = SocketCluster.from_deployment(self.deployment, delay=delay)
        self._tmp = tempfile.mkdtemp(prefix="repro-gateway-bench-")
        seed_path = os.path.join(self._tmp, "seed.bin")
        SeedFile(SEED).save(seed_path)
        self.gateway = GatewayProcess(
            self.cluster.addresses,
            seed_path,
            p=83,
            sharing="shamir",
            threshold=2,
            cache_bytes=cache_bytes,
            fair=fair,
            fair_cap=fair_cap,
        )
        self.gateway.start()

    def close(self):
        try:
            self.gateway.shutdown()
        finally:
            self.cluster.shutdown()


def _run_session_load(stack, clients, rounds, collect=False):
    """``clients`` barrier-started sessions, each running ``rounds`` passes
    over the query mix; returns aggregate throughput + latency quantiles.
    With ``collect`` each session also records its (query, matches,
    counters) trace so two runs can be compared byte for byte."""
    barrier = threading.Barrier(clients + 1)
    latencies = [[] for _ in range(clients)]
    traces = [[] for _ in range(clients)]
    failures = []

    def worker(index):
        endpoint = stack.gateway.endpoint(timeout=60.0)
        try:
            client = ClientFilter(endpoint, stack.deployment.scheme, stack.tag_map)
            barrier.wait()
            for _ in range(rounds):
                for query, engine, strict in QUERIES:
                    rule = MatchRule.EQUALITY if strict else MatchRule.CONTAINMENT
                    start = time.perf_counter()
                    result = ENGINES[engine](client).execute(query, rule=rule)
                    latencies[index].append(time.perf_counter() - start)
                    if collect:
                        traces[index].append(
                            (query, result.matches, dict(result.counters))
                        )
        except Exception as error:  # pragma: no cover - diagnostic path
            failures.append("client %d: %r" % (index, error))
        finally:
            endpoint.close()

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    assert not failures, failures
    flat = sorted(sample for samples in latencies for sample in samples)
    row = {
        "clients": clients,
        "queries": len(flat),
        "elapsed_seconds": round(wall, 4),
        "queries_per_second": round(len(flat) / wall, 2),
        "latency_p50_ms": round(flat[len(flat) // 2] * 1e3, 1),
        "latency_p95_ms": round(flat[int(len(flat) * 0.95)] * 1e3, 1),
    }
    if collect:
        return row, traces
    return row


def _gateway_series(document, rounds):
    stack = _GatewayStack(document, delay=GATEWAY_DELAY)
    try:
        _run_session_load(stack, 1, 1)  # warm the fleet connections + caches
        return [_run_session_load(stack, n, rounds) for n in CLIENT_COUNTS]
    finally:
        stack.close()


def _scaling(series):
    return series[-1]["queries_per_second"] / series[0]["queries_per_second"]


def test_gateway_throughput_scales_with_concurrent_clients(bench_document):
    """Acceptance: 1 -> 8 concurrent sessions over one gateway lift
    aggregate throughput by at least ``MIN_SCALING`` on the delay-modeled
    fleet (2x full mode, relaxed in --quick CI mode)."""
    series = _gateway_series(bench_document, rounds=2 if QUICK else 3)
    assert series[0]["clients"] == 1 and series[-1]["clients"] == 8
    assert _scaling(series) >= MIN_SCALING


# ----------------------------------------------------------------------
# Repeated workload: the gateway result cache, off vs on
# ----------------------------------------------------------------------


def _run_repeated_workload(document, rounds):
    """The same query mix from ``REPEAT_SESSIONS`` sessions, cache off vs
    cache on: byte-identical traces (matches AND client-side counters)
    are asserted, the aggregate throughput lift is the scenario result."""
    rows, traces = {}, {}
    for label, cache_bytes in (("cache_off", 0), ("cache_on", CACHE_BYTES)):
        stack = _GatewayStack(document, delay=GATEWAY_DELAY, cache_bytes=cache_bytes)
        try:
            _run_session_load(stack, 1, 1)  # warm connections (and the cache)
            rows[label], traces[label] = _run_session_load(
                stack, REPEAT_SESSIONS, rounds, collect=True
            )
        finally:
            stack.close()
    # the cache must be invisible: every session's every run identical
    assert traces["cache_on"] == traces["cache_off"]
    speedup = (
        rows["cache_on"]["queries_per_second"]
        / rows["cache_off"]["queries_per_second"]
    )
    return {
        "sessions": REPEAT_SESSIONS,
        "rounds": rounds,
        "cache_bytes": CACHE_BYTES,
        "cache_off": rows["cache_off"],
        "cache_on": rows["cache_on"],
        "cache_speedup": round(speedup, 2),
    }


def test_repeated_workload_cache_speedup(bench_document):
    """Acceptance: 8 sessions replaying the same query mix run at least
    ``MIN_CACHE_SPEEDUP`` times faster in aggregate with the gateway
    cache on — with byte-identical results and counters (asserted inside
    the scenario)."""
    scenario = _run_repeated_workload(bench_document, rounds=2 if QUICK else 3)
    assert scenario["cache_speedup"] >= MIN_CACHE_SPEEDUP


# ----------------------------------------------------------------------
# Hog vs interactive: per-session QoS under --fair
# ----------------------------------------------------------------------


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def _interactive_p95(stack, calls, pre):
    """p95 of single small structural calls over one fresh session."""
    endpoint = stack.gateway.endpoint(timeout=60.0)
    try:
        endpoint.node_info(pre)  # connection warm-up, unmeasured
        samples = []
        for _ in range(calls):
            start = time.perf_counter()
            endpoint.node_info(pre)
            samples.append(time.perf_counter() - start)
        return _percentile(samples, 0.95)
    finally:
        endpoint.close()


class _Hog:
    """One mux session keeping ``HOG_BURST`` batch reads in flight.

    Uses the pipelined asyncio client so a *single* session saturates the
    gateway the way a sync endpoint (one request per round trip) cannot;
    the slices rotate so no two rounds repeat and the result cache cannot
    absorb the load.
    """

    def __init__(self, address, pres):
        self.pres = list(pres)
        self.stop = threading.Event()
        self.loop = LoopThread(name="bench-hog")
        self.transport = AsyncSocketTransport(address, timeout=120.0)
        self.rounds = 0
        self.thread = threading.Thread(target=self._run, name="bench-hog-driver")
        self.thread.start()

    def _slices(self, offset):
        span = max(1, len(self.pres) - HOG_BATCH)
        return [
            self.pres[(offset * HOG_BURST + i * 7) % span :][:HOG_BATCH]
            for i in range(HOG_BURST)
        ]

    def _run(self):
        async def burst(slices):
            await asyncio.gather(
                *[
                    self.transport.ainvoke(None, "fetch_shares_batch", (chunk,))
                    for chunk in slices
                ]
            )

        offset = 0
        while not self.stop.is_set():
            self.loop.run(burst(self._slices(offset)))
            offset += 1
            self.rounds += 1

    def close(self):
        self.stop.set()
        self.thread.join(timeout=120.0)
        self.loop.run(self.transport.aclose())
        self.loop.close()


def _measure_fairness(document):
    """Interactive p95 solo and under a saturating hog, fair vs FIFO.

    The asserted bound lives on the ``fair`` row; the ``fifo`` row is the
    informational control showing what the same contention costs without
    admission control.
    """
    rows = {}
    for label, fair in (("fair", True), ("fifo", False)):
        stack = _GatewayStack(
            document, delay=FAIRNESS_DELAY, fair=fair, fair_cap=FAIR_CAP
        )
        try:
            warm = stack.gateway.endpoint(timeout=60.0)
            root = warm.root_pre()
            pres = warm.descendants_of(root)
            warm.close()
            solo = _interactive_p95(stack, INTERACTIVE_CALLS, root)
            hog = _Hog(stack.gateway.address, pres)
            try:
                time.sleep(0.3)  # let the hog reach a steady burst cadence
                contended = _interactive_p95(stack, INTERACTIVE_CALLS, root)
            finally:
                hog.close()
            assert hog.rounds > 0  # the hog really ran while we measured
            rows[label] = {
                "solo_p95_ms": round(solo * 1e3, 2),
                "contended_p95_ms": round(contended * 1e3, 2),
                "slowdown": round(contended / solo, 2) if solo else None,
                "hog_rounds": hog.rounds,
            }
        finally:
            stack.close()
    return {
        "service_delay_seconds": FAIRNESS_DELAY,
        "hog_burst": HOG_BURST,
        "hog_batch": HOG_BATCH,
        "fair_session_cap": FAIR_CAP,
        "interactive_calls": INTERACTIVE_CALLS,
        "fair": rows["fair"],
        "fifo": rows["fifo"],
    }


def test_interactive_p95_bounded_under_fair_hog(bench_document):
    """Acceptance: with --fair, an interactive session's p95 under a
    saturating batch hog stays within ``MAX_FAIR_P95_FACTOR`` of its solo
    baseline (2x full mode, relaxed under --quick)."""
    scenario = _measure_fairness(bench_document)
    fair = scenario["fair"]
    # a 1ms floor keeps the ratio meaningful on a sub-millisecond loopback
    baseline = max(fair["solo_p95_ms"], 1.0)
    assert fair["contended_p95_ms"] <= MAX_FAIR_P95_FACTOR * baseline


# ----------------------------------------------------------------------
# The JSON report
# ----------------------------------------------------------------------


def _median(values):
    ordered = sorted(values)
    return ordered[len(ordered) // 2]


def build_report(document, quick=False):
    """Quorum-admission timings + the gateway scaling, cache and QoS sweeps."""
    quorum_s, all_s = _measure_quorum_admission(rounds=2 if quick else 3)
    series = _gateway_series(document, rounds=2 if quick else 3)
    repeated = _run_repeated_workload(document, rounds=2 if quick else 3)
    fairness = _measure_fairness(document)
    return {
        "benchmark": "gateway_load",
        "quick": bool(quick),
        "document": {
            "generator": "xmark",
            "scale": QUICK_SCALE if quick else DOCUMENT_SCALE,
            "nodes": None,  # filled in by _emit
        },
        "queries": [query for query, _, _ in QUERIES],
        "quorum_admission": {
            "servers": 3,
            "k": 2,
            "straggler_delay_seconds": STRAGGLER_DELAY,
            "invoke_quorum_seconds": round(quorum_s, 4),
            "invoke_all_seconds": round(all_s, 4),
            "admission_speedup": round(all_s / quorum_s, 2),
        },
        "gateway": {
            "sharing": "shamir",
            "n": 3,
            "threshold": 2,
            "service_delay_seconds": GATEWAY_DELAY,
            "series": series,
            "throughput_scaling": round(_scaling(series), 2),
        },
        "repeated_workload": repeated,
        "fairness": fairness,
    }


def _emit(document, quick, path=OUTPUT_PATH):
    report = build_report(document, quick=quick)
    probe = _build(document, "simulated", servers=2)
    report["document"]["nodes"] = probe.node_count
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def test_report_json_is_emitted(bench_document, tmp_path):
    report = _emit(bench_document, quick=QUICK, path=tmp_path / "BENCH_gateway_load.json")
    assert report["quick"] is QUICK
    quorum = report["quorum_admission"]
    assert quorum["invoke_quorum_seconds"] < quorum["invoke_all_seconds"]
    series = report["gateway"]["series"]
    assert [row["clients"] for row in series] == list(CLIENT_COUNTS)
    assert report["gateway"]["throughput_scaling"] >= MIN_SCALING
    assert report["repeated_workload"]["cache_speedup"] >= MIN_CACHE_SPEEDUP
    fair = report["fairness"]["fair"]
    assert fair["contended_p95_ms"] <= MAX_FAIR_P95_FACTOR * max(fair["solo_p95_ms"], 1.0)


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
    quorum = report["quorum_admission"]
    print("wrote %s (%d-node document)" % (args.output, report["document"]["nodes"]))
    print(
        "  quorum admission: k=%d of %d in %.1fms vs invoke_all %.1fms (%.1fx)"
        % (
            quorum["k"], quorum["servers"],
            quorum["invoke_quorum_seconds"] * 1e3, quorum["invoke_all_seconds"] * 1e3,
            quorum["admission_speedup"],
        )
    )
    for row in report["gateway"]["series"]:
        print(
            "  gateway %d client(s): %6.1f q/s  p50=%6.1fms  p95=%6.1fms"
            % (
                row["clients"], row["queries_per_second"],
                row["latency_p50_ms"], row["latency_p95_ms"],
            )
        )
    print("  throughput scaling 1 -> %d clients: %.2fx" % (
        CLIENT_COUNTS[-1], report["gateway"]["throughput_scaling"]
    ))
    repeated = report["repeated_workload"]
    print(
        "  repeated workload (%d sessions): %6.1f q/s off -> %6.1f q/s on (%.2fx)"
        % (
            repeated["sessions"],
            repeated["cache_off"]["queries_per_second"],
            repeated["cache_on"]["queries_per_second"],
            repeated["cache_speedup"],
        )
    )
    for label in ("fair", "fifo"):
        row = report["fairness"][label]
        print(
            "  %s interactive p95: solo %6.2fms  under hog %6.2fms (%.2fx)"
            % (label, row["solo_p95_ms"], row["contended_p95_ms"], row["slowdown"] or 0.0)
        )


if __name__ == "__main__":
    main()
