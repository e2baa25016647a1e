"""End-to-end benchmark of the encrypted XML store, with a traced layer split.

Usage, from the repository root::

    python3 perfbench/run.py --workload q55k-local --seed 1 --seconds 32 --trace 0

Workloads (see ``perfbench/workloads.py``): ``q55k-local``, ``q600-wire``
and ``rw5k-fleet``.  The benchmark imports the program from ``src/`` next
to this directory and drives the public ``EncryptedXMLDatabase`` facade.

``--trace 0`` measures the end-to-end metrics with no tracing installed:
the deployment is built several times from the XML text (``setup_s`` is
the median), then the last one runs as many whole rounds of operations
as ``--seconds`` buys at the workload's reference round time.  ``--trace
1`` runs one round twice on fresh deployments, first untraced and then
with every layer's public functions wrapped in spans, and reports the
per-layer split of the traced pass and its overhead over the untraced
one.

Every query result is checked against the plaintext oracle and every
write must commit on all servers; after the rounds each server's rows
must equal the re-encode oracle.  Human-readable lines (environment,
every metric with its unit, percentile bases) come first; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit("perfbench: no src/repro next to %s; run it from a repository checkout" % ROOT.name)
sys.path.insert(0, str(ROOT / "src"))

from repro.core.database import EncryptedXMLDatabase  # noqa: E402
from repro.filters.server import ServerFilter  # noqa: E402
from repro.rmi.write import WriteError  # noqa: E402

import workloads as wl  # noqa: E402

#: deployments built per ``--trace 0`` run; ``setup_s`` is their median
SETUP_REPEATS = 3

#: rounds per pass of a ``--trace 1`` run (the split needs no more)
TRACE_ROUNDS = 1

#: a tail percentile needs this many samples beyond it
TAIL_BEYOND = 10

#: where server tables and other scratch files go (inside the checkout)
SCRATCH = ROOT / ".perfbench_tmp"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def percentile(samples: List[float], p: float) -> float:
    """The Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of every order statistic, the weights being the
    Beta(p(n+1), (1-p)(n+1)) mass over each sample's share of [0, 1].
    A single order statistic jumps whenever noise moves it across a gap
    between query costs; this estimate slides.
    """
    ordered = sorted(samples)
    count = len(ordered)
    a, b = p * (count + 1), (1.0 - p) * (count + 1)
    # Midpoint rule for the Beta density, in logs, normalised at the end.
    steps = 32
    points = [(i + 0.5) / (count * steps) for i in range(count * steps)]
    logs = [(a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x) for x in points]
    top = max(logs)
    density = [math.exp(value - top) for value in logs]
    weights = [sum(density[i * steps:(i + 1) * steps]) for i in range(count)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def tail(samples: List[float], what: str) -> Tuple[float, str]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it (the
    maximum when there are too few), and a note naming it and its base."""
    count = len(samples)
    if count <= TAIL_BEYOND:
        return max(samples), "max of %d %s (too few for a percentile)" % (count, what)
    rank = count - TAIL_BEYOND
    return percentile(samples, rank / count), "p%.1f of %d %s, %d beyond it (Harrell-Davis)" % (
        100.0 * rank / count, count, what, TAIL_BEYOND)


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ----------------------------------------------------------------------
# Processes and memory
# ----------------------------------------------------------------------


def server_pids(database: EncryptedXMLDatabase) -> List[int]:
    cluster = database.socket_cluster
    if cluster is None:
        return []
    return [process.process.pid for process in cluster.processes if process.process]


def peak_rss_kb(pid: int) -> int:
    """A live process's peak resident set (VmHWM), in KiB."""
    try:
        with open("/proc/%d/status" % pid) as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def own_peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def surviving_servers(pids: List[int]) -> List[int]:
    """Server subprocesses of this run that are still alive.

    Covers the pids the fleets reported and any ``repro.cli server``
    child of this process that escaped that list.
    """
    alive = set()
    me = os.getpid()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        pid = int(entry)
        try:
            with open("/proc/%d/cmdline" % pid, "rb") as handle:
                cmdline = handle.read().replace(b"\0", b" ")
            with open("/proc/%d/stat" % pid) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        state, parent = fields[0], int(fields[1])
        if state == "Z":
            continue
        if pid in pids or (parent == me and b"repro.cli" in cmdline and b"server" in cmdline):
            alive.add(pid)
    return sorted(alive)


def stop(pids: List[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (OSError, ChildProcessError):
            pass


# ----------------------------------------------------------------------
# One pass: build a deployment, run rounds
# ----------------------------------------------------------------------


class Pass:
    """One deployment and the rounds run against it."""

    def __init__(self, workload: wl.Workload, seed: int, tracer=None, expected=None):
        self.workload = workload
        #: plaintext oracle answers by query, shared between passes
        self.expected: Dict[str, List[int]] = {} if expected is None else expected
        self.seed = seed
        self.tracer = tracer
        self.query_ms: List[float] = []
        self.write_ms: List[float] = []
        self.rows_touched = 0
        self.rows_total = 0
        self.aborts = 0
        self.attempted = 0
        self.failures: List[str] = []
        self.busy_s = 0.0
        self.setup_s = 0.0
        self.pids: List[int] = []
        self.database: Optional[EncryptedXMLDatabase] = None

    # -- tracing switch ---------------------------------------------------

    def _trace(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.enabled = on

    def build(self, text: str) -> EncryptedXMLDatabase:
        config = self.workload.build_config(wl.encoding_seed(self.seed))
        gc.collect()
        self._trace(True)
        started = time.perf_counter()
        try:
            database = EncryptedXMLDatabase.from_text(text, config=config)
        finally:
            self.setup_s = time.perf_counter() - started
            self._trace(False)
        self.database = database
        self.pids.extend(server_pids(database))
        return database

    def run_rounds(self, rounds: int) -> None:
        """Run ``rounds`` whole rounds of the workload's schedule."""
        database = self.database
        schedule = wl.Schedule(self.workload, self.seed)
        database.reset_transport_stats()
        for _ in range(rounds):
            for op in schedule.next_round(database):
                self._one(database, op)

    def _one(self, database, op: wl.Op) -> None:
        self.attempted += 1
        if op.kind == "delete" and database.document_state.node_at(op.pre) is not op.element:
            self.failures.append("%s: the inserted subtree is not there" % op.describe())
            return
        if not op.is_query:
            self.rows_total += database.document_state.node_count
        self._trace(True)
        started = time.perf_counter()
        try:
            result = wl.run_op(database, op)
        except Exception as error:  # counted, the loop goes on
            elapsed = time.perf_counter() - started
            self._trace(False)
            self.busy_s += elapsed
            self.failures.append("%s: %s: %s" % (op.describe(), type(error).__name__, error))
            if isinstance(error, WriteError):
                self.aborts += 1
            return
        elapsed = time.perf_counter() - started
        self._trace(False)
        self.busy_s += elapsed
        if op.is_query:
            self.query_ms.append(elapsed * 1e3)
            # Every round leaves the document as it found it, so one
            # plaintext answer per query serves the whole run.
            if op.xpath not in self.expected:
                self.expected[op.xpath] = database.plaintext_query(op.xpath)
            ok = wl.check_query(op, result, self.expected[op.xpath])
        else:
            self.write_ms.append(elapsed * 1e3)
            self.rows_touched += result["rows"]
            if result["failed"]:
                self.aborts += 1
            ok = wl.check_write(database, result)
        if not ok:
            self.failures.append("%s: wrong result" % op.describe())

    @property
    def ops(self) -> int:
        return len(self.query_ms) + len(self.write_ms)

    def final_checks(self) -> None:
        """The re-encode oracle over every server's rows (write workloads)."""
        if self.workload.writes:
            stale = wl.stale_servers(self.database)
            if stale:
                self.failures.append("servers %s differ from the re-encode oracle" % stale)

    def server_cache_totals(self) -> Dict[str, int]:
        """Summed decoded-share LRU counters over the in-process servers.

        Subprocess servers do not export their counters over the wire;
        their hits and misses read 0 and the capacity is the default.
        """
        database = self.database
        infos = [server.share_cache_info() for server in database.server_filters]
        totals = {key: sum(info[key] for info in infos) for key in ("hits", "misses", "capacity")}
        if not infos:
            default = inspect.signature(ServerFilter).parameters["share_cache_size"].default
            totals["capacity"] = default * database.num_servers
        return totals

    def peak_rss_mb(self) -> float:
        servers = sum(peak_rss_kb(pid) for pid in server_pids(self.database))
        return (own_peak_rss_kb() + servers) / 1024.0

    def close(self) -> None:
        if self.database is not None:
            self.database.close()
            self.database = None


# ----------------------------------------------------------------------
# The two modes
# ----------------------------------------------------------------------


def environment(workload: wl.Workload, seed: int, database, text: str, extra: Dict) -> Dict:
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    prg = database.encoded.prg.cache_info()
    return dict(
        workload=workload.name,
        why=workload.why,
        seed=seed,
        kernel=database.encoded.ring.kernel.name,
        python=platform.python_version(),
        numpy=numpy_version,
        nproc=os.cpu_count(),
        nodes=database.node_count,
        xml_bytes=len(text.encode("utf-8")),
        servers=database.num_servers,
        prg_memo_capacity=prg["capacity"],
        **extra,
    )


def stored_bytes(database) -> int:
    stats = database.encoding_stats
    return stats.payload_bytes + stats.structure_bytes + stats.index_bytes


def measure(workload: wl.Workload, seed: int, seconds: float, report: List[str]):
    """``--trace 0``: the end-to-end metrics."""
    text = wl.xml_text(workload)
    setups: List[float] = []
    pids: List[int] = []
    run: Optional[Pass] = None
    try:
        for attempt in range(SETUP_REPEATS):
            run = Pass(workload, seed)
            run.build(text)
            setups.append(run.setup_s)
            pids.extend(run.pids)
            if attempt < SETUP_REPEATS - 1:
                run.close()
        run.run_rounds(workload.rounds_for(seconds))
        stats = run.database.transport_stats
        wire = stats.total_bytes
        peak = run.peak_rss_mb()
        share_cache = run.server_cache_totals()
        env = environment(
            workload, seed, run.database, text,
            dict(share_cache_capacity=share_cache["capacity"], setup_repeats=SETUP_REPEATS),
        )
        stored = stored_bytes(run.database)
        run.final_checks()
    finally:
        if run is not None:
            run.close()
    ops = run.ops
    q_tail, q_note = tail(run.query_ms, "queries")
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ratio(ops, run.busy_s), "1/s"),
        "query_p50_ms": (percentile(run.query_ms, 0.5), "ms"),
        "query_tail_ms": (q_tail, "ms"),
        "wire_bytes_per_op": (ratio(wire, ops), "B"),
        "stored_bytes_per_xml_byte": (ratio(stored, len(text.encode("utf-8"))), "ratio"),
        "peak_rss_mb": (peak, "MB"),
    }
    # Printed, not gated: the contract needs every gated metric on every
    # workload, and these are zero or absent on some of them.
    printed = {"ops_failed_ratio": (ratio(len(run.failures), run.attempted), "ratio")}
    notes = {"setup_s": "median of %s" % ", ".join("%.4f" % value for value in setups),
             "query_p50_ms": "Harrell-Davis median of %d queries" % len(run.query_ms),
             "query_tail_ms": q_note}
    if run.write_ms:
        w_tail, notes["write_tail_ms"] = tail(run.write_ms, "writes")
        printed["write_p50_ms"] = (percentile(run.write_ms, 0.5), "ms")
        printed["write_tail_ms"] = (w_tail, "ms")
    else:
        notes["write_p50_ms"] = notes["write_tail_ms"] = "n/a: read-only workload"
    report.append("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in list(metrics.items()) + list(printed.items()):
        report.append("%-26s %14.4f %-5s %s" % (name, value, unit, notes.pop(name, "")))
    report.extend("%-26s %s" % item for item in notes.items())
    return run, pids, metrics


def trace(workload: wl.Workload, seed: int, seconds: float, report: List[str]):
    """``--trace 1``: the per-layer split of a traced pass.

    Each pass runs ``TRACE_ROUNDS`` rounds whatever ``seconds`` says: the
    split needs no more, and two passes of the 55k workload must fit the
    run's time limit.
    """
    import tracing

    text = wl.xml_text(workload)
    pids: List[int] = []
    baseline = Pass(workload, seed)
    try:
        baseline.build(text)
        pids.extend(baseline.pids)
        baseline.run_rounds(TRACE_ROUNDS)
        baseline.final_checks()
    finally:
        baseline.close()
    untraced_wall = baseline.setup_s + baseline.busy_s

    tracer = tracing.install()
    run = Pass(workload, seed, tracer=tracer, expected=baseline.expected)
    try:
        run.build(text)
        pids.extend(run.pids)
        prg_before = run.database.encoded.prg.cache_info()
        cache_before = run.server_cache_totals()
        run.run_rounds(TRACE_ROUNDS)
        prg_after = run.database.encoded.prg.cache_info()
        stats = run.database.transport_stats
        cache_after = run.server_cache_totals()
        client = run.database.cluster_client
        read_repairs = sum(len(repair) for repair in client.read_repairs) if client else 0
        open_spans = tracer.open_spans()
        env = environment(
            workload, seed, run.database, text,
            dict(rounds=TRACE_ROUNDS, wrapped_functions=tracer.wrapped,
                 share_cache_capacity=cache_after["capacity"]),
        )
        run.final_checks()
    finally:
        run.close()
    if open_spans:
        run.failures.append("%d spans left open" % open_spans)

    wall = run.setup_s + run.busy_s
    layers = tracer.layer_self()
    accounted = sum(layers.values())
    other = wall - accounted
    if other < -1e-6 * max(wall, 1.0):
        run.failures.append("layer self times exceed the traced wall clock")
    prg_hits = prg_after["hits"] - prg_before["hits"]
    prg_lookups = prg_hits + prg_after["misses"] - prg_before["misses"]
    cache_hits = cache_after["hits"] - cache_before["hits"]
    cache_lookups = cache_hits + cache_after["misses"] - cache_before["misses"]
    ops = run.ops

    def s(layer: str) -> float:
        return layers.get(layer, 0.0)

    metrics = {
        "xmldoc.parse_s": (s("xmldoc"), "s"),
        "xpath.parse_s": (s("xpath"), "s"),
        "engines.self_s": (s("engines"), "s"),
        "encode.self_s": (s("encode"), "s"),
        "encode.mutate_s": (s("encode.mutate"), "s"),
        "encode.rows_touched_ratio": (ratio(run.rows_touched, run.rows_total), "ratio"),
        "encode.rows_total": (run.rows_total, "count"),
        "prg.self_s": (s("prg"), "s"),
        "prg.calls": (tracer.calls.get("prg", 0), "count"),
        "prg.memo_hit_ratio": (ratio(prg_hits, prg_lookups), "ratio"),
        "prg.memo_lookups": (prg_lookups, "count"),
        "poly.self_s": (s("poly"), "s"),
        "gf.self_s": (s("gf"), "s"),
        "gf.horner_s": (tracer.function_self("gf", tracing.HORNER_METHODS), "s"),
        "gf.calls": (tracer.calls.get("gf", 0), "count"),
        "secretshare.self_s": (s("secretshare"), "s"),
        "secretshare.calls": (tracer.calls.get("secretshare", 0), "count"),
        "storage.self_s": (s("storage"), "s"),
        "storage.calls": (tracer.calls.get("storage", 0), "count"),
        "server.self_s": (s("server"), "s"),
        "server.share_cache_hit_ratio": (ratio(cache_hits, cache_lookups), "ratio"),
        "server.share_cache_lookups": (cache_lookups, "count"),
        "client.self_s": (s("client"), "s"),
        "cluster.self_s": (s("cluster"), "s"),
        "codec.self_s": (s("codec"), "s"),
        "codec.offthread_s": (tracer.offthread_s.get("codec", 0.0), "s"),
        "codec.calls": (tracer.calls.get("codec", 0), "count"),
        "codec.bytes": (tracer.codec_bytes, "B"),
        "transport.self_s": (s("transport"), "s"),
        "transport.wait_s": (s("transport.wait"), "s"),
        "transport.calls_per_op": (ratio(stats.calls, ops), "count"),
        "write.self_s": (s("write"), "s"),
        "write.read_repairs": (read_repairs, "count"),
        "write.aborts": (run.aborts, "count"),
        "offthread.self_s": (sum(tracer.offthread_s.values()), "s"),
        "other.self_s": (other, "s"),
        "other.share": (ratio(other, wall), "ratio"),
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_ratio": (ratio(wall, untraced_wall), "ratio"),
    }
    report.append("env " + json.dumps(env, sort_keys=True))
    report.append(
        "coverage: layer self times %.4f s + other %.4f s = traced wall %.4f s (other %.1f%%)"
        % (accounted, other, wall, 100.0 * ratio(other, wall))
    )
    for name, (value, unit) in metrics.items():
        report.append("%-30s %14.6g %s" % (name, value, unit))
    for layer, seconds_off in sorted(tracer.offthread_s.items()):
        report.append("off-thread %-19s %14.6g s (overlaps transport.wait_s)" % (layer, seconds_off))
    return run, pids, metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = wl.WORKLOADS[args.workload]

    # A terminated run unwinds like an exception, so every fleet closes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    scratch = SCRATCH / str(os.getpid())
    scratch.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(scratch)
    report: List[str] = []
    pids: List[int] = []
    try:
        mode = trace if args.trace else measure
        run, pids, metrics = mode(workload, args.seed, args.seconds, report)
    finally:
        survivors = surviving_servers(pids)
        stop(survivors)
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass
    if survivors:
        run.failures.append("server processes %s survived the run" % survivors)
    for failure in run.failures[:20]:
        report.append("FAILED " + failure)
    for line in report:
        print(line)
    print(
        json.dumps(
            {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
