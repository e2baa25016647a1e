"""Table-driven field kernels vs the naive dispatched arithmetic path.

Encodes the same 598-node XMark document (the document of
``bench_batch_pipeline.py``) and runs one query workload over it under two
field configurations, each compared against the ``"naive"`` reference
backend — which reproduces the pre-kernel arithmetic exactly: one
dynamically-dispatched ``Field`` method call per coefficient operation and
no PRG share memo:

* ``F_83`` — the paper's prime field, served by :class:`PrimeKernel`
  (direct modular arithmetic + Kronecker-substitution convolution).  The
  598-node encode is dominated by parsing/PRG/storage rather than
  arithmetic, so the encode win is modest; the query workload, which *is*
  arithmetic-bound, runs several times faster.
* ``F_81 = F_{3^4}`` — an equally valid field for the 77-name XMark DTD
  (the paper allows any prime power ``> #tags``), served by
  :class:`TableKernel`.  The naive path pays the
  ``ExtensionField.to_coeffs``/``from_coeffs`` round trip on every
  coefficient product; the log/exp tables turn that into O(1) lookups and
  deliver the headline speedups of the kernel layer.

Acceptance criteria asserted below: ≥ 3× faster XMark encode and ≥ 2×
faster query evaluation vs the naive path, with **byte-identical** stored
shares, query results and evaluation counters under both backends (the
kernels change the speed of the arithmetic, not one bit of its output).

Set ``REPRO_BENCH_QUICK=1`` (the CI quick mode) to cap the query timing at
best-of-two repetitions; the identity assertions are unaffected.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import pytest

from repro.encode.encoder import Encoder
from repro.encode.tagmap import TagMap
from repro.engines.advanced import AdvancedQueryEngine
from repro.engines.simple import SimpleQueryEngine
from repro.filters.client import ClientFilter
from repro.filters.interface import MatchRule
from repro.filters.server import ServerFilter
from repro.gf.extension import ExtensionField
from repro.gf.kernels import HAS_NUMPY
from repro.gf.prime import PrimeField
from repro.metrics.counters import EvaluationCounters
from repro.xmark.generator import generate_document
from repro.xmldoc.dtd import XMARK_DTD
from repro.xmldoc.parser import ContentHandler, StreamingParser
from repro.xmldoc.serializer import serialize

SEED = b"bench-kernel-seed-0123456789abcd"

#: scale 0.05 generates the same 598-node document as bench_batch_pipeline
DOCUMENT_SCALE = 0.05

#: the kernel x scale sweep encodes both the 598-node document and the
#: paper-sized ~10^4-node XMark document (scale 1.0 -> 10,918 nodes)
SCALES = {"small": 0.05, "large": 1.0}

#: committed trajectory of the sweep (regenerate with
#: ``python benchmarks/bench_field_kernels.py``); CI emits a quick-mode
#: sibling and gates on >25% speedup regressions against this baseline
OUTPUT_PATH = Path(__file__).resolve().parents[1] / "BENCH_field_kernels.json"

#: acceptance floor: the numpy backend must beat the scalar prime kernel by
#: this factor on both encode and batch evaluation at the 10^4-node scale
GATE_MINIMUM = 5.0

#: non-strict descendant queries (containment evaluations) plus one strict
#: child query (equality tests: reconstructions + ring products)
QUERY_WORKLOAD = [
    ("//city", MatchRule.CONTAINMENT),
    ("/site//person//city", MatchRule.CONTAINMENT),
    ("/site/people/person", MatchRule.EQUALITY),
]

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

#: (field label, field factory, timed query repetitions, asserted minimum
#: encode / query speedups) — the extension field is where arithmetic
#: dominates both phases, so it carries the headline thresholds; the prime
#: field's encode is parse/PRG/storage-bound at this document size and is
#: asserted not to regress
PAIRS = {
    "F_83": (lambda: PrimeField(83), 3, 0.9, 2.0),
    "F_81": (lambda: ExtensionField(3, 4), 1, 3.0, 2.0),
}

#: pure-Python kernel per field: the scalar baseline the sweep's numpy and
#: naive rows compare against, pinned explicitly because auto-selection
#: picks numpy for F_83 whenever numpy is installed
_SCALAR_KERNEL = {"F_83": "prime", "F_81": "table"}


def _make_field(label, backend):
    field = PAIRS[label][0]()  # plain constructors: no make_field cache sharing
    if backend is not None:
        field.set_kernel_backend(backend)
    return field


@pytest.fixture(scope="module")
def xml_text():
    return serialize(generate_document(scale=DOCUMENT_SCALE, seed=4242))


class _Stack:
    """One complete encode-and-query stack pinned to a kernel backend.

    The naive stack also disables the PRG share memo — the memo is part of
    this PR's kernel-layer work, so the baseline runs without it, exactly
    like the pre-kernel code did.
    """

    def __init__(self, xml_text, label, backend, encode_reps=3):
        self.backend = backend
        field = _make_field(label, backend)
        self.tag_map = TagMap.from_names(XMARK_DTD.element_names(), field=field)
        memo_size = 0 if backend == "naive" else 1024
        self.encoder = encoder = Encoder(self.tag_map, SEED, prg_memo_size=memo_size)
        # Best-of-N encode timing: encoding is cheap enough at the small
        # scale, and single-shot timings are too noisy for a ratio assert.
        self.encode_seconds = float("inf")
        for _ in range(encode_reps):
            started = time.perf_counter()
            self.encoded = encoder.encode_text(xml_text)
            self.encode_seconds = min(
                self.encode_seconds, time.perf_counter() - started
            )
        self.counters = EvaluationCounters()
        server = ServerFilter(self.encoded.node_table, self.encoded.ring)
        self.client = ClientFilter(
            server, self.encoded.sharing, self.tag_map, counters=self.counters
        )
        self.engines = {
            "simple": SimpleQueryEngine(self.client),
            "advanced": AdvancedQueryEngine(self.client),
        }

    def rows(self):
        return [
            (row["pre"], row["post"], row["parent"], row["share"])
            for row in self.encoded.node_table.rows()
        ]

    def run_workload(self):
        """Execute the query workload once; returns the match tuples."""
        results = []
        for engine in ("simple", "advanced"):
            for query, rule in QUERY_WORKLOAD:
                results.append(self.engines[engine].execute(query, rule=rule).matches)
        return results


#: stacks shared between the pytest assertions and the sweep, keyed by
#: (field label, backend, scale label) so nothing is encoded twice per run
_SWEEP_STACKS = {}


def _sweep_stack(xml_text, label, backend, scale_label="small", encode_reps=3):
    key = (label, backend, scale_label)
    if key not in _SWEEP_STACKS:
        _SWEEP_STACKS[key] = _Stack(xml_text, label, backend, encode_reps=encode_reps)
    return _SWEEP_STACKS[key]


@pytest.fixture(params=sorted(PAIRS), scope="module")
def stacks(request, xml_text):
    label = request.param
    return (
        label,
        _sweep_stack(xml_text, label, _SCALAR_KERNEL[label]),
        _sweep_stack(xml_text, label, "naive"),
    )


def test_document_and_backends(stacks):
    label, kernel_stack, naive_stack = stacks
    assert len(kernel_stack.encoded.node_table) >= 500
    expected = "prime" if label == "F_83" else "table"
    assert kernel_stack.encoded.ring.kernel.name == expected
    assert naive_stack.encoded.ring.kernel.name == "naive"


def test_shares_are_byte_identical_across_backends(stacks):
    """Acceptance criterion: the kernels change nothing about the output."""
    _, kernel_stack, naive_stack = stacks
    assert kernel_stack.rows() == naive_stack.rows()


def test_encode_speedup(stacks):
    """Acceptance criterion: ≥ 3× faster XMark encode where arithmetic
    dominates (the table-kernel field); no regression on the prime field."""
    label, kernel_stack, naive_stack = stacks
    minimum = PAIRS[label][2]
    speedup = naive_stack.encode_seconds / kernel_stack.encode_seconds
    print(
        "\n%s encode: naive %.3fs / kernel %.3fs = %.1fx (needs %.1fx)"
        % (
            label,
            naive_stack.encode_seconds,
            kernel_stack.encode_seconds,
            speedup,
            minimum,
        )
    )
    assert speedup >= minimum, (
        "%s: expected >=%.1fx encode speedup, got %.2fx" % (label, minimum, speedup)
    )


def test_queries_identical_results_and_counters(stacks):
    """Acceptance criterion: identical results and evaluation counters."""
    _, kernel_stack, naive_stack = stacks
    kernel_stack.counters.reset()
    naive_stack.counters.reset()
    assert kernel_stack.run_workload() == naive_stack.run_workload()
    assert kernel_stack.counters.snapshot() == naive_stack.counters.snapshot()


def test_query_speedup_at_least_2x(stacks):
    """Acceptance criterion: ≥ 2× faster query evaluation on the kernels."""
    label, kernel_stack, naive_stack = stacks
    repetitions = 2 if QUICK else max(2, PAIRS[label][1])
    minimum = PAIRS[label][3]
    # One warm-up pass per stack so share caches are warm on both sides
    # before timing (the naive stack has no PRG memo to warm); best-of-N
    # per-repetition timing keeps a noise spike on a loaded CI runner from
    # failing a ratio the arithmetic comfortably clears.
    kernel_stack.run_workload()
    naive_stack.run_workload()
    timings = {}
    for name, stack in (("kernel", kernel_stack), ("naive", naive_stack)):
        best = float("inf")
        for _ in range(repetitions):
            started = time.perf_counter()
            stack.run_workload()
            best = min(best, time.perf_counter() - started)
        timings[name] = best
    speedup = timings["naive"] / timings["kernel"]
    print(
        "\n%s queries: naive %.3fs / kernel %.3fs = %.1fx (needs %.1fx)"
        % (label, timings["naive"], timings["kernel"], speedup, minimum)
    )
    assert speedup >= minimum, (
        "%s: expected >=%.1fx query speedup, got %.2fx" % (label, minimum, speedup)
    )


@pytest.mark.parametrize("backend", ["kernel", "naive"])
def test_query_wallclock(benchmark, stacks, backend):
    """pytest-benchmark timings of the workload on both backends."""
    label, kernel_stack, naive_stack = stacks
    stack = kernel_stack if backend == "kernel" else naive_stack
    if label == "F_81" and backend == "naive" and QUICK:
        pytest.skip("naive extension-field workload is too slow for quick mode")
    benchmark(stack.run_workload)
    benchmark.extra_info["field"] = label
    benchmark.extra_info["backend"] = stack.encoded.ring.kernel.name


# ----------------------------------------------------------------------
# The numpy backend: identity at the small scale, speed at the large one
# ----------------------------------------------------------------------

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="numpy not installed")


@needs_numpy
def test_numpy_stack_is_byte_identical(stacks, xml_text):
    """The vectorized backend changes nothing about shares, results or
    counters — only the wall clock."""
    label, kernel_stack, _ = stacks
    numpy_stack = _sweep_stack(xml_text, label, "numpy")
    assert numpy_stack.encoded.ring.kernel.name == "numpy"
    assert numpy_stack.rows() == kernel_stack.rows()
    numpy_stack.counters.reset()
    kernel_stack.counters.reset()
    assert numpy_stack.run_workload() == kernel_stack.run_workload()
    assert numpy_stack.counters.snapshot() == kernel_stack.counters.snapshot()


# ----------------------------------------------------------------------
# Kernel x scale sweep -> BENCH_field_kernels.json
# ----------------------------------------------------------------------


class _EventRecorder(ContentHandler):
    """Captures the SAX event stream once so share-encode timing can replay
    it without re-parsing the XML on every repetition."""

    def __init__(self):
        self.events = []

    def start_element(self, tag, attributes):
        self.events.append((True, tag, attributes))

    def end_element(self, tag):
        self.events.append((False, tag, None))

    def characters(self, text):
        return None


_EVENT_CACHE = {}


def _events_for(scale_label, xml_text):
    if scale_label not in _EVENT_CACHE:
        recorder = _EventRecorder()
        StreamingParser(recorder).parse_string(xml_text)
        _EVENT_CACHE[scale_label] = recorder.events
    return _EVENT_CACHE[scale_label]


def _share_encode_seconds(stack, events, repetitions):
    """Best-of-N wall clock of the share-generation phase of an encode.

    Replays the pre-recorded SAX events through a fresh encoding handler
    (node polynomial products, PRG share splitting, bulk row storage) —
    everything the field kernels own.  XML parsing is excluded: it is
    kernel-independent and dominates the full ``encode_text`` wall clock
    once the arithmetic is vectorized (the full time is still recorded as
    ``encode_seconds``).
    """
    from repro.encode.encoder import _EncodingHandler

    best = float("inf")
    for _ in range(repetitions):
        table = stack.encoder.new_table()
        handler = _EncodingHandler(stack.encoder, [table], stack.encoder.sharing)
        started = time.perf_counter()
        for is_start, tag, attributes in events:
            if is_start:
                handler.start_element(tag, attributes)
            else:
                handler.end_element(tag)
        handler.flush()
        best = min(best, time.perf_counter() - started)
    return best


def _workload_seconds(stack, repetitions):
    """Best-of-N wall clock of one full query-workload pass (caches warm)."""
    stack.run_workload()
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        stack.run_workload()
        best = min(best, time.perf_counter() - started)
    return best


def _batch_eval_seconds(stack, repetitions):
    """Best-of-N wall clock of one whole-document containment sweep.

    This is the batch-query primitive the kernels accelerate end to end:
    ``evaluate_batch`` on the server (one 2-D Horner sweep over every stored
    share) plus the client's regenerate-evaluate-add pass.  Small documents
    are timed in blocks so the per-call number stays above timer noise.
    """
    pres = list(range(1, len(stack.encoded.node_table) + 1))
    point = stack.tag_map.value("city")
    stack.client.shared_evaluation_many(pres, point)  # warm the PRG memo
    inner = max(1, 6000 // max(1, len(pres)))
    best = float("inf")
    for _ in range(repetitions):
        started = time.perf_counter()
        for _ in range(inner):
            stack.client.shared_evaluation_many(pres, point)
        best = min(best, time.perf_counter() - started)
    return best / inner


def build_trajectory(quick):
    """Run the kernel x scale sweep and return the JSON-ready trajectory.

    Quick mode (CI) drops the large-scale extension-field stacks and the
    large-scale naive baseline — the committed full-mode baseline carries
    those rows; the regression gate only compares keys present in both.
    """
    combos = [(label, "small") for label in sorted(PAIRS)]
    combos.append(("F_83", "large"))
    if not quick:
        combos.append(("F_81", "large"))
    documents = {}
    series = []
    by_key = {}
    for label, scale_label in combos:
        if scale_label not in documents:
            documents[scale_label] = serialize(
                generate_document(scale=SCALES[scale_label], seed=4242)
            )
        scalar = _SCALAR_KERNEL[label]
        backends = ["naive", scalar, "numpy"] if scale_label == "small" else [scalar, "numpy"]
        if not HAS_NUMPY:
            backends = [backend for backend in backends if backend != "numpy"]
        encode_reps = 3 if scale_label == "small" else (2 if quick else 3)
        workload_reps = (1 if quick else 3) if scale_label == "small" else 1
        batch_reps = 2 if quick else 3
        events = _events_for(scale_label, documents[scale_label])
        for backend in backends:
            stack = _sweep_stack(
                documents[scale_label], label, backend, scale_label, encode_reps
            )
            row = {
                "field": label,
                "scale": SCALES[scale_label],
                "scale_label": scale_label,
                "nodes": len(stack.encoded.node_table),
                "backend": backend,
                "kernel": stack.encoded.ring.kernel.name,
                "encode_seconds": round(stack.encode_seconds, 6),
                "share_encode_seconds": round(
                    _share_encode_seconds(stack, events, encode_reps), 6
                ),
                "batch_eval_seconds": round(
                    _batch_eval_seconds(stack, batch_reps), 9
                ),
                "workload_seconds": round(_workload_seconds(stack, workload_reps), 6),
            }
            series.append(row)
            by_key[(label, scale_label, row["kernel"])] = row
    speedups = []
    for label, scale_label in combos:
        scalar = _SCALAR_KERNEL[label]
        for candidate, baseline in ((scalar, "naive"), ("numpy", scalar), ("numpy", "naive")):
            fast = by_key.get((label, scale_label, candidate))
            slow = by_key.get((label, scale_label, baseline))
            if fast is None or slow is None:
                continue
            speedups.append(
                {
                    "field": label,
                    "scale_label": scale_label,
                    "candidate": candidate,
                    "baseline": baseline,
                    "encode_speedup": round(
                        slow["encode_seconds"] / fast["encode_seconds"], 3
                    ),
                    "share_encode_speedup": round(
                        slow["share_encode_seconds"] / fast["share_encode_seconds"], 3
                    ),
                    "batch_eval_speedup": round(
                        slow["batch_eval_seconds"] / fast["batch_eval_seconds"], 3
                    ),
                    "workload_speedup": round(
                        slow["workload_seconds"] / fast["workload_seconds"], 3
                    ),
                }
            )
    gate = None
    fast = by_key.get(("F_83", "large", "numpy"))
    slow = by_key.get(("F_83", "large", "prime"))
    if fast is not None and slow is not None:
        # The gated encode metric is the share-generation phase (the part
        # the kernels own); full encode_seconds — including the
        # kernel-independent XML parse and index builds — is in the series.
        gate = {
            "field": "F_83",
            "scale_label": "large",
            "nodes": fast["nodes"],
            "candidate": "numpy",
            "baseline": "prime",
            "encode_speedup": round(
                slow["share_encode_seconds"] / fast["share_encode_seconds"], 3
            ),
            "batch_eval_speedup": round(
                slow["batch_eval_seconds"] / fast["batch_eval_seconds"], 3
            ),
            "minimum": GATE_MINIMUM,
        }
    return {
        "quick": quick,
        "numpy": HAS_NUMPY,
        "queries": [query for query, _ in QUERY_WORKLOAD],
        "series": series,
        "speedups": speedups,
        "gate": gate,
    }


def _write(trajectory, path):
    path.write_text(json.dumps(trajectory, indent=2, sort_keys=True) + "\n")


_TRAJECTORY = {}


@pytest.fixture(scope="module")
def trajectory():
    if "value" not in _TRAJECTORY:
        _TRAJECTORY["value"] = build_trajectory(quick=QUICK)
    return _TRAJECTORY["value"]


def test_sweep_covers_both_scales(trajectory):
    keys = {(row["field"], row["scale_label"], row["kernel"]) for row in trajectory["series"]}
    assert ("F_83", "small", "prime") in keys
    assert ("F_83", "large", "prime") in keys
    assert ("F_81", "small", "table") in keys
    if HAS_NUMPY:
        assert ("F_83", "large", "numpy") in keys
    large = next(
        row for row in trajectory["series"] if row["scale_label"] == "large"
    )
    assert large["nodes"] >= 10_000


@needs_numpy
def test_numpy_gate_at_10k_nodes(trajectory):
    """Acceptance criterion: >=5x encode and >=5x batch-query throughput
    over the scalar prime kernel at the 10^4-node scale (quick CI mode uses
    a relaxed floor; the committed full-mode JSON carries the real gate —
    ``check_bench_regression.py`` guards it against decay)."""
    gate = trajectory["gate"]
    assert gate is not None
    minimum = 2.0 if QUICK else GATE_MINIMUM
    print(
        "\nnumpy gate (%d nodes): encode %.1fx, batch eval %.1fx (needs %.1fx)"
        % (gate["nodes"], gate["encode_speedup"], gate["batch_eval_speedup"], minimum)
    )
    assert gate["encode_speedup"] >= minimum
    assert gate["batch_eval_speedup"] >= minimum


def test_trajectory_json_is_emitted(trajectory, tmp_path):
    path = tmp_path / "BENCH_field_kernels.json"
    _write(trajectory, path)
    loaded = json.loads(path.read_text())
    assert loaded["series"] and loaded["speedups"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sweep: skips the large-scale extension-field and "
        "naive stacks (CI mode)",
    )
    parser.add_argument(
        "--output", type=Path, default=OUTPUT_PATH,
        help="where to write the JSON trajectory (default: repo root)",
    )
    args = parser.parse_args(argv)
    trajectory = build_trajectory(quick=args.quick)
    _write(trajectory, args.output)
    print("wrote %s (%d series rows)" % (args.output, len(trajectory["series"])))
    for row in trajectory["series"]:
        print(
            "  %-5s %-5s %-6s nodes=%6d encode=%8.3fs share-encode=%8.3fs"
            " batch-eval=%9.6fs workload=%8.3fs"
            % (
                row["field"], row["scale_label"], row["kernel"], row["nodes"],
                row["encode_seconds"], row["share_encode_seconds"],
                row["batch_eval_seconds"], row["workload_seconds"],
            )
        )
    gate = trajectory["gate"]
    if gate is not None:
        print(
            "gate: numpy vs prime at %d nodes: share encode %.1fx, batch eval %.1fx (floor %.1fx)"
            % (gate["nodes"], gate["encode_speedup"], gate["batch_eval_speedup"], gate["minimum"])
        )


if __name__ == "__main__":
    main()
