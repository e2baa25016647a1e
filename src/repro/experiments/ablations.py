"""Ablation experiments for the design choices DESIGN.md calls out.

These are not in the paper; they quantify decisions the prototype made
implicitly so EXPERIMENTS.md can discuss them:

* **Equality-test cost vs fan-out** — the paper notes "the cost of a single
  equality test depends on the number of children"; this ablation measures
  reconstructions per equality test against node fan-out.
* **Index ablation** — what the child index on ``parent`` buys: query work
  with and without it (the unindexed path scans the ``parent`` column).
* **RMI overhead** — remote calls and bytes with the simulated transport
  versus direct in-process calls.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.database import EncryptedXMLDatabase
from repro.experiments.workloads import TABLE2_QUERIES, bench_scale, build_database, build_document
from repro.metrics.records import ExperimentRecord, QueryMeasurement
from repro.metrics.timer import Stopwatch
from repro.xmldoc.dtd import XMARK_DTD


def run_equality_cost_ablation(
    database: Optional[EncryptedXMLDatabase] = None, scale: Optional[float] = None
) -> ExperimentRecord:
    """Measure equality-test cost (reconstructions) as a function of fan-out."""
    if database is None:
        database = build_database(scale=scale if scale is not None else bench_scale())
    record = ExperimentRecord(
        experiment_id="ablation-equality-cost",
        title="Equality-test cost versus node fan-out",
        parameters={"nodes": database.node_count},
    )
    client = database.client_filter
    root = client.root_pre()
    # Sample nodes with different fan-outs: the root, one mid-level container
    # and one leaf-ish node from each table-2 query result.
    sample_pres: List[int] = [root]
    for query in TABLE2_QUERIES:
        matches = database.plaintext_query(query)
        sample_pres.extend(matches[:2])
    seen = set()
    for pre in sample_pres:
        if pre in seen:
            continue
        seen.add(pre)
        children = client.children_of(pre)
        tag = database.tag_of(pre)
        if tag is None:
            continue
        before = client.counters.snapshot()
        watch = Stopwatch().start()
        client.equals(pre, tag)
        elapsed = watch.stop()
        after = client.counters.snapshot()
        record.add(
            QueryMeasurement(
                query="equals(%s)" % tag,
                engine="client-filter",
                test="equality",
                result_size=1,
                evaluations=after["evaluations"] - before["evaluations"],
                equality_tests=after["equality_tests"] - before["equality_tests"],
                elapsed_seconds=elapsed,
                extra={
                    "fanout": len(children),
                    "reconstructions": after["reconstructions"] - before["reconstructions"],
                },
            )
        )
    return record


def run_index_ablation(scale: Optional[float] = None) -> ExperimentRecord:
    """Compare query latency with and without the child index on ``parent``."""
    scale = scale if scale is not None else bench_scale()
    document = build_document(scale)
    record = ExperimentRecord(
        experiment_id="ablation-indexes",
        title="Effect of the child index on parent",
        parameters={"scale": scale},
    )
    for label, index_columns in (("indexed", None), ("unindexed", [])):
        database = EncryptedXMLDatabase.from_document(
            document,
            tag_names=XMARK_DTD.element_names(),
            seed=b"ablation-index-seed-000000000000",
            p=83,
            use_rmi=False,
            index_columns=index_columns,
        )
        for query in TABLE2_QUERIES:
            result = database.query(query, engine="advanced", strict=False)
            record.add(
                QueryMeasurement(
                    query=query,
                    engine="advanced",
                    test="containment",
                    result_size=result.result_size,
                    evaluations=result.evaluations,
                    equality_tests=result.equality_tests,
                    elapsed_seconds=result.elapsed_seconds,
                    extra={"configuration": label},
                )
            )
    return record


def run_rmi_overhead_ablation(scale: Optional[float] = None) -> ExperimentRecord:
    """Quantify the simulated RMI boundary: calls and bytes per query."""
    scale = scale if scale is not None else bench_scale()
    document = build_document(scale)
    record = ExperimentRecord(
        experiment_id="ablation-rmi",
        title="Remote-invocation overhead of the client/server split",
        parameters={"scale": scale},
    )
    for label, use_rmi in (("rmi", True), ("direct", False)):
        database = EncryptedXMLDatabase.from_document(
            document,
            tag_names=XMARK_DTD.element_names(),
            seed=b"ablation-rmi-seed-00000000000000",
            p=83,
            use_rmi=use_rmi,
        )
        for query in TABLE2_QUERIES:
            before_calls = database.transport_stats.calls
            before_bytes = database.transport_stats.total_bytes
            result = database.query(query, engine="advanced", strict=False)
            record.add(
                QueryMeasurement(
                    query=query,
                    engine="advanced",
                    test="containment",
                    result_size=result.result_size,
                    evaluations=result.evaluations,
                    equality_tests=result.equality_tests,
                    elapsed_seconds=result.elapsed_seconds,
                    remote_calls=database.transport_stats.calls - before_calls,
                    remote_bytes=database.transport_stats.total_bytes - before_bytes,
                    extra={"configuration": label},
                )
            )
    return record
