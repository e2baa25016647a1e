"""Multi-server share cluster walk-through: (k, n) sharing with failures.

Deploys one XMark document across a 3-server (k=2) Shamir cluster and shows
what the cluster layer buys over the paper's two-party setup:

* the document is encoded once, each server receiving its own share *slice*
  — fewer than k colluding servers learn nothing about the polynomials,
* queries scatter-gather across the cluster and reconstruct from any k
  replies, so results are identical with a server down mid-run,
* a corrupted server is *detected* (its replies disagree with the
  reconstruction from the other servers' redundancy) instead of silently
  corrupting results,
* per-server call statistics show the load spreading: every share server
  answers the same O(1) batched calls per query step regardless of n,
* the concurrent scatter-gather layer turns the round cost from the *sum*
  of the per-server latencies into the critical path, and first-k quorum
  reads (``verify_shares=False``) stop waiting as soon as any k good
  replies are in — the closing section shows the makespan gauge separating
  the three modes under injected latency jitter.

Run with::

    python examples/cluster_demo.py
"""

from repro.core.database import EncryptedXMLDatabase
from repro.filters.cluster import InconsistentShareError
from repro.xmark.generator import generate_document
from repro.xmldoc.dtd import XMARK_DTD

SERVERS, THRESHOLD = 3, 2
QUERIES = ["//city", "/site//person//city", "/site/people/person"]


def main() -> None:
    document = generate_document(scale=0.02, seed=7)
    database = EncryptedXMLDatabase.from_document(
        document,
        tag_names=XMARK_DTD.element_names(),
        seed=b"cluster-demo-secret-seed-material",
        p=83,
        keep_plaintext=False,
        servers=SERVERS,
        threshold=THRESHOLD,
        sharing="shamir",
    )
    deployment = database.encoded
    print(
        "Deployed %d nodes across %d servers ((k, n) = (%d, %d) Shamir): "
        "%.1f KB per server, %.1f KB total"
        % (
            database.node_count,
            database.num_servers,
            THRESHOLD,
            SERVERS,
            deployment.per_server_stats[0].payload_bytes / 1000.0,
            deployment.stats.payload_bytes / 1000.0,
        )
    )

    # ------------------------------------------------------------------
    # Healthy cluster: every query scatter-gathers across all servers.
    # ------------------------------------------------------------------
    baseline = {}
    for query in QUERIES:
        result = database.query(query, engine="advanced", strict=False)
        baseline[query] = result.matches
        print("%-24s %d hit(s), %d evaluations" % (query, len(result.matches), result.evaluations))

    # ------------------------------------------------------------------
    # Fail-over: with n - k servers down the answers do not change.
    # ------------------------------------------------------------------
    database.transport.set_down(1)
    print("\nServer 1 went down (Shamir tolerates n - k = %d failures):" % (SERVERS - THRESHOLD))
    for query in QUERIES:
        result = database.query(query, engine="advanced", strict=False)
        status = "identical" if result.matches == baseline[query] else "DIVERGED"
        print("%-24s %d hit(s) — %s" % (query, len(result.matches), status))
    database.transport.set_down(1, down=False)

    # ------------------------------------------------------------------
    # Integrity: a corrupted server is detected through the redundancy.
    # (Servers read every share straight from their tables, so the
    # corruption is seen on the very next query.)
    # ------------------------------------------------------------------
    corrupted = deployment.node_tables[2]
    for pre in range(1, len(corrupted) + 1):
        coeffs = corrupted.share_row(pre)
        coeffs[0] = (coeffs[0] + 1) % 83
        corrupted.set_share(pre, coeffs)
    try:
        database.query(QUERIES[2], engine="simple", strict=True)
        print("\nCorruption went undetected (unexpected)")
    except InconsistentShareError as error:
        print("\nCorrupted server detected: inconsistent shares from servers %s" % list(error.servers))

    # ------------------------------------------------------------------
    # Accounting: the scatter spreads load instead of multiplying it.
    # ------------------------------------------------------------------
    print("\nPer-server remote-call statistics:")
    for index, stats in enumerate(database.per_server_stats):
        print(
            "  server %d: %5d calls (%4.1f per query), %6.1f KB, %d errors"
            % (index, stats.calls, stats.calls_per_query, stats.total_bytes / 1000.0, stats.errors)
        )
    aggregate = database.transport_stats
    print(
        "Cluster-wide: %d calls over %d queries, busiest endpoints: %s"
        % (
            aggregate.calls,
            aggregate.queries,
            ", ".join(sorted(aggregate.calls_by_method, key=aggregate.calls_by_method.get)[-3:]),
        )
    )

    # ------------------------------------------------------------------
    # Latency: first-k quorum reads beat all-quorum under jitter.
    # The latencies are modeled, not slept — the makespan gauge charges
    # each scatter round with its critical path (the k-th modeled arrival
    # for a first-k read), so the comparison is deterministic.
    # ------------------------------------------------------------------
    print("\nMakespan under per-server latency jitter (modeled seconds):")
    makespans = {}
    for label, kwargs in [
        ("sequential scatter", dict(concurrency=False)),
        ("concurrent, all-quorum", dict()),
        ("concurrent, first-k reads", dict(verify_shares=False)),
    ]:
        jittered = EncryptedXMLDatabase.from_document(
            document,
            tag_names=XMARK_DTD.element_names(),
            seed=b"cluster-demo-secret-seed-material",
            p=83,
            keep_plaintext=False,
            servers=SERVERS,
            threshold=THRESHOLD,
            sharing="shamir",
            per_call_latency=1.0,
            latency_jitter=0.75,
            **kwargs,
        )
        for query in QUERIES:
            result = jittered.query(query, engine="advanced", strict=False)
            assert result.matches == baseline[query], "modes must agree"
        makespans[label] = jittered.makespan
        print(
            "  %-26s %8.1f  (per-server latency sum %8.1f)"
            % (label, jittered.makespan, jittered.transport_stats.simulated_latency)
        )
    assert makespans["concurrent, first-k reads"] <= makespans["concurrent, all-quorum"]
    print(
        "First-k reads finish %.1fx earlier than the sequential scatter "
        "with byte-identical results."
        % (makespans["sequential scatter"] / makespans["concurrent, first-k reads"])
    )


if __name__ == "__main__":
    main()
