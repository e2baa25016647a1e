"""Real-process share cluster: subprocess servers, a kill, a quorum save.

Everything the other examples simulate in-process here actually crosses a
wire: ``transport="asyncio"`` spawns one ``repro-server`` child process per
share server (each loaded with only its own share slice), and every remote
call is an id-tagged frame on one multiplexed loopback TCP connection per
server, with *measured* latency and payload bytes.  The walk-through:

* deploy a 598-node-class XMark document across a (2, 3) Shamir cluster of
  real subprocesses, health-checked via the ``__ping__`` handshake,
* run queries over the wire and read the measured round-trip accounting,
* SIGKILL one server mid-run — a genuine crash, not a flag — and watch the
  same queries complete through quorum reconstruction from the two
  survivors, with the dead server's connection failures recorded in its
  call statistics rather than hidden,
* shut the fleet down through the facade's context manager (no orphan
  processes, sockets or event-loop threads).

Run with::

    python examples/socket_cluster_demo.py
"""

from repro.core.database import EncryptedXMLDatabase
from repro.xmark.generator import generate_document
from repro.xmldoc.dtd import XMARK_DTD

SERVERS, THRESHOLD = 3, 2
VICTIM = 2
QUERIES = ["//city", "/site//person//city", "/site/people/person"]


def main() -> None:
    document = generate_document(scale=0.02, seed=7)
    with EncryptedXMLDatabase.from_document(
        document,
        tag_names=XMARK_DTD.element_names(),
        seed=b"socket-demo-secret-seed-material",
        p=83,
        keep_plaintext=False,
        servers=SERVERS,
        threshold=THRESHOLD,
        sharing="shamir",
        transport="asyncio",
    ) as database:
        cluster = database.socket_cluster
        print(
            "Launched a (k, n) = (%d, %d) Shamir cluster as %d real server "
            "processes:" % (THRESHOLD, SERVERS, SERVERS)
        )
        for index, process in enumerate(cluster.processes):
            print(
                "  server %d: pid %-6d listening on %s"
                % (index, process.pid, process.address)
            )

        print("\nQueries over the wire (all %d servers alive):" % SERVERS)
        healthy = {}
        for query in QUERIES:
            result = database.query(query)
            healthy[query] = result.matches
            print("  %-22s -> %2d match(es)" % (query, len(result.matches)))
        aggregate = database.transport_stats
        print(
            "  traffic: %d calls, %.1f KB, measured wire time %.1f ms"
            % (
                aggregate.calls,
                aggregate.total_bytes / 1024.0,
                aggregate.simulated_latency * 1000.0,
            )
        )

        print("\nSIGKILL server %d (pid %d) mid-run..." % (VICTIM, cluster.processes[VICTIM].pid))
        cluster.kill_server(VICTIM)
        print("  alive now: %s" % [process.is_alive() for process in cluster.processes])

        print("Same queries against the 2 survivors (quorum reconstruction):")
        all_identical = True
        for query in QUERIES:
            result = database.query(query)
            identical = result.matches == healthy[query]
            all_identical = all_identical and identical
            print(
                "  %-22s -> %2d match(es)  [%s]"
                % (query, len(result.matches), "identical" if identical else "DIVERGED")
            )
        victim_stats = database.per_server_stats[VICTIM]
        print(
            "  server %d charged with %d connection failure(s) — recorded, "
            "not hidden" % (VICTIM, victim_stats.errors)
        )
        if not all_identical:
            raise SystemExit("quorum reconstruction diverged from the healthy run")
        print("\nResults identical through a real server crash.")
    print("Context manager exit: fleet stopped, sockets and tables reclaimed.")


if __name__ == "__main__":
    main()
