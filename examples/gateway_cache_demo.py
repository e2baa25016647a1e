"""Gateway result cache + per-session QoS: shared reads, fair queues.

The gateway (PR 6) lets many client sessions share one server fleet, but
until now every session re-ran every scatter, even when five dashboards
asked the identical question.  This demo drives the two mechanisms that
fix that:

* the **result cache** — deterministic read results (structural facts and
  share vectors) are cached once behind the gateway, keyed by method,
  canonical arguments and the deployment epoch; concurrent identical
  misses coalesce onto ONE in-flight upstream scatter (single-flight),
* **weighted fair queueing** — a batch-pipelining hog session no longer
  starves an interactive session: admission is cost-aware (a 64-node
  batch costs 64, a ``node_info`` costs 1) with a per-session in-flight
  cap, so the interactive p95 stays near its solo baseline while a FIFO
  gateway lets it balloon.

Everything runs in-process over real loopback sockets: a (2, 3) Shamir
fleet of ``SocketServer`` threads with a modeled service delay, one
``Gateway`` in front, sync ``GatewayEndpoint`` sessions and one pipelined
asyncio hog.

Run with::

    python examples/gateway_cache_demo.py
"""

import asyncio
import threading
import time

from repro.encode.encoder import Encoder
from repro.encode.tagmap import TagMap
from repro.engines.advanced import AdvancedQueryEngine
from repro.filters.client import ClientFilter
from repro.filters.interface import MatchRule
from repro.filters.server import ServerFilter
from repro.gf.factory import make_field
from repro.rmi.aio import AsyncClusterTransport, AsyncSocketTransport, LoopThread
from repro.rmi.gateway import Gateway, GatewayEndpoint
from repro.rmi.server import SocketServer
from repro.xmark.generator import generate_document
from repro.xmldoc.dtd import XMARK_DTD

SEED = b"gateway-cache-demo-seed-material"
SERVICE_DELAY = 0.01  # modeled per-call service time on every share server
QUERIES = [
    ("//city", MatchRule.CONTAINMENT),
    ("/site/people/person", MatchRule.EQUALITY),
    ("/site//item/name", MatchRule.CONTAINMENT),
]

HOG_BURST = 12  # pipelined batch reads the hog keeps in flight
HOG_BATCH = 48  # nodes per hog batch
INTERACTIVE_CALLS = 25


class _Stack:
    """A live Shamir fleet with one gateway in front, torn down in close()."""

    def __init__(self, deployment, cache_bytes=0, fair=False, delay=SERVICE_DELAY):
        self.deployment = deployment
        self.fleet = [
            SocketServer(
                ServerFilter(table, deployment.ring),
                name="demo-fleet-%d" % index,
                delay=delay,
            )
            for index, table in enumerate(deployment.node_tables)
        ]
        for server in self.fleet:
            server.start()
        self.cluster = AsyncClusterTransport([server.address for server in self.fleet])
        self.gateway = Gateway(
            self.cluster,
            deployment.scheme,
            cache_bytes=cache_bytes,
            fair=fair,
            fair_session_cap=1,
        )
        self.gateway.start()

    def endpoint(self, timeout=60.0):
        return GatewayEndpoint(self.gateway.address, timeout=timeout)

    def close(self):
        self.gateway.close()
        for server in self.fleet:
            server.close()


def _run_query_mix(session):
    start = time.perf_counter()
    matches = 0
    for query, rule in QUERIES:
        result = AdvancedQueryEngine(session).execute(query, rule=rule)
        matches += len(result.matches)
    return matches, time.perf_counter() - start


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(len(ordered) * q))]


def _interactive_p95(stack, root):
    endpoint = stack.endpoint()
    try:
        endpoint.node_info(root)  # connection warm-up, unmeasured
        samples = []
        for _ in range(INTERACTIVE_CALLS):
            start = time.perf_counter()
            endpoint.node_info(root)
            samples.append(time.perf_counter() - start)
        return _percentile(samples, 0.95) * 1e3
    finally:
        endpoint.close()


class _Hog:
    """One mux session keeping HOG_BURST rotating batch reads in flight."""

    def __init__(self, address, pres):
        self.pres = list(pres)
        self.stop = threading.Event()
        self.loop = LoopThread(name="demo-hog")
        self.transport = AsyncSocketTransport(address, timeout=120.0)
        self.thread = threading.Thread(target=self._run, name="demo-hog-driver")
        self.thread.start()

    def _run(self):
        async def burst(offset):
            span = max(1, len(self.pres) - HOG_BATCH)
            chunks = [
                self.pres[(offset * HOG_BURST + i * 7) % span :][:HOG_BATCH]
                for i in range(HOG_BURST)
            ]
            await asyncio.gather(
                *[
                    self.transport.ainvoke(None, "fetch_shares_batch", (chunk,))
                    for chunk in chunks
                ]
            )

        offset = 0
        while not self.stop.is_set():
            self.loop.run(burst(offset))
            offset += 1

    def close(self):
        self.stop.set()
        self.thread.join(timeout=60.0)
        self.loop.run(self.transport.aclose())
        self.loop.close()


def main() -> None:
    document = generate_document(scale=0.01, seed=11)
    tag_map = TagMap.from_names(XMARK_DTD.element_names(), field=make_field(83))
    deployment = Encoder(tag_map, SEED).deploy_document(
        document, servers=3, threshold=2, sharing="shamir"
    )
    print(
        "Deployed a %d-node XMark document across a (2, 3) Shamir fleet "
        "(modeled service delay %.0fms/call)." % (len(deployment.node_tables[0]), SERVICE_DELAY * 1e3)
    )

    # ------------------------------------------------------------------
    # 1. The result cache: the second pass of the same query mix is
    #    answered behind the gateway without touching the fleet.
    # ------------------------------------------------------------------
    stack = _Stack(deployment, cache_bytes=8 << 20)
    endpoint = stack.endpoint()
    try:
        session = ClientFilter(endpoint, deployment.scheme, tag_map)
        cold_matches, cold_s = _run_query_mix(session)
        warm_matches, warm_s = _run_query_mix(session)
        assert warm_matches == cold_matches
        cache = stack.gateway.cache.snapshot()
        print("\nResult cache, one session running the 3-query mix twice:")
        print("  cold pass: %5.0fms   warm pass: %5.0fms   (%.1fx faster)"
              % (cold_s * 1e3, warm_s * 1e3, cold_s / max(warm_s, 1e-9)))
        print("  cache hit rate %.0f%%  (%d hits, %d misses, %d entries, %.0f KB)"
              % (cache["hit_rate"] * 100, cache["hits"], cache["misses"],
                 cache["entries"], cache["bytes"] / 1024.0))

        # --------------------------------------------------------------
        # 2. Single-flight: 6 sessions ask the same cold question at
        #    once; the leader scatters, everyone else shares its answer.
        # --------------------------------------------------------------
        root = endpoint.root_pre()
        pres = endpoint.descendants_of(root)
        stack.gateway.cache.clear()
        stack.gateway.cache.stats.reset()
        sessions = [stack.endpoint() for _ in range(6)]
        barrier = threading.Barrier(6)
        results = [None] * 6

        def worker(slot):
            barrier.wait(timeout=10.0)
            results[slot] = sessions[slot].fetch_shares_batch(pres[:64])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
        for side in sessions:
            side.close()
        assert all(value == results[0] and value is not None for value in results)
        stats = stack.gateway.cache.stats
        print("\nSingle-flight, 6 concurrent sessions, same cold 64-node batch:")
        print("  upstream scatters: %d   coalesced+hit sessions: %d"
              % (stats.misses, stats.coalesced + stats.hits))
    finally:
        endpoint.close()
        stack.close()

    # ------------------------------------------------------------------
    # 3. QoS: interactive p95 beside a pipelined batch hog — FIFO vs
    #    weighted fair queueing with a per-session in-flight cap.
    # ------------------------------------------------------------------
    print("\nQoS: interactive node_info p95 beside a %d-deep batch hog:" % HOG_BURST)
    rows = {}
    for label, fair in (("fifo", False), ("fair", True)):
        qos = _Stack(deployment, fair=fair, delay=0.02)
        try:
            warm = qos.endpoint()
            root = warm.root_pre()
            pres = warm.descendants_of(root)
            warm.close()
            solo = _interactive_p95(qos, root)
            hog = _Hog(qos.gateway.address, pres)
            try:
                time.sleep(0.3)  # let the hog reach a steady cadence
                contended = _interactive_p95(qos, root)
            finally:
                hog.close()
            rows[label] = (solo, contended)
            print("  %-4s gateway: solo p95 %6.1fms   contended p95 %6.1fms  (%.1fx)"
                  % (label, solo, contended, contended / max(solo, 1e-9)))
        finally:
            qos.close()
    fifo_blowup = rows["fifo"][1] / max(rows["fifo"][0], 1e-9)
    fair_blowup = rows["fair"][1] / max(rows["fair"][0], 1e-9)
    print("  fair queueing keeps the interactive session %.1fx closer to its "
          "solo baseline" % (fifo_blowup / max(fair_blowup, 1e-9)))


if __name__ == "__main__":
    main()
