"""The asyncio wire: multiplexed framing, pipelining, quorum admission.

Hardening focus — the invariants a multiplexed protocol must keep that a
one-call-per-connection protocol gets for free: replies routed by id in
whatever order they arrive, unknown/late ids dropped without desyncing,
an oversized or truncated frame mid-pipeline settling *every* pending
call typed (no caller ever hangs on a dead wire), and a deep pipelined
burst served over one connection without growing any thread pool.

The subprocess gateway built on this wire is covered by
``tests/test_gateway.py``; differential byte-identity against the
simulated transport by ``benchmarks/bench_gateway_load.py``.
"""

from __future__ import annotations

import asyncio
import socket as socket_module
import threading
import time

import pytest

from repro.rmi.aio import (
    AsyncClusterTransport,
    AsyncSocketTransport,
    LoopThread,
)
from repro.rmi.cluster import ClusterTransportBase, InjectedFaultError, ServerDownError
from repro.rmi.codec import Codec
from repro.rmi.server import SocketServer
from repro.rmi.socket import (
    MUX_HEADER_BYTES,
    MUX_MAGIC,
    STATUS_OK,
    ServerAddress,
    ServerUnavailable,
    WireProtocolError,
)
from repro.rmi.stats import QuantileSketch
from repro.rmi.transport import SimulatedTransport


class Arithmetic:
    def add(self, a, b):
        return a + b

    def echo(self, value=None):
        return value

    def fail(self):
        raise ValueError("bad point 0")


@pytest.fixture()
def server():
    with SocketServer(Arithmetic(), name="aio-test-server") as srv:
        yield srv


def run(coroutine):
    """Run one test coroutine on a fresh event loop (py3.9-safe)."""
    return asyncio.run(coroutine)


# ----------------------------------------------------------------------
# A scriptable rogue peer speaking the multiplexed framing
# ----------------------------------------------------------------------


def _recv_exact(conn, count):
    data = b""
    while len(data) < count:
        chunk = conn.recv(count - len(data))
        if not chunk:
            raise ConnectionError("peer closed mid-read")
        data += chunk
    return data


def _read_request(conn):
    """One client mux frame: (call_id, payload)."""
    header = _recv_exact(conn, MUX_HEADER_BYTES)
    call_id = int.from_bytes(header[:4], "big")
    size = int.from_bytes(header[4:], "big")
    return call_id, _recv_exact(conn, size)


def _send_reply(conn, call_id, value):
    body = STATUS_OK + Codec().encode(value)
    conn.sendall(call_id.to_bytes(4, "big") + len(body).to_bytes(4, "big") + body)


class RogueMuxServer:
    """A raw peer scripted to misbehave for exactly one mux connection."""

    def __init__(self, script):
        self._script = script
        self._listener = socket_module.socket(
            socket_module.AF_INET, socket_module.SOCK_STREAM
        )
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(1)
        self.address = ServerAddress(
            host="127.0.0.1", port=self._listener.getsockname()[1]
        )
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        try:
            conn, _ = self._listener.accept()
        except OSError:  # pragma: no cover - teardown race
            return
        try:
            assert _recv_exact(conn, len(MUX_MAGIC)) == MUX_MAGIC
            self._script(conn)
        except (ConnectionError, OSError):  # pragma: no cover - client gone
            pass
        finally:
            try:
                conn.close()
            except OSError:  # pragma: no cover
                pass

    def close(self):
        self._listener.close()
        self._thread.join(timeout=5.0)


# ----------------------------------------------------------------------
# Pipelined round trips
# ----------------------------------------------------------------------


def test_pipelined_roundtrip_and_byte_parity_with_simulated_transport(server):
    """Same payload bytes as the simulated transport, so identical counters."""

    async def scenario():
        transport = AsyncSocketTransport(server.address, timeout=5.0)
        try:
            results = await asyncio.gather(
                *(transport.ainvoke(None, "add", (i, i)) for i in range(8))
            )
            assert results == [2 * i for i in range(8)]
            return transport.stats
        finally:
            await transport.aclose()

    aio_stats = run(scenario())
    simulated = SimulatedTransport()
    for i in range(8):
        assert simulated.invoke(Arithmetic(), "add", (i, i)) == 2 * i
    assert aio_stats.calls == simulated.stats.calls == 8
    assert aio_stats.bytes_sent == simulated.stats.bytes_sent
    assert aio_stats.bytes_received == simulated.stats.bytes_received


def test_server_side_errors_cross_the_wire_typed(server):
    async def scenario():
        transport = AsyncSocketTransport(server.address, timeout=5.0)
        try:
            with pytest.raises(ValueError, match="bad point 0"):
                await transport.ainvoke(None, "fail")
            # the error poisoned nothing: the same connection keeps serving
            assert await transport.ainvoke(None, "add", (2, 3)) == 5
            assert transport.stats.errors == 1
        finally:
            await transport.aclose()

    run(scenario())


# ----------------------------------------------------------------------
# Mux hardening: ids out of order, unknown ids, poison frames, death
# ----------------------------------------------------------------------


def test_out_of_order_replies_reach_their_callers():
    """Replies arriving in reverse id order settle the right futures."""

    def script(conn):
        first = _read_request(conn)
        second = _read_request(conn)
        for call_id, _ in (second, first):  # answer in reverse
            _send_reply(conn, call_id, 100 + call_id)

    rogue = RogueMuxServer(script)

    async def scenario():
        transport = AsyncSocketTransport(rogue.address, timeout=5.0, connect_retries=1)
        try:
            results = await asyncio.gather(
                transport.ainvoke(None, "echo", (0,)),
                transport.ainvoke(None, "echo", (1,)),
            )
            # ids are issued sequentially from 0: caller i must get 100+i
            # even though the wire delivered them reversed
            assert results == [100, 101]
        finally:
            await transport.aclose()

    try:
        run(scenario())
    finally:
        rogue.close()


def test_reply_for_an_id_never_issued_is_dropped():
    """A reply tagged with an unknown id is discarded; framing stays in
    sync and the real reply still lands."""

    def script(conn):
        call_id, _ = _read_request(conn)
        _send_reply(conn, 9999, "ghost")
        _send_reply(conn, call_id, "real")
        call_id, _ = _read_request(conn)
        _send_reply(conn, call_id, "again")

    rogue = RogueMuxServer(script)

    async def scenario():
        transport = AsyncSocketTransport(rogue.address, timeout=5.0, connect_retries=1)
        try:
            assert await transport.ainvoke(None, "echo") == "real"
            assert await transport.ainvoke(None, "echo") == "again"
            assert transport.stats.errors == 0
        finally:
            await transport.aclose()

    try:
        run(scenario())
    finally:
        rogue.close()


def test_late_reply_after_timeout_is_dropped_and_connection_survives():
    """A timed-out call abandons its id; the late reply is dropped by the
    reader and the *same* connection serves the next call."""
    proceed = threading.Event()

    def script(conn):
        call_id, _ = _read_request(conn)
        proceed.wait(timeout=10.0)  # past the client's deadline
        _send_reply(conn, call_id, "too-late")
        call_id, _ = _read_request(conn)
        _send_reply(conn, call_id, "fresh")

    rogue = RogueMuxServer(script)

    async def scenario():
        transport = AsyncSocketTransport(rogue.address, timeout=0.3, connect_retries=1)
        try:
            outcome = await transport.ainvoke_detailed(None, "echo", ("a",))
            assert isinstance(outcome.error, ServerUnavailable)
            assert "timed out" in str(outcome.error)
            proceed.set()
            transport.timeout = 5.0
            assert await transport.ainvoke(None, "echo", ("b",)) == "fresh"
            assert transport.stats.calls == 2 and transport.stats.errors == 1
        finally:
            await transport.aclose()

    try:
        run(scenario())
    finally:
        proceed.set()
        rogue.close()


def test_oversized_frame_mid_pipeline_settles_every_pending_call_typed():
    """An oversized reply frame poisons the stream: the announced call and
    every other pending call settle with a typed protocol error — no hang."""

    def script(conn):
        requests = [_read_request(conn) for _ in range(3)]
        _send_reply(conn, requests[0][0], "ok")
        # announce a body far beyond the client's frame limit for call 1
        conn.sendall(
            requests[1][0].to_bytes(4, "big") + (1 << 30).to_bytes(4, "big")
        )
        # keep the socket open: only the frame check can end this session

    rogue = RogueMuxServer(script)

    async def scenario():
        transport = AsyncSocketTransport(
            rogue.address, timeout=5.0, connect_retries=1, max_frame_bytes=4096
        )
        try:
            outcomes = await asyncio.wait_for(
                asyncio.gather(
                    *(transport.ainvoke_detailed(None, "echo", (i,)) for i in range(3))
                ),
                timeout=5.0,
            )
            assert outcomes[0].ok and outcomes[0].value == "ok"
            for outcome in outcomes[1:]:
                assert isinstance(outcome.error, WireProtocolError)
            assert transport.stats.errors == 2
        finally:
            await transport.aclose()

    try:
        run(scenario())
    finally:
        rogue.close()


def test_mid_pipeline_death_settles_every_pending_call_typed():
    """The peer dying with calls in flight surfaces ServerUnavailable on
    every one of them, never a hang."""

    def script(conn):
        requests = [_read_request(conn) for _ in range(3)]
        _send_reply(conn, requests[0][0], "ok")
        # close without answering the other two

    rogue = RogueMuxServer(script)

    async def scenario():
        transport = AsyncSocketTransport(rogue.address, timeout=5.0, connect_retries=1)
        try:
            outcomes = await asyncio.wait_for(
                asyncio.gather(
                    *(transport.ainvoke_detailed(None, "echo", (i,)) for i in range(3))
                ),
                timeout=5.0,
            )
            assert outcomes[0].ok
            for outcome in outcomes[1:]:
                assert isinstance(outcome.error, ServerUnavailable)
        finally:
            await transport.aclose()

    try:
        run(scenario())
    finally:
        rogue.close()


def test_connection_redials_after_teardown(server):
    """A poisoned/dead connection is not fatal: the next call dials afresh."""

    async def scenario():
        transport = AsyncSocketTransport(server.address, timeout=5.0)
        try:
            assert await transport.ainvoke(None, "add", (1, 2)) == 3
            await transport.aclose()  # simulate a torn-down connection
            assert await transport.ainvoke(None, "add", (3, 4)) == 7
        finally:
            await transport.aclose()

    run(scenario())


def test_unreachable_server_is_typed():
    async def scenario():
        transport = AsyncSocketTransport(
            ("127.0.0.1", 1), timeout=0.5, connect_retries=2, connect_backoff=0.01
        )
        with pytest.raises(ServerUnavailable, match="after 2 attempts"):
            await transport.ainvoke(None, "add", (1, 2))
        assert transport.stats.calls == 1 and transport.stats.errors == 1

    run(scenario())


# ----------------------------------------------------------------------
# The acceptance burst: 64 pipelined calls, one connection, no new threads
# ----------------------------------------------------------------------


def test_burst_of_64_pipelined_calls_one_connection_no_extra_threads(server):
    """64 concurrent calls ride one socket and one pre-existing loop
    thread — no worker pool grows anywhere."""
    loop_thread = LoopThread("aio-burst-test")
    transport = AsyncSocketTransport(server.address, timeout=10.0)

    async def warm_up():
        return await transport.ainvoke(None, "add", (0, 0))

    async def burst():
        return await asyncio.gather(
            *(transport.ainvoke(None, "add", (i, 1)) for i in range(64))
        )

    try:
        assert loop_thread.run(warm_up()) == 0
        threads_before = threading.active_count()
        results = loop_thread.run(burst())
        assert results == [i + 1 for i in range(64)]
        assert threading.active_count() == threads_before
        # all 65 calls shared a single server-side connection
        assert len(server._writers) == 1
        assert transport.stats.calls == 65 and transport.stats.errors == 0
    finally:
        loop_thread.run(transport.aclose())
        loop_thread.close()


def test_loop_thread_rejects_reentrant_sync_calls():
    """Driving the sync surface from the loop thread would deadlock the
    loop against itself; it must be refused, not attempted."""
    loop_thread = LoopThread("aio-reentrant-test")

    async def reenter():
        loop_thread.run(asyncio.sleep(0))

    try:
        with pytest.raises(RuntimeError, match="loop thread"):
            loop_thread.run(reenter())
    finally:
        loop_thread.close()
    with pytest.raises(RuntimeError, match="closed"):
        loop_thread.run(asyncio.sleep(0))


# ----------------------------------------------------------------------
# Cluster layer: sync surface, admit-on-arrival, hedging
# ----------------------------------------------------------------------


@pytest.fixture()
def trio():
    servers = [SocketServer(Arithmetic(), name="aio-%d" % i) for i in range(3)]
    for srv in servers:
        srv.start()
    yield servers
    for srv in servers:
        srv.close()


def _cluster(trio, **kwargs):
    return AsyncClusterTransport([srv.address for srv in trio], **kwargs)


def test_cluster_sync_surface_roundtrip(trio):
    cluster = _cluster(trio)
    try:
        assert cluster.invoke(1, "add", (20, 22)) == 42
        replies = cluster.invoke_all("add", (1, 2))
        assert [reply.value for reply in replies] == [3, 3, 3]
        assert all(reply.latency > 0.0 for reply in replies)
        stats = cluster.per_server_stats
        assert [s.calls for s in stats] == [1, 2, 1]
        assert cluster.makespan() > 0.0
        cluster.reset_stats()
        assert all(s.calls == 0 for s in cluster.per_server_stats)
    finally:
        cluster.close()


def test_cluster_fault_injection_and_down_marking(trio):
    cluster = _cluster(trio)
    try:
        cluster.set_down(0)
        assert cluster.live_servers() == [1, 2]
        with pytest.raises(ServerDownError):
            cluster.invoke(0, "add", (1, 1))
        cluster.inject_faults(1, count=1)
        with pytest.raises(InjectedFaultError):
            cluster.invoke(1, "add", (1, 1))
        assert cluster.invoke(1, "add", (1, 1)) == 2  # budget spent
        cluster.set_down(0, down=False)
        assert cluster.invoke(0, "add", (2, 2)) == 4
        # both failures were recorded against their servers
        assert cluster.stats_of(0).errors == 1
        assert cluster.stats_of(1).errors == 1
    finally:
        cluster.close()


def test_quarantine_and_heal_swap_the_connection_and_keep_the_counters(trio):
    """The supervisor hooks of the shared fleet-state core: a heal swaps in
    a replacement connection that inherits the old counters, retires the
    old connection and ticks the quarantine/heal counters."""
    cluster = _cluster(trio)
    try:
        assert cluster.invoke(2, "add", (1, 1)) == 2
        cluster.mark_quarantined(2)
        assert cluster.is_down(2)
        old = cluster.transports[2]
        replacement = AsyncSocketTransport(trio[2].address, timeout=5.0)
        cluster.mark_healed(2, transport=replacement, server=trio[2].address)
        assert cluster.transports[2] is replacement
        assert old._writer is None  # the old connection was closed
        assert not cluster.is_down(2)
        assert cluster.invoke(2, "add", (2, 2)) == 4
        stats = cluster.stats_of(2)
        assert stats.calls == 2  # the old connection's call carried over
        assert (stats.quarantines, stats.heals) == (1, 1)
        assert isinstance(cluster, ClusterTransportBase)
    finally:
        cluster.close()


def test_quorum_admits_on_arrival_ahead_of_straggler(trio):
    """A first-k read returns at the k-th real arrival; the delayed server
    is not waited for, but its call still executes and lands in stats."""
    trio[2].delay = 0.5
    cluster = _cluster(trio)
    try:
        started = time.monotonic()
        admitted = cluster.invoke_quorum("add", (1, 2), k=2)
        elapsed = time.monotonic() - started
        assert elapsed < 0.4  # did not wait for the 0.5s straggler
        assert len(admitted) == 2
        assert {reply.server for reply in admitted} <= {0, 1}
        assert all(reply.ok and reply.value == 3 for reply in admitted)
        cluster.drain()
        assert cluster.stats_of(2).calls == 1  # straggler executed anyway
    finally:
        cluster.close()


def test_hedge_coissues_spares_after_observed_rtt_quantile(trio):
    """With warm RTT sketches, a target stalled far beyond its observed
    quantile gets hedged: a spare answers and is admitted first."""
    cluster = _cluster(trio, hedge=0.5)
    try:
        for _ in range(5):  # warm every sketch with fast RTTs
            cluster.invoke_all("add", (1, 1))
        assert all(len(sketch) == 5 for sketch in cluster.rtt_sketches)
        trio[0].delay = 1.0  # now stall the only target
        started = time.monotonic()
        admitted = cluster.invoke_quorum("add", (2, 3), k=1, indices=[0])
        elapsed = time.monotonic() - started
        winners = [reply.server for reply in admitted if reply.ok]
        assert winners and winners[0] in (1, 2)  # a spare won the race
        assert elapsed < 0.9  # strictly faster than waiting out the stall
        cluster.drain()
    finally:
        cluster.close()


def test_hedge_stays_quiet_without_observations(trio):
    """No observed RTTs → no deadline: the quorum simply waits (and the
    round still completes correctly)."""
    cluster = _cluster(trio, hedge=0.9)
    try:
        assert cluster._hedge_deadline([0]) is None
        admitted = cluster.invoke_quorum("add", (1, 2), k=1, indices=[0])
        assert admitted[0].value == 3
        # only the target was called: nobody was hedged to
        cluster.drain()
        assert cluster.stats_of(1).calls == 0 and cluster.stats_of(2).calls == 0
    finally:
        cluster.close()


def test_hedge_validation():
    with pytest.raises(ValueError, match="quantile"):
        AsyncClusterTransport([("127.0.0.1", 1)], hedge=1.5)
    assert AsyncClusterTransport([("127.0.0.1", 1)], hedge=True)._hedge_quantile == 0.95
    assert AsyncClusterTransport([("127.0.0.1", 1)], hedge=False)._hedge_quantile is None
    assert AsyncClusterTransport([("127.0.0.1", 1)], hedge=0.5)._hedge_quantile == 0.5


def test_cluster_close_is_idempotent_and_lazy(trio):
    """A transport that never served a sync call has no loop thread to
    close; one that did tears its loop down exactly once."""
    untouched = _cluster(trio)
    assert untouched._loop_thread is None
    untouched.close()  # nothing to do, nothing to crash
    used = _cluster(trio)
    assert used.invoke(0, "add", (1, 1)) == 2
    assert used._loop_thread is not None
    used.close()
    used.close()


# ----------------------------------------------------------------------
# QuantileSketch: the RTT estimator behind hedging
# ----------------------------------------------------------------------


def test_quantile_sketch_nearest_rank_and_window():
    sketch = QuantileSketch(window=4)
    assert sketch.quantile(0.5) is None
    for value in (1.0, 2.0, 3.0, 4.0):
        sketch.observe(value)
    assert sketch.quantile(0.5) == 2.0
    assert sketch.quantile(0.99) == 4.0
    # the window slides: old observations fall out
    sketch.observe(10.0)
    assert len(sketch) == 4
    assert sketch.quantile(0.99) == 10.0
    assert sketch.quantile(0.01) == 2.0  # 1.0 slid out
