"""Tests for the scatter-gather cluster transport and CallStats merging."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rmi.cluster import (
    ClusterTransport,
    InjectedFaultError,
    ServerDownError,
)
from repro.rmi.stats import CallStats


class _Echo:
    def __init__(self, tag):
        self.tag = tag
        self.calls = 0

    def whoami(self):
        self.calls += 1
        return self.tag

    def double(self, value):
        return 2 * value

    def fail(self):
        raise RuntimeError("server-side failure")


def _cluster(n=3, **kwargs):
    return ClusterTransport([_Echo(i) for i in range(n)], **kwargs)


class TestClusterInvocation:
    def test_invoke_routes_to_one_server(self):
        cluster = _cluster()
        assert cluster.invoke(1, "whoami") == 1
        assert cluster.invoke(2, "double", (21,)) == 42
        assert cluster.stats_of(1).calls == 1
        assert cluster.stats_of(0).calls == 0

    def test_invoke_all_scatter_gathers(self):
        cluster = _cluster()
        replies = cluster.invoke_all("whoami")
        assert [reply.server for reply in replies] == [0, 1, 2]
        assert [reply.value for reply in replies] == [0, 1, 2]
        assert all(reply.ok for reply in replies)

    def test_invoke_all_subset(self):
        cluster = _cluster(4)
        replies = cluster.invoke_all("whoami", indices=[3, 1])
        assert [(reply.server, reply.value) for reply in replies] == [(3, 3), (1, 1)]

    def test_invoke_all_captures_failures_without_aborting(self):
        cluster = _cluster()
        cluster.set_down(1)
        replies = cluster.invoke_all("whoami")
        assert replies[0].ok and replies[2].ok
        assert not replies[1].ok
        assert isinstance(replies[1].error, ServerDownError)

    def test_out_of_range_index_rejected(self):
        cluster = _cluster()
        with pytest.raises(IndexError):
            cluster.invoke(3, "whoami")
        with pytest.raises(IndexError):
            cluster.set_down(-1)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            ClusterTransport([])

    def test_every_call_runs_in_the_callers_thread(self):
        """No scatter pool: a round's calls execute one after the other on
        the calling thread, in target order, whatever ``concurrency`` says."""
        seen = []

        class _Recorder:
            def __init__(self, tag):
                self.tag = tag

            def whoami(self):
                seen.append((self.tag, threading.current_thread()))
                return self.tag

        for concurrency in (True, False):
            seen.clear()
            cluster = ClusterTransport(
                [_Recorder(i) for i in range(4)], concurrency=concurrency
            )
            cluster.invoke_all("whoami")
            cluster.invoke_quorum("whoami", k=2)
            caller = threading.current_thread()
            assert [tag for tag, _ in seen] == [0, 1, 2, 3] * 2
            assert all(thread is caller for _, thread in seen)


class TestFaultInjection:
    def test_down_server_raises_and_records_error(self):
        cluster = _cluster(per_call_latency=0.5)
        cluster.set_down(0)
        with pytest.raises(ServerDownError):
            cluster.invoke(0, "whoami")
        stats = cluster.stats_of(0)
        assert stats.calls == 1 and stats.errors == 1
        assert stats.errors_by_method == {"whoami": 1}
        assert stats.simulated_latency == pytest.approx(0.5)
        assert cluster.live_servers() == [1, 2]
        cluster.set_down(0, down=False)
        assert cluster.invoke(0, "whoami") == 0

    def test_injected_faults_are_transient(self):
        cluster = _cluster()
        cluster.inject_faults(2, count=2)
        for _ in range(2):
            with pytest.raises(InjectedFaultError):
                cluster.invoke(2, "whoami")
        assert cluster.invoke(2, "whoami") == 2
        assert cluster.stats_of(2).errors == 2

    def test_server_side_exception_propagates_and_is_recorded(self):
        cluster = _cluster()
        with pytest.raises(RuntimeError):
            cluster.invoke(0, "fail")
        assert cluster.stats_of(0).errors == 1

    def test_fault_budget_is_atomic_under_concurrent_invokes(self):
        """The read-then-decrement of an injected-fault budget must never
        hand the same budget slot to two racing invocations."""
        attempts, budget = 64, 17
        cluster = _cluster(n=1)
        cluster.inject_faults(0, count=budget)

        def hit(_):
            try:
                return cluster.invoke(0, "whoami")
            except InjectedFaultError:
                return "fault"

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(hit, range(attempts)))
        assert outcomes.count("fault") == budget
        assert outcomes.count(0) == attempts - budget
        stats = cluster.stats_of(0)
        assert stats.calls == attempts and stats.errors == budget
        # the budget is spent: further invokes succeed
        assert cluster.invoke(0, "whoami") == 0


class TestLatencyJitter:
    def test_jitter_spreads_latencies_deterministically(self):
        a = _cluster(per_call_latency=1.0, latency_jitter=0.5, jitter_seed=7)
        b = _cluster(per_call_latency=1.0, latency_jitter=0.5, jitter_seed=7)
        latencies = [transport.per_call_latency for transport in a.transports]
        assert latencies == [transport.per_call_latency for transport in b.transports]
        assert all(1.0 <= latency < 1.5 for latency in latencies)
        assert len(set(latencies)) > 1

    def test_no_jitter_by_default(self):
        cluster = _cluster(per_call_latency=1.0)
        assert all(t.per_call_latency == 1.0 for t in cluster.transports)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            _cluster(latency_jitter=-0.1)


class TestAggregation:
    def test_aggregate_stats_merges_servers(self):
        cluster = _cluster()
        cluster.invoke_all("whoami")
        cluster.invoke(0, "double", (1,))
        cluster.set_down(2)
        cluster.invoke_all("whoami")
        cluster.count_query()
        merged = cluster.aggregate_stats()
        assert merged.calls == 7
        assert merged.errors == 1
        # per-server traces cover the same query: max, not sum
        assert merged.queries == 1
        assert merged.calls_by_method == {"whoami": 6, "double": 1}
        assert merged.errors_by_method == {"whoami": 1}
        assert merged.calls_per_query == 7.0
        per_server = cluster.per_server_stats
        assert [stats.queries for stats in per_server] == [1, 1, 1]
        assert per_server[0].calls == 3

    def test_reset_stats_zeroes_every_server(self):
        cluster = _cluster()
        cluster.invoke_all("whoami")
        cluster.reset_stats()
        assert cluster.aggregate_stats().calls == 0


class TestCallStatsMerge:
    def _trace(self, method, calls, req, resp, errors=0, queries=0, backend=None):
        stats = CallStats(backend=backend)
        for index in range(calls):
            stats.record(method, req, resp, 0.25, error=index < errors)
        stats.count_query(queries)
        return stats

    def test_merge_sums_counters_and_breakdowns(self):
        a = self._trace("evaluate", calls=4, req=10, resp=20, errors=1, queries=2)
        b = self._trace("fetch_share", calls=2, req=5, resp=50, queries=1)
        b.record("evaluate", 10, 20, 0.25)
        result = a.merge(b)
        assert result is a
        assert a.calls == 7
        assert a.errors == 1
        assert a.queries == 3
        assert a.bytes_sent == 4 * 10 + 2 * 5 + 10
        assert a.bytes_received == 4 * 20 + 2 * 50 + 20
        assert a.calls_by_method == {"evaluate": 5, "fetch_share": 2}
        assert a.errors_by_method == {"evaluate": 1}
        assert a.bytes_by_method == {"evaluate": 150, "fetch_share": 110}
        assert a.simulated_latency == pytest.approx(7 * 0.25)

    def test_merged_per_query_figures(self):
        a = self._trace("evaluate", calls=4, req=10, resp=10, queries=2)
        a.merge(self._trace("evaluate", calls=2, req=10, resp=10, queries=1))
        assert a.calls_per_query == pytest.approx(2.0)
        assert a.bytes_per_query == pytest.approx(40.0)

    def test_merge_backend_semantics(self):
        a = self._trace("m", 1, 1, 1, backend=None)
        a.merge(self._trace("m", 1, 1, 1, backend="table"))
        assert a.backend == "table"
        a.merge(self._trace("m", 1, 1, 1, backend="table"))
        assert a.backend == "table"
        a.merge(self._trace("m", 1, 1, 1, backend="prime"))
        assert a.backend == "mixed"

    def test_snapshot_contains_per_method_breakdown(self):
        stats = CallStats()
        stats.record("evaluate", 10, 30, 0.0)
        stats.record("evaluate", 10, 30, 0.0, error=True)
        stats.record("fetch_share", 5, 100, 0.0)
        snapshot = stats.snapshot()
        assert snapshot["by_method"] == {
            "evaluate": {"calls": 2, "errors": 1, "bytes": 80},
            "fetch_share": {"calls": 1, "errors": 0, "bytes": 105},
        }
        assert stats.per_method()["evaluate"]["calls"] == 2

    def test_reset_clears_per_method_bytes(self):
        stats = CallStats()
        stats.record("evaluate", 10, 30, 0.0)
        stats.reset()
        assert stats.bytes_by_method == {}
        assert stats.per_method() == {}

    def test_record_is_atomic_under_concurrent_writers(self):
        stats = CallStats()
        per_thread, threads = 500, 8

        def writer():
            for _ in range(per_thread):
                stats.record("evaluate", 3, 5, 0.5, error=True)

        workers = [threading.Thread(target=writer) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        total = per_thread * threads
        assert stats.calls == total
        assert stats.errors == total
        assert stats.bytes_sent == 3 * total
        assert stats.bytes_received == 5 * total
        assert stats.calls_by_method == {"evaluate": total}
        assert stats.simulated_latency == pytest.approx(0.5 * total)

    def test_makespan_gauge_merged_snapshot_and_reset(self):
        stats = CallStats(makespan=2.0)
        stats.merge(CallStats(makespan=3.0))
        assert stats.makespan == pytest.approx(5.0)
        assert stats.snapshot()["makespan"] == pytest.approx(5.0)
        stats.reset()
        assert stats.makespan == 0.0


def _arrival_order(latencies):
    """Expected admission order: by (modeled latency, server index)."""
    return sorted(range(len(latencies)), key=lambda index: (latencies[index], index))


class TestInvokeQuorum:
    """First-k quorum reads admit replies in deterministic modeled order."""

    def _quorum_cluster(self, latencies, concurrency=True, **kwargs):
        return ClusterTransport(
            [_Echo(i) for i in range(len(latencies))],
            per_server_latency=list(latencies),
            concurrency=concurrency,
            **kwargs,
        )

    def test_fast_k_returns_before_the_straggler(self):
        cluster = self._quorum_cluster([3.0, 1.0, 2.0])
        replies = cluster.invoke_quorum("whoami", k=2)
        assert [(r.server, r.value) for r in replies] == [(1, 1), (2, 2)]
        assert cluster.makespan() == pytest.approx(2.0)
        # the straggler was still contacted; its stats land after the drain
        cluster.drain()
        assert [stats.calls for stats in cluster.per_server_stats] == [1, 1, 1]

    def test_slow_primary_is_overtaken(self):
        cluster = self._quorum_cluster([10.0, 1.0, 2.0])
        replies = cluster.invoke_quorum("whoami", k=1)
        assert [(r.server, r.value) for r in replies] == [(1, 1)]
        assert cluster.makespan() == pytest.approx(1.0)

    def test_kth_reply_is_an_error_continues_to_next_success(self):
        cluster = self._quorum_cluster([1.0, 2.0, 3.0])
        cluster.inject_faults(1)  # the modeled second arrival fails
        replies = cluster.invoke_quorum("whoami", k=2)
        assert [reply.server for reply in replies] == [0, 1, 2]
        assert [reply.ok for reply in replies] == [True, False, True]
        assert isinstance(replies[1].error, InjectedFaultError)
        assert cluster.makespan() == pytest.approx(3.0)

    def test_all_fail_admits_every_reply(self):
        cluster = self._quorum_cluster([1.0, 2.0, 3.0])
        for index in range(3):
            cluster.set_down(index)
        replies = cluster.invoke_quorum("whoami", k=2)
        assert [reply.server for reply in replies] == [0, 1, 2]
        assert not any(reply.ok for reply in replies)
        assert all(isinstance(reply.error, ServerDownError) for reply in replies)

    def test_quorum_size_validated(self):
        cluster = self._quorum_cluster([1.0, 2.0])
        with pytest.raises(ValueError):
            cluster.invoke_quorum("whoami", k=0)

    def test_accounting_readers_drain_stragglers_implicitly(self):
        """stats_of / per_server_stats settle in-flight straggler calls, so
        public accounting never depends on thread timing."""
        cluster = self._quorum_cluster([1.0, 2.0, 50.0])
        cluster.invoke_quorum("whoami", k=2)
        assert cluster.stats_of(2).calls == 1
        assert [stats.calls for stats in cluster.per_server_stats] == [1, 1, 1]

    def test_fault_mutation_drains_the_previous_rounds_stragglers(self):
        """A fault injected between rounds must hit the *next* round's call,
        never race the straggler of the round that already returned."""
        cluster = self._quorum_cluster([1.0, 2.0, 50.0])
        cluster.invoke_quorum("whoami", k=2)  # server 2 drains in background
        cluster.inject_faults(2, count=1)
        replies = cluster.invoke_quorum("whoami", k=3)
        by_server = {reply.server: reply for reply in replies}
        # the straggler of round 1 was a success; the new round's call to
        # server 2 deterministically consumed the injected fault
        assert isinstance(by_server[2].error, InjectedFaultError)
        stats = cluster.stats_of(2)
        assert stats.calls == 2 and stats.errors == 1

    def test_close_is_idempotent_and_keeps_the_transport_usable(self):
        cluster = self._quorum_cluster([1.0, 2.0, 3.0])
        assert cluster.invoke_quorum("whoami", k=1)[0].value == 0
        cluster.close()
        cluster.close()
        replies = cluster.invoke_all("whoami")
        assert [reply.value for reply in replies] == [0, 1, 2]

    @settings(max_examples=60, deadline=None)
    @given(
        latencies=st.lists(
            st.floats(min_value=0.0, max_value=8.0), min_size=2, max_size=6, unique=True
        ),
        k=st.integers(min_value=1, max_value=6),
        failures=st.sets(st.integers(min_value=0, max_value=5)),
        data=st.data(),
    )
    def test_every_completion_order_matches_the_sequential_oracle(
        self, latencies, k, failures, data
    ):
        """Drive all orderings with injected latencies/faults: the concurrent
        gather must admit exactly the prefix the sequential path computes."""
        n = len(latencies)
        k = min(k, n)
        failures = {index for index in failures if index < n}
        down = data.draw(st.sets(st.sampled_from(range(n))), label="down")

        def build(concurrency):
            cluster = self._quorum_cluster(latencies, concurrency=concurrency)
            for index in failures:
                cluster.inject_faults(index)
            for index in down:
                cluster.set_down(index)
            return cluster

        concurrent, sequential = build(True), build(False)
        observed = concurrent.invoke_quorum("whoami", k=k)
        oracle = sequential.invoke_quorum("whoami", k=k)
        as_tuples = lambda replies: [
            (reply.server, reply.ok, reply.latency) for reply in replies
        ]
        assert as_tuples(observed) == as_tuples(oracle)
        # the admitted sequence is the arrival-order prefix up to k successes
        order = _arrival_order(latencies)
        prefix = []
        successes = 0
        for index in order:
            prefix.append(index)
            if index not in failures and index not in down:
                successes += 1
                if successes >= k:
                    break
        assert [reply.server for reply in observed] == prefix
        # every server was contacted in both modes, early return or not
        concurrent.drain()
        assert [stats.calls for stats in concurrent.per_server_stats] == [
            stats.calls for stats in sequential.per_server_stats
        ]

    def test_large_straggler_backlog_admits_the_exact_prefix(self):
        """Regression: a quorum over hundreds of servers — most of them
        stragglers buffered behind the modeled-arrival barrier, with heavy
        latency ties — still admits exactly the sequential-oracle prefix.
        (The buffer drain used to be quadratic in the backlog size; this
        shape keeps it honest on both correctness and complexity.)"""
        import random

        rng = random.Random(20050905)
        n = 300
        latencies = [rng.choice([0.001, 0.002, 5.0, 5.0, 40.0]) for _ in range(n)]
        k = 5
        cluster = self._quorum_cluster(latencies)
        admitted = cluster.invoke_quorum("whoami", k=k)
        order = _arrival_order(latencies)
        assert [reply.server for reply in admitted] == order[: len(admitted)]
        assert sum(1 for reply in admitted if reply.ok) == k
        # every straggler still executed; its stats land after the drain
        cluster.drain()
        assert all(stats.calls == 1 for stats in cluster.per_server_stats)
        cluster.close()


class TestMakespanClock:
    def test_concurrent_round_costs_the_critical_path(self):
        concurrent = _cluster(per_call_latency=1.0, concurrency=True)
        sequential = _cluster(per_call_latency=1.0, concurrency=False)
        concurrent.invoke_all("whoami")
        sequential.invoke_all("whoami")
        assert concurrent.makespan() == pytest.approx(1.0)
        assert sequential.makespan() == pytest.approx(3.0)
        # per-server busy time is identical either way
        assert sum(s.simulated_latency for s in concurrent.per_server_stats) == pytest.approx(
            sum(s.simulated_latency for s in sequential.per_server_stats)
        )

    def test_single_invokes_accumulate_sequentially(self):
        cluster = _cluster(per_call_latency=0.5)
        cluster.invoke(0, "whoami")
        cluster.invoke(1, "whoami")
        assert cluster.makespan() == pytest.approx(1.0)

    def test_overlap_rounds_share_their_start_time(self):
        cluster = _cluster(per_call_latency=2.0, concurrency=True)
        cluster.invoke_all("whoami")  # round ends at 2.0
        cluster.invoke(0, "whoami", overlap=True)  # starts at 0.0, ends at 2.0
        assert cluster.makespan() == pytest.approx(2.0)
        cluster.invoke(1, "whoami")  # sequential again: 2.0 → 4.0
        assert cluster.makespan() == pytest.approx(4.0)

    def test_overlap_longer_than_its_peer_extends_the_clock(self):
        cluster = ClusterTransport(
            [_Echo(i) for i in range(2)], per_server_latency=[1.0, 5.0]
        )
        cluster.invoke(0, "whoami")  # clock 1.0
        cluster.invoke(1, "whoami", overlap=True)  # starts at 0.0, ends 5.0
        assert cluster.makespan() == pytest.approx(5.0)

    def test_round_overhead_charged_per_round(self):
        cluster = _cluster(per_call_latency=1.0, round_overhead=0.25)
        cluster.invoke_all("whoami")
        assert cluster.makespan() == pytest.approx(1.25)

    def test_aggregate_stats_carries_the_cluster_makespan(self):
        cluster = _cluster(per_call_latency=1.0, concurrency=True)
        cluster.invoke_all("whoami")
        merged = cluster.aggregate_stats()
        assert merged.makespan == pytest.approx(1.0)
        assert merged.simulated_latency == pytest.approx(3.0)

    def test_reset_stats_zeroes_the_clock(self):
        cluster = _cluster(per_call_latency=1.0)
        cluster.invoke_all("whoami")
        cluster.reset_stats()
        assert cluster.makespan() == 0.0

    def test_per_server_latency_validated(self):
        with pytest.raises(ValueError):
            ClusterTransport([_Echo(0)], per_server_latency=[1.0, 2.0])
        with pytest.raises(ValueError):
            _cluster(round_overhead=-1.0)
