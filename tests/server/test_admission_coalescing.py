"""Queue-depth-aware admission control and single-flight coalescing, e2e.

Three behaviors over real sockets:

* a shed request gets its typed ``overloaded`` reply *promptly* while the
  gate is saturated -- shedding happens before queueing, so refusal latency
  is bounded by the event loop, not by queue depth;
* the gate's accounting (``_pending``/``_running`` and the
  ``server_gate_pending``/``server_gate_inflight`` gauges) survives failing
  pooled jobs: every counter returns to zero;
* N concurrent identical ``analyze`` submissions run exactly one solve and
  receive N byte-identical replies, counted by ``server_coalesced_total``.
"""

import asyncio
import json
import threading
import time

import pytest

from repro.server import AsyncTypeQueryClient, TypeQueryClient, TypeQueryError

from test_server_end_to_end import running_server


def _metric(snapshot, name):
    rows = snapshot["metrics"]
    return rows.get(name)


def _counter_value(snapshot, name):
    row = _metric(snapshot, name)
    return row["value"] if row else 0


# ---------------------------------------------------------------------------
# Shedding never waits in the queue
# ---------------------------------------------------------------------------


def test_shed_reply_is_prompt_while_gate_saturated():
    """Saturate the gate, age the running job past the wait cap, then submit:
    the ``overloaded`` reply must arrive promptly (the request never queued)
    and be counted in ``server_errors_total{code=overloaded}``."""
    release = threading.Event()
    entered = threading.Event()

    with running_server(
        max_concurrency=1, max_pending=64, max_queue_wait_seconds=0.2
    ) as (host, port, instance):
        original = instance._analyze_source

        def blocking_analyze(source, kind):
            entered.set()
            assert release.wait(timeout=60), "shed test never released"
            return original(source, kind)

        instance._analyze_source = blocking_analyze

        def submit_leader():
            with TypeQueryClient(host, port) as client:
                client.analyze("f0:\n    mov eax, 0\n    ret\n")

        leader = threading.Thread(target=submit_leader)
        leader.start()
        try:
            assert entered.wait(timeout=30), "leader never reached the gate"
            # Age the only running job past max_queue_wait_seconds so the
            # estimator predicts an over-cap wait for any newcomer.
            time.sleep(0.5)

            with TypeQueryClient(host, port) as observer:
                before = observer.metrics()
                start = time.perf_counter()
                with pytest.raises(TypeQueryError) as excinfo:
                    observer.analyze("g0:\n    mov eax, 9\n    ret\n")
                elapsed = time.perf_counter() - start
                assert excinfo.value.code == "overloaded"
                # Promptness: the refusal must not have sat behind the
                # stalled solve (which is still holding the gate right now).
                assert elapsed < 2.0
                assert not release.is_set()

                after = observer.metrics()
                key = 'server_errors_total{code="overloaded",verb="analyze"}'
                assert _counter_value(after, key) == _counter_value(before, key) + 1
                shed_key = 'server_shed_total{reason="queue_wait"}'
                assert _counter_value(after, shed_key) >= 1

                stats = observer.stats()
                assert stats["shed_total"] >= 1
                assert stats["gate"]["estimated_queue_wait_seconds"] > 0.2
        finally:
            release.set()
            leader.join(timeout=60)

        with TypeQueryClient(host, port) as observer:
            gate = observer.stats()["gate"]
            assert gate["pending"] == 0 and gate["inflight"] == 0


# ---------------------------------------------------------------------------
# Gate accounting on failure paths
# ---------------------------------------------------------------------------


def test_gate_gauges_drain_to_zero_after_failing_analyses():
    """Fill the gate with analyses whose pooled jobs raise; both gauges and
    the internal counters must return exactly to zero afterwards."""
    with running_server(max_concurrency=2) as (host, port, instance):

        def exploding_analyze(source, kind):
            raise RuntimeError("pooled job boom")

        instance._analyze_source = exploding_analyze
        errors = []

        def submit(index):
            with TypeQueryClient(host, port) as client:
                try:
                    client.analyze(f"f{index}:\n    mov eax, {index}\n    ret\n")
                except TypeQueryError as exc:
                    errors.append(exc.code)

        threads = [threading.Thread(target=submit, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)

        assert len(errors) == 6
        assert set(errors) == {"internal_error"}

        with TypeQueryClient(host, port) as observer:
            stats = observer.stats()
            assert stats["gate"]["pending"] == 0
            assert stats["gate"]["inflight"] == 0
            snapshot = observer.metrics()
            assert _metric(snapshot, "server_gate_pending")["value"] == 0
            assert _metric(snapshot, "server_gate_inflight")["value"] == 0
        assert instance._pending == 0 and instance._running == 0
        assert not instance._running_started
        # Failures must not feed the service-time estimate.
        assert instance._service_ewma == 0.0


def test_parse_errors_also_drain_the_gate():
    """The ordinary client-error path (unparseable source) exercises the same
    exactly-once decrements without monkeypatching."""
    with running_server(max_concurrency=2) as (host, port, instance):
        with TypeQueryClient(host, port) as client:
            for index in range(4):
                with pytest.raises(TypeQueryError) as excinfo:
                    client.analyze(f"this is not assembly {index} !!!")
                assert excinfo.value.code == "parse_error"
            stats = client.stats()
            assert stats["gate"]["pending"] == 0
            assert stats["gate"]["inflight"] == 0
        assert instance._pending == 0 and instance._running == 0


# ---------------------------------------------------------------------------
# Single-flight coalescing
# ---------------------------------------------------------------------------


def test_coalescing_one_solve_byte_identical_replies():
    """N concurrent identical analyzes -> exactly one solve, N byte-identical
    replies, N-1 counted by ``server_coalesced_total``."""
    clients = 8
    solves = []

    with running_server() as (host, port, instance):
        original = instance._analyze_source

        def counting_analyze(source, kind):
            solves.append(source)
            # Hold the flight open long enough for every follower to join it.
            time.sleep(0.75)
            return original(source, kind)

        instance._analyze_source = counting_analyze
        source = "shared:\n    mov eax, 42\n    ret\n"

        with TypeQueryClient(host, port) as observer:
            before = observer.metrics()

        async def submit():
            client = await AsyncTypeQueryClient.connect(host, port, connect_retries=5)
            try:
                return await client.analyze(source, full=True)
            finally:
                await client.aclose()

        async def fan_out():
            return await asyncio.gather(*(submit() for _ in range(clients)))

        results = asyncio.run(fan_out())

        assert len(solves) == 1, "coalescing must run exactly one solve"
        assert instance.registry.admits == 1
        payloads = {json.dumps(r, sort_keys=True) for r in results}
        assert len(payloads) == 1, "coalesced replies must be byte-identical"
        assert all(r["cached"] is False for r in results)
        assert instance.coalesced_total == clients - 1

        with TypeQueryClient(host, port) as observer:
            after = observer.metrics()
            delta = _counter_value(after, "server_coalesced_total") - _counter_value(
                before, "server_coalesced_total"
            )
            assert delta == clients - 1
            assert observer.stats()["coalesced_total"] == clients - 1
