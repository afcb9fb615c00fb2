"""The ``metrics`` verb over a real socket, and the admission-gate gauges.

Each server reads its own counters, so two servers in one process never see
each other's requests.
"""

import json
import socket
import threading
import time

import pytest
from test_server_end_to_end import running_server

from repro.gen import GenProfile, generate_program
from repro.obs import METRICS_FORMAT
from repro.server import TypeQueryClient, TypeQueryError


def metric(snapshot, key):
    return snapshot["metrics"].get(key)


def counter_value(snapshot, key):
    entry = metric(snapshot, key)
    return entry["value"] if entry else 0.0


# ---------------------------------------------------------------------------
# The verb itself
# ---------------------------------------------------------------------------


def test_metrics_verb_reflects_served_requests():
    profile = GenProfile.smoke().scaled(4 / 6)
    source = str(generate_program(21, profile, name="metrics_smoke").compile().program)
    with running_server() as (host, port, _):
        with TypeQueryClient(host, port) as client:
            before = client.metrics()
            assert before["format"] == METRICS_FORMAT
            result = client.analyze(source)
            client.query(result["program_id"])
            after = client.metrics()

    analyze_key = 'server_requests_total{verb="analyze"}'
    query_key = 'server_requests_total{verb="query"}'
    assert counter_value(after, analyze_key) == counter_value(before, analyze_key) + 1
    assert counter_value(after, query_key) == counter_value(before, query_key) + 1

    latency = metric(after, 'server_request_seconds{verb="analyze"}')
    assert latency["type"] == "histogram"
    assert latency["count"] >= 1
    assert latency["p50"] is not None and latency["p50"] >= 0
    assert {"p50", "p95", "p99"} <= set(latency)
    assert latency["buckets"][-1]["le"] == "+inf"

    # The analysis itself fed the solver fold-in and cache counters.
    assert counter_value(after, "solver_sccs_solved_total") > counter_value(
        before, "solver_sccs_solved_total"
    )


def test_metrics_verb_prometheus_exposition():
    profile = GenProfile.smoke().scaled(3 / 6)
    source = str(generate_program(22, profile, name="metrics_prom").compile().program)
    with running_server() as (host, port, _):
        with TypeQueryClient(host, port) as client:
            client.analyze(source)
            reply = client.metrics(format="prometheus")
    assert reply["format"] == "prometheus"
    text = reply["text"]
    assert "# TYPE server_requests_total counter" in text
    assert 'server_requests_total{verb="analyze"}' in text
    assert 'server_request_seconds_bucket{verb="analyze",le="+Inf"}' in text
    assert "# TYPE server_gate_pending gauge" in text


def test_metrics_verb_rejects_unknown_format():
    with running_server() as (host, port, _):
        with TypeQueryClient(host, port) as client:
            with pytest.raises(TypeQueryError) as excinfo:
                client.metrics(format="xml")
            assert excinfo.value.code == "invalid_params"
            with pytest.raises(TypeQueryError) as excinfo:
                client.request("metrics", {"format": 7})
            assert excinfo.value.code == "invalid_params"


def test_metrics_verb_counts_errors_by_code():
    with running_server() as (host, port, _):
        with TypeQueryClient(host, port) as client:
            before = client.metrics()
            with pytest.raises(TypeQueryError):
                client.query("no-such-program-id")
            after = client.metrics()
    key = 'server_errors_total{code="unknown_program",verb="query"}'
    assert counter_value(after, key) == counter_value(before, key) + 1


def family_total(snapshot, name):
    """Sum of every row of one counter family (``name`` or ``name{...}``)."""
    return sum(
        entry["value"]
        for key, entry in snapshot["metrics"].items()
        if key == name or key.startswith(name + "{")
    )


def test_stats_totals_equal_the_metric_rows():
    """``stats`` and ``metrics`` count each request, error and shed once.

    An oversized line is answered ``too_large`` before its verb is known, so
    it lands in ``server_errors_total{verb="unknown",code="too_large"}``.
    """
    with running_server(max_request_bytes=4096) as (host, port, _):
        with socket.create_connection((host, port), timeout=30) as sock:
            handle = sock.makefile("rwb")
            handle.write(b'{"v": 1, "id": 1, "op": "ping", "pad": "' + b"x" * 8192 + b'"}\n')
            handle.flush()
            assert json.loads(handle.readline())["error"]["code"] == "too_large"
        with TypeQueryClient(host, port) as client:
            with pytest.raises(TypeQueryError):
                client.query("no-such-program-id")
            client.analyze("f:\n    mov eax, 1\n    ret\n")
            stats = client.stats()
            snap = client.metrics()

    too_large = 'server_errors_total{code="too_large",verb="unknown"}'
    assert counter_value(snap, too_large) == 1
    assert stats["errors_returned"] == family_total(snap, "server_errors_total") == 2
    # The snapshot also counts the ``stats`` request answered before it.
    assert stats["requests_served"] + 1 == family_total(snap, "server_requests_total") == 2
    assert stats["shed_total"] == family_total(snap, "server_shed_total") == 0


def test_metrics_are_per_server():
    with running_server() as (host_a, port_a, _), running_server() as (host_b, port_b, _):
        with TypeQueryClient(host_a, port_a) as client:
            client.analyze("f:\n    mov eax, 1\n    ret\n")
            assert counter_value(client.metrics(), 'server_requests_total{verb="analyze"}') == 1
        with TypeQueryClient(host_b, port_b) as client:
            other = client.metrics()
    assert counter_value(other, 'server_requests_total{verb="analyze"}') == 0
    assert counter_value(other, "store_misses_total") == 0
    assert counter_value(other, "solver_sccs_solved_total") == 0


# ---------------------------------------------------------------------------
# Gate visibility: the stats verb's gate object and the gauges move together
# ---------------------------------------------------------------------------


def test_gate_depth_visible_when_filled():
    """Fill the admission gate and watch pending/inflight from outside.

    One slot, three pending: block the only analysis thread on an event,
    submit three *distinct* programs (dedup would collapse identical ones),
    and poll ``stats`` until the gate shows 1 running + 3 admitted.  The
    fourth submission must bounce with ``overloaded``; after release the
    gate must drain to zero.
    """
    release = threading.Event()

    # max_queue_wait_seconds=None isolates the static max_pending cap: this
    # test wants the fourth submission to bounce on depth, not on the
    # wait-estimate heuristic (covered in test_admission_coalescing.py).
    with running_server(
        max_concurrency=1, max_pending=3, max_queue_wait_seconds=None
    ) as (host, port, instance):
        original = instance._analyze_source

        def blocking_analyze(source, kind):
            assert release.wait(timeout=60), "gate test never released"
            return original(source, kind)

        instance._analyze_source = blocking_analyze
        sources = [f"f{i}:\n    mov eax, {i}\n    ret\n" for i in range(3)]
        results = []

        def submit(source):
            with TypeQueryClient(host, port) as client:
                results.append(client.analyze(source)["program_id"])

        threads = [
            threading.Thread(target=submit, args=(source,)) for source in sources
        ]
        for thread in threads:
            thread.start()

        try:
            with TypeQueryClient(host, port) as observer:
                deadline = time.monotonic() + 30
                gate = {}
                while time.monotonic() < deadline:
                    gate = observer.stats()["gate"]
                    if gate["pending"] == 3 and gate["inflight"] == 1:
                        break
                    time.sleep(0.02)
                assert gate["pending"] == 3
                assert gate["inflight"] == 1
                assert gate["max_concurrency"] == 1
                assert gate["max_pending"] == 3
                assert gate["max_queue_wait_seconds"] is None
                # Queue-wait visibility: with the only slot stalled and two
                # jobs queued, the estimate must be strictly positive.
                assert gate["estimated_queue_wait_seconds"] > 0.0

                snapshot = observer.metrics()
                assert metric(snapshot, "server_gate_pending")["value"] == 3
                assert metric(snapshot, "server_gate_inflight")["value"] == 1

                with pytest.raises(TypeQueryError) as excinfo:
                    observer.analyze("g0:\n    mov eax, 9\n    ret\n")
                assert excinfo.value.code == "overloaded"
        finally:
            release.set()
            for thread in threads:
                thread.join(timeout=60)

        assert len(results) == 3 and len(set(results)) == 3
        with TypeQueryClient(host, port) as observer:
            gate = observer.stats()["gate"]
            assert gate["pending"] == 0 and gate["inflight"] == 0
            snapshot = observer.metrics()
            assert metric(snapshot, "server_gate_pending")["value"] == 0
            assert metric(snapshot, "server_gate_inflight")["value"] == 0
