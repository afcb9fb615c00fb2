"""The span tracer: nesting, cross-boundary stitching, export round trips."""

import json
import os
import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    TRACE_FORMAT,
    Tracer,
    get_tracer,
    load_jsonl,
    set_tracer,
    tracing,
)


def by_name(tracer):
    index = {}
    for span in tracer.spans():
        index.setdefault(span["name"], []).append(span)
    return index


# ---------------------------------------------------------------------------
# Nesting
# ---------------------------------------------------------------------------


def test_spans_nest_on_one_thread():
    tracer = Tracer()
    with tracer.span("outer", depth=0):
        with tracer.span("middle") as middle:
            middle.set("k", "v")
            with tracer.span("inner"):
                pass
    spans = {span["name"]: span for span in tracer.spans()}
    assert spans["outer"]["parent_id"] is None
    assert spans["middle"]["parent_id"] == spans["outer"]["span_id"]
    assert spans["inner"]["parent_id"] == spans["middle"]["span_id"]
    assert spans["outer"]["attrs"] == {"depth": 0}
    assert spans["middle"]["attrs"] == {"k": "v"}
    assert all(span["trace_id"] == tracer.trace_id for span in spans.values())
    assert all(span["dur"] >= 0 for span in spans.values())


def test_sibling_threads_do_not_nest_under_each_other():
    tracer = Tracer()
    barrier = threading.Barrier(2)

    def work(name):
        with tracer.span(name):
            barrier.wait(timeout=10)  # both spans open at once

    threads = [threading.Thread(target=work, args=(f"t{i}",)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    spans = tracer.spans()
    assert len(spans) == 2
    assert all(span["parent_id"] is None for span in spans)
    assert len({span["span_id"] for span in spans}) == 2


def test_exception_marks_span_and_propagates():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    (span,) = tracer.spans()
    assert span["attrs"]["error"] == "RuntimeError"


def test_detached_spans_never_enter_the_stack():
    tracer = Tracer()
    root = tracer.start_span("server.analyze", verb="analyze")
    with tracer.span("stacked"):
        pass
    tracer.finish(root)
    spans = {span["name"]: span for span in tracer.spans()}
    # The detached span was open the whole time but must not have become
    # the stacked span's parent (event-loop coroutines share one thread).
    assert spans["stacked"]["parent_id"] is None
    assert spans["server.analyze"]["parent_id"] is None
    assert spans["server.analyze"]["attrs"] == {"verb": "analyze"}


# ---------------------------------------------------------------------------
# Cross-thread / cross-process stitching
# ---------------------------------------------------------------------------


def test_attach_parents_under_a_foreign_span():
    tracer = Tracer()
    captured = {}

    def worker(context):
        with tracer.attach(context):
            with tracer.span("child"):
                pass

    with tracer.span("parent") as parent:
        captured = tracer.current_context()
        thread = threading.Thread(target=worker, args=(captured,))
        thread.start()
        thread.join()
    assert captured == {
        "format": TRACE_FORMAT,
        "trace_id": tracer.trace_id,
        "span_id": parent.span_id,
    }
    spans = {span["name"]: span for span in tracer.spans()}
    assert spans["child"]["parent_id"] == spans["parent"]["span_id"]


def test_attach_none_is_a_no_op():
    tracer = Tracer()
    assert tracer.current_context() is None  # nothing open
    with tracer.attach(None):
        with tracer.span("orphan"):
            pass
    (span,) = tracer.spans()
    assert span["parent_id"] is None


def test_adopt_merges_worker_spans_verbatim():
    parent = Tracer()
    with parent.span("procpool.fanout") as fanout:
        shipped = parent.current_context()
    # Simulate the worker process: its own tracer, same trace id, parented
    # under the shipped fan-out span -- exactly what procpool does.
    worker = Tracer(trace_id=shipped["trace_id"])
    with worker.attach(shipped):
        with worker.span("procpool.analyze_program", program="f"):
            pass
    assert parent.adopt(worker.spans()) == 1
    spans = {span["name"]: span for span in parent.spans()}
    assert spans["procpool.analyze_program"]["parent_id"] == fanout.span_id
    assert spans["procpool.analyze_program"]["trace_id"] == parent.trace_id


# ---------------------------------------------------------------------------
# Export round trips
# ---------------------------------------------------------------------------


def test_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.span("a", n=1):
        with tracer.span("b"):
            pass
    path = tracer.export_jsonl(str(tmp_path / "trace.jsonl"))
    header, spans = load_jsonl(path)
    assert header == {
        "format": TRACE_FORMAT,
        "trace_id": tracer.trace_id,
        "spans": 2,
    }
    assert spans == tracer.spans()


def test_load_jsonl_rejects_foreign_files(tmp_path):
    bogus = tmp_path / "nope.jsonl"
    bogus.write_text('{"format": "something-else"}\n')
    with pytest.raises(ValueError):
        load_jsonl(str(bogus))
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_jsonl(str(empty))


def test_chrome_trace_schema(tmp_path):
    tracer = Tracer()
    with tracer.span("parent"):
        with tracer.span("child", scc="f,g"):
            pass
    doc = tracer.chrome_trace()
    assert doc["otherData"] == {"format": TRACE_FORMAT, "trace_id": tracer.trace_id}
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    complete = [e for e in events if e["ph"] == "X"]
    assert [m["args"]["name"] for m in meta] == ["repro"]  # one pid: this one
    assert meta[0]["pid"] == os.getpid()
    assert len(complete) == 2
    for event in complete:
        assert event["cat"] == "repro"
        assert event["ts"] >= 0 and event["dur"] >= 0  # µs, relative origin
        assert event["args"]["span_id"]
    child = next(e for e in complete if e["name"] == "child")
    parent = next(e for e in complete if e["name"] == "parent")
    assert child["args"]["parent_id"] == parent["args"]["span_id"]
    assert child["args"]["scc"] == "f,g"
    # The file export is the same document, JSON-serializable end to end.
    path = tracer.export_chrome(str(tmp_path / "trace.json"))
    with open(path) as handle:
        assert json.load(handle)["otherData"]["trace_id"] == tracer.trace_id


# ---------------------------------------------------------------------------
# Installation scope and the null default
# ---------------------------------------------------------------------------


def test_tracing_scope_installs_and_restores():
    assert get_tracer() is NULL_TRACER
    with tracing() as tracer:
        assert get_tracer() is tracer
        with tracing(Tracer()) as nested:
            assert get_tracer() is nested
        assert get_tracer() is tracer
    assert get_tracer() is NULL_TRACER


def test_set_tracer_none_restores_null():
    previous = set_tracer(Tracer())
    assert previous is NULL_TRACER
    set_tracer(None)
    assert get_tracer() is NULL_TRACER


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    with NULL_TRACER.span("x", a=1) as span:
        span.set("b", 2)
    assert NULL_TRACER.spans() == []
    assert NULL_TRACER.current_context() is None
    assert NULL_TRACER.adopt([{"name": "x"}]) == 0
    with NULL_TRACER.attach({"span_id": "1.1"}):
        pass
    NULL_TRACER.finish(NULL_TRACER.start_span("y"))
    assert NULL_TRACER.spans() == []
