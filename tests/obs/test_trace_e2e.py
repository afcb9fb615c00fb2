"""End-to-end tracing: one exported trace covering driver and worker processes.

Two scenarios: a serial ``--trace-out`` run through the CLI, and a
two-program corpus fanned out to worker processes, exported as a single
Chrome trace in which each worker's per-program spans are parented under the
driver's fan-out span, on their own named process tracks.
"""

import json
import os

from repro import ServiceConfig, analyze_corpus
from repro.__main__ import main as cli_main
from repro.obs import TRACE_FORMAT, Tracer, load_jsonl, tracing


def _generated_corpus():
    """Two generated mini-C programs, compiled: the smallest fan-out."""
    from repro.gen import generate_corpus, named_profiles

    return {
        program.name: program.compile().program
        for program in generate_corpus(2, 99, named_profiles()["smoke"])
    }


def test_cli_serial_trace_jsonl_round_trip(tmp_path, capsys):
    source = tmp_path / "tiny.s"
    source.write_text("main:\n    mov eax, 1\n    ret\n")
    out = tmp_path / "trace.jsonl"
    assert cli_main(["analyze", str(source), "--trace-out", str(out)]) == 0
    header, spans = load_jsonl(str(out))
    assert header["format"] == TRACE_FORMAT
    assert header["spans"] == len(spans) > 0
    names = {span["name"] for span in spans}
    assert {"service.analyze", "service.parse", "service.constraint_gen",
            "service.solve", "solver.solve_scc", "solver.saturate"} <= names
    # Everything below the root parents into the same single trace.
    ids = {span["span_id"] for span in spans}
    root = next(s for s in spans if s["name"] == "service.analyze")
    assert root["parent_id"] is None
    assert all(
        span["parent_id"] in ids for span in spans if span is not root
    )


def test_corpus_fanout_trace_stitches_worker_spans(tmp_path):
    corpus = _generated_corpus()
    tracer = Tracer()
    with tracing(tracer):
        report = analyze_corpus(
            corpus, config=ServiceConfig(executor="processes", max_workers=2)
        )
    assert all(entry.types.stats["executor"] == "processes" for entry in report)
    out = tmp_path / "trace.json"
    tracer.export_chrome(str(out))
    with open(out) as handle:
        doc = json.load(handle)
    assert doc["otherData"]["format"] == TRACE_FORMAT

    events = doc["traceEvents"]
    complete = [e for e in events if e["ph"] == "X"]
    meta = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}

    # At least two process tracks: the driver plus >= 1 worker, named apart.
    driver_pid = os.getpid()
    assert meta[driver_pid] == "repro"
    worker_pids = {pid for pid, name in meta.items() if name == f"repro-worker-{pid}"}
    assert worker_pids, f"no worker tracks in {sorted(meta.values())}"

    # Every worker-side program span is parented under the driver's fan-out span.
    fanouts = {
        e["args"]["span_id"]: e
        for e in complete
        if e["name"] == "procpool.fanout"
    }
    assert len(fanouts) == 1 and all(e["pid"] == driver_pid for e in fanouts.values())
    worker_programs = [e for e in complete if e["name"] == "procpool.analyze_program"]
    assert sorted(e["args"]["program"] for e in worker_programs) == sorted(corpus)
    for event in worker_programs:
        assert event["pid"] in worker_pids
        assert event["args"]["parent_id"] in fanouts, (
            f"worker span {event['args']['span_id']} not parented under the fan-out"
        )

    # Worker-local solver stage spans rode along too, nested under the program.
    program_ids = {e["args"]["span_id"] for e in worker_programs}
    worker_stage = [
        e
        for e in complete
        if e["pid"] in worker_pids and e["name"] == "solver.solve_scc"
    ]
    assert worker_stage
    assert all(e["args"]["parent_id"] in program_ids for e in worker_stage)
