"""The benchmark command: one workload, one seed, host-normalized metrics.

    python3 perfbench/run.py --workload cold-corpus --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the program from its
``src/`` directory (nothing installed is ever used).  With ``--trace 0`` it
measures the end-to-end metrics with tracing off; with ``--trace 1`` it runs
an untraced pass, a traced pass whose in-memory spans give the per-layer
ledger, and a counted pass for ``py_calls``.  Every timing is divided by the
calibration kernel time next to it and multiplied by the kernel's reference
time (``calib.REFERENCE_MS``), so it reads as time at reference host speed.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 120, "failed": 0, "metrics": {...}}

Full results, the span JSONL and the ledger table go to ``perfbench/out/``.
The exit code is 1 when any answer was wrong or refused, 2 when the checkout
has no program to run.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import gc
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: end-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "success_rate": "ratio",
    "accuracy.conservative": "ratio",
    "accuracy.pointer": "ratio",
    "accuracy.const_recall": "ratio",
    "accuracy.distance": "distance",
}

#: per-layer metrics: name -> unit (timings are per-op p50, normalized).
PER_LAYER = {
    "ir.parse_ms": "ms",
    "ir.parse.py_calls": "count",
    "typegen.constraints_ms": "ms",
    "typegen.constraints.py_calls": "count",
    "typegen.constraints": "count",
    "core.solve_ms": "ms",
    "core.graph_ms": "ms",
    "core.shapes_ms": "ms",
    "core.saturate_ms": "ms",
    "core.simplify_ms": "ms",
    "core.sketch_ms": "ms",
    "core.solve.py_calls": "count",
    "core.sccs_solved": "count",
    "pipeline.display_ms": "ms",
    "pipeline.to_json_ms": "ms",
    "pipeline.py_calls": "count",
    "service.store_get_ms": "ms",
    "service.store_put_ms": "ms",
    "service.store_hit_ratio": "ratio",
    "service.cone_procedures": "count",
    "service.solved_procedures": "count",
    "service.regen_waste_ratio": "ratio",
    "server.query_ms": "ms",
    "server.analyze_hit_ms": "ms",
    "server.analyze_new_ms": "ms",
    "server.session_edit_ms": "ms",
    "server.reply_bytes": "bytes",
    "server.registry_hit_ratio": "ratio",
    "server.queue_wait_ms": "ms",
    "server.shed": "count",
    "server.coalesced": "count",
    "procpool.codec_ms": "ms",
    "procpool.chunks_dispatched": "count",
    "procpool.chunks_failed": "count",
    "batch.store_hit_ratio": "ratio",
    "trace.unattributed_pct": "%",
    "trace.overhead_pct": "%",
    "host.calib_ms": "ms",
    "host.raw_latency_p50_ms": "ms",
}

#: ops per measured pass: p90 needs at least ten samples above it.
MIN_OPS = 100


def load_program():
    """Import ``repro`` from this checkout's ``src/`` or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    import workloads

    return workloads


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class Record:
    __slots__ = ("op_id", "kind", "raw", "kernel", "verdict")

    def __init__(self, op_id, kind, raw, kernel, verdict):
        self.op_id, self.kind, self.raw, self.kernel, self.verdict = (
            op_id, kind, raw, kernel, verdict,
        )


class Pass:
    """One measured pass: op records, round times and the kernel series."""

    def __init__(self) -> None:
        self.kernels: List[float] = []
        self.records: List[Record] = []
        self.rounds: List[tuple] = []  # (raw seconds, kernel index)

    def factor(self, kernel_index: int) -> float:
        return calib.REFERENCE_MS / calib.normalizer(self.kernels, kernel_index)

    def norm(self, record: Record) -> float:
        return record.raw * self.factor(record.kernel)

    def ok_records(self) -> List[Record]:
        return [r for r in self.records if r.verdict.ok]

    def factors(self) -> Dict[int, float]:
        return {r.op_id: self.factor(r.kernel) for r in self.records}


WRONG_ANSWER = object()


def cycles_for(workload, seconds: float, min_ops: int) -> int:
    """Whole cycles of the op mix that fill ``seconds`` at reference speed
    and give at least ``min_ops`` ops.  A fixed count, not a deadline, so a
    seed always runs the same ops however fast the host is."""
    return max(
        math.ceil(min_ops / workload.cycle_ops),
        math.ceil(seconds / workload.cycle_seconds),
    )


def measure(workload, cycles: int, log=None, inject: bool = False) -> Pass:
    """Run ``cycles`` whole cycles of the workload's rounds."""
    from workloads import Verdict

    result = Pass()
    ids = iter(range(1, 1 << 30))
    pool = (
        concurrent.futures.ThreadPoolExecutor(workload.concurrency)
        if workload.concurrency > 1 else None
    )

    def timed(op, op_id):
        if inject and op_id == 1:
            # A wrong answer returned instantly: it must count as a failure.
            return 0.0, WRONG_ANSWER
        frame = log.open("op", op_id) if log is not None else None
        start = time.perf_counter()
        try:
            answer = op.call()
        except Exception as exc:  # refused or crashed: the check reports it
            answer = exc
        raw = time.perf_counter() - start
        if frame is not None:
            log.close(frame)
        return raw, answer

    def check(op, op_id, answer):
        frame = log.open("check", op_id) if log is not None else None
        try:
            return op.check(answer)
        except Exception as exc:
            return Verdict(False, f"{op.kind}: {type(exc).__name__}: {exc}")
        finally:
            if frame is not None:
                log.close(frame)

    try:
        for round_index, ops in enumerate(workload.rounds()):
            if pool is None:
                for op in ops:
                    gc.collect()
                    op_id = next(ids)
                    result.kernels.append(calib.kernel_ms())
                    raw, answer = timed(op, op_id)
                    kernel = len(result.kernels) - 1
                    result.rounds.append((raw, kernel))
                    result.records.append(
                        Record(op_id, op.kind, raw, kernel, check(op, op_id, answer))
                    )
            else:
                gc.collect()
                result.kernels.append(calib.kernel_ms())
                kernel = len(result.kernels) - 1
                op_ids = [next(ids) for _ in ops]
                start = time.perf_counter()
                futures = [pool.submit(timed, op, op_id) for op, op_id in zip(ops, op_ids)]
                answers = [future.result() for future in futures]
                result.rounds.append((time.perf_counter() - start, kernel))
                for op, op_id, (raw, answer) in zip(ops, op_ids, answers):
                    result.records.append(
                        Record(op_id, op.kind, raw, kernel, check(op, op_id, answer))
                    )
            if round_index + 1 >= cycles * workload.rounds_per_cycle:
                break
    finally:
        result.kernels.append(calib.kernel_ms())
        if pool is not None:
            pool.shutdown(wait=True)
    return result


def end_to_end(run: Pass, setup: List[float], peak_rss_mb: float) -> Dict[str, float]:
    from workloads import Scores

    ok = run.ok_records()
    latencies = [run.norm(r) * 1000.0 for r in ok] or [0.0]
    busy = sum(raw * run.factor(k) for raw, k in run.rounds)
    # Each distinct program answered counts once, however often it was asked.
    answered: Dict[str, Scores] = {}
    for record in ok:
        answered.update(record.verdict.scores)
    scores = Scores()
    for program_scores in answered.values():
        scores.add(program_scores)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(ok) / busy if busy else 0.0,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": len(ok) / max(1, len(run.records)),
    }
    metrics.update(scores.metrics())
    return metrics


def per_layer(untraced: Pass, traced: Pass, counted: Pass, log, layer_stats) -> Dict[str, float]:
    from ledger import p50

    factors = traced.factors()
    self_ms: Dict[str, Dict[int, float]] = {}
    for op, names in log.self_times().items():
        for name, seconds in names.items():
            self_ms.setdefault(name, {})[op] = seconds * factors.get(op, 1.0) * 1000.0
    calls: Dict[str, Dict[int, int]] = {}
    for op, names in log.op_calls().items():
        for name, count in names.items():
            calls.setdefault(name, {})[op] = count
    counted_ids = [r.op_id for r in counted.records]

    def layer_ms(name: str) -> float:
        return p50(self_ms.get(name, {}).values())

    def layer_calls(*names: str) -> float:
        return p50(
            sum(calls.get(name, {}).get(op, 0) for name in names) for op in counted_ids
        ) if counted_ids and any(name in calls for name in names) else 0.0

    ok = traced.ok_records()
    # Work counts come from the counted pass: a fixed set of ops (whole
    # rounds from the start of the schedule), so they repeat exactly per seed.
    fixed = counted.ok_records()

    def count(key: str) -> float:
        return p50(r.verdict.counts[key] for r in fixed if key in r.verdict.counts)

    def stage_ms(stage: str) -> float:
        key = f"stage.{stage}_seconds"
        return p50(
            r.verdict.counts[key] * traced.factor(r.kernel) * 1000.0
            for r in ok if r.verdict.counts.get("sccs_solved") and key in r.verdict.counts
        )

    def kind_ms(kind: str) -> float:
        return p50(traced.norm(r) * 1000.0 for r in ok if r.kind == kind)

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    def summed(key: str) -> float:
        return sum(r.verdict.counts.get(key, 0.0) for r in fixed)

    to_json = [seconds * factors.get(op, 1.0) * 1000.0 for op, seconds in log.durations("pipeline.to_json")]
    untraced_p50 = p50(untraced.norm(r) for r in untraced.ok_records())
    traced_p50 = p50(traced.norm(r) for r in ok)
    metrics = {
        "ir.parse_ms": layer_ms("ir.parse"),
        "ir.parse.py_calls": layer_calls("ir.parse"),
        "typegen.constraints_ms": layer_ms("typegen.constraints"),
        "typegen.constraints.py_calls": layer_calls("typegen.constraints"),
        "typegen.constraints": count("constraints"),
        "core.solve_ms": layer_ms("core.solve"),
        "core.graph_ms": stage_ms("graph"),
        "core.shapes_ms": layer_ms("core.shapes"),
        "core.saturate_ms": stage_ms("saturate"),
        "core.simplify_ms": stage_ms("simplify"),
        "core.sketch_ms": stage_ms("sketch"),
        "core.solve.py_calls": layer_calls("core.solve", "core.shapes"),
        # over ops that solved anything: reopens and registry hits solve none
        "core.sccs_solved": p50(
            r.verdict.counts["sccs_solved"] for r in fixed if r.verdict.counts.get("sccs_solved")
        ),
        "pipeline.display_ms": layer_ms("pipeline.display"),
        "pipeline.to_json_ms": p50(to_json),
        "pipeline.py_calls": layer_calls("pipeline.display", "pipeline.to_json"),
        "service.store_get_ms": layer_ms("service.store_get"),
        "service.store_put_ms": layer_ms("service.store_put"),
        "service.store_hit_ratio": ratio(log.store_hits, log.store_misses),
        "service.cone_procedures": count("cone_procedures"),
        "service.solved_procedures": count("solved_procedures"),
        "service.regen_waste_ratio": count("regen_waste_ratio"),
        "server.query_ms": kind_ms("query"),
        "server.analyze_hit_ms": kind_ms("analyze_hit"),
        "server.analyze_new_ms": kind_ms("analyze_new"),
        "server.session_edit_ms": kind_ms("session_edit"),
        "server.reply_bytes": count("reply_bytes"),
        "procpool.codec_ms": layer_ms("procpool.codec"),
        "batch.store_hit_ratio": ratio(summed("batch_store_hits"), summed("batch_store_misses")),
        "trace.unattributed_pct": log.unattributed_pct(),
        "trace.overhead_pct": 100.0 * (traced_p50 - untraced_p50) / untraced_p50 if untraced_p50 else 0.0,
        "host.calib_ms": statistics.median(traced.kernels),
        "host.raw_latency_p50_ms": 1000.0 * p50(r.raw for r in untraced.ok_records()),
    }
    # Program-side counters (server ``stats`` verb, procpool snapshot); a
    # workload that has none reports 0.  Chunk counts are per op.
    for key in PER_LAYER:
        metrics.setdefault(key, 0.0)
    for key, value in layer_stats.items():
        if key.startswith("procpool.chunks_"):
            value /= max(1, len(traced.records))
        metrics[key] = value
    return metrics


def host_record() -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "platform": platform.platform(),
        "kernel_reference_ms": calib.REFERENCE_MS,
    }


def failures(run: Pass) -> List[str]:
    return [f"op {r.op_id} ({r.kind}): {r.verdict.message}" for r in run.records if not r.verdict.ok]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny programs and few ops (smoke test)")
    parser.add_argument(
        "--inject-wrong-answer", action="store_true",
        help="replace the first op's answer with a wrong one (harness self-test)",
    )
    args = parser.parse_args(argv)
    started = time.perf_counter()

    workloads = load_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]
    min_ops = MIN_OPS if not args.tiny else 4
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")

    workload = make(args.seed, args.tiny)
    setup_kernels: List[float] = []
    try:
        if args.trace:  # untraced and traced passes share the run
            cycles = cycles_for(workload, args.seconds / 2, min_ops // 3)
        else:
            cycles = cycles_for(workload, args.seconds, min_ops)
        setup = workload.setup(setup_kernels)
        run = measure(workload, cycles, inject=args.inject_wrong_answer)
        peak = workload.peak_rss_mb()
    finally:
        workload.close()
    report: Dict[str, object] = {"host": host_record(), "workload": args.workload, "seed": args.seed}

    if not args.trace:
        metrics = end_to_end(run, setup, peak)
        ok = run.ok_records()
        latencies = [run.norm(r) * 1000.0 for r in ok]
        report["latency_p90_samples_above"] = sum(
            1 for v in latencies if v > metrics["latency_p90_ms"]
        )
        report["setup_samples_s"] = setup
        report["raw_latency_p50_ms"] = 1000.0 * statistics.median(r.raw for r in ok)
        report["calib_ms"] = statistics.median(run.kernels)
        units = END_TO_END
        bad = failures(run)
        attempted = len(run.records)
    else:
        import ledger

        log = ledger.SpanLog()
        traced_workload = make(args.seed, args.tiny, store_factory=lambda: ledger.TimingStore(log))
        traced_workload.setup_repeats = 1
        uninstall = ledger.install(log)
        try:
            traced_workload.setup([])
            before = traced_workload.layer_stats()
            traced = measure(traced_workload, cycles, log=log)
            after = traced_workload.layer_stats()
            log.count_calls(True)
            try:
                counted = measure(traced_workload, 1, log=log)
            finally:
                log.count_calls(False)
        finally:
            uninstall()
            traced_workload.close()
        layer_stats = {
            k: after[k] - before.get(k, 0.0) if k.startswith("procpool.") else after[k]
            for k in after
        }
        metrics = per_layer(run, traced, counted, log, layer_stats)
        log.write_jsonl(stem + ".spans.jsonl", traced.factors())
        table = ledger.ledger_table(log, traced.factors(), len(counted.records))
        with open(stem + ".ledger.txt", "w", encoding="utf-8") as handle:
            handle.write("\n".join(table) + "\n")
        print(f"ledger ({args.workload}, seed {args.seed}, "
              f"{len(traced.records)} traced ops, {len(counted.records)} counted):")
        for line in table:
            print("  " + line)
        units = PER_LAYER
        bad = failures(run) + failures(traced) + failures(counted)
        attempted = len(run.records) + len(traced.records) + len(counted.records)

    for line in bad[:20]:
        print("FAILED " + line, file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:<30} {metrics[name]:>14.6g} {unit}")
    result = {
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report.update(result)
    report["wall_s"] = time.perf_counter() - started
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(json.dumps(result))
    return 0 if not bad else 1


def stop_children() -> None:
    """Stop and reap every process this run started that is still alive.

    Workloads close what they start, but a ``spawn`` process pool also starts
    multiprocessing's resource tracker, which outlives the pool and would
    only exit after this process does; stop it here and wait for it.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()
    workloads = sys.modules.get("workloads")
    for pid in workloads.child_pids(os.getpid()) if workloads is not None else ():
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


sys.path.insert(0, HERE)
import calib  # noqa: E402  (benchmark-owned; never imports repro)

if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
