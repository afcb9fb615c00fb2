"""Generated-corpus throughput: the ``generated`` workload family end to end.

The ground-truth generator (``repro.gen``) opens an effectively unbounded
workload; this benchmark measures how fast the service chews through one
seeded corpus -- generation, compilation, and ``analyze_corpus`` serially and
fanned out to worker processes -- and verifies that both produce byte-identical
results (the differential oracle's core invariant, measured here at corpus
scale instead of per program).

Run modes:

* script (what CI's gen-smoke can use for a quick number)::

      PYTHONPATH=src python benchmarks/bench_generated_corpus.py --count 40

* pytest::

      PYTHONPATH=src python -m pytest benchmarks/bench_generated_corpus.py -q

Numbers land in ``benchmarks/results/generated_corpus.txt``.
"""

import argparse
import json
import os
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

DEFAULT_COUNT = int(os.environ.get("REPRO_GEN_BENCH_COUNT", "40"))
DEFAULT_SEED = 20160613
BACKENDS = ("serial", "processes")
#: pytest smoke-corpus size; large enough that the process backend's pool
#: spawn + program fan-out amortizes instead of dominating.
SMOKE_COUNT = int(os.environ.get("REPRO_GEN_SMOKE_COUNT", "24"))


def _corpus(count, seed, profile_name):
    from repro.gen import generate_corpus, named_profiles

    generate_start = time.perf_counter()
    programs = generate_corpus(count, seed, named_profiles()[profile_name])
    generate_seconds = time.perf_counter() - generate_start

    compile_start = time.perf_counter()
    compiled = {program.name: program.compile().program for program in programs}
    compile_seconds = time.perf_counter() - compile_start
    return programs, compiled, generate_seconds, compile_seconds


def _run_backend(compiled, executor, workers=None):
    from repro.gen import result_fingerprint
    from repro.service import AnalysisService, ServiceConfig, analyze_corpus

    service = AnalysisService(
        ServiceConfig(use_cache=True, executor=executor, max_workers=workers)
    )
    try:
        start = time.perf_counter()
        report = analyze_corpus(compiled, service=service)
        elapsed = time.perf_counter() - start
    finally:
        service.close()
    fingerprints = {
        name: result_fingerprint(entry.types) for name, entry in report.reports.items()
    }
    return elapsed, report, fingerprints


def run(count, seed, profile_name, write=True, workers=None, gate=None):
    programs, compiled, generate_seconds, compile_seconds = _corpus(
        count, seed, profile_name
    )
    total_functions = sum(len(program.functions) for program in programs)

    lines = [
        "Generated-corpus throughput (repro.gen -> analyze_corpus per backend)",
        "",
        f"corpus: {count} programs / {total_functions} functions "
        f"(seed {seed}, profile {profile_name!r})",
        f"generate {generate_seconds:.3f}s, compile {compile_seconds:.3f}s",
        "",
        f"{'backend':>10} {'seconds':>8} {'prog/s':>8} {'hit_rate':>8}",
    ]
    reference = None
    timings = {}
    backend_rows = {}
    for backend in BACKENDS:
        elapsed, report, fingerprints = _run_backend(compiled, backend, workers)
        timings[backend] = elapsed
        if reference is None:
            reference = fingerprints
        else:
            mismatched = [name for name in reference if fingerprints[name] != reference[name]]
            assert not mismatched, (
                f"backend {backend!r} diverged from serial on: {mismatched[:5]}"
            )
        backend_rows[backend] = _backend_row(backend, elapsed, report, count)
        lines.append(
            f"{backend:>10} {elapsed:>8.3f} {count / elapsed:>8.1f} "
            f"{report.hit_rate:>8.0%}"
        )

    speedups = {
        backend: timings["serial"] / timings[backend] if timings[backend] else None
        for backend in BACKENDS
    }
    lines += [
        "",
        f"processes vs serial: {speedups['processes']:.2f}x "
        f"({os.cpu_count()} cpus, workers={workers or 'auto'})",
        f"all {len(BACKENDS)} backends byte-identical over {count} programs",
    ]
    report_text = "\n".join(lines)
    print(report_text)
    if write:
        from conftest import write_result

        write_result("generated_corpus.txt", report_text)
        payload = {
            "benchmark": "generated_corpus",
            "programs": count,
            "functions": total_functions,
            "seed": seed,
            "profile": profile_name,
            "cpus": os.cpu_count(),
            "workers": workers,
            "generate_seconds": generate_seconds,
            "compile_seconds": compile_seconds,
            "backends": backend_rows,
            "speedup_vs_serial": speedups,
            "byte_identical": True,
        }
        bench_path = os.path.join(_HERE, "results", "BENCH_corpus.json")
        with open(bench_path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"machine-readable: {bench_path}")
    if gate is not None:
        ratio = speedups["processes"]
        assert ratio >= gate, (
            f"processes backend only {ratio:.2f}x serial on the generated smoke "
            f"corpus (gate {gate}x, {os.cpu_count()} cpus)"
        )
        print(f"gate passed: processes {ratio:.2f}x serial (>= {gate}x)")
    return timings


def _backend_row(backend, elapsed, report, count):
    """One backend's machine-readable record: throughput plus per-program
    latency percentiles estimated through the obs histogram (same method the
    server's ``metrics`` verb uses)."""
    from repro.obs import Histogram

    hist = Histogram()
    for entry in report.reports.values():
        hist.observe(entry.seconds)
    row = {
        "backend": backend,
        "wall_seconds": elapsed,
        "programs_per_second": count / elapsed if elapsed else None,
        "hit_rate": report.hit_rate,
        "per_program_seconds": {
            "count": hist.count,
            "mean": hist.sum / hist.count if hist.count else None,
        },
    }
    row["per_program_seconds"].update(hist.percentiles())
    return row


def test_generated_corpus_backends_identical():
    """Small pytest entry: both backends identical on a quick corpus."""
    run(SMOKE_COUNT, DEFAULT_SEED, "smoke", write=False)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=DEFAULT_COUNT)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--profile", choices=["smoke", "default", "stress"], default="smoke"
    )
    parser.add_argument(
        "--workers", type=int, default=None, help="process-backend worker count"
    )
    parser.add_argument(
        "--gate",
        type=float,
        default=None,
        help="fail unless processes >= GATE x serial (needs >= 2 real CPUs)",
    )
    args = parser.parse_args(argv)
    run(args.count, args.seed, args.profile, workers=args.workers, gate=args.gate)
    return 0


if __name__ == "__main__":
    sys.exit(main())
