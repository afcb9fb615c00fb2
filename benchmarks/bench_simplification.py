"""Section 5.3 ablation + the worklist-core perf-smoke gate.

The paper argues the cubic worst case of saturation is tamed because it is
applied per procedure.  This module measures the saturation-based
simplification machinery three ways:

* ``test_simplification_cost`` -- pytest-benchmark microbenchmark of the
  historic chain workload (aliased pointer copies, a worst-case-ish
  saturation input), plus the precise-vs-per-class lattice-bound ablation;
* ``test_suite_workload_speedup`` -- the perf-smoke gate: the worklist core
  (indexed graph + worklist saturation + memoized simplification) must be at
  least 2x faster than the seed implementation on the suite workload.  The
  seed algorithms are retained verbatim in ``tests/core/naive_reference.py``
  and re-measured live in the same process, so the gate compares both cores
  on the same machine and stays meaningful on any CI runner; the numbers
  recorded at the time of the rewrite are committed in
  ``results/simplification_seed_baseline.json`` for the historical record.

The suite workload is per-procedure: every procedure of four ``repro.gen``
corpus programs contributes its own (constraints, interesting-variables)
simplification job -- exactly how the solver applies the machinery -- plus
the chain workload at scale 12.
"""

import json
import os
import sys
import time

from conftest import RESULTS_DIR, write_result

_TESTS_CORE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tests", "core"
)
if _TESTS_CORE not in sys.path:
    sys.path.insert(0, _TESTS_CORE)


def _procedure_constraints(scale: int):
    """A chain of aliased pointer copies -- a worst-case-ish saturation input."""
    from repro.core import parse_constraints

    lines = []
    for i in range(scale):
        lines.append(f"v{i} <= v{i + 1}")
        lines.append(f"x{i} <= v{i}.store")
        lines.append(f"v{i + 1}.load <= y{i}")
    return parse_constraints(lines)


def _chain_job(scale: int = 12):
    interesting = {f"x{i}" for i in range(scale)} | {f"y{i}" for i in range(scale)}
    return ("chain:scale12", _procedure_constraints(scale), interesting)


def _suite_jobs():
    """Per-procedure simplification jobs over four generated corpus programs."""
    from repro.core.lattice import default_lattice
    from repro.gen import GenProfile, generate_program
    from repro.typegen.abstract_interp import generate_program_constraints

    lattice = default_lattice()
    jobs = []
    for name, functions, seed in [
        ("coreutils_like", 24, 101),
        ("vpx_like", 28, 202),
        ("putty_like", 24, 303),
        ("zlib_like", 16, 404),
    ]:
        program = generate_program(seed, GenProfile(n_functions=functions), name=name)
        inputs = generate_program_constraints(program.compile().program)
        for proc, typing_input in sorted(inputs.items()):
            bases = {c.left.base for c in typing_input.constraints} | {
                c.right.base for c in typing_input.constraints
            }
            constants = {b for b in bases if lattice.is_constant(b)}
            jobs.append((f"{name}:{proc}", typing_input.constraints, {proc} | constants))
    return jobs


def _run_worklist(jobs):
    from repro.core import ConstraintGraph, saturate, simplify_constraints

    for _, constraints, interesting in jobs:
        graph = ConstraintGraph(constraints)
        saturate(graph)
        simplify_constraints(constraints, interesting, graph=graph)


def _run_seed_reference(jobs):
    from naive_reference import naive_saturate, naive_simplify_constraints

    from repro.core import ConstraintGraph

    for _, constraints, interesting in jobs:
        graph = ConstraintGraph(constraints)
        naive_saturate(graph)
        naive_simplify_constraints(constraints, interesting, graph=graph)


def _best_of(runner, jobs, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        runner(jobs)
        best = min(best, time.perf_counter() - start)
    return best


def test_suite_workload_speedup():
    """Perf-smoke gate: worklist core >= 2x faster than the seed core."""
    suite_jobs = _suite_jobs()
    chain = _chain_job()
    all_jobs = suite_jobs + [chain]

    new_suite = _best_of(_run_worklist, suite_jobs)
    seed_suite = _best_of(_run_seed_reference, suite_jobs)
    new_chain = _best_of(_run_worklist, [chain])
    seed_chain = _best_of(_run_seed_reference, [chain], repeats=1)

    new_total = new_suite + new_chain
    seed_total = seed_suite + seed_chain
    ratio = seed_total / new_total if new_total else float("inf")

    recorded = {}
    baseline_path = os.path.join(RESULTS_DIR, "simplification_seed_baseline.json")
    if os.path.exists(baseline_path):
        with open(baseline_path) as handle:
            recorded = json.load(handle)

    lines = [
        "Worklist solver core vs seed core on the suite workload",
        "(seed algorithms retained in tests/core/naive_reference.py, re-measured",
        " live in this process; recorded rewrite-time numbers in",
        " simplification_seed_baseline.json)",
        "",
        f"procedures (corpus jobs):    {len(suite_jobs)}",
        f"corpus jobs   seed={seed_suite:8.3f}s  worklist={new_suite:8.3f}s  "
        f"{seed_suite / new_suite:6.2f}x",
        f"chain scale12 seed={seed_chain:8.3f}s  worklist={new_chain:8.3f}s  "
        f"{seed_chain / new_chain:6.2f}x",
        f"total         seed={seed_total:8.3f}s  worklist={new_total:8.3f}s  "
        f"{ratio:6.2f}x",
    ]
    if recorded:
        lines += [
            "",
            f"recorded at rewrite time ({recorded.get('machine', 'unknown machine')}):",
            f"  corpus jobs seed={recorded['seed']['corpus_seconds']:.3f}s  "
            f"worklist={recorded['worklist']['corpus_seconds']:.3f}s",
            f"  chain       seed={recorded['seed']['chain_seconds']:.3f}s  "
            f"worklist={recorded['worklist']['chain_seconds']:.3f}s",
        ]
    write_result("simplification_suite.txt", "\n".join(lines))

    assert len(all_jobs) > 50, "suite workload unexpectedly small"
    assert ratio >= 2.0, (
        f"worklist core is only {ratio:.2f}x faster than the seed core "
        f"(required >= 2x); see benchmarks/results/simplification_suite.txt"
    )


def test_noop_obs_overhead_gate():
    """Disabled-observability gate: the null tracer must cost < 2%.

    The solver, typegen and service layers are permanently instrumented with
    ``get_tracer().span(...)`` calls that hit a shared no-op tracer unless a
    caller opts in.  There is no
    un-instrumented build to diff against, so the gate projects the overhead:
    run one analysis under a real tracer to count how many spans the workload
    emits, measure the null-path unit cost in a tight loop, and require
    ``spans * unit_cost`` to stay under 2% of the workload's wall time on the
    default (disabled) path.
    """
    from repro.gen import GenProfile, generate_program
    from repro.obs import NULL_TRACER, Tracer, get_tracer, tracing
    from repro.pipeline import analyze_program

    program = generate_program(7, GenProfile(n_functions=16), name="obs_gate").compile().program

    def analyze(_jobs=None):
        analyze_program(program)

    assert get_tracer() is NULL_TRACER, "suite leaked an installed tracer"
    baseline = _best_of(analyze, None)

    with tracing(Tracer()) as tracer:
        analyze()
    span_count = len(tracer.spans())
    assert span_count > 0, "instrumentation emitted no spans under a real tracer"

    probes = 200_000
    null_tracer = get_tracer()
    start = time.perf_counter()
    for _ in range(probes):
        with null_tracer.span("solver.saturate", edges_added=0) as span:
            span.set("probe", 1)
    unit_cost = (time.perf_counter() - start) / probes

    projected = span_count * unit_cost
    fraction = projected / baseline if baseline else 0.0
    write_result(
        "obs_noop_overhead.txt",
        "\n".join(
            [
                "Disabled-observability overhead projection",
                "",
                f"workload baseline (null tracer): {baseline:.4f}s",
                f"spans emitted when enabled:      {span_count}",
                f"null span unit cost:             {unit_cost * 1e9:.1f} ns",
                f"projected no-op overhead:        {projected * 1e3:.3f} ms "
                f"({fraction:.3%} of baseline)",
            ]
        ),
    )
    assert fraction < 0.02, (
        f"no-op instrumentation projects to {fraction:.2%} of workload time "
        f"(gate: < 2%); see benchmarks/results/obs_noop_overhead.txt"
    )


def test_simplification_cost(benchmark):
    from repro.core import ConstraintGraph, saturate, simplify_constraints

    constraints = _procedure_constraints(12)

    def simplify():
        graph = ConstraintGraph(constraints)
        saturate(graph)
        return simplify_constraints(
            constraints, {f"x{i}" for i in range(12)} | {f"y{i}" for i in range(12)}, graph=graph
        )

    simplified = benchmark(simplify)
    assert len(simplified) > 0

    # Ablation: precise (Appendix D.4) vs per-class lattice bounds.
    from repro.core import SolverConfig
    from repro.eval.metrics import evaluate_program
    from repro.eval.workloads import program_workload
    from repro.gen import GenProfile, generate_program
    from repro.pipeline import analyze_program

    workload = program_workload(generate_program(11, GenProfile(n_functions=16), name="ablation"))
    rows = []
    for precise in (True, False):
        start = time.perf_counter()
        types = analyze_program(
            workload.program, config=SolverConfig(precise_bounds=precise)
        )
        elapsed = time.perf_counter() - start
        metrics = evaluate_program(workload.name, types, workload.ground_truth)
        rows.append(
            f"precise_bounds={precise!s:5}  distance={metrics.mean_distance:.2f}  "
            f"conservativeness={metrics.conservativeness:.2f}  time={elapsed:.2f}s"
        )
    write_result(
        "simplification_ablation.txt",
        "Section 5 ablation: saturation-based bounds vs per-class bounds\n\n" + "\n".join(rows),
    )
