"""Cooperative checkpoints: where an analysis lets a waiting thread run.

``repro.obs.checkpoint()`` ends one unit of analysis work.  The coverage
tests replace what it does with a recorder that notes the calling function,
so they count checkpoints per unit without timing anything; the handoff
test measures that a checkpoint really gives the interpreter to a thread
waiting for it.
"""

import os
import statistics
import sys
import threading
import time
from collections import Counter

import pytest

import repro.core.saturation as saturation
import repro.core.simplify as simplify
import repro.obs.trace as trace
from repro import AnalysisService, IncrementalSession, ServiceConfig
from repro.core import ConstraintGraph, default_lattice, parse_constraints, saturate
from repro.frontend import compile_c
from repro.gen import GenProfile, generate_program
from repro.ir import parse_program
from repro.obs import checkpoint


#: loop counters snapshotted at each call (read later, they hold final values).
COUNTERS = ("pushes", "visits", "const_did", "bit")


class Recorder:
    """Stands in for the yield; records the function that called checkpoint()
    and the loop counters it held at that moment."""

    def __init__(self) -> None:
        self.calls = []

    def __call__(self) -> None:
        # 0: this call, 1: checkpoint(), 2: the checkpoint site.
        site = sys._getframe(2)
        held = {key: site.f_locals[key] for key in COUNTERS if key in site.f_locals}
        if site.f_code.co_name == "_push":
            held["pop"] = site.f_back.f_locals.get("iterations")  # None while seeding
        self.calls.append((site.f_code.co_name, held))

    def sites(self) -> Counter:
        return Counter(name for name, _ in self.calls)

    def at(self, site: str):
        return [held for name, held in self.calls if name == site]

    def clear(self) -> None:
        self.calls.clear()


@pytest.fixture
def recorder(monkeypatch):
    record = Recorder()
    monkeypatch.setattr(trace, "_yield", record)
    return record


@pytest.fixture(scope="module")
def asm():
    generated = generate_program(7, GenProfile.default(), name="ckpt")
    return str(compile_c(generated.source).program)


# ---------------------------------------------------------------------------
# Coverage: one checkpoint per unit, none for reused work
# ---------------------------------------------------------------------------


def test_parse_checkpoints_each_parsed_chunk_and_no_reused_one(recorder, asm):
    program = parse_program(asm)
    table = program.parse_table
    assert recorder.sites() == Counter(parse_program=len(table.chunks))

    recorder.clear()
    parse_program(asm, previous=table)
    assert recorder.sites() == Counter()

    # One edited chunk is the one chunk parsed again.
    name = next(iter(program.procedures))
    edited = asm.replace(f"\n{name}:\n", f"\n{name}:\n    ; edited\n", 1)
    assert edited != asm
    recorder.clear()
    parse_program(edited, previous=table)
    assert recorder.sites() == Counter(parse_program=1)


def test_cold_analysis_checkpoints_every_unit(recorder, asm):
    types = AnalysisService().analyze(asm)
    stats = types.stats
    sites = recorder.sites()
    sccs, solved = stats["scc_count"], stats["sccs_solved"]
    procedures = len(stats["solved_procedures"])
    assert solved == sccs > 0
    assert sites["parse_program"] == len(types.program.parse_table.chunks)
    # Each procedure's fingerprint, then the SCC-key pass; a lookup that
    # misses (or hits a decoded summary in memory) is too short to yield after.
    assert sites["program_fingerprints"] == len(types.program.procedures)
    assert sites["_probe"] == 1
    assert "get" not in sites
    # Interface discovery and generation, per generated procedure.
    assert sites["generate_program_constraints"] == 2 * len(stats["generated_procedures"])
    # Shapes, graph, saturation and the bound search per SCC ...
    assert sites["_solve_constraints"] == 4 * solved
    # ... then one before each member's scheme (the first ends the bounds).
    assert sites["solve_scc"] == procedures
    # Between members' caller contributions, then after the SCC and after
    # its store put.
    assert sites["solve_inputs"] == (procedures - solved) + 2 * solved
    assert sites["_refine_and_display"] == len(types.functions)
    # The inner loops checkpoint by work done, not per unit.
    expected = {
        "parse_program", "program_fingerprints", "_probe", "generate_program_constraints",
        "_solve_constraints", "solve_scc", "solve_inputs",
        "_refine_and_display",
    }
    assert set(sites) - expected <= {"_push", "constant_bound_ids", "apply_refinement"}


def test_store_served_analysis_generates_and_solves_nothing(recorder, asm):
    service = AnalysisService()
    service.analyze(asm)
    recorder.clear()
    types = service.analyze(asm)
    assert types.stats["sccs_solved"] == 0
    sites = recorder.sites()
    assert sites == Counter(
        parse_program=len(types.program.parse_table.chunks),
        program_fingerprints=len(types.program.procedures),
        _probe=1,
        _refine_and_display=len(types.functions),
    )


def test_store_decoding_a_payload_checkpoints_each_decode(recorder, asm, tmp_path):
    AnalysisService(ServiceConfig(cache_dir=str(tmp_path))).analyze(asm)
    recorder.clear()
    # A fresh service on the same disk tier decodes every SCC's payload.
    types = AnalysisService(ServiceConfig(cache_dir=str(tmp_path))).analyze(asm)
    assert types.stats["sccs_solved"] == 0
    assert types.stats["store"]["decodes"] == types.stats["scc_count"]
    assert recorder.sites()["get"] == types.stats["scc_count"]


def test_session_reanalysis_reuses_parse_and_display_without_checkpoints(recorder, asm):
    session = IncrementalSession(AnalysisService())
    session.analyze(asm)
    recorder.clear()
    types = session.analyze(asm)
    assert types.stats["sccs_solved"] == 0
    # The session keeps the fingerprints: only the key pass remains.
    assert recorder.sites() == Counter(_probe=1)


# ---------------------------------------------------------------------------
# Coverage: the inner loops checkpoint by work, within one unit
# ---------------------------------------------------------------------------


def test_saturation_checkpoints_by_pushes_inside_one_pop(recorder):
    # Facts (sigma32@4, a_i.sigma32@4) all reach o.sigma32@0 before the one
    # fact at y discharges into the shortcut o.sigma32@0 -> y.sigma32@0,
    # whose single pop then replays every one of them.
    replayed = 9000
    constraints = parse_constraints(
        [f"a{i} <= o.sigma32@0" for i in range(replayed)]
        + [f"a{i}.sigma32@4 <= c" for i in range(replayed)]
        + ["o <= y", "y.sigma32@0 <= z"]
    )
    graph = ConstraintGraph(constraints)
    saturate(graph)

    every = unit_count(saturation._CHECKPOINT_MASK)
    calls = recorder.at("_push")
    pushes = [held["pushes"] for held in calls]
    # Once per `every` pushes, on the dot.
    assert pushes == [every * n for n in range(1, len(pushes) + 1)]
    assert len(pushes) >= 2 * replayed // every
    # Several of them inside one pop: counting pops would miss that work.
    pops = Counter(held["pop"] for held in calls)
    assert max(pops.values()) >= replayed // every


def test_bound_search_checkpoints_by_visited_states(recorder):
    lattice = default_lattice()
    constant = next(name for name in ("int", "num32") if lattice.is_constant(name))
    states = 1200
    constraints = parse_constraints(
        [f"{constant} <= v0"] + [f"v{i} <= v{i + 1}" for i in range(states)]
    )
    graph = ConstraintGraph(constraints)
    saturate(graph)
    recorder.clear()
    simplify.constant_bound_ids(graph, lattice)

    every = unit_count(simplify._CHECKPOINT_MASK)
    calls = recorder.at("constant_bound_ids")
    visits = [held["visits"] for held in calls]
    assert visits == [every * n for n in range(1, len(visits) + 1)]
    assert len(visits) >= states // every
    # All inside the one search from the constant that reaches the chain.
    assert len({(held["const_did"], held["bit"]) for held in calls}) == 1


def unit_count(mask: int) -> int:
    """The unit count a ``2**k - 1`` checkpoint mask stands for."""
    assert mask & (mask + 1) == 0
    return mask + 1


# ---------------------------------------------------------------------------
# Handoff: a waiting thread gets the interpreter within far less than the
# switch interval
# ---------------------------------------------------------------------------


def median_extra_wait(wakes: int = 60, nap: float = 0.001) -> float:
    """Median time a sleeping thread wakes late while another thread spins
    in short Python units with a checkpoint after each.

    Both threads run on one CPU, the setting perfbench server-mixed
    measures: with a second CPU, a process busy there (a process pool
    shutting down) delays the sleeper's wake-up by 6-10 ms, and no yield in
    this process can give that CPU up.
    """
    stop = threading.Event()
    waits = []
    cpu = {min(os.sched_getaffinity(0))}

    def spin() -> None:
        os.sched_setaffinity(0, cpu)  # this thread only
        while not stop.is_set():
            total = 0
            for value in range(300):
                total += value
            checkpoint()

    def sleep() -> None:
        os.sched_setaffinity(0, cpu)
        for _ in range(wakes):
            start = time.perf_counter()
            time.sleep(nap)
            waits.append(time.perf_counter() - start - nap)

    spinner = threading.Thread(target=spin, daemon=True)
    sleeper = threading.Thread(target=sleep, daemon=True)
    spinner.start()
    try:
        sleeper.start()
        sleeper.join(timeout=30)
        assert not sleeper.is_alive()
    finally:
        stop.set()
        spinner.join(timeout=30)
    assert not spinner.is_alive()
    assert len(waits) == wakes
    return statistics.median(waits)


@pytest.mark.skipif(
    sys.version_info < (3, 10) or not hasattr(os, "sched_setaffinity"),
    reason="pins threads with os.sched_setaffinity (Linux), and os.sched_yield releases "
    "the GIL only from Python 3.10 on: on 3.9.18 a sleeper behind a yielding spinner "
    "still waited 5.14 ms, the full switch interval",
)
def test_gil_handoff_to_a_waiting_thread():
    # Without the yield every round's median is the whole interval (5.15 ms
    # measured); with it, ~0.08 ms.  The best of three rounds, because
    # another process can hold that CPU through one of them.
    best = min(median_extra_wait() for _ in range(3))
    assert best < sys.getswitchinterval() / 2
