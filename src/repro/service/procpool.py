"""The process-pool solve backend: per-SCC solving on worker processes.

Retypd's per-SCC type schemes are independent summaries, so SCCs that share a
topological wave of the call-graph condensation can be solved on *processes*
rather than GIL-bound threads.  This module supplies everything the
``"processes"`` executor strategy of :class:`~repro.service.scheduler.
WaveScheduler` needs:

* **a pickle-free codec** -- solver inputs (constraints, formals, callsites,
  callee schemes/sketches) and outputs (SCC summaries, per-stage
  :class:`~repro.core.solver.SolveStats`) cross the process boundary as JSON
  text built from the established round-trips (``ConstraintSet.to_json``,
  ``TypeScheme.to_json``, ``Sketch.to_json``, ``serialize_summary``).  Worker
  processes never unpickle live solver objects;
* **warm workers** -- each worker builds its :class:`~repro.core.solver.
  Solver`, lattice and extern schemes once (from a JSON environment payload)
  and keeps its own handle on the shared :class:`~repro.service.store.
  SummaryStore` disk tier, so a summary another process already published is
  returned verbatim instead of re-solved, and cache hits in the parent never
  cross a process boundary at all (only missing SCCs are dispatched);
* **chunked dispatch** -- per-SCC tasks are tiny (median ~1 ms on the
  synthetic corpora), so one IPC message carries a *chunk* of SCCs from one
  wave, amortizing serialization and queue latency;
* **graceful degradation** -- a worker crash (or a broken pool) requeues the
  chunk's SCCs on the in-process path and counts them in the typed
  ``worker_failed`` stat; the pool is rebuilt lazily on next use.

The parent-facing entry points are :class:`ProcPool` (one long-lived pool per
:class:`~repro.service.AnalysisService`, keyed by its environment payload) and
:class:`ProcessWaveRunner` (one per ``solve_inputs`` call, carrying that
run's inputs/working-results context).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import ChainMap
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.constraints import (
    AddConstraint,
    ConstraintSet,
    SubConstraint,
    SubtypeConstraint,
)
from ..core.intern import StringTable
from ..core.lattice import TypeLattice
from ..core.schemes import TypeScheme
from ..core.sketches import Sketch
from ..core.solver import (
    Callsite,
    ProcedureResult,
    ProcedureTypingInput,
    SolveStats,
    Solver,
    SolverConfig,
    collect_caller_contributions,
)
from ..core.variables import parse_dtv
from ..obs.metrics import get_registry
from ..obs.trace import Tracer, get_tracer, tracing
from .store import (
    STORE_FORMAT,
    SummaryStore,
    deserialize_summary,
    environment_fingerprint,
    program_fingerprints,
    scc_summary_keys,
    serialize_summary,
    summarize_scc,
)

#: bump when the environment/task payload layout changes so a stale worker
#: (from a hot-reloaded parent) can never misinterpret a task.  v2 replaced
#: the nested-JSON task payloads with compact integer tables: one
#: string-intern table per task plus flat int arrays for constraints,
#: formals, callsites, scheme and sketch entries.
PROCPOOL_FORMAT = "retypd-procpool-v2"

#: multiprocessing start method; ``spawn`` is deliberate -- the parent may be
#: a threaded asyncio daemon, and forking a threaded process is undefined
#: behaviour territory.  Override via REPRO_PROCPOOL_START_METHOD for
#: experiments.
START_METHOD_ENV = "REPRO_PROCPOOL_START_METHOD"

#: test-only fault injection: a worker about to solve an SCC containing this
#: procedure hard-exits (crash) or raises (soft failure).  Used by the
#: worker-crash requeue tests; unset in production.
CRASH_ENV = "REPRO_PROCPOOL_TEST_CRASH"
FAIL_ENV = "REPRO_PROCPOOL_TEST_FAIL"


# ---------------------------------------------------------------------------
# Environment codec (parent -> worker, once per worker)
# ---------------------------------------------------------------------------


def encode_environment(
    lattice: TypeLattice,
    externs: Mapping[str, "object"],
    solver_config: SolverConfig,
    cache_dir: Optional[str],
) -> str:
    """Everything a worker needs to build its solver, as one JSON string.

    The payload doubles as the pool's identity: if the service's lattice,
    extern table, solver configuration or disk tier change between analyses,
    the encoded environment changes and the stale pool is torn down.
    """
    return json.dumps(
        {
            "format": PROCPOOL_FORMAT,
            "store_format": STORE_FORMAT,
            "lattice": lattice.to_json(),
            "externs": {
                name: {
                    "stack_params": sig.stack_params,
                    "has_return": sig.has_return,
                    "variadic": sig.variadic,
                    "constraints": list(sig.constraints),
                    "quantified": list(sig.quantified),
                }
                for name, sig in externs.items()
            },
            "solver": {
                "precise_bounds": solver_config.precise_bounds,
                "max_scheme_depth": solver_config.max_scheme_depth,
                "refine_parameters": solver_config.refine_parameters,
                "polymorphic": solver_config.polymorphic,
            },
            "cache_dir": cache_dir,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


# ---------------------------------------------------------------------------
# Task codec (parent -> worker, one chunk of SCCs per message)
# ---------------------------------------------------------------------------
#
# v2 layout: every task carries one string-intern table (``strings``) and all
# derived-type-variable / lattice-element / label occurrences are table ids in
# *flat int arrays* -- a constraint set is ``{"s": [lhs, rhs, lhs, rhs, ...],
# "a": [op, l, r, res, ...]}``, a sketch is ``{"n": [node, lower, upper, ...],
# "e": [src, label, dst, ...]}``.  The worker parses each distinct string at
# most once (``_TableReader`` memoizes per id) no matter how many constraint
# slots reference it, where the v1 nested-JSON codec re-parsed every
# occurrence and shipped every repeated variable spelled out.


class _TableReader:
    """Worker-side view of a task's string table: parse each id at most once."""

    __slots__ = ("strings", "_dtvs")

    def __init__(self, strings: Sequence[str]) -> None:
        self.strings = strings
        self._dtvs: List[Optional[object]] = [None] * len(strings)

    def text(self, sid: int) -> str:
        return self.strings[sid]

    def dtv(self, sid: int):
        dtv = self._dtvs[sid]
        if dtv is None:
            dtv = parse_dtv(self.strings[sid])
            self._dtvs[sid] = dtv
        return dtv


def encode_constraints(
    constraints: ConstraintSet, intern: Callable[[str], int]
) -> Dict[str, List[int]]:
    """A constraint set as flat id arrays (sorted, hence canonical)."""
    subtype: List[int] = []
    for c in sorted(constraints.subtype, key=str):
        subtype.append(intern(str(c.left)))
        subtype.append(intern(str(c.right)))
    additive: List[int] = []
    for c in sorted(constraints.additive, key=str):
        additive.append(0 if isinstance(c, AddConstraint) else 1)
        additive.append(intern(str(c.left)))
        additive.append(intern(str(c.right)))
        additive.append(intern(str(c.result)))
    return {"s": subtype, "a": additive}


def decode_constraints(
    entry: Mapping[str, Sequence[int]], reader: _TableReader
) -> ConstraintSet:
    """Inverse of :func:`encode_constraints`."""
    out = ConstraintSet()
    dtv = reader.dtv
    subtype = entry["s"]
    for i in range(0, len(subtype), 2):
        out.subtype.add(SubtypeConstraint(dtv(subtype[i]), dtv(subtype[i + 1])))
    additive = entry["a"]
    for i in range(0, len(additive), 4):
        ctor = AddConstraint if additive[i] == 0 else SubConstraint
        out.additive.add(
            ctor(dtv(additive[i + 1]), dtv(additive[i + 2]), dtv(additive[i + 3]))
        )
    return out


def _encode_sketch_entry(
    data: Mapping[str, object], intern: Callable[[str], int]
) -> Dict[str, List[int]]:
    """Flatten one ``Sketch.to_json`` dict, interning lattice/label strings."""
    nodes: List[int] = []
    for ident, lower, upper in data["nodes"]:
        nodes.append(ident)
        nodes.append(intern(lower))
        nodes.append(intern(upper))
    edges: List[int] = []
    for src, label_text, dst in data["edges"]:
        edges.append(src)
        edges.append(intern(label_text))
        edges.append(dst)
    return {"n": nodes, "e": edges}


def _decode_sketch_entry(
    entry: Mapping[str, Sequence[int]], reader: _TableReader, lattice: TypeLattice
) -> Sketch:
    text = reader.text
    nodes = entry["n"]
    edges = entry["e"]
    return Sketch.from_json(
        {
            "nodes": [
                [nodes[i], text(nodes[i + 1]), text(nodes[i + 2])]
                for i in range(0, len(nodes), 3)
            ],
            "edges": [
                [edges[i], text(edges[i + 1]), edges[i + 2]]
                for i in range(0, len(edges), 3)
            ],
        },
        lattice,
    )


def callee_capsule(result: ProcedureResult) -> Dict[str, object]:
    """The wave-cacheable object->strings step of encoding one callee.

    Sketch serialization (a BFS with sorted edges per node) is the expensive
    part of shipping a callee; ``working`` is fixed while a wave is in
    flight, so :class:`ProcessWaveRunner` computes this once per callee per
    wave and every chunk then only pays the cheap string-interning step in
    :func:`encode_callee`.
    """
    scheme = result.scheme
    return {
        "constraints": scheme.constraints,
        "quantified": sorted(scheme.quantified),
        "scheme_ins": [str(dtv) for dtv in scheme.formal_ins],
        "scheme_outs": [str(dtv) for dtv in scheme.formal_outs],
        "formal_ins": [
            (str(dtv), sketch.to_json())
            for dtv, sketch in result.formal_in_sketches.items()
        ],
        "formal_outs": [
            (str(dtv), sketch.to_json())
            for dtv, sketch in result.formal_out_sketches.items()
        ],
    }


def encode_callee(
    capsule: Mapping[str, object], intern: Callable[[str], int]
) -> Dict[str, object]:
    """One already-solved callee as table-ref arrays, from its capsule.

    Callsite instantiation reads the callee's *scheme*; REFINEPARAMETERS
    collection reads the *set* of formal in/out sketches.  Shapes are never
    shipped -- exactly the information discipline of the summary store.
    """
    return {
        "scheme": {
            "c": encode_constraints(capsule["constraints"], intern),
            "q": [intern(name) for name in capsule["quantified"]],
            "fi": [intern(text) for text in capsule["scheme_ins"]],
            "fo": [intern(text) for text in capsule["scheme_outs"]],
        },
        "formal_ins": [
            [intern(text), _encode_sketch_entry(data, intern)]
            for text, data in capsule["formal_ins"]
        ],
        "formal_outs": [
            [intern(text), _encode_sketch_entry(data, intern)]
            for text, data in capsule["formal_outs"]
        ],
    }


def decode_callee(
    name: str,
    entry: Mapping[str, object],
    reader: _TableReader,
    lattice: TypeLattice,
) -> ProcedureResult:
    """Inverse of :func:`encode_callee` (worker side)."""
    scheme_entry = entry["scheme"]
    scheme = TypeScheme(
        proc=name,
        constraints=decode_constraints(scheme_entry["c"], reader),
        quantified=frozenset(reader.text(sid) for sid in scheme_entry["q"]),
        formal_ins=tuple(reader.dtv(sid) for sid in scheme_entry["fi"]),
        formal_outs=tuple(reader.dtv(sid) for sid in scheme_entry["fo"]),
    )
    return ProcedureResult(
        name=name,
        scheme=scheme,
        formal_in_sketches={
            reader.dtv(sid): _decode_sketch_entry(data, reader, lattice)
            for sid, data in entry["formal_ins"]
        },
        formal_out_sketches={
            reader.dtv(sid): _decode_sketch_entry(data, reader, lattice)
            for sid, data in entry["formal_outs"]
        },
        shapes=None,
    )


def encode_input(
    proc: ProcedureTypingInput, intern: Callable[[str], int]
) -> Dict[str, object]:
    """One procedure's solver input as flat table-ref arrays."""
    callsites: List[int] = []
    for c in proc.callsites:
        callsites.append(intern(c.callee))
        callsites.append(intern(c.base))
    return {
        "c": encode_constraints(proc.constraints, intern),
        "fi": [intern(str(dtv)) for dtv in proc.formal_ins],
        "fo": [intern(str(dtv)) for dtv in proc.formal_outs],
        "cs": callsites,
    }


def decode_input(
    name: str, entry: Mapping[str, object], reader: _TableReader
) -> ProcedureTypingInput:
    """Inverse of :func:`encode_input` (worker side)."""
    callsites = entry["cs"]
    return ProcedureTypingInput(
        name=name,
        constraints=decode_constraints(entry["c"], reader),
        formal_ins=tuple(reader.dtv(sid) for sid in entry["fi"]),
        formal_outs=tuple(reader.dtv(sid) for sid in entry["fo"]),
        callsites=tuple(
            Callsite(reader.text(callsites[i]), reader.text(callsites[i + 1]))
            for i in range(0, len(callsites), 2)
        ),
    )


def encode_task(
    chunk: Sequence[Sequence[str]],
    inputs: Mapping[str, ProcedureTypingInput],
    working: Mapping[str, ProcedureResult],
    keys: Mapping[Tuple[str, ...], str],
    callee_cache: Optional[Dict[str, Dict[str, object]]] = None,
    trace: Optional[Mapping[str, object]] = None,
) -> str:
    """One worker task: a chunk of same-wave SCCs plus their callee context.

    The whole task shares one string-intern table; constraints, formals,
    callsites and callee schemes/sketches are flat int arrays referencing it.
    Callee results are deduplicated across the chunk (same-wave SCCs often
    share callees from earlier waves) and the summary-store key rides along so
    the worker can probe/publish the shared disk tier itself.  ``callee_cache``
    memoizes the object->strings :func:`callee_capsule` step across the chunks
    of one wave -- ``working`` is fixed while a wave is in flight, and a
    helper shared by every SCC of a wide wave would otherwise re-serialize its
    sketches once per chunk.  ``trace`` (a :meth:`Tracer.current_context`
    dict) asks the worker to record spans for this chunk, parented under the
    given span id; omitted when tracing is off so the payload carries no dead
    weight.
    """
    if callee_cache is None:
        callee_cache = {}
    table = StringTable()
    intern = table.intern
    sccs: List[Dict[str, object]] = []
    callees: Dict[str, Dict[str, object]] = {}
    for scc in chunk:
        scc_set = set(scc)
        scc_inputs: Dict[str, Dict[str, object]] = {}
        for name in scc:
            proc = inputs[name]
            scc_inputs[name] = encode_input(proc, intern)
            for callsite in proc.callsites:
                callee = callsite.callee
                if callee in scc_set or callee in callees or callee not in working:
                    continue
                capsule = callee_cache.get(callee)
                if capsule is None:
                    capsule = callee_capsule(working[callee])
                    callee_cache[callee] = capsule
                callees[callee] = encode_callee(capsule, intern)
        sccs.append(
            {
                "scc": list(scc),
                "key": keys.get(tuple(scc)),
                "inputs": scc_inputs,
            }
        )
    message: Dict[str, object] = {
        "format": PROCPOOL_FORMAT,
        "strings": table.to_list(),
        "sccs": sccs,
        "callees": callees,
    }
    if trace is not None:
        message["trace"] = dict(trace)
    return json.dumps(message, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# The worker (runs in the child processes)
# ---------------------------------------------------------------------------


class _WorkerState:
    """Everything one worker builds once and reuses for every task."""

    def __init__(self, env: Mapping[str, object]) -> None:
        from ..typegen.externs import ExternSignature, extern_schemes

        self.lattice = TypeLattice.from_json(env["lattice"])
        self.extern_table = {
            name: ExternSignature(
                name=name,
                stack_params=sig["stack_params"],
                has_return=sig["has_return"],
                variadic=sig["variadic"],
                constraints=tuple(sig["constraints"]),
                quantified=tuple(sig["quantified"]),
            )
            for name, sig in env["externs"].items()
        }
        config = SolverConfig(
            precise_bounds=env["solver"]["precise_bounds"],
            max_scheme_depth=env["solver"]["max_scheme_depth"],
            refine_parameters=env["solver"]["refine_parameters"],
            polymorphic=env["solver"]["polymorphic"],
        )
        self.solver = Solver(self.lattice, extern_schemes(self.extern_table), config)
        self.config = config
        self.refine = config.refine_parameters
        cache_dir = env.get("cache_dir")
        # Always keep a store: the disk tier (when configured) is shared with
        # every other process, and the small memory tier persists across this
        # worker's tasks -- corpus-mode chunks of cluster binaries reuse each
        # other's shared-library SCCs here without any parent round-trip.
        self.store: Optional[SummaryStore] = SummaryStore(
            capacity=256, cache_dir=cache_dir
        )


_STATE: Optional[_WorkerState] = None


def _init_worker(env_json: str) -> None:
    """Process-pool initializer: build the per-worker solver environment."""
    global _STATE
    env = json.loads(env_json)
    if env.get("format") != PROCPOOL_FORMAT:
        raise RuntimeError(
            f"procpool environment format {env.get('format')!r} != {PROCPOOL_FORMAT!r}"
        )
    _STATE = _WorkerState(env)


def _check_fault_injection(scc: Sequence[str]) -> None:
    """Test-only hooks: hard-crash or soft-fail when solving a marked SCC."""
    crash = os.environ.get(CRASH_ENV)
    if crash and crash in scc:
        os._exit(13)
    fail = os.environ.get(FAIL_ENV)
    if fail and fail in scc:
        raise RuntimeError(f"injected worker failure for {fail!r}")


def _worker_solve_chunk(task_json: str) -> str:
    """Solve one chunk of SCCs; returns the result message as JSON text.

    Runs entirely inside a worker process.  Per SCC: probe the shared disk
    tier by summary key (another process may have solved it already), else
    decode the inputs, solve, collect REFINEPARAMETERS contributions, publish
    to the disk tier, and ship the serialized summary back.
    """
    state = _STATE
    if state is None:  # pragma: no cover - initializer contract violation
        raise RuntimeError("worker used before initialization")
    codec_start = time.perf_counter()
    task = json.loads(task_json)
    if task.get("format") != PROCPOOL_FORMAT:
        raise RuntimeError(
            f"procpool task format {task.get('format')!r} != {PROCPOOL_FORMAT!r}"
        )
    if task.get("kind") == "programs":
        return _worker_analyze_programs(state, task)

    reader = _TableReader(task["strings"])
    callees: Dict[str, ProcedureResult] = {
        name: decode_callee(name, entry, reader, state.lattice)
        for name, entry in task["callees"].items()
    }
    codec_seconds = time.perf_counter() - codec_start

    # When the parent sent a trace context, record this chunk's spans on a
    # local tracer (same trace id, parented under the parent's wave span) and
    # ship them back for Tracer.adopt to stitch.  Installed as the process
    # tracer for the chunk so the solver's own stage spans nest underneath.
    trace_ctx = task.get("trace")
    tracer = Tracer(trace_id=trace_ctx["trace_id"]) if trace_ctx else None

    def solve_chunk() -> List[Dict[str, object]]:
        nonlocal codec_seconds
        results: List[Dict[str, object]] = []
        active = get_tracer()
        for item in task["sccs"]:
            scc: List[str] = item["scc"]
            key: Optional[str] = item.get("key")
            _check_fault_injection(scc)
            start = time.perf_counter()

            if key and state.store is not None:
                payload = state.store.get_payload(key)
                if payload is not None:
                    results.append(
                        {
                            "scc": scc,
                            "summary": payload,
                            "stats": SolveStats().to_json(),
                            "seconds": time.perf_counter() - start,
                            "from_disk": True,
                        }
                    )
                    continue

            decode_start = time.perf_counter()
            scc_inputs = {
                name: decode_input(name, entry, reader)
                for name, entry in item["inputs"].items()
            }
            codec_seconds += time.perf_counter() - decode_start
            stats = SolveStats()
            with active.span("procpool.solve_scc", scc=",".join(scc)):
                scc_results = state.solver.solve_scc(
                    scc, scc_inputs, callees, stats=stats
                )
                if state.refine:
                    merged = ChainMap(scc_results, callees)
                    contributions = {
                        name: collect_caller_contributions(
                            scc_inputs[name], scc_results[name], merged
                        )
                        for name in scc
                    }
                else:
                    contributions = {}
                payload = serialize_summary(
                    summarize_scc(scc, scc_inputs, scc_results, contributions)
                )
            if key and state.store is not None:
                state.store.admit_payload(key, payload, write_disk=True)
            results.append(
                {
                    "scc": scc,
                    "summary": payload,
                    "stats": stats.to_json(),
                    "seconds": time.perf_counter() - start,
                    "from_disk": False,
                }
            )
        return results

    if tracer is not None:
        with tracing(tracer), tracer.attach(trace_ctx):
            results = solve_chunk()
    else:
        results = solve_chunk()

    # codec_seconds covers this chunk's decode side (task parse, string-table
    # reads, callee/input reconstruction); the reply's own json.dumps cannot
    # time itself and is counted by the parent's receive path instead.
    reply: Dict[str, object] = {
        "pid": os.getpid(),
        "results": results,
        "codec_seconds": codec_seconds,
    }
    if tracer is not None:
        reply["spans"] = tracer.spans()
    return json.dumps(reply, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Corpus mode: whole programs per task (parent -> worker)
# ---------------------------------------------------------------------------
#
# Small-program corpora defeat wave-level parallelism -- a dozen-function
# program has waves of two or three SCCs, so every wave round-trip costs more
# IPC than it buys solving.  Corpus mode instead ships *whole programs* (as
# their canonical assembly text) and each worker runs the full front half of
# the service pipeline -- parse, constraint generation, bottom-up SCC solving
# -- returning the per-SCC summary payloads plus the typing inputs in the v2
# integer codec.  The parent admits the payloads into its store and replays
# ``analyze`` per program with the shipped inputs: every SCC hits the warm
# store, so the parent pays only the decode + display boundary while the
# heavy lifting ran in parallel.


def encode_corpus_task(programs: Sequence[Tuple[str, str]]) -> str:
    """One corpus-mode task: ``(name, canonical asm text)`` per program."""
    return json.dumps(
        {
            "format": PROCPOOL_FORMAT,
            "kind": "programs",
            "programs": [[name, text] for name, text in programs],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _worker_analyze_programs(state: "_WorkerState", task: Mapping[str, object]) -> str:
    """Corpus-mode worker body: full per-program solve, summaries shipped back."""
    from ..ir.asmparser import parse_program
    from ..ir.callgraph import CallGraph
    from ..typegen.abstract_interp import generate_program_constraints

    env_fp = environment_fingerprint(state.lattice, state.extern_table, state.config)
    table = StringTable()
    entries: List[Dict[str, object]] = []
    for name, text in task["programs"]:
        start = time.perf_counter()
        program = parse_program(text)
        inputs = generate_program_constraints(program, state.extern_table)
        callgraph = CallGraph.from_typing_inputs(inputs)
        sccs = callgraph.sccs_bottom_up()
        keys = scc_summary_keys(
            sccs, callgraph.edges, program_fingerprints(program), env_fp
        )
        stats = SolveStats()
        working: Dict[str, ProcedureResult] = {}
        hits = 0
        summaries: List[List[object]] = []
        for scc in sccs:
            key = keys[tuple(scc)]
            payload = state.store.get_payload(key) if state.store is not None else None
            if payload is not None:
                hits += 1
                summary = deserialize_summary(payload, state.lattice)
                working.update(
                    (pname, procedure.to_result())
                    for pname, procedure in summary.procedures.items()
                )
            else:
                _check_fault_injection(scc)
                scc_results = state.solver.solve_scc(scc, inputs, working, stats=stats)
                if state.refine:
                    merged = ChainMap(scc_results, working)
                    contributions = {
                        pname: collect_caller_contributions(
                            inputs[pname], scc_results[pname], merged
                        )
                        for pname in scc
                    }
                else:
                    contributions = {}
                working.update(scc_results)
                payload = serialize_summary(
                    summarize_scc(scc, inputs, scc_results, contributions)
                )
                if state.store is not None:
                    state.store.admit_payload(key, payload, write_disk=True)
            summaries.append([key, payload])
        codec_start = time.perf_counter()
        encoded_inputs = {
            pname: encode_input(proc, table.intern) for pname, proc in inputs.items()
        }
        codec_seconds = time.perf_counter() - codec_start
        entries.append(
            {
                "name": name,
                "summaries": summaries,
                "inputs": encoded_inputs,
                "stats": stats.to_json(),
                "cache_hits": hits,
                "cache_misses": len(sccs) - hits,
                "codec_seconds": codec_seconds,
                "seconds": time.perf_counter() - start,
            }
        )
    reply = {
        "pid": os.getpid(),
        "kind": "programs",
        "strings": table.to_list(),
        "programs": entries,
    }
    return json.dumps(reply, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# The pool (parent side, long-lived)
# ---------------------------------------------------------------------------


def _start_method() -> str:
    return os.environ.get(START_METHOD_ENV, "spawn")


class ProcPool:
    """A lazily-(re)built process pool bound to one solver environment.

    The pool outlives individual analyses -- worker warm-reuse is the whole
    point -- and is keyed by its environment payload: the owning service
    tears it down and builds a fresh one if the lattice/externs/config/disk
    tier ever change.  A broken pool (crashed worker under the ``spawn``
    executor machinery) is discarded and rebuilt on next use; the chunks in
    flight at the time are requeued by the caller.
    """

    def __init__(self, env_json: str, max_workers: int, chunks_per_worker: int = 2) -> None:
        if max_workers < 1:
            raise ValueError("procpool needs at least one worker")
        self.env_json = env_json
        self.max_workers = max_workers
        #: chunks per worker and wave; >1 gives the pool slack to rebalance
        #: when SCC solve times are skewed within a wave.
        self.chunks_per_worker = max(1, chunks_per_worker)
        self._pool: Optional[ProcessPoolExecutor] = None
        # One lock for pool build/teardown and the counters: several server
        # request threads share one pool, and an unsynchronized lazy build
        # would leak a whole executor (workers included).
        self._lock = threading.Lock()
        #: cumulative per-worker (by pid) SolveStats across the pool's life.
        self.worker_stats: Dict[int, SolveStats] = {}
        self.chunks_dispatched = 0
        self.chunks_failed = 0
        self.pools_built = 0

    # -- lifecycle -------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                import multiprocessing

                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context(_start_method()),
                    initializer=_init_worker,
                    initargs=(self.env_json,),
                )
                self.pools_built += 1
            return self._pool

    def _discard_pool(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down (workers exit); safe to call repeatedly."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "ProcPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch --------------------------------------------------------------

    def submit_chunks(self, payloads: Sequence[str]) -> List[Optional[Dict[str, object]]]:
        """Run task payloads on the pool; ``None`` marks a failed chunk.

        Failures are contained per chunk: a worker exception yields ``None``
        for that chunk only, a dead worker (BrokenProcessPool) yields ``None``
        for every not-yet-finished chunk and discards the pool so the next
        wave gets a fresh one.  The caller requeues ``None`` chunks in-process.
        """
        try:
            pool = self._ensure_pool()
            futures = [pool.submit(_worker_solve_chunk, payload) for payload in payloads]
        except (OSError, RuntimeError, BrokenProcessPool):
            self._discard_pool()
            self._count(failed=len(payloads))
            return [None] * len(payloads)
        self._count(dispatched=len(payloads))
        replies: List[Optional[Dict[str, object]]] = []
        broken = False
        for future in futures:
            if broken:
                future.cancel()
                replies.append(None)
                self._count(failed=1)
                continue
            try:
                replies.append(json.loads(future.result()))
            except BrokenProcessPool:
                broken = True
                replies.append(None)
                self._count(failed=1)
            except Exception:
                replies.append(None)
                self._count(failed=1)
        if broken:
            self._discard_pool()
        return replies

    def _count(self, dispatched: int = 0, failed: int = 0) -> None:
        with self._lock:
            self.chunks_dispatched += dispatched
            self.chunks_failed += failed
        registry = get_registry()
        if dispatched:
            registry.counter("procpool_chunks_dispatched_total").inc(dispatched)
        if failed:
            registry.counter("procpool_chunks_failed_total").inc(failed)

    def record_worker_stats(self, pid: int, stats: SolveStats) -> None:
        with self._lock:
            self.worker_stats.setdefault(pid, SolveStats()).merge(stats)

    def snapshot(self) -> Dict[str, object]:
        """Pool-level counters for the server's ``stats`` verb."""
        with self._lock:
            return {
                "max_workers": self.max_workers,
                "start_method": _start_method(),
                "pools_built": self.pools_built,
                "chunks_dispatched": self.chunks_dispatched,
                "chunks_failed": self.chunks_failed,
                "workers": {
                    str(pid): stats.to_json()
                    for pid, stats in sorted(self.worker_stats.items())
                },
            }


# ---------------------------------------------------------------------------
# The per-run wave runner (parent side, one per solve_inputs call)
# ---------------------------------------------------------------------------


class ProcessWaveRunner:
    """Adapts one analysis run's context to the scheduler's ``remote`` slot.

    Carries the run's typing inputs, working results and summary keys; the
    scheduler hands it whole waves and a local fallback.  Results come back in
    the wave's listed SCC order regardless of worker completion order, and the
    decoded triple+payload matches the local ``solve`` shape exactly, so the
    publish path cannot tell the backends apart.
    """

    def __init__(
        self,
        pool: ProcPool,
        inputs: Mapping[str, ProcedureTypingInput],
        working: Mapping[str, ProcedureResult],
        keys: Mapping[Tuple[str, ...], str],
        lattice: TypeLattice,
    ) -> None:
        self.pool = pool
        self.inputs = inputs
        self.working = working
        self.keys = keys
        self.lattice = lattice
        #: per-run aggregates (the pool keeps the cross-run totals).
        self.worker_stats: Dict[int, SolveStats] = {}
        self.worker_failed = 0
        self.requeued_sccs: List[str] = []
        self.disk_reused = 0
        #: wall seconds spent in the task/result codec: parent-side encode and
        #: decode plus the worker-reported chunk decode time.
        self.codec_seconds = 0.0

    def _decode_entry(self, entry: Mapping[str, object]):
        summary = deserialize_summary(entry["summary"], self.lattice)
        scc_results = {
            name: procedure.to_result() for name, procedure in summary.procedures.items()
        }
        contributions = {
            name: list(procedure.contributions)
            for name, procedure in summary.procedures.items()
        }
        stats = SolveStats.from_json(entry["stats"])
        if entry.get("from_disk"):
            self.disk_reused += 1
        return scc_results, contributions, stats, entry["summary"]

    def solve_wave(
        self,
        wave: Sequence[Sequence[str]],
        fallback: Callable[[Sequence[str]], object],
    ) -> List[Tuple[Sequence[str], object, float]]:
        """Solve one wave on the pool; returns ``(scc, result, seconds)`` rows.

        Chunks are interleaved round-robin so consecutive (often
        similarly-sized) SCCs spread across workers.  Any chunk that fails --
        worker crash, injected fault, undecodable reply -- is requeued SCC by
        SCC on the in-process ``fallback`` and counted in ``worker_failed``.
        """
        chunk_count = max(
            1, min(len(wave), self.pool.max_workers * self.pool.chunks_per_worker)
        )
        chunks = [list(wave[index::chunk_count]) for index in range(chunk_count)]
        chunks = [chunk for chunk in chunks if chunk]
        # `working` is fixed while a wave is in flight, so shared callees are
        # encoded once and reused across the wave's chunk payloads.
        callee_cache: Dict[str, Dict[str, object]] = {}
        tracer = get_tracer()
        # The active span here is the scheduler's wave span; ship its context
        # so worker-side solve spans stitch in underneath it.
        trace_ctx = tracer.current_context() if tracer.enabled else None
        encode_start = time.perf_counter()
        payloads = [
            encode_task(
                chunk, self.inputs, self.working, self.keys, callee_cache, trace=trace_ctx
            )
            for chunk in chunks
        ]
        self.codec_seconds += time.perf_counter() - encode_start
        replies = self.pool.submit_chunks(payloads)
        registry = get_registry()

        solved: Dict[Tuple[str, ...], Tuple[object, float]] = {}
        requeue: List[Sequence[str]] = []
        for chunk, reply in zip(chunks, replies):
            if reply is None:
                requeue.extend(chunk)
                continue
            if reply.get("spans"):
                tracer.adopt(reply["spans"])
            self.codec_seconds += float(reply.get("codec_seconds", 0.0))
            busy = sum(
                float(entry.get("seconds", 0.0)) for entry in reply.get("results", ())
            )
            if busy:
                registry.counter("procpool_worker_busy_seconds_total").inc(busy)
            pid = int(reply.get("pid", 0))
            entries = {tuple(entry["scc"]): entry for entry in reply.get("results", ())}
            for scc in chunk:
                entry = entries.get(tuple(scc))
                if entry is None:
                    requeue.append(scc)
                    continue
                decode_start = time.perf_counter()
                try:
                    triple = self._decode_entry(entry)
                except Exception:
                    requeue.append(scc)
                    continue
                finally:
                    self.codec_seconds += time.perf_counter() - decode_start
                stats = triple[2]
                self.worker_stats.setdefault(pid, SolveStats()).merge(stats)
                self.pool.record_worker_stats(pid, stats)
                solved[tuple(scc)] = (triple, float(entry.get("seconds", 0.0)))

        if requeue:
            registry.counter("procpool_sccs_requeued_total").inc(len(requeue))
        for scc in requeue:
            self.worker_failed += 1
            self.requeued_sccs.append(",".join(scc))
            start = time.perf_counter()
            result = fallback(scc)
            solved[tuple(scc)] = (result, time.perf_counter() - start)

        return [(scc, *solved[tuple(scc)]) for scc in wave]
