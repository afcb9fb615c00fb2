"""Corpus fan-out: whole programs analyzed on warm worker processes.

Retypd's per-SCC type schemes are independent, content-keyed summaries, so a
corpus of programs can be solved on *processes* -- one program per unit of
work -- and the results merged back through the summary store.  This module
supplies everything :func:`~repro.service.batch.analyze_corpus` needs when
the service runs with ``executor="processes"``:

* **a pickle-free codec** -- programs travel to a worker as their canonical
  assembly text; per-SCC summaries (``serialize_summary``), typing inputs
  (one string-intern table per reply plus each input's constraint table as
  flat int arrays) and per-stage
  :class:`~repro.core.solver.SolveStats` come back as JSON text.  Worker
  processes never unpickle live solver objects;
* **warm workers** -- each worker builds one
  :class:`~repro.service.AnalysisService` once (from a JSON environment
  payload) and runs its probe and ``solve_inputs`` per program, the same
  bottom-up loop as an in-process analysis.  Its store (a memory tier that
  persists across tasks, plus the shared disk tier when one is configured)
  serves any summary a process already published instead of re-solving it;
* **chunked dispatch** -- one IPC message carries a *chunk* of programs,
  ``CHUNKS_PER_WORKER`` chunks per worker, amortizing serialization and queue
  latency while leaving the pool slack to rebalance skewed programs;
* **graceful degradation** -- a worker crash (or a broken pool) fails only
  the chunks still in flight; their programs are analyzed in-process by the
  caller, and the pool is rebuilt lazily on next use.

A single program is never split across processes: solving one program's
independent SCCs on 2 workers measured 0.70x serial on the fig7 suite and a
median below 1x on single programs of 100-800 procedures (IPC and codec cost
more than the per-SCC solves they overlap).

The parent-facing entry point is :class:`ProcPool` (one long-lived pool per
:class:`~repro.service.AnalysisService`, keyed by its environment payload).
"""

from __future__ import annotations

import json
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.intern import ConstraintTable, StringTable
from ..core.labels import parse_label
from ..core.lattice import TypeLattice
from ..core.solver import Callsite, ProcedureTypingInput, SolveStats, SolverConfig
from ..core.variables import parse_dtv
from ..obs.trace import Tracer, get_tracer, tracing
from .store import STORE_FORMAT, serialize_summary

if TYPE_CHECKING:
    from .incremental import AnalysisService

#: bump when the environment/task payload layout changes so a stale worker
#: (from a hot-reloaded parent) can never misinterpret a task.  v2 introduced
#: the integer-table codec; v3 dropped the per-SCC wave tasks, so every task
#: is a chunk of whole programs; v4 ships each input's constraint table; v5
#: dropped the solver's scheme depth, now a constant.
PROCPOOL_FORMAT = "retypd-procpool-v5"

#: multiprocessing start method; ``spawn`` is deliberate -- the parent may be
#: a threaded asyncio daemon, and forking a threaded process is undefined
#: behaviour territory.
START_METHOD = "spawn"

#: chunks per worker and corpus; >1 gives the pool slack to rebalance when
#: program solve times are skewed.
CHUNKS_PER_WORKER = 2

#: test-only fault injection: a worker whose store missed an SCC containing
#: this procedure hard-exits (crash) or raises (soft failure) before solving
#: it.  Used by the fan-out fallback tests; unset in production.
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
                "refine_parameters": solver_config.refine_parameters,
                "polymorphic": solver_config.polymorphic,
            },
            "cache_dir": cache_dir,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


# ---------------------------------------------------------------------------
# Typing-input codec (worker -> parent, inside each reply)
# ---------------------------------------------------------------------------
#
# Every reply carries one string-intern table (``strings``); a typing input
# ships its sealed :class:`~repro.core.intern.ConstraintTable` as it is --
# variable strings and label strings as table ids, the prefix and last-label
# arrays, the constraints as flat id arrays over the table's own variable
# ids (``"s": [lhs, rhs, lhs, rhs, ...]``, ``"a": [is_add, l, r, res, ...]``).
# Decoding rebuilds the table without parsing a variable: only the formals
# become objects (``_TableReader`` parses each at most once).


class _TableReader:
    """A reply's string table: parse each id at most once."""

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


def encode_input(
    proc: ProcedureTypingInput, intern: Callable[[str], int]
) -> Dict[str, object]:
    """One procedure's solver input as flat table-ref arrays."""
    table = proc.table
    callsites: List[int] = []
    for c in proc.callsites:
        callsites.append(intern(c.callee))
        callsites.append(intern(c.base))
    additive: List[int] = []
    for is_add, left, right, result in table.additive:
        additive.extend((int(is_add), left, right, result))
    return {
        "n": [intern(name) for name in table.names],
        "p": table.prefix,
        "l": table.last_label,
        "ln": [intern(name) for name in table.label_names],
        "s": [ident for pair in table.subtype for ident in pair],
        "a": additive,
        "fi": [intern(str(dtv)) for dtv in proc.formal_ins],
        "fo": [intern(str(dtv)) for dtv in proc.formal_outs],
        "cs": callsites,
    }


def decode_input(
    name: str, entry: Mapping[str, object], reader: _TableReader
) -> ProcedureTypingInput:
    """Inverse of :func:`encode_input` (parent side)."""
    text = reader.text
    subtype = entry["s"]
    additive = entry["a"]
    table = ConstraintTable.from_arrays(
        names=[text(sid) for sid in entry["n"]],
        prefix=entry["p"],
        last_label=entry["l"],
        labels=[parse_label(text(sid)) for sid in entry["ln"]],
        subtype=list(zip(subtype[0::2], subtype[1::2])),
        additive=[
            (bool(additive[i]), additive[i + 1], additive[i + 2], additive[i + 3])
            for i in range(0, len(additive), 4)
        ],
    )
    callsites = entry["cs"]
    return ProcedureTypingInput(
        name=name,
        constraints=table,
        formal_ins=tuple(reader.dtv(sid) for sid in entry["fi"]),
        formal_outs=tuple(reader.dtv(sid) for sid in entry["fo"]),
        callsites=tuple(
            Callsite(text(callsites[i]), text(callsites[i + 1]))
            for i in range(0, len(callsites), 2)
        ),
    )


# ---------------------------------------------------------------------------
# The worker (runs in the child processes)
# ---------------------------------------------------------------------------


def _worker_service(env: Mapping[str, object]) -> "AnalysisService":
    """The service one worker builds once and reuses for every task."""
    from ..typegen.externs import ExternSignature
    from .incremental import AnalysisService, ServiceConfig

    config = ServiceConfig(
        solver=SolverConfig(
            precise_bounds=env["solver"]["precise_bounds"],
            refine_parameters=env["solver"]["refine_parameters"],
            polymorphic=env["solver"]["polymorphic"],
        ),
        # A small memory tier that persists across this worker's tasks
        # (chunks of cluster binaries reuse each other's shared-library SCCs
        # here without a parent round-trip), plus the disk tier, when one is
        # configured, shared with every other process.
        cache_capacity=256,
        cache_dir=env.get("cache_dir"),
    )
    return AnalysisService(
        config,
        lattice=TypeLattice.from_json(env["lattice"]),
        externs={
            name: ExternSignature(
                name=name,
                stack_params=sig["stack_params"],
                has_return=sig["has_return"],
                variadic=sig["variadic"],
                constraints=tuple(sig["constraints"]),
                quantified=tuple(sig["quantified"]),
            )
            for name, sig in env["externs"].items()
        },
    )


_SERVICE: Optional["AnalysisService"] = None


def _init_worker(env_json: str) -> None:
    """Process-pool initializer: build the per-worker analysis service."""
    global _SERVICE
    env = json.loads(env_json)
    if env.get("format") != PROCPOOL_FORMAT:
        raise RuntimeError(
            f"procpool environment format {env.get('format')!r} != {PROCPOOL_FORMAT!r}"
        )
    _SERVICE = _worker_service(env)


def _check_fault_injection(sccs: Sequence[Sequence[str]]) -> None:
    """Test-only hooks: hard-crash or soft-fail when a marked procedure is
    in one of the SCCs about to be solved."""
    names = {name for scc in sccs for name in scc}
    crash = os.environ.get(CRASH_ENV)
    if crash and crash in names:
        os._exit(13)
    fail = os.environ.get(FAIL_ENV)
    if fail and fail in names:
        raise RuntimeError(f"injected worker failure for {fail!r}")


def _worker_solve_chunk(task_json: str) -> str:
    """Analyze one chunk of programs; returns the reply message as JSON text.

    Runs entirely inside a worker process.  When the parent sent a trace
    context, this chunk's spans are recorded on a local tracer (same trace id,
    parented under the parent's fan-out span) and shipped back for
    :meth:`Tracer.adopt` to stitch; it is installed as the process tracer for
    the chunk so the solver's own stage spans nest underneath.
    """
    service = _SERVICE
    if service is None:  # pragma: no cover - initializer contract violation
        raise RuntimeError("worker used before initialization")
    task = json.loads(task_json)
    if task.get("format") != PROCPOOL_FORMAT:
        raise RuntimeError(
            f"procpool task format {task.get('format')!r} != {PROCPOOL_FORMAT!r}"
        )
    trace_ctx = task.get("trace")
    if trace_ctx is None:
        reply = _analyze_programs(service, task["programs"])
    else:
        tracer = Tracer(trace_id=trace_ctx["trace_id"])
        with tracing(tracer), tracer.attach(trace_ctx):
            reply = _analyze_programs(service, task["programs"])
        reply["spans"] = tracer.spans()
    return json.dumps(reply, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Corpus fan-out: whole programs per task (parent -> worker)
# ---------------------------------------------------------------------------
#
# A task ships *whole programs* (as their canonical assembly text) and each
# worker runs the front half of its service's pipeline -- parse, store probe,
# constraint generation and bottom-up solving for the SCCs its store missed
# -- returning every SCC's summary payload plus the generated typing inputs
# in the integer codec.  The parent admits the payloads into its store and
# replays ``analyze`` per program with the shipped inputs: every SCC hits the
# warm store, so the parent pays only the decode + display boundary while
# the heavy lifting ran in parallel.


def encode_corpus_task(
    programs: Sequence[Tuple[str, str]],
    trace: Optional[Mapping[str, object]] = None,
) -> str:
    """One fan-out task: ``(name, canonical asm text)`` per program.

    ``trace`` (a :meth:`Tracer.current_context` dict) asks the worker to
    record spans for this chunk; omitted when tracing is off so the payload
    carries no dead weight.
    """
    message: Dict[str, object] = {
        "format": PROCPOOL_FORMAT,
        "programs": [[name, text] for name, text in programs],
    }
    if trace is not None:
        message["trace"] = dict(trace)
    return json.dumps(message, sort_keys=True, separators=(",", ":"))


def _analyze_programs(
    service: "AnalysisService", programs: Sequence[Sequence[str]]
) -> Dict[str, object]:
    """The worker body: the service's probe and solve per program.

    The worker's store serves what it can (its memory tier persists across
    tasks, and the disk tier, when configured, is shared with every other
    process); constraints are generated and solved for the rest only.  Every
    SCC's summary goes back, with the inputs generated here.
    """
    from ..ir.asmparser import parse_program
    from ..typegen.abstract_interp import generate_program_constraints

    tracer = get_tracer()
    table = StringTable()
    entries: List[Dict[str, object]] = []
    for name, text in programs:
        start = time.perf_counter()
        with tracer.span("procpool.analyze_program", program=name):
            program = parse_program(text)
            probe = service._probe(program)
            _check_fault_injection(
                [scc for scc in probe.sccs if tuple(scc) not in probe.cached]
            )
            inputs = generate_program_constraints(
                program,
                service.extern_table,
                known=probe.known(),
                sccs=probe.sccs,
            )
            solved, stats = service.solve_inputs(program, inputs, probe)
        codec_start = time.perf_counter()
        summaries = [
            [probe.keys[tuple(scc)], serialize_summary(solved.summaries[tuple(scc)])]
            for scc in probe.sccs
        ]
        encoded_inputs = {
            pname: encode_input(proc, table.intern) for pname, proc in inputs.items()
        }
        stage_seconds = stats["stage_seconds"]
        stage_seconds["codec_seconds"] = time.perf_counter() - codec_start
        entries.append(
            {
                "name": name,
                "summaries": summaries,
                "inputs": encoded_inputs,
                "stats": stage_seconds,
                "cache_hits": stats["cache_hits"],
                "cache_misses": stats["cache_misses"],
                "seconds": time.perf_counter() - start,
            }
        )
    return {"pid": os.getpid(), "strings": table.to_list(), "programs": entries}


# ---------------------------------------------------------------------------
# The pool (parent side, long-lived)
# ---------------------------------------------------------------------------


class ProcPool:
    """A lazily-(re)built process pool bound to one solver environment.

    The pool outlives individual analyses -- worker warm-reuse is the whole
    point -- and is keyed by its environment payload: the owning service
    tears it down and builds a fresh one if the lattice/externs/config/disk
    tier ever change.  A broken pool (crashed worker under the ``spawn``
    executor machinery) is discarded and rebuilt on next use; the programs
    of the chunks in flight at the time are analyzed in-process by the caller.
    """

    def __init__(self, env_json: str, max_workers: int) -> None:
        if max_workers < 1:
            raise ValueError("procpool needs at least one worker")
        self.env_json = env_json
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        # One lock for pool build/teardown and the counters: several server
        # request threads share one pool, and an unsynchronized lazy build
        # would leak a whole executor (workers included).
        self._lock = threading.Lock()
        #: cumulative per-worker (by pid) SolveStats across the pool's life.
        self.worker_stats: Dict[int, SolveStats] = {}
        self.chunks_dispatched = 0
        self.chunks_failed = 0
        #: worker-side wall time of every program a worker analyzed.
        self.busy_seconds = 0.0
        #: SCCs the caller solved in-process because their program's worker
        #: failed.
        self.sccs_requeued = 0
        self.pools_built = 0

    # -- lifecycle -------------------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                import multiprocessing

                self._pool = ProcessPoolExecutor(
                    max_workers=self.max_workers,
                    mp_context=multiprocessing.get_context(START_METHOD),
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

    # -- dispatch --------------------------------------------------------------

    def submit_chunks(self, payloads: Sequence[str]) -> List[Optional[Dict[str, object]]]:
        """Run task payloads on the pool; ``None`` marks a failed chunk.

        Failures are contained per chunk: a worker exception yields ``None``
        for that chunk only, a dead worker (BrokenProcessPool) yields ``None``
        for every not-yet-finished chunk and discards the pool so the next
        corpus gets a fresh one.  The caller analyzes the programs of ``None``
        chunks in-process.
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

    def record_worker_stats(self, pid: int, stats: SolveStats, seconds: float) -> None:
        """Merge one program's worker ``SolveStats`` and its wall time."""
        with self._lock:
            self.worker_stats.setdefault(pid, SolveStats()).merge(stats)
            self.busy_seconds += seconds

    def record_requeued(self, sccs: int) -> None:
        with self._lock:
            self.sccs_requeued += sccs

    def snapshot(self) -> Dict[str, object]:
        """Pool-level counters, read by the server's ``stats`` and ``metrics`` verbs.

        ``chunks_dispatched``/``chunks_failed`` count IPC chunks,
        ``busy_seconds`` the workers' per-program analysis time and
        ``sccs_requeued`` the SCCs solved in-process after a worker failed;
        ``workers`` is the cumulative per-worker ``SolveStats`` merge.
        """
        with self._lock:
            return {
                "max_workers": self.max_workers,
                "start_method": START_METHOD,
                "pools_built": self.pools_built,
                "chunks_dispatched": self.chunks_dispatched,
                "chunks_failed": self.chunks_failed,
                "busy_seconds": self.busy_seconds,
                "sccs_requeued": self.sccs_requeued,
                "workers": {
                    str(pid): stats.to_json()
                    for pid, stats in sorted(self.worker_stats.items())
                },
            }
