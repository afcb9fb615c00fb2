"""The analysis service driver: cached, incremental, bottom-up solving.

:class:`AnalysisService` is the orchestrator the public pipeline routes
through.  One ``analyze`` call runs the same algorithm as the plain solver --
constraint generation, bottom-up per-SCC solving, REFINEPARAMETERS -- but
drives :meth:`Solver.solve_scc <repro.core.solver.Solver.solve_scc>` piecewise
so that three things become possible:

* **summary reuse** -- every solved SCC is published to a content-addressed
  :class:`~repro.service.store.SummaryStore`; any SCC whose key (procedure IR
  + transitive callee keys + environment) is already present is loaded instead
  of solved -- and its constraints are never generated, since the stored
  formals are all its callers and the display layer need -- exactly the
  separate-compilation reuse of function summaries;
* **incremental re-analysis** -- editing a procedure changes its SCC's key and
  the keys of its transitive callers, so precisely that invalidation cone is
  re-solved (:class:`IncrementalSession` reports the cone explicitly, computed
  top-down via ``CallGraph.callers``);
* **corpus fan-out** -- with ``executor="processes"``,
  :func:`~repro.service.batch.analyze_corpus` solves whole programs on the
  warm :class:`~repro.service.procpool.ProcPool`, whose workers each run an
  ``AnalysisService`` of their own, and replays them here against the
  pre-warmed store.

:meth:`AnalysisService.solve_inputs` is the one bottom-up SCC loop: it
solves the SCCs the store missed in bottom-up order and publishes each
summary before the next SCC starts.

Warm-or-cold, in-process or fanned out, the service produces results
string-equal to a plain :func:`repro.analyze_program` run: the final-results
dict is rebuilt in bottom-up SCC order (struct naming in the display layer is
order-sensitive) and refinement contributions are re-applied in the solver's
exact caller order.
"""

from __future__ import annotations

import os
import threading
import time
from collections import ChainMap
from dataclasses import dataclass, field as dc_field, replace
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from ..core.display import DisplayRecord, TypeDisplay
from ..core.lattice import TypeLattice, default_lattice
from ..core.solver import (
    ProcedureResult,
    ProcedureTypingInput,
    RefinementContribution,
    SolveStats,
    Solver,
    SolverConfig,
    apply_refinement,
    collect_caller_contributions,
)
from ..ir.asmparser import ParsedChunk, ParseTable, parse_program
from ..ir.callgraph import CallGraph
from ..ir.program import Program
from ..obs.trace import checkpoint, get_tracer
from ..typegen.abstract_interp import Formals, generate_program_constraints
from ..typegen.externs import (
    ExternSignature,
    ensure_lattice_tags,
    extern_schemes,
    standard_externs,
)
from .procpool import ProcPool, encode_environment
from .store import (
    ProcedureSummary,
    SCCSummary,
    SummaryStore,
    environment_fingerprint,
    procedure_fingerprint,
    program_fingerprints,
    scc_summary_keys,
    summarize_scc,
)

if TYPE_CHECKING:
    from ..core.ctype import FunctionType
    from ..pipeline import FunctionTypes


#: the executor strategies :class:`ServiceConfig` accepts.
EXECUTORS = ("serial", "processes")


@dataclass
class ServiceConfig:
    """Tunable knobs of the analysis service layer."""

    #: configuration forwarded to the core solver.
    solver: SolverConfig = dc_field(default_factory=SolverConfig)
    #: probe and populate the summary store (set False for one-shot analyses
    #: where summarizing every SCC buys nothing).
    use_cache: bool = True
    #: capacity (entries) of the store's in-memory LRU tier; an entry is one
    #: SCC's decoded summary (or its payload until the first lookup decodes it).
    cache_capacity: int = 4096
    #: optional directory for the store's persistent on-disk JSON tier.
    cache_dir: Optional[str] = None
    #: worker-process count for corpus fan-out (default: min(8, cpus)).
    max_workers: Optional[int] = None
    #: ``"serial"`` solves everything in-process; ``"processes"`` makes
    #: :func:`~repro.service.batch.analyze_corpus` fan whole programs out to
    #: worker processes.  A single ``analyze`` is always in-process.
    executor: str = "serial"

    def __post_init__(self) -> None:
        if self.executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {self.executor!r} (expected one of {EXECUTORS})"
            )


@dataclass
class _StoreProbe:
    """One run's SCCs and summary-store lookups (see ``_probe``)."""

    #: the call graph's SCCs, bottom-up.
    sccs: List[List[str]]
    #: content-transitive store key per SCC (empty with the cache off).
    keys: Dict[Tuple[str, ...], str] = dc_field(default_factory=dict)
    #: the SCCs the store served, with their summaries.
    cached: Dict[Tuple[str, ...], SCCSummary] = dc_field(default_factory=dict)

    def known(self) -> Dict[str, ProcedureSummary]:
        """Every store-served procedure, by its stored summary: its formals
        display it and give its callers their ``CalleeInfo``."""
        return {
            name: summary.procedures[name]
            for members, summary in self.cached.items()
            for name in members
        }


@dataclass
class _Solved:
    """One run's unrefined results, as :meth:`AnalysisService.solve_inputs`
    leaves them for refinement and display."""

    #: every procedure in bottom-up SCC order: the fresh result of a solved
    #: procedure, or (read-only) the stored summary of a served one.
    results: Dict[str, Union[ProcedureResult, ProcedureSummary]]
    #: the REFINEPARAMETERS contributions each procedure makes as a caller.
    contributions: Dict[str, Sequence[RefinementContribution]]
    #: every SCC's summary, served or published this run (empty with the
    #: cache off); a corpus fan-out worker ships these to its parent.
    summaries: Dict[Tuple[str, ...], SCCSummary]


@dataclass(frozen=True)
class _ProcedureEntry(ParsedChunk):
    """A parsed procedure chunk plus what a session derives from it once."""

    fingerprint: str
    callees: Tuple[str, ...]

    @classmethod
    def of(cls, chunk: ParsedChunk) -> "_ProcedureEntry":
        procedure = chunk.procedure
        return cls(
            procedure,
            chunk.externs,
            chunk.globals,
            procedure_fingerprint(procedure),
            tuple(procedure.direct_callees()),
        )


@dataclass
class _Displayed:
    """One procedure's display and what it depended on."""

    #: its SCC's store key plus ``(caller, caller SCC key)`` of every caller
    #: that feeds it refinement contributions, in program order: equal keys
    #: mean an equal refined result.
    key: Tuple
    #: the display-state reads and writes of its conversion.
    record: DisplayRecord
    function_type: FunctionType
    param_names: Tuple[str, ...]
    param_locations: Tuple[str, ...]
    #: its refined result when it has feeders; any other result is just the
    #: stored summary's (or this run's solve), cheap to materialize again.
    refined: Optional[ProcedureResult]


@dataclass
class _Version:
    """What an :class:`IncrementalSession` hands the service for one version."""

    program: Program
    fingerprints: Dict[str, str]
    callgraph: CallGraph
    #: SCC-key memo kept across versions (see ``scc_summary_keys``).
    scc_keys: Dict[Tuple, str]
    #: the previous version's display table, by procedure name.
    displayed: Mapping[str, _Displayed]
    #: this version's display table, filled by the service.
    next_displayed: Dict[str, _Displayed] = dc_field(default_factory=dict)


class AnalysisService:
    """Batched/cached/incremental analysis over one shared summary store."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        lattice: Optional[TypeLattice] = None,
        externs: Optional[Mapping[str, ExternSignature]] = None,
        store: Optional[SummaryStore] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        self.lattice = ensure_lattice_tags(lattice or default_lattice())
        self.extern_table: Dict[str, ExternSignature] = (
            dict(externs) if externs is not None else standard_externs()
        )
        self.extern_schemes = extern_schemes(self.extern_table)
        if store is not None:
            self.store: Optional[SummaryStore] = store
        elif self.config.use_cache:
            self.store = SummaryStore(
                capacity=self.config.cache_capacity,
                cache_dir=self.config.cache_dir,
            )
        else:
            self.store = None
        #: lazily-built process pool for corpus fan-out, keyed by its
        #: environment payload and kept warm across corpora.
        self._procpool = None
        # Serializes pool build/teardown: the server drives one service from
        # several request threads, and racing lazy inits would leak a pool
        # (spawned workers and all) that close() could never reach.
        self._procpool_lock = threading.Lock()
        #: every SCC this service solved in-process, merged over its life
        #: (the server's ``solver_*`` metric rows).  Executor threads run
        #: analyses concurrently, so merges and reads take the lock.
        self._solve_stats = SolveStats()
        self._solve_stats_lock = threading.Lock()

    def solve_stats(self) -> SolveStats:
        """A copy of the lifetime ``SolveStats`` of this service's own solves."""
        total = SolveStats()
        with self._solve_stats_lock:
            total.merge(self._solve_stats)
        return total

    # -- process-pool lifecycle --------------------------------------------------

    def _ensure_procpool(self):
        """The warm process pool for this service's current environment.

        Rebuilt (old workers torn down) whenever the encoded environment --
        lattice, extern table, solver config, disk tier -- changes, so workers
        can never solve under a stale environment.  Thread-safe.
        """
        env = encode_environment(
            self.lattice,
            self.extern_table,
            self.config.solver,
            self.store.cache_dir if self.store is not None else None,
        )
        with self._procpool_lock:
            if self._procpool is not None and self._procpool.env_json != env:
                self._procpool.close()
                self._procpool = None
            if self._procpool is None:
                self._procpool = ProcPool(
                    env, self.config.max_workers or min(8, os.cpu_count() or 1)
                )
            return self._procpool

    def procpool_snapshot(self) -> Dict[str, object]:
        """Pool counters and the cumulative per-worker SolveStats merge.

        Empty until the first corpus fan-out builds the pool; this is the
        public surface the server's ``stats`` verb serves.
        """
        with self._procpool_lock:
            return self._procpool.snapshot() if self._procpool is not None else {}

    def close(self) -> None:
        """Release the process pool (if any); the service stays usable.

        Safe to call repeatedly; the pool is rebuilt lazily on the next
        corpus fan-out.  Long-lived owners (the type-query server,
        corpus drivers) call this on shutdown so worker processes never
        outlive their parent's useful life.
        """
        with self._procpool_lock:
            if self._procpool is not None:
                self._procpool.close()
                self._procpool = None

    def __enter__(self) -> "AnalysisService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- public API ------------------------------------------------------------

    def analyze(
        self,
        source: Union[str, "Program"],
        inputs: Optional[Mapping[str, ProcedureTypingInput]] = None,
    ):
        """Analyze one program; returns :class:`repro.pipeline.ProgramTypes`.

        Stages: parse, call graph, store probe, constraint generation for the
        SCCs the store cannot serve, solve, display.  ``inputs`` optionally
        supplies precomputed typing inputs (skipping constraint generation
        for the procedures they cover); the corpus fan-out path uses it with
        the inputs a worker generated and shipped back, paired with a store
        pre-warmed by that worker's summaries, so this call reduces to
        decode + display.
        """
        return self._analyze(source, inputs)

    def _analyze(
        self,
        source: Union[str, "Program"],
        inputs: Optional[Mapping[str, ProcedureTypingInput]] = None,
        version: Optional[_Version] = None,
    ):
        """:meth:`analyze`, or -- given the ``version`` an
        :class:`IncrementalSession` prepared -- one session step that reuses
        its parse, fingerprints, call graph and previous display table."""
        from ..pipeline import ProgramTypes

        tracer = get_tracer()
        with tracer.span("service.analyze") as root:
            with tracer.span("service.parse"):
                if version is not None:
                    program = version.program
                elif isinstance(source, str):
                    program = parse_program(source)
                else:
                    program = source
            root.set("procedures", len(program.procedures))

            with tracer.span("service.probe"):
                probe = self._probe(program, version)
            known = probe.known()

            start = time.perf_counter()
            if inputs is None:
                with tracer.span("service.constraint_gen"):
                    inputs = generate_program_constraints(
                        program, self.extern_table, known=known, sccs=probe.sccs
                    )
            elif any(
                name not in inputs
                for scc in probe.sccs
                if tuple(scc) not in probe.cached
                for name in scc
            ):
                # Shipped inputs cover only what the worker's store missed; an
                # SCC it served that this store has since evicted is
                # generated here, next to the inputs it was shipped.
                with tracer.span("service.constraint_gen"):
                    inputs = {
                        **inputs,
                        **generate_program_constraints(
                            program,
                            self.extern_table,
                            known=ChainMap(inputs, known),
                            sccs=probe.sccs,
                        ),
                    }
            constraint_time = time.perf_counter() - start

            solve_start = time.perf_counter()
            with tracer.span("service.solve"):
                solved, stats = self.solve_inputs(program, inputs, probe)
            solve_time = time.perf_counter() - solve_start

            with tracer.span("service.display"):
                functions, display = self._refine_and_display(
                    program, ChainMap(inputs, known), probe, solved, version
                )
        stats.update(
            {
                "constraint_generation_seconds": constraint_time,
                "solve_seconds": solve_time,
                "total_seconds": constraint_time + solve_time,
                "instructions": program.instruction_count,
                "cfg_nodes": program.cfg_nodes,
            }
        )
        return ProgramTypes(
            program=program, functions=functions, display=display, stats=stats
        )

    # -- the driver ------------------------------------------------------------

    def _probe(self, program: Program, version: Optional[_Version] = None) -> _StoreProbe:
        """Call graph, SCC keys and one store lookup per SCC, before generation.

        Keys are content-transitive, so a hit is valid regardless of what
        happens to other SCCs this run.
        """
        if version is not None:
            callgraph = version.callgraph
        else:
            callgraph = CallGraph.from_program(program)
        probe = _StoreProbe(callgraph.sccs_bottom_up())
        if self.store is None or not self.config.use_cache:
            return probe
        # Recomputed per call (a few cheap hashes) so that mutating the solver
        # config, lattice or extern table between calls can never serve
        # summaries keyed under the old environment.
        environment = environment_fingerprint(
            self.lattice, self.extern_table, self.config.solver
        )
        if version is not None:
            fingerprints, memo = version.fingerprints, version.scc_keys
        else:
            fingerprints, memo = program_fingerprints(program), None
        probe.keys = scc_summary_keys(
            probe.sccs, callgraph.edges, fingerprints, environment, memo
        )
        checkpoint()
        # A lookup served from memory is a dict hit, too short to yield
        # after; one that decodes a payload yields in the store.
        for scc in probe.sccs:
            summary = self.store.get(probe.keys[tuple(scc)], self.lattice)
            if summary is not None:
                probe.cached[tuple(scc)] = summary
        return probe

    def solve_inputs(
        self,
        program: Program,
        inputs: Mapping[str, ProcedureTypingInput],
        probe: _StoreProbe,
    ) -> Tuple[_Solved, Dict[str, object]]:
        """Solve every SCC the store cannot serve; reuse the rest.

        ``inputs`` must cover the SCCs ``probe`` found missing.  Returns the
        unrefined results in bottom-up SCC order (see :class:`_Solved`) and
        the service statistics.
        """
        sccs, keys, cached = probe.sccs, probe.keys, probe.cached
        solver = Solver(self.lattice, self.extern_schemes, self.config.solver)

        # A served procedure's summary stands in for its result: solving its
        # callers reads only the scheme and the formal-sketch keys.
        working: Dict[str, Union[ProcedureResult, ProcedureSummary]] = {}
        contributions_of: Dict[str, Sequence[RefinementContribution]] = {}
        for scc_key, summary in cached.items():
            for name in scc_key:
                procedure = summary.procedures[name]
                working[name] = procedure
                contributions_of[name] = procedure.contributions

        refine = self.config.solver.refine_parameters
        stage_stats = SolveStats()
        use_store = self.store is not None and self.config.use_cache
        summaries: Dict[Tuple[str, ...], SCCSummary] = dict(cached) if use_store else {}

        # Bottom-up: every SCC's callees are solved (or served) before it, and
        # each summary is published -- to ``working`` and the store -- before
        # the next SCC starts.
        scc_seconds: List[Tuple[str, float]] = []
        for scc in sccs:
            if tuple(scc) in cached:
                continue
            start = time.perf_counter()
            scc_results = solver.solve_scc(scc, inputs, working, stats=stage_stats)
            contributions: Dict[str, List[RefinementContribution]] = {}
            if refine:
                # Same-SCC callees shadow, earlier SCCs fall through; no copy.
                merged = ChainMap(scc_results, working)
                for index, name in enumerate(scc):
                    if index:  # between members; the SCC's checkpoint ends the last
                        checkpoint()
                    contributions[name] = collect_caller_contributions(
                        inputs[name], scc_results[name], merged
                    )
            scc_seconds.append((",".join(scc), time.perf_counter() - start))
            checkpoint()
            working.update(scc_results)
            for name in scc:
                contributions_of[name] = contributions.get(name, [])
            if use_store:
                summary = summarize_scc(scc, inputs, scc_results, contributions)
                summaries[tuple(scc)] = summary
                self.store.put(keys[tuple(scc)], summary)
                checkpoint()

        with self._solve_stats_lock:
            self._solve_stats.merge(stage_stats)

        # Deterministic final ordering: the display layer names structs in
        # conversion order, so results must surface bottom-up like the plain
        # solver builds them.
        solved_results = {name: working[name] for scc in sccs for name in scc}

        solved = [name for scc in sccs if tuple(scc) not in cached for name in scc]
        reused = [name for scc in sccs if tuple(scc) in cached for name in scc]
        stats: Dict[str, object] = {
            # Generation work this run: only SCCs the store could not serve
            # (on the corpus fan-out path, the inputs a worker generated).
            "constraints": sum(len(proc.table) for proc in inputs.values()),
            "generated_procedures": sorted(inputs),
            "procedures": len(program.procedures),
            "scc_count": len(sccs),
            "sccs_solved": len(sccs) - len(cached),
            "sccs_cached": len(cached),
            "cache_hits": len(cached),
            "cache_misses": len(sccs) - len(cached),
            "solved_procedures": sorted(solved),
            "cached_procedures": sorted(reused),
            "scc_seconds": scc_seconds,
            # Corpus fan-out overwrites this for the programs a worker solved.
            "executor": "serial",
            "worker_failed": 0,
            "requeued_sccs": [],
            # Per-stage core timings, aggregated over the SCCs actually solved
            # this run (cache hits contribute nothing: no core work ran).
            "stage_seconds": stage_stats.to_json(),
        }
        if self.store is not None:
            stats["store"] = self.store.stats.snapshot()
        if keys:
            # The content-transitive store key of every SCC this run, keyed by
            # the "|"-joined member list.  Cross-run consumers (the family
            # oracle's store-reuse assertion) use these to prove that an SCC
            # whose summary was admitted earlier is never solved again.
            stats["scc_store_keys"] = {
                "|".join(scc): keys[tuple(scc)] for scc in sccs
            }
        return _Solved(solved_results, contributions_of, summaries), stats

    def _refine_and_display(
        self,
        program: Program,
        formals: Mapping[str, Formals],
        probe: _StoreProbe,
        solved: _Solved,
        version: Optional[_Version],
    ) -> Tuple[Dict[str, "FunctionTypes"], TypeDisplay]:
        """REFINEPARAMETERS and display, procedure by procedure in bottom-up
        order, reusing the previous version's work where it still holds.

        A procedure whose display key (:class:`_Displayed`) matches the
        previous version's needs no refinement: it keeps its refined result
        (or, with no feeders, takes its unrefined one).  If the display state
        it read is unchanged too (:meth:`TypeDisplay.replay`), its displayed
        C type is reused as well.  The rest are refined on freshly
        materialized results and displayed; a kept result is never mutated.
        """
        from ..pipeline import FunctionTypes, _function_types

        previous: Mapping[str, _Displayed] = {}
        display_keys: Dict[str, Tuple] = {}
        if version is not None and probe.keys:
            previous = version.displayed
            display_keys = _display_keys(program, probe, solved.contributions)

        kept: Dict[str, _Displayed] = {}
        results: Dict[str, ProcedureResult] = {}
        unrefined: Dict[str, ProcedureResult] = {}
        for name, result in solved.results.items():
            entry = previous.get(name)
            if entry is not None and entry.key == display_keys[name]:
                kept[name] = entry
                if entry.refined is not None:
                    results[name] = entry.refined
                    continue
            if isinstance(result, ProcedureSummary):
                result = result.to_result()
            results[name] = result
            if name not in kept:
                unrefined[name] = result
        if self.config.solver.refine_parameters and unrefined:
            apply_refinement(
                unrefined,
                [
                    contribution
                    for caller in program.procedures  # the solver's caller order
                    for contribution in solved.contributions.get(caller, ())
                    if contribution.callee in unrefined
                ],
            )

        display = TypeDisplay(self.lattice)
        functions: Dict[str, FunctionTypes] = {}
        for name, result in results.items():
            entry = kept.get(name)
            if entry is not None and display.replay(entry.record):
                functions[name] = FunctionTypes(
                    name,
                    entry.function_type,
                    list(entry.param_names),
                    list(entry.param_locations),
                    result,
                )
                version.next_displayed[name] = entry
                continue
            checkpoint()
            if not display_keys:
                functions[name] = _function_types(name, formals[name], result, display)
                continue
            display.start_recording()
            function = functions[name] = _function_types(name, formals[name], result, display)
            refined = None
            if display_keys[name][1]:
                # Refined by its callers: worth keeping, without its SCC's
                # solver state (display reads only the formal sketches).
                refined = result if result.shapes is None else replace(result, shapes=None)
            version.next_displayed[name] = _Displayed(
                display_keys[name],
                display.stop_recording(),
                function.function_type,
                tuple(function.param_names),
                tuple(function.param_locations),
                refined,
            )
        return functions, display


def _display_keys(
    program: Program,
    probe: _StoreProbe,
    contributions: Mapping[str, Sequence[RefinementContribution]],
) -> Dict[str, Tuple]:
    """Every procedure's display key (see :class:`_Displayed`).

    A procedure's refined result is a function of its SCC's summary and of
    the contributions folded into it, in caller program order; each
    caller's contributions are part of that caller's SCC summary.
    """
    scc_key = {name: probe.keys[tuple(scc)] for scc in probe.sccs for name in scc}
    feeders: Dict[str, List[Tuple[str, str]]] = {}
    for caller in program.procedures:
        fed = {contribution.callee for contribution in contributions.get(caller, ())}
        if fed:
            pair = (caller, scc_key[caller])
            for callee in fed:
                feeders.setdefault(callee, []).append(pair)
    return {
        name: (key, tuple(feeders.get(name, ()))) for name, key in scc_key.items()
    }


class IncrementalSession:
    """Re-analyze successive versions of one program against a shared store.

    On every call after the first, the session diffs the procedures'
    fingerprints against the previous version and computes the invalidation
    cone -- the changed procedures' SCCs plus all transitive callers, found
    top-down via :meth:`CallGraph.callers <repro.ir.callgraph.CallGraph.callers>`
    -- which it reports in ``stats["invalidated_procedures"]``.  The
    content-addressed store then re-solves exactly that cone
    (``stats["solved_procedures"]``) while every clean SCC is served from
    cache.

    The session keeps the last version it analyzed successfully: for asm
    text, a table from each chunk of the text (see
    :func:`~repro.ir.asmparser.parse_program`) to its parsed procedure,
    fingerprint, size, CFG-node count and direct callees, so only changed
    chunks are parsed and hashed again; and each procedure's display,
    reused while its refinement inputs and the display state it read are
    unchanged.  A version that fails to analyze leaves all of it as it was.
    """

    def __init__(self, service: Optional[AnalysisService] = None) -> None:
        self.service = service or AnalysisService()
        if self.service.store is None:
            raise ValueError("IncrementalSession requires a service with a summary store")
        self._previous: Optional[Dict[str, str]] = None
        self._table: Optional[ParseTable] = None
        self._scc_keys: Dict[Tuple, str] = {}
        self._displayed: Dict[str, _Displayed] = {}

    def analyze(self, source: Union[str, Program]):
        """Analyze the (possibly edited) program, annotating invalidation stats."""
        table: Optional[ParseTable] = None
        if isinstance(source, str):
            program = parse_program(source, previous=self._table)
            table = program.parse_table
            made: Dict[int, _ProcedureEntry] = {}
            for digest, chunk in table.chunks.items():
                if chunk.procedure is not None:
                    if not isinstance(chunk, _ProcedureEntry):
                        chunk = table.chunks[digest] = _ProcedureEntry.of(chunk)
                    made[id(chunk.procedure)] = chunk
            # Program order; of two chunks defining one name, the one kept.
            entries = {
                name: made[id(procedure)]
                for name, procedure in program.procedures.items()
            }
        else:
            program = source
            entries = {
                name: _ProcedureEntry.of(ParsedChunk(procedure, (), ()))
                for name, procedure in program.procedures.items()
            }
        fingerprints = {name: entry.fingerprint for name, entry in entries.items()}
        callgraph = CallGraph.from_callees(
            {name: entry.callees for name, entry in entries.items()}
        )
        invalidated: Optional[Set[str]] = None
        if self._previous is not None:
            changed = {
                name
                for name, fingerprint in fingerprints.items()
                if self._previous.get(name) != fingerprint
            }
            # A deleted procedure invalidates its former callers: their IR is
            # unchanged but their callee table (and thus constraints) is not.
            deleted = set(self._previous) - set(fingerprints)
            if deleted:
                for name, entry in entries.items():
                    if deleted.intersection(entry.callees):
                        changed.add(name)
            with get_tracer().span("service.invalidate", changed=len(changed)) as span:
                invalidated = callgraph.transitive_callers(changed)
                span.set("invalidated", len(invalidated))

        version = _Version(
            program,
            fingerprints,
            callgraph,
            # Pure, so kept even if this version fails; bounded by a reset.
            scc_keys=self._scc_keys if len(self._scc_keys) <= 2 * len(entries) else {},
            displayed=self._displayed,
        )
        types = self.service._analyze(program, version=version)
        # Only a version that analyzed becomes the one the next call diffs
        # against and reuses.
        self._previous = fingerprints
        self._table = table
        self._scc_keys = version.scc_keys
        self._displayed = version.next_displayed
        if invalidated is not None:
            types.stats["invalidated_procedures"] = sorted(invalidated)
        return types
