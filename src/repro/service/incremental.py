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
  warm :class:`~repro.service.procpool.ProcPool` and replays them here
  against the pre-warmed store.  One program always solves in-process: its
  SCCs are drained wave by wave (``CallGraph.scc_waves``), publishing each
  wave's summaries before the next wave starts.

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
from dataclasses import dataclass, field as dc_field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

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
from ..ir.callgraph import CallGraph
from ..obs.metrics import get_registry
from ..obs.trace import get_tracer
from ..ir.asmparser import parse_program
from ..ir.cfg import cfg_node_count
from ..ir.program import Program
from ..typegen.abstract_interp import generate_program_constraints
from ..typegen.externs import (
    ExternSignature,
    ensure_lattice_tags,
    extern_schemes,
    standard_externs,
)
from .procpool import ProcPool, encode_environment
from .store import (
    SCCSummary,
    SummaryStore,
    environment_fingerprint,
    program_fingerprints,
    scc_summary_keys,
    summarize_scc,
)


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
    #: optional ``host:port`` of a fleet shared-store daemon; selects the
    #: socket-served persistent tier instead of the disk one (wins over
    #: ``cache_dir`` -- see :func:`repro.service.store.make_backend`).
    store_addr: Optional[str] = None
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
    """One run's call graph and summary-store lookups (see ``_probe``)."""

    callgraph: CallGraph
    sccs: List[List[str]]
    #: content-transitive store key per SCC (empty with the cache off).
    keys: Dict[Tuple[str, ...], str] = dc_field(default_factory=dict)
    #: the SCCs the store served, with their summaries.
    cached: Dict[Tuple[str, ...], SCCSummary] = dc_field(default_factory=dict)


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
        self._owns_store = store is None
        if store is not None:
            self.store: Optional[SummaryStore] = store
        elif self.config.use_cache:
            self.store = SummaryStore(
                capacity=self.config.cache_capacity,
                cache_dir=self.config.cache_dir,
                store_addr=self.config.store_addr,
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
        # A store this service built (socket backends hold a connection) is
        # released too; an injected store belongs to its creator.
        if self._owns_store and self.store is not None:
            self.store.close()

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
        supplies precomputed typing inputs (skipping constraint generation);
        the corpus fan-out path uses it with inputs a worker generated and
        shipped back, paired with a store pre-warmed by that worker's
        summaries, so this call reduces to decode + display.
        """
        return self._analyze(source, inputs)

    def _analyze(
        self,
        source: Union[str, "Program"],
        inputs: Optional[Mapping[str, ProcedureTypingInput]] = None,
        fingerprints: Optional[Mapping[str, str]] = None,
        callgraph: Optional[CallGraph] = None,
    ):
        """:meth:`analyze`, reusing fingerprints and a call graph the caller
        (an :class:`IncrementalSession`) already computed for ``source``."""
        from ..pipeline import ProgramTypes, _function_types
        from ..core.display import TypeDisplay

        tracer = get_tracer()
        with tracer.span("service.analyze") as root:
            with tracer.span("service.parse"):
                program = parse_program(source) if isinstance(source, str) else source
            root.set("procedures", len(program.procedures))

            with tracer.span("service.probe"):
                probe = self._probe(program, fingerprints, callgraph)
            # A store-served procedure is known by its summary's formals alone:
            # they display it and give its callers their CalleeInfo.
            known = {
                name: summary.procedures[name]
                for members, summary in probe.cached.items()
                for name in members
            }

            start = time.perf_counter()
            if inputs is None:
                with tracer.span("service.constraint_gen"):
                    inputs = generate_program_constraints(
                        program, self.extern_table, known=known
                    )
            constraint_time = time.perf_counter() - start

            solve_start = time.perf_counter()
            with tracer.span("service.solve"):
                results, stats = self.solve_inputs(program, inputs, probe)
            solve_time = time.perf_counter() - solve_start

            with tracer.span("service.display"):
                display = TypeDisplay(self.lattice)
                formals = ChainMap(inputs, known)
                functions = {
                    name: _function_types(name, formals[name], result, display)
                    for name, result in results.items()
                }
        stats.update(
            {
                "constraint_generation_seconds": constraint_time,
                "solve_seconds": solve_time,
                "total_seconds": constraint_time + solve_time,
                "instructions": program.instruction_count,
                "cfg_nodes": sum(cfg_node_count(proc) for proc in program),
            }
        )
        return ProgramTypes(
            program=program, functions=functions, display=display, stats=stats
        )

    # -- the driver ------------------------------------------------------------

    def _probe(
        self,
        program: Program,
        fingerprints: Optional[Mapping[str, str]] = None,
        callgraph: Optional[CallGraph] = None,
    ) -> _StoreProbe:
        """Call graph, SCC keys and one store lookup per SCC, before generation.

        Keys are content-transitive, so a hit is valid regardless of what
        happens to other SCCs this run.
        """
        if callgraph is None:
            callgraph = CallGraph.from_program(program)
        probe = _StoreProbe(callgraph, callgraph.sccs_bottom_up())
        if self.store is None or not self.config.use_cache:
            return probe
        # Recomputed per call (a few cheap hashes) so that mutating the solver
        # config, lattice or extern table between calls can never serve
        # summaries keyed under the old environment.
        environment = environment_fingerprint(
            self.lattice, self.extern_table, self.config.solver
        )
        if fingerprints is None:
            fingerprints = program_fingerprints(program)
        probe.keys = scc_summary_keys(
            probe.sccs, callgraph.edges, fingerprints, environment
        )
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
    ) -> Tuple[Dict[str, ProcedureResult], Dict[str, object]]:
        """Solve every SCC the store cannot serve; reuse the rest.

        ``inputs`` must cover the SCCs ``probe`` found missing.  Returns
        (results in bottom-up SCC order, service statistics).
        """
        sccs, keys, cached = probe.sccs, probe.keys, probe.cached
        waves = probe.callgraph.scc_waves()
        solver = Solver(self.lattice, self.extern_schemes, self.config.solver)

        working: Dict[str, ProcedureResult] = {}
        contributions_of: Dict[str, List[RefinementContribution]] = {}
        for scc_key, summary in cached.items():
            for name in scc_key:
                procedure = summary.procedures[name]
                working[name] = procedure.to_result()
                contributions_of[name] = list(procedure.contributions)

        refine = self.config.solver.refine_parameters
        stage_stats = SolveStats()
        use_store = self.store is not None and self.config.use_cache

        def solve(scc: Sequence[str]):
            scc_results = solver.solve_scc(scc, inputs, working, stats=stage_stats)
            if not refine:
                return scc_results, {}
            # Same-SCC callees shadow, earlier waves fall through; no copy.
            merged = ChainMap(scc_results, working)
            return scc_results, {
                name: collect_caller_contributions(inputs[name], scc_results[name], merged)
                for name in scc
            }

        # Bottom-up over the condensation's waves: every SCC of a wave only
        # depends on earlier waves, whose summaries are published (to
        # ``working`` and the store) before the wave starts.
        missing_waves = [
            [scc for scc in wave if tuple(scc) not in cached] for wave in waves
        ]
        missing_waves = [wave for wave in missing_waves if wave]
        tracer = get_tracer()
        scc_seconds: List[Tuple[str, float]] = []
        for index, wave in enumerate(missing_waves):
            wave_results = []
            with tracer.span(
                "scheduler.wave", index=index, width=len(wave), executor="serial"
            ):
                for scc in wave:
                    start = time.perf_counter()
                    wave_results.append((scc, solve(scc)))
                    scc_seconds.append((",".join(scc), time.perf_counter() - start))
            for scc, (scc_results, contributions) in wave_results:
                working.update(scc_results)
                for name in scc:
                    contributions_of[name] = list(contributions.get(name, ()))
                if use_store:
                    self.store.put(
                        keys[tuple(scc)],
                        summarize_scc(scc, inputs, scc_results, contributions),
                    )

        registry = get_registry()
        registry.record_stage_stats(stage_stats.to_json())
        if cached:
            registry.counter("service_scc_cache_hits_total").inc(len(cached))
        misses = len(sccs) - len(cached)
        if misses:
            registry.counter("service_scc_cache_misses_total").inc(misses)

        # Deterministic final ordering: the display layer names structs in
        # conversion order, so results must surface bottom-up like the plain
        # solver builds them.
        results: Dict[str, ProcedureResult] = {}
        for scc in sccs:
            for name in scc:
                results[name] = working[name]

        if refine:
            ordered_contributions: List[RefinementContribution] = []
            for name in program.procedures:  # the solver's caller order
                ordered_contributions.extend(contributions_of.get(name, ()))
            apply_refinement(results, ordered_contributions)

        solved = [name for scc in sccs if tuple(scc) not in cached for name in scc]
        reused = [name for scc in sccs if tuple(scc) in cached for name in scc]
        stats: Dict[str, object] = {
            # Generation work this run: only SCCs the store could not serve
            # (on the corpus fan-out path, the inputs a worker generated).
            "constraints": sum(len(proc.constraints) for proc in inputs.values()),
            "generated_procedures": sorted(inputs),
            "procedures": len(program.procedures),
            "scc_count": len(sccs),
            "sccs_solved": len(sccs) - len(cached),
            "sccs_cached": len(cached),
            "cache_hits": len(cached),
            "cache_misses": len(sccs) - len(cached),
            "solved_procedures": sorted(solved),
            "cached_procedures": sorted(reused),
            "dag_wave_widths": [len(wave) for wave in waves],
            "wave_count": len(missing_waves),
            "wave_widths": [len(wave) for wave in missing_waves],
            "max_wave_width": max(map(len, missing_waves), default=0),
            "mean_wave_width": (
                sum(map(len, missing_waves)) / len(missing_waves)
                if missing_waves
                else 0.0
            ),
            "scc_seconds": scc_seconds,
            # Corpus fan-out overwrites these for the programs a worker solved.
            "parallel": False,
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
        return results, stats


class IncrementalSession:
    """Re-analyze successive versions of one program against a shared store.

    On every call after the first, the session hashes all procedures, diffs
    against the previous version and computes the invalidation cone -- the
    changed procedures' SCCs plus all transitive callers, found top-down via
    :meth:`CallGraph.callers <repro.ir.callgraph.CallGraph.callers>` -- which
    it reports in ``stats["invalidated_procedures"]``.  The content-addressed
    store then re-solves exactly that cone (``stats["solved_procedures"]``)
    while every clean SCC is served from cache.
    """

    def __init__(self, service: Optional[AnalysisService] = None) -> None:
        self.service = service or AnalysisService()
        if self.service.store is None:
            raise ValueError("IncrementalSession requires a service with a summary store")
        self._previous: Optional[Dict[str, str]] = None

    def analyze(self, source: Union[str, Program]):
        """Analyze the (possibly edited) program, annotating invalidation stats."""
        program = parse_program(source) if isinstance(source, str) else source
        # Both feed the service too (SCC keys, SCC order): computed once here.
        fingerprints = program_fingerprints(program)
        callgraph = CallGraph.from_program(program)
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
                for name, procedure in program.procedures.items():
                    if deleted & set(procedure.direct_callees()):
                        changed.add(name)
            with get_tracer().span("service.invalidate", changed=len(changed)) as span:
                invalidated = callgraph.transitive_callers(changed)
                span.set("invalidated", len(invalidated))
        self._previous = dict(fingerprints)

        types = self.service._analyze(
            program, fingerprints=fingerprints, callgraph=callgraph
        )
        if invalidated is not None:
            types.stats["invalidated_procedures"] = sorted(invalidated)
        return types
