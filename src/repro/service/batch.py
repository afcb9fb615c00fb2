"""Batched corpus analysis: many programs, one shared summary store.

The evaluation corpora of the paper are dominated by *clusters* of binaries
that statically link the same library code (coreutils, vpx, putty -- Figure
10).  Analyzing them against one shared :class:`~repro.service.store.
SummaryStore` means every shared procedure is solved once for the whole
corpus: its SCC key is identical across binaries, so every member after the
first gets the summary for free.  :func:`analyze_corpus` is the entry point
(also exported as ``repro.analyze_corpus``) and reports per-program statistics
-- cache hits and misses, wall time -- so the reuse is measurable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field as dc_field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from ..core.solver import SolveStats
from ..ir.program import Program
from ..obs.trace import get_tracer
from .incremental import AnalysisService, ServiceConfig
from .procpool import ProcPool

#: A corpus is a name -> program mapping or an iterable of (name, program)
#: pairs; programs may be assembly text or parsed IR.
CorpusInput = Union[
    Mapping[str, Union[str, Program]],
    Iterable[Tuple[str, Union[str, Program]]],
]


@dataclass
class ProgramReport:
    """Per-program outcome of a corpus run."""

    name: str
    types: object  # repro.pipeline.ProgramTypes
    seconds: float
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def procedures(self) -> int:
        return int(self.types.stats.get("procedures", 0))

    @property
    def hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


@dataclass
class CorpusReport:
    """Everything a corpus run produced, plus aggregate statistics."""

    reports: Dict[str, ProgramReport]
    store_stats: Dict[str, float] = dc_field(default_factory=dict)

    def __getitem__(self, name: str) -> ProgramReport:
        return self.reports[name]

    def __iter__(self):
        return iter(self.reports.values())

    def __len__(self) -> int:
        return len(self.reports)

    @property
    def total_seconds(self) -> float:
        return sum(report.seconds for report in self.reports.values())

    @property
    def total_cache_hits(self) -> int:
        return sum(report.cache_hits for report in self.reports.values())

    @property
    def total_cache_misses(self) -> int:
        return sum(report.cache_misses for report in self.reports.values())

    @property
    def hit_rate(self) -> float:
        total = self.total_cache_hits + self.total_cache_misses
        return self.total_cache_hits / total if total else 0.0

    def summary(self) -> str:
        """An aligned text table of the per-program statistics."""
        header = f"{'program':<24} {'procs':>6} {'hits':>6} {'misses':>7} {'seconds':>8}"
        lines = [header, "-" * len(header)]
        for report in self.reports.values():
            lines.append(
                f"{report.name:<24} {report.procedures:>6} {report.cache_hits:>6} "
                f"{report.cache_misses:>7} {report.seconds:>8.3f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'TOTAL':<24} {'':>6} {self.total_cache_hits:>6} {self.total_cache_misses:>7} "
            f"{self.total_seconds:>8.3f}   (hit rate {self.hit_rate:.0%})"
        )
        return "\n".join(lines)


def analyze_corpus(
    programs: CorpusInput,
    service: Optional[AnalysisService] = None,
    config: Optional[ServiceConfig] = None,
) -> CorpusReport:
    """Analyze a corpus of programs against one shared summary store.

    Pass an existing ``service`` to warm-start from previous runs; otherwise
    a fresh service (built from ``config``, with an in-memory store) is
    created, so reuse still happens *within* the corpus -- cluster members
    sharing statically-linked code hit the cache for every shared SCC.
    Program names must be unique: a name given twice raises ``ValueError``.
    """
    items = list(programs.items() if isinstance(programs, Mapping) else programs)
    seen = set()
    for name, _ in items:
        if name in seen:
            raise ValueError(f"program name {name!r} appears more than once in the corpus")
        seen.add(name)
    owned = service is None
    if service is None:
        service = AnalysisService(config=config)

    reports: Dict[str, ProgramReport] = {}
    try:
        pool = service._ensure_procpool() if _use_corpus_fanout(service, items) else None
        prewarmed = _prewarm_corpus(service, pool, items) if pool is not None else {}
        for name, source in items:
            start = time.perf_counter()
            warmed = prewarmed.get(name)
            if warmed is not None:
                types = service.analyze(source, inputs=warmed.inputs)
                types.stats.update(
                    cache_hits=warmed.cache_hits,
                    cache_misses=warmed.cache_misses,
                    stage_seconds=warmed.stage_stats,
                    executor="processes",
                    worker_stats={str(warmed.pid): warmed.stage_stats},
                )
                elapsed = warmed.seconds + (time.perf_counter() - start)
            else:
                types = service.analyze(source)
                elapsed = time.perf_counter() - start
                if pool is not None:
                    _mark_requeued(types.stats, pool)
            reports[name] = ProgramReport(
                name=name,
                types=types,
                seconds=elapsed,
                cache_hits=int(types.stats.get("cache_hits", 0)),
                cache_misses=int(types.stats.get("cache_misses", 0)),
            )
    finally:
        if owned:
            # A corpus-local service keeps its process pool warm across the
            # members above, then releases the workers with the service.
            service.close()
    store_stats = service.store.stats.snapshot() if service.store is not None else {}
    return CorpusReport(reports=reports, store_stats=store_stats)


@dataclass
class _PrewarmedProgram:
    """What corpus fan-out brings back for one program (see ``_prewarm_corpus``)."""

    #: name -> ProcedureTypingInput, for the SCCs the worker's store missed.
    inputs: Dict[str, object]
    cache_hits: int
    cache_misses: int
    stage_stats: Dict[str, object]  # worker SolveStats.to_json()
    seconds: float  # worker wall-clock for this program
    pid: int  # the worker that solved it


def _use_corpus_fanout(service: AnalysisService, items: List[Tuple[str, object]]) -> bool:
    """Corpus fan-out needs the process backend and a probe-able store.

    Program grain is the only parallel grain: a single program always solves
    in-process.  This path takes over exactly when a multi-program corpus
    runs under ``executor="processes"`` with the summary cache on (the parent
    rebuild relies on admitting worker summaries).
    """
    return (
        len(items) > 1
        and service.config.executor == "processes"
        and service.config.use_cache
        and service.store is not None
    )


def _prewarm_corpus(
    service: AnalysisService, pool: ProcPool, items: List[Tuple[str, object]]
) -> Dict[str, _PrewarmedProgram]:
    """Fan the corpus out over ``pool``; returns per-program context.

    Workers probe their own store and run constraint generation and
    bottom-up SCC solving for what it missed, whole programs at a time, and
    ship back (a) every SCC's summary payload, admitted here into the
    service's store, and (b) the typing inputs they generated, in the
    integer codec.  Programs whose chunk failed (worker crash, undecodable
    reply) are simply absent from the result and fall back to the
    in-process path.  Under tracing, every worker's spans are adopted
    beneath one ``procpool.fanout`` span.
    """
    from .procpool import CHUNKS_PER_WORKER, _TableReader, decode_input, encode_corpus_task

    chunk_count = max(1, min(len(items), pool.max_workers * CHUNKS_PER_WORKER))
    chunks = [items[index::chunk_count] for index in range(chunk_count)]
    tracer = get_tracer()
    with tracer.span("procpool.fanout", programs=len(items), chunks=len(chunks)):
        trace = tracer.current_context() if tracer.enabled else None
        payloads = [
            encode_corpus_task(
                [
                    (name, source if isinstance(source, str) else str(source))
                    for name, source in chunk
                ],
                trace=trace,
            )
            for chunk in chunks
        ]
        replies = pool.submit_chunks(payloads)

    prewarmed: Dict[str, _PrewarmedProgram] = {}
    for reply in replies:
        if reply is None:
            continue
        if reply.get("spans"):
            tracer.adopt(reply["spans"])
        pid = int(reply.get("pid", 0))
        reader = _TableReader(reply["strings"])
        for entry in reply.get("programs", ()):
            try:
                inputs = {
                    pname: decode_input(pname, encoded, reader)
                    for pname, encoded in entry["inputs"].items()
                }
                for key, payload in entry["summaries"]:
                    service.store.admit_payload(key, payload, write_disk=False)
            except Exception:
                continue  # parent re-analyzes this program in process
            stage_stats = dict(entry.get("stats", {}))
            seconds = float(entry.get("seconds", 0.0))
            pool.record_worker_stats(pid, SolveStats.from_json(stage_stats), seconds)
            prewarmed[entry["name"]] = _PrewarmedProgram(
                inputs=inputs,
                cache_hits=int(entry.get("cache_hits", 0)),
                cache_misses=int(entry.get("cache_misses", 0)),
                stage_stats=stage_stats,
                seconds=seconds,
                pid=pid,
            )
    return prewarmed


def _mark_requeued(stats: Dict[str, object], pool: ProcPool) -> None:
    """Mark a program its worker failed: the SCCs solved here were requeued."""
    requeued = [scc for scc, _ in stats["scc_seconds"]]
    stats["worker_failed"] = stats["stage_seconds"]["worker_failed"] = len(requeued)
    stats["requeued_sccs"] = requeued
    pool.record_requeued(len(requeued))
