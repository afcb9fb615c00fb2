"""The analysis service layer: caching, incremental and corpus drivers.

This package turns the one-shot pipeline into a service suited to corpus-scale
workloads, without changing a single inferred type:

``repro.service.store``
    Content-addressed :class:`SummaryStore` of per-SCC type summaries
    (in-memory LRU + optional on-disk JSON tier).
``repro.service.incremental``
    :class:`AnalysisService` -- the driver the pipeline routes through -- and
    :class:`IncrementalSession` for re-analysis after edits.
``repro.service.procpool``
    :class:`ProcPool` -- warm worker processes for corpus fan-out: whole
    programs solved per worker, a pickle-free JSON codec for the summaries
    and typing inputs they ship back, shared-disk-tier reuse.
``repro.service.batch``
    :func:`analyze_corpus` -- many programs against one shared store; with
    ``ServiceConfig(executor="processes")`` it fans the programs out over the
    pool and falls back in-process for any program a worker failed.

One program always solves in-process, bottom-up over its SCCs; the only
parallel path is corpus fan-out.  See ``docs/operations.md`` for tuning it.
"""

from .batch import CorpusReport, ProgramReport, analyze_corpus
from .incremental import AnalysisService, IncrementalSession, ServiceConfig
from .procpool import ProcPool
from .store import (
    DiskStoreBackend,
    ProcedureSummary,
    SCCSummary,
    StoreStats,
    SummaryStore,
    procedure_fingerprint,
    program_fingerprints,
    scc_summary_keys,
)

__all__ = [
    "AnalysisService",
    "CorpusReport",
    "DiskStoreBackend",
    "IncrementalSession",
    "ProcPool",
    "ProcedureSummary",
    "ProgramReport",
    "SCCSummary",
    "ServiceConfig",
    "StoreStats",
    "SummaryStore",
    "analyze_corpus",
    "procedure_fingerprint",
    "program_fingerprints",
    "scc_summary_keys",
]
