"""repro -- a reproduction of "Polymorphic Type Inference for Machine Code" (Retypd).

Grown from the paper's algorithms into a deployable system: a cached,
incremental, process-parallel analysis service and a network type-query
server.  The most common entry points::

    from repro import analyze_program          # one program -> ProgramTypes
    from repro import analyze_corpus           # many programs, shared summaries
    from repro import AnalysisService          # caching/parallel/incremental driver
    from repro.server import TypeQueryClient   # talk to a running daemon

``docs/paper-map.md`` maps every paper artifact to its implementation,
``docs/protocol.md`` specifies the server wire protocol, and
``docs/operations.md`` is the operator guide.

Subpackages
-----------
``repro.core``
    The type system and inference algorithms (the paper's contribution).
``repro.ir``
    The machine-code intermediate representation substrate.
``repro.typegen``
    Constraint generation by abstract interpretation of the IR.
``repro.frontend``
    A miniature C compiler used to produce realistic, type-erased binaries with
    known ground-truth types.
``repro.baselines``
    Unification-, interval- and propagation-based comparison algorithms.
``repro.eval``
    Benchmark-suite generation, metrics and the evaluation harness.
``repro.service``
    The analysis service layer: content-addressed summary caching, incremental
    re-analysis and batched corpus analysis (fanned out to worker processes
    on request).
``repro.server``
    The type-query server: an asyncio daemon (``python -m repro.server``),
    newline-delimited JSON protocol and sync/async clients that serve analyses
    to concurrent users.

Command line: ``python -m repro analyze file.s [--json]`` for one-shot use.
"""

__version__ = "0.1.0"

from . import core
from .pipeline import FunctionTypes, ProgramTypes, analyze_program
from .service import AnalysisService, IncrementalSession, ServiceConfig, SummaryStore, analyze_corpus

__all__ = [
    "AnalysisService",
    "FunctionTypes",
    "IncrementalSession",
    "ProgramTypes",
    "ServiceConfig",
    "SummaryStore",
    "analyze_corpus",
    "analyze_program",
    "core",
    "__version__",
]
