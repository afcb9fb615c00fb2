"""The evaluation harness: run engines over benchmark suites and build the
tables behind Figures 8, 9 and 10.

The paper's aggregation has one twist that is reproduced here: programs that
belong to a *cluster* (coreutils, vpx, ...) share most of their code, so each
cluster contributes a single averaged data point to the overall numbers rather
than one point per binary (section 6.2).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..baselines import ALL_ENGINES, TypeInferenceEngine
from ..service import AnalysisService, analyze_corpus
from .metrics import ProgramMetrics, aggregate, evaluate_program
from .workloads import Workload


@dataclass
class EngineReport:
    """Results of one engine over one suite."""

    engine: str
    per_program: Dict[str, ProgramMetrics] = dc_field(default_factory=dict)
    clusters: Dict[str, List[str]] = dc_field(default_factory=dict)
    #: corpus-level cache statistics when the suite ran through the batch
    #: service API (a :class:`repro.service.CorpusReport`), else None.
    batch: Optional[object] = None

    # -- aggregation ---------------------------------------------------------------

    def cluster_summary(self, cluster: str) -> Dict[str, float]:
        members = [self.per_program[name] for name in self.clusters.get(cluster, [])]
        return aggregate(members)

    def overall(self, clustered: bool = True) -> Dict[str, float]:
        """Suite-wide averages; ``clustered`` reproduces the paper's averaging."""
        if not clustered:
            return aggregate(list(self.per_program.values()))
        points: List[Dict[str, float]] = []
        for cluster, members in self.clusters.items():
            metrics = [self.per_program[name] for name in members]
            if len(members) > 1:
                points.append(aggregate(metrics))
            else:
                points.extend(m.summary() for m in metrics)
        if not points:
            return {}
        keys = ["distance", "interval", "conservativeness", "pointer_accuracy", "const_recall"]
        return {key: sum(p[key] for p in points) / len(points) for key in keys}

    def subset(self, clusters: Iterable[str]) -> Dict[str, float]:
        """Average over a subset of clusters (e.g. just coreutils, just SPEC-like)."""
        wanted = set(clusters)
        metrics: List[ProgramMetrics] = []
        for cluster, members in self.clusters.items():
            if cluster in wanted:
                metrics.extend(self.per_program[name] for name in members)
        return aggregate(metrics)


def run_engine(
    engine: TypeInferenceEngine, workloads: Sequence[Workload]
) -> EngineReport:
    """Analyze every workload with one engine and score it against ground truth."""
    report = EngineReport(engine=engine.name)
    for workload in workloads:
        types = engine.analyze(workload.program)
        metrics = evaluate_program(workload.name, types, workload.ground_truth)
        report.per_program[workload.name] = metrics
        report.clusters.setdefault(workload.cluster, []).append(workload.name)
    return report


def run_suite_batched(
    workloads: Sequence[Workload], service: Optional[AnalysisService] = None
) -> EngineReport:
    """Run the Retypd engine over a suite through the batch service API.

    All workloads are analyzed against one shared summary store, so cluster
    members that statically link the same library code reuse each other's SCC
    summaries; the per-program cache statistics land in the report's
    ``batch`` attribute (a :class:`repro.service.CorpusReport`).  The inferred
    types -- and therefore every metric -- are identical to the unbatched
    :func:`run_engine` path.
    """
    corpus = analyze_corpus(
        ((workload.name, workload.program) for workload in workloads), service=service
    )
    report = EngineReport(engine="retypd")
    for workload in workloads:
        types = corpus[workload.name].types
        metrics = evaluate_program(workload.name, types, workload.ground_truth)
        report.per_program[workload.name] = metrics
        report.clusters.setdefault(workload.cluster, []).append(workload.name)
    report.batch = corpus
    return report


def compare_engines(
    workloads: Sequence[Workload],
    engine_names: Sequence[str] = ("retypd", "unification", "tie", "propagation"),
    service: Optional[AnalysisService] = None,
) -> Dict[str, EngineReport]:
    """Run several engines over the same suite.

    When ``service`` is given, the Retypd engine runs through the batched
    corpus API against that service's shared summary store (the baselines
    have no summary notion and always run unbatched).
    """
    reports: Dict[str, EngineReport] = {}
    for name in engine_names:
        if name == "retypd" and service is not None:
            reports[name] = run_suite_batched(workloads, service=service)
            continue
        engine = ALL_ENGINES[name]()
        reports[name] = run_engine(engine, workloads)
    return reports


# ---------------------------------------------------------------------------
# Figure-shaped tables
# ---------------------------------------------------------------------------


def figure8_rows(reports: Mapping[str, EngineReport]) -> List[Dict[str, object]]:
    """Distance to ground truth and interval size per engine (Figure 8)."""
    rows = []
    for name, report in reports.items():
        overall = report.overall()
        coreutils = report.subset(["coreutils"])
        rows.append(
            {
                "engine": name,
                "coreutils_distance": coreutils.get("distance"),
                "coreutils_interval": coreutils.get("interval"),
                "overall_distance": overall.get("distance"),
                "overall_interval": overall.get("interval"),
            }
        )
    return rows


def figure9_rows(reports: Mapping[str, EngineReport]) -> List[Dict[str, object]]:
    """Conservativeness and pointer accuracy per engine (Figure 9)."""
    rows = []
    for name, report in reports.items():
        overall = report.overall()
        coreutils = report.subset(["coreutils"])
        rows.append(
            {
                "engine": name,
                "coreutils_conservativeness": coreutils.get("conservativeness"),
                "overall_conservativeness": overall.get("conservativeness"),
                "overall_pointer_accuracy": overall.get("pointer_accuracy"),
            }
        )
    return rows


def figure10_rows(report: EngineReport, workloads: Sequence[Workload]) -> List[Dict[str, object]]:
    """Per-cluster metrics for the Retypd engine (Figure 10)."""
    sizes: Dict[str, int] = defaultdict(int)
    counts: Dict[str, int] = defaultdict(int)
    for workload in workloads:
        sizes[workload.cluster] += workload.instructions
        counts[workload.cluster] += 1
    rows = []
    for cluster in sorted(report.clusters):
        summary = report.cluster_summary(cluster)
        rows.append(
            {
                "cluster": cluster,
                "count": counts[cluster],
                "instructions": sizes[cluster],
                "distance": summary.get("distance"),
                "interval": summary.get("interval"),
                "conservativeness": summary.get("conservativeness"),
                "pointer_accuracy": summary.get("pointer_accuracy"),
                "const_recall": summary.get("const_recall"),
            }
        )
    overall_clustered = report.overall(clustered=True)
    overall_unclustered = report.overall(clustered=False)
    rows.append({"cluster": "OVERALL (clustered)", **overall_clustered})
    rows.append({"cluster": "OVERALL (unclustered)", **overall_unclustered})
    return rows


def format_rows(rows: Sequence[Mapping[str, object]]) -> str:
    """Render a list of dict rows as an aligned text table."""
    if not rows:
        return "(no data)"
    columns: List[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    rendered: List[List[str]] = []
    for row in rows:
        rendered.append([_format_cell(row.get(column)) for column in columns])
    widths = [
        max(len(column), *(len(line[i]) for line in rendered)) for i, column in enumerate(columns)
    ]
    header = "  ".join(column.ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = [
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns))) for line in rendered
    ]
    return "\n".join([header, separator] + body)


def _format_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)
