"""Evaluation: metrics, synthetic benchmark suites, harness, scaling fits."""

from .metrics import (
    ProgramMetrics,
    VariableComparison,
    aggregate,
    evaluate_program,
    interval_size_from_sketch,
    is_conservative,
    pointer_accuracy,
    type_distance,
)
from .workloads import (
    Workload,
    family_suite,
    family_workloads,
    generated_suite,
    program_workload,
    scaling_suite,
    standard_suite,
)
from .harness import (
    EngineReport,
    compare_engines,
    figure8_rows,
    figure9_rows,
    figure10_rows,
    format_rows,
    run_engine,
)
from .scaling import (
    PowerLawFit,
    ScalingPoint,
    figure11_fit,
    figure12_fit,
    fit_power_law,
    measure_scaling,
)

__all__ = [
    "EngineReport",
    "PowerLawFit",
    "ProgramMetrics",
    "ScalingPoint",
    "VariableComparison",
    "Workload",
    "aggregate",
    "compare_engines",
    "evaluate_program",
    "figure10_rows",
    "figure11_fit",
    "figure12_fit",
    "figure8_rows",
    "figure9_rows",
    "fit_power_law",
    "format_rows",
    "interval_size_from_sketch",
    "is_conservative",
    "measure_scaling",
    "pointer_accuracy",
    "program_workload",
    "run_engine",
    "family_suite",
    "family_workloads",
    "generated_suite",
    "scaling_suite",
    "standard_suite",
    "type_distance",
]
