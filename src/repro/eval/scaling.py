"""Scaling measurements and power-law fits (Figures 11 and 12).

The paper reports that type-inference time scales as ``T = 0.000725 * N^1.098``
(memory: ``m = 0.037 * N^0.846``) over programs from 2K to 840K instructions,
i.e. essentially linearly despite the cubic worst case of the per-procedure
simplification.  This module measures the reproduction's wall-clock time and
peak memory over a generated size sweep and fits the same ``a * N^b`` model,
numerically in (N, T) space as the paper specifies (not log-log).
"""

from __future__ import annotations

import math
import time
import tracemalloc
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..baselines import RetypdEngine, TypeInferenceEngine
from .workloads import Workload


@dataclass
class ScalingPoint:
    name: str
    cfg_nodes: int
    instructions: int
    seconds: float
    peak_memory_bytes: int


@dataclass
class PowerLawFit:
    """``y = a * x^b`` with a coefficient of determination."""

    a: float
    b: float
    r_squared: float

    def predict(self, x: float) -> float:
        return self.a * (x ** self.b)

    def __str__(self) -> str:
        return f"y = {self.a:.3g} * N^{self.b:.3f} (R^2 = {self.r_squared:.3f})"


def measure_scaling(
    workloads: Sequence[Workload],
    engine: Optional[TypeInferenceEngine] = None,
    measure_memory: bool = True,
) -> List[ScalingPoint]:
    """Run the engine over a size sweep, recording time and peak memory."""
    engine = engine or RetypdEngine()
    points: List[ScalingPoint] = []
    for workload in workloads:
        if measure_memory:
            tracemalloc.start()
        start = time.perf_counter()
        types = engine.analyze(workload.program)
        elapsed = time.perf_counter() - start
        if measure_memory:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        else:
            peak = 0
        points.append(
            ScalingPoint(
                name=workload.name,
                cfg_nodes=int(types.stats.get("cfg_nodes", 0)),
                instructions=workload.instructions,
                seconds=elapsed,
                peak_memory_bytes=peak,
            )
        )
    return points


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit ``y = a * x^b`` minimizing the error in y (as the paper does).

    A log-log least-squares fit provides the starting point; a short
    Gauss-Newton refinement then minimizes the untransformed residuals.
    """
    pairs = [(x, y) for x, y in zip(xs, ys) if x > 0 and y > 0]
    if len(pairs) < 2:
        return PowerLawFit(a=0.0, b=0.0, r_squared=0.0)
    xs_f = [float(x) for x, _ in pairs]
    ys_f = [float(y) for _, y in pairs]

    # Initial estimate in log-log space.
    log_x = [math.log(x) for x in xs_f]
    log_y = [math.log(y) for y in ys_f]
    n = len(pairs)
    mean_x = sum(log_x) / n
    mean_y = sum(log_y) / n
    sxx = sum((x - mean_x) ** 2 for x in log_x) or 1e-12
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(log_x, log_y))
    b = sxy / sxx
    a = math.exp(mean_y - b * mean_x)

    # Gauss-Newton refinement on the untransformed residuals.  A step is
    # taken only if it lowers the squared error (halving it until it does),
    # so data a power law fits badly -- e.g. memory floored at 1 MB for the
    # small programs -- cannot send the iterate off to overflow.
    def squared_error(a: float, b: float) -> float:
        try:
            return sum((y - a * (x ** b)) ** 2 for x, y in zip(xs_f, ys_f))
        except OverflowError:
            return math.inf

    error = squared_error(a, b)
    for _ in range(200):
        residuals = [y - a * (x ** b) for x, y in zip(xs_f, ys_f)]
        # Jacobian columns: d/da = x^b ; d/db = a * x^b * ln(x)
        j_a = [x ** b for x in xs_f]
        j_b = [a * (x ** b) * math.log(x) for x in xs_f]
        jtj = [
            [sum(ja * ja2 for ja, ja2 in zip(j_a, j_a)), sum(ja * jb for ja, jb in zip(j_a, j_b))],
            [sum(jb * ja for ja, jb in zip(j_a, j_b)), sum(jb * jb2 for jb, jb2 in zip(j_b, j_b))],
        ]
        jtr = [
            sum(ja * r for ja, r in zip(j_a, residuals)),
            sum(jb * r for jb, r in zip(j_b, residuals)),
        ]
        det = jtj[0][0] * jtj[1][1] - jtj[0][1] * jtj[1][0]
        if abs(det) < 1e-18:
            break
        delta_a = (jtr[0] * jtj[1][1] - jtr[1] * jtj[0][1]) / det
        delta_b = (jtr[1] * jtj[0][0] - jtr[0] * jtj[1][0]) / det
        step = 0.5
        while step > 1e-6:
            next_a, next_b = max(a + step * delta_a, 1e-12), b + step * delta_b
            next_error = squared_error(next_a, next_b)
            if next_error <= error:
                break
            step /= 2
        else:
            break
        a, b, error = next_a, next_b, next_error
        if abs(delta_a) < 1e-12 and abs(delta_b) < 1e-9:
            break

    predictions = [a * (x ** b) for x in xs_f]
    mean = sum(ys_f) / n
    ss_tot = sum((y - mean) ** 2 for y in ys_f) or 1e-12
    ss_res = sum((y - p) ** 2 for y, p in zip(ys_f, predictions))
    return PowerLawFit(a=a, b=b, r_squared=1.0 - ss_res / ss_tot)


def figure11_fit(points: Sequence[ScalingPoint]) -> PowerLawFit:
    """Time-vs-size fit (the paper finds an exponent of about 1.1)."""
    return fit_power_law([p.cfg_nodes or p.instructions for p in points], [p.seconds for p in points])


def figure12_fit(points: Sequence[ScalingPoint]) -> PowerLawFit:
    """Memory-vs-size fit (the paper finds an exponent of about 0.85)."""
    return fit_power_law(
        [p.cfg_nodes or p.instructions for p in points],
        [max(1.0, p.peak_memory_bytes / 1e6) for p in points],
    )
