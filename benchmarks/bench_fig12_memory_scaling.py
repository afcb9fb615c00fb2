"""Figure 12: type-inference memory usage versus program size.

The paper fits ``m = 0.037 * N^0.846`` (R^2 = 0.959): memory grows sublinearly
to mildly linearly with program size.  The reproduction measures peak traced
allocation over the same size sweep used for Figure 11 -- in a pass of its
own, so the Figure 11 timings never run under ``tracemalloc`` -- and fits the
model.
"""

from conftest import write_result


def test_fig12_memory_scaling(benchmark, memory_points):
    from repro.eval.scaling import figure12_fit

    fit = benchmark(figure12_fit, memory_points)

    lines = [
        "Figure 12: type-inference memory usage vs program size",
        "",
        f"{'program':>12}  {'cfg_nodes':>9}  {'peak MB':>9}",
    ]
    for point in memory_points:
        lines.append(
            f"{point.name:>12}  {point.cfg_nodes:>9}  {point.peak_memory_bytes / 1e6:>9.2f}"
        )
    lines += ["", f"best fit: m = {fit.a:.3g} * N^{fit.b:.3f}   (R^2 = {fit.r_squared:.3f})",
              "paper:    m = 0.037 * N^0.846 (R^2 = 0.959)"]
    write_result("fig12_memory_scaling.txt", "\n".join(lines))

    assert fit.b < 2.0, "memory growth should be at most mildly superlinear"
