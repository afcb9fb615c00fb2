"""Figure 11: type-inference time versus program size.

The paper fits ``T = 0.000725 * N^1.098`` (R^2 = 0.977) over 2K-840K
instruction binaries -- essentially linear scaling despite the cubic
per-procedure worst case.  The reproduction sweeps generated programs of
increasing size, fits the same power-law model numerically in (N, T) space and
checks that the measured exponent stays far below the cubic worst case.
"""

import json

from conftest import write_result

#: regression gate on the fitted exponent.  The paper measures ~N^1.1; the
#: untraced sweep over 6-400 procedures (median of five passes per point)
#: fits ~N^1.0-1.12 on a 2-CPU host under Python 3.11, so a drift above 1.25
#: means an asymptotic regression (e.g. object hashing creeping back into the
#: saturation/simplification hot loops), not noise.
MAX_EXPONENT = 1.25


def test_fig11_time_scaling(benchmark, scaling_points):
    from repro.eval.scaling import figure11_fit, fit_power_law

    fit = benchmark(figure11_fit, scaling_points)

    lines = [
        "Figure 11: type-inference time vs program size",
        "",
        f"{'program':>12}  {'cfg_nodes':>9}  {'instructions':>12}  {'seconds':>8}",
    ]
    for point in scaling_points:
        lines.append(
            f"{point.name:>12}  {point.cfg_nodes:>9}  {point.instructions:>12}  {point.seconds:>8.3f}"
        )
    lines += ["", f"best fit: T = {fit.a:.3g} * N^{fit.b:.3f}   (R^2 = {fit.r_squared:.3f})",
              "paper:    T = 0.000725 * N^1.098 (R^2 = 0.977)"]
    write_result("fig11_time_scaling.txt", "\n".join(lines))
    write_result(
        "BENCH_fig11.json",
        json.dumps(
            {
                "exponent": fit.b,
                "coefficient": fit.a,
                "r_squared": fit.r_squared,
                "max_exponent": MAX_EXPONENT,
                "paper": {"exponent": 1.098, "coefficient": 0.000725, "r_squared": 0.977},
                "points": [
                    {
                        "name": point.name,
                        "cfg_nodes": point.cfg_nodes,
                        "instructions": point.instructions,
                        "seconds": point.seconds,
                    }
                    for point in scaling_points
                ],
            },
            indent=2,
            sort_keys=True,
        ),
    )

    assert fit.b < MAX_EXPONENT, (
        f"fitted exponent {fit.b:.3f} exceeds {MAX_EXPONENT}: the near-linear "
        "scaling the integer kernel restored has regressed"
    )
    assert fit.r_squared > 0.5
