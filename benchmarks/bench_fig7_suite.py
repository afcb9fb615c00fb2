"""Figure 7: the benchmark-suite inventory.

The paper lists its corpus with per-binary instruction counts.  This benchmark
regenerates the analogous inventory for the synthetic suite (program name,
cluster, instruction count, CFG nodes, procedure count) and benchmarks the
suite generator itself.
"""

from conftest import write_result


def _generate_small():
    from repro.eval.workloads import program_workload
    from repro.gen import GenProfile, generate_program

    return program_workload(generate_program(7, GenProfile(n_functions=12), name="inventory_probe"))


def test_fig7_suite_inventory(benchmark, suite):
    workload = benchmark(_generate_small)
    assert workload.instructions > 0

    from repro.eval.harness import format_rows
    from repro.ir import cfg_node_count

    rows = []
    for item in suite:
        rows.append(
            {
                "program": item.name,
                "cluster": item.cluster,
                "procedures": len(item.program.procedures),
                "instructions": item.instructions,
                "cfg_nodes": sum(cfg_node_count(p) for p in item.program),
            }
        )
    total = sum(item.instructions for item in suite)
    rows.append({"program": "TOTAL", "instructions": total})
    write_result("fig7_suite.txt", "Figure 7: benchmark suite inventory\n\n" + format_rows(rows))
    assert len(suite) >= 20
