"""Run every inference engine over a synthetic benchmark program and score it.

This is the evaluation of section 6 in miniature: one generated workload, four
engines (Retypd, unification, TIE-like, signature propagation), and the TIE
metrics plus pointer accuracy and const recall for each.

Run with::

    python examples/compare_engines.py [n_functions] [seed]
"""

import sys

from repro.baselines import ALL_ENGINES
from repro.eval.metrics import evaluate_program
from repro.eval.workloads import program_workload
from repro.gen import GenProfile, generate_program


def main() -> None:
    n_functions = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 20160613

    workload = program_workload(
        generate_program(seed, GenProfile(n_functions=n_functions), name="example")
    )
    print(
        f"generated workload: {len(workload.program.procedures)} procedures, "
        f"{workload.instructions} instructions\n"
    )

    header = f"{'engine':<14}{'distance':>10}{'interval':>10}{'conserv.':>10}{'ptr acc.':>10}{'const':>8}{'time (s)':>10}"
    print(header)
    print("-" * len(header))
    for name, engine_cls in ALL_ENGINES.items():
        engine = engine_cls()
        types = engine.analyze(workload.program)
        metrics = evaluate_program(workload.name, types, workload.ground_truth)
        print(
            f"{name:<14}"
            f"{metrics.mean_distance:>10.2f}"
            f"{metrics.mean_interval:>10.2f}"
            f"{metrics.conservativeness:>10.1%}"
            f"{metrics.pointer_accuracy:>10.1%}"
            f"{metrics.const_recall:>8.1%}"
            f"{metrics.analysis_seconds:>10.2f}"
        )

    print()
    print("(lower is better for distance/interval; higher is better otherwise)")
    print("Paper reference points (real binaries, Figures 8/9): Retypd distance 0.54,")
    print("interval 1.2, conservativeness 95%, pointer accuracy 88%, const recall 98%.")


if __name__ == "__main__":
    main()
