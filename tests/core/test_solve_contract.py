"""Contracts of the per-SCC solve that outside observers rely on.

* The solve's counters are exact: ``graph_nodes``, ``graph_edges``,
  ``saturation_edges`` and ``constant_bounds`` of fixed generated programs
  are pinned.  Bounds are counted once per variable they read back as, so a
  change in how bounds are keyed shows here.
* ``repro.core.solver.infer_shapes`` runs once per solved SCC, looked up
  through the solver module: the per-layer ledger wraps exactly that name
  to time shape inference, so a solve that bypassed it would read zero.
* Each solved SCC is encoded once: shape inference builds the encoding and
  the constraint graph reuses it.
* ``repro.service.incremental.generate_program_constraints`` runs once per
  cold ``analyze_program``, looked up through that module: the ledger wraps
  that name to time constraint generation (``typegen.constraints``).
* Constraint generation builds no instruction-level successor map: the
  body walk computes successors at block ends only.
"""

import collections

import pytest

import repro.core.solver as solver_module
import repro.ir.cfg as cfg_module
import repro.service.incremental as incremental_module
from repro import analyze_program
from repro.core.intern import SccEncoding
from repro.frontend import compile_c
from repro.gen import GenProfile, generate_program

#: (seed, profile) -> the solve counters of that generated program.
PINNED = {
    (7, "default"): {
        "graph_nodes": 1088,
        "graph_edges": 1924,
        "saturation_edges": 456,
        "constant_bounds": 2057,
        "sccs_timed": 17,
    },
    (20161117, "stress"): {
        "graph_nodes": 2220,
        "graph_edges": 3642,
        "saturation_edges": 730,
        "constant_bounds": 274,
        "sccs_timed": 42,
    },
}


def _program(seed, profile):
    generated = generate_program(seed, getattr(GenProfile, profile)(), name="stats")
    return compile_c(generated.source).program


@pytest.mark.parametrize("seed,profile", sorted(PINNED))
def test_solve_counters_are_exact(seed, profile):
    stats = analyze_program(_program(seed, profile)).stats["stage_seconds"]
    assert {key: stats[key] for key in PINNED[seed, profile]} == PINNED[seed, profile]


def test_infer_shapes_runs_once_per_solved_scc(monkeypatch):
    calls = []
    real = solver_module.infer_shapes

    def counting(constraints, lattice):
        calls.append(len(constraints))
        return real(constraints, lattice)

    monkeypatch.setattr(solver_module, "infer_shapes", counting)
    types = analyze_program(_program(7, "default"))
    assert types.stats["sccs_solved"] > 0
    assert len(calls) == types.stats["sccs_solved"]
    assert len(calls) == types.stats["stage_seconds"]["sccs_timed"]


def test_each_solved_scc_is_encoded_once(monkeypatch):
    encodings = []
    real_init = SccEncoding.__init__

    def counting(self, *args, **kwargs):
        encodings.append(self)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(SccEncoding, "__init__", counting)
    types = analyze_program(_program(7, "default"))
    assert len(encodings) == types.stats["sccs_solved"]


def test_constraint_generation_runs_once_per_cold_analysis(monkeypatch):
    calls = []
    real = incremental_module.generate_program_constraints

    def counting(program, *args, **kwargs):
        calls.append(program)
        return real(program, *args, **kwargs)

    monkeypatch.setattr(incremental_module, "generate_program_constraints", counting)
    types = analyze_program(_program(7, "default"))
    assert len(calls) == 1
    assert types.stats["generated_procedures"]


def test_generation_builds_no_instruction_successor_map(monkeypatch):
    built = collections.Counter()
    real = cfg_module.successors

    def counting(procedure):
        built[procedure.name] += 1
        return real(procedure)

    monkeypatch.setattr(cfg_module, "successors", counting)
    types = analyze_program(_program(7, "default"))
    assert types.stats["generated_procedures"]
    assert not built
