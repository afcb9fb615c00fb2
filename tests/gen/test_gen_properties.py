"""Property tests for the ground-truth program generator.

The generator's contract is determinism and well-typedness: byte-identical
output for a ``(seed, profile)`` pair across calls and across processes
(regardless of ``PYTHONHASHSEED``), and every emitted program round-trips
through the real frontend -- parser, type checker, code generator -- with
zero errors.
"""

import hashlib
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.frontend import compile_c, parse_c, typecheck
from repro.gen import (
    GenProfile,
    generate_corpus,
    generate_edit,
    generate_program,
    named_profiles,
)
from repro.service.store import program_fingerprints


def profiles():
    return st.one_of(
        st.sampled_from(list(named_profiles().values())),
        st.builds(
            GenProfile,
            n_structs=st.integers(min_value=1, max_value=4),
            n_functions=st.integers(min_value=3, max_value=14),
            recursive_struct_ratio=st.floats(min_value=0.0, max_value=1.0),
            tree_struct_ratio=st.floats(min_value=0.0, max_value=1.0),
            multi_level_pointer_weight=st.floats(min_value=0.0, max_value=1.0),
            function_pointer_weight=st.floats(min_value=0.0, max_value=1.0),
            const_ratio=st.floats(min_value=0.0, max_value=1.0),
            call_chain_depth=st.integers(min_value=0, max_value=5),
            mutual_recursion_pairs=st.integers(min_value=0, max_value=2),
            dead_functions=st.integers(min_value=0, max_value=2),
            polymorphic_weight=st.floats(min_value=0.0, max_value=1.0),
            drivers=st.integers(min_value=0, max_value=2),
        ),
    )


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), profiles())
def test_generation_is_deterministic_across_calls(seed, profile):
    first = generate_program(seed, profile)
    second = generate_program(seed, profile)
    assert first.source == second.source
    assert first.functions == second.functions
    assert first.dead_functions == second.dead_functions


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), profiles())
def test_generated_source_round_trips_with_zero_type_errors(seed, profile):
    program = generate_program(seed, profile)
    unit = parse_c(program.source)          # no ParseError
    checked = typecheck(unit)               # no TypeCheckError
    assert {f.name for f in unit.functions if f.is_definition} == set(program.functions)
    assert checked.signatures


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_generated_source_compiles_to_machine_code(seed):
    program = generate_program(seed, GenProfile.smoke())
    compilation = program.compile()
    assert compilation.program.instruction_count > 20
    assert set(compilation.ground_truth.functions) == set(program.functions)


def test_generation_is_deterministic_across_processes():
    """Byte-identical output no matter the interpreter's hash randomization."""
    seeds = [0, 7, 20160613]
    local = {
        seed: hashlib.sha256(
            generate_program(seed, GenProfile.smoke()).source.encode()
        ).hexdigest()
        for seed in seeds
    }
    script = (
        "import hashlib, sys\n"
        "from repro.gen import GenProfile, generate_program\n"
        "for seed in (0, 7, 20160613):\n"
        "    digest = hashlib.sha256(\n"
        "        generate_program(seed, GenProfile.smoke()).source.encode()\n"
        "    ).hexdigest()\n"
        "    print(seed, digest)\n"
    )
    for hashseed in ("0", "424242"):
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env={
                "PYTHONHASHSEED": hashseed,
                "PYTHONPATH": os.path.join(REPO_ROOT, "src"),
                "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            },
            cwd=REPO_ROOT,
        )
        for line in out.stdout.strip().splitlines():
            seed_text, digest = line.split()
            assert local[int(seed_text)] == digest, (
                f"seed {seed_text} differs under PYTHONHASHSEED={hashseed}"
            )


def test_corpus_members_regenerate_independently():
    corpus = generate_corpus(4, seed=99, profile=GenProfile.smoke())
    for member in corpus:
        again = generate_program(member.seed, GenProfile.smoke(), name=member.name)
        assert again.source == member.source


@pytest.mark.parametrize("name", ["a.b", "9lives", "x y", "caf\u00e9", "x;"])
def test_name_that_is_not_a_c_identifier_is_rejected(name):
    with pytest.raises(ValueError, match="not a C identifier") as excinfo:
        generate_program(1, GenProfile.smoke(), name=name)
    assert repr(name) in str(excinfo.value)


@pytest.mark.parametrize("name", ["vpx-d", "-lead", "_x", "ok_9"])
def test_name_with_dashes_or_underscores_is_accepted(name):
    program = generate_program(1, GenProfile.smoke(), name=name)
    assert program.name == name
    assert f"struct {name.replace('-', '_')}_s0 {{" in program.source


def test_answer_key_matches_full_compilation_ground_truth():
    """The generator's answer key (parse+typecheck, no codegen) is exactly
    what a full compile records before erasing types."""
    program = generate_program(5, GenProfile.default())
    compiled_truth = compile_c(program.source).ground_truth
    assert set(program.ground_truth.functions) == set(compiled_truth.functions)
    for name, entry in program.ground_truth.functions.items():
        other = compiled_truth.functions[name]
        assert [(loc, str(t)) for loc, t in entry.params] == [
            (loc, str(t)) for loc, t in other.params
        ]
        assert entry.param_const == other.param_const
        assert str(entry.return_type) == str(other.return_type)
    assert {n: str(s) for n, s in program.ground_truth.structs.items()} == {
        n: str(s) for n, s in compiled_truth.structs.items()
    }


def test_edit_changes_exactly_the_chosen_function():
    program = generate_program(11, GenProfile.smoke())
    edit = generate_edit(program, edit_seed=3)
    assert edit.source != program.source
    before = program_fingerprints(program.compile().program)
    after = program_fingerprints(compile_c(edit.source).program)
    changed = {name for name in before if before[name] != after.get(name)}
    assert changed == {edit.function}


def test_feature_floors_appear_with_full_weights():
    """Dialling a feature weight to 1.0 makes the feature appear."""
    profile = GenProfile(
        n_structs=4,
        n_functions=16,
        recursive_struct_ratio=1.0,
        tree_struct_ratio=0.5,
        multi_level_pointer_weight=1.0,
        function_pointer_weight=1.0,
        const_ratio=1.0,
        call_chain_depth=3,
        mutual_recursion_pairs=1,
        dead_functions=2,
        polymorphic_weight=1.0,
        drivers=1,
    )
    found_const = found_tree = False
    for seed in range(6):
        program = generate_program(seed, profile)
        source = program.source
        assert "**" in source  # multi-level pointers (weight 1.0 guarantees them)
        assert "_mr0_even" in source and "_mr0_odd" in source
        assert "_chain2" in source
        assert len(program.dead_functions) == 2
        found_const = found_const or "const struct" in source
        found_tree = found_tree or "->left" in source
    assert found_const, "no const pointer parameter generated in 6 seeds"
    assert found_tree, "no binary tree struct generated in 6 seeds"


def test_dead_functions_are_never_called():
    for seed in range(5):
        program = generate_program(seed, GenProfile.default())
        compiled = program.compile().program
        for dead in program.dead_functions:
            callers = [
                name
                for name, proc in compiled.procedures.items()
                if dead in proc.direct_callees()
            ]
            assert not callers, f"dead function {dead} called by {callers}"
