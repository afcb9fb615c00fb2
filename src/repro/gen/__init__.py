"""Ground-truth program generation and the differential oracle harness.

The evaluation of the paper (section 6) runs inference over a large corpus
with known debug-information types.  This package manufactures such corpora
on demand: :func:`generate_program` deterministically emits one well-typed
mini-C program together with its declared-type answer key, :func:`run_oracle`
sweeps a generated corpus through the serial path, corpus fan-out on worker
processes and every cache state, and asserts they all agree with each other,
with the ground truth, and with the retained seed algorithms.

Typical use::

    from repro.gen import GenProfile, generate_program, run_oracle

    program = generate_program(seed=7, profile=GenProfile.smoke())
    program.source                    # mini-C text
    program.ground_truth              # declared types per procedure
    program.compile().program         # type-erased machine code

    report = run_oracle(count=300, seed=20160613)
    assert report.ok, report.summary()

``python -m repro gen`` exposes the same surface on the command line, and
every suite of the evaluation harness (:mod:`repro.eval.workloads`: the
Figure 7-10 suite, the Figure 11/12 size sweep, and the ``generated`` and
``family`` workloads) is built from it.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional

from ..core.ctype import ctype_to_json
from .family import (
    FamilyMember,
    FamilyToggle,
    GeneratedFamily,
    apply_toggles,
    enumerate_toggles,
    generate_families,
    generate_family,
)
from .generator import (
    EDIT_STATEMENT,
    GENERATOR_VERSION,
    GeneratedEdit,
    GeneratedProgram,
    generate_corpus,
    generate_edit,
    generate_program,
)
from .minimize import (
    ORACLE_PREDICATES,
    MinimizationResult,
    check_predicate,
    emit_regression_test,
    minimize_program,
)
from .oracle import (
    ALL_BACKENDS,
    OracleMismatch,
    OracleReport,
    load_naive_reference,
    result_fingerprint,
    run_oracle,
)
from .profile import GenProfile, named_profiles


def answer_key_json(program: GeneratedProgram) -> dict:
    """The ground-truth answer key as a JSON-able document."""
    truth = program.ground_truth
    return {
        "name": program.name,
        "seed": program.seed,
        "functions": {
            name: {
                "params": [
                    {
                        "location": location,
                        "name": entry.param_names[i] if i < len(entry.param_names) else "",
                        "type": ctype_to_json(ctype),
                        "c": str(ctype),
                        "const": entry.param_const[i] if i < len(entry.param_const) else False,
                    }
                    for i, (location, ctype) in enumerate(entry.params)
                ],
                "return": ctype_to_json(entry.return_type)
                if entry.return_type is not None
                else None,
            }
            for name, entry in sorted(truth.functions.items())
        },
        "structs": {
            name: {"type": ctype_to_json(struct), "c": f"{struct};"}
            for name, struct in sorted(truth.structs.items())
        },
        "dead_functions": list(program.dead_functions),
    }


def family_answer_key_json(family: GeneratedFamily) -> dict:
    """A whole family's answer key: every member's declared types plus the
    exact toggles that derived it from the base (member 0)."""
    return {
        "name": family.name,
        "seed": family.seed,
        "generator_version": GENERATOR_VERSION,
        "members": [
            dict(
                answer_key_json(member.program),
                index=member.index,
                toggles=[toggle.describe() for toggle in member.toggles],
            )
            for member in family.members
        ],
    }


def write_corpus(
    programs: List[GeneratedProgram],
    out_dir: str,
    seed: Optional[int] = None,
    profile_name: Optional[str] = None,
    members: int = 0,
) -> str:
    """Emit a generated corpus to disk: per-program ``.c`` source and
    ``.truth.json`` answer key, plus a ``manifest.json`` naming them all.

    Returns the manifest path.  The manifest alone reproduces the corpus: it
    records the sweep seed, the profile preset name, the family member count
    (0 for an independent corpus) and the generator version alongside each
    program's own seed.
    """
    os.makedirs(out_dir, exist_ok=True)
    manifest = {
        "generator_version": GENERATOR_VERSION,
        "profile": profile_name,
        "seed": seed,
        "count": len(programs),
        "members": members,
        "programs": [],
    }
    for program in programs:
        source_name = f"{program.name}.c"
        truth_name = f"{program.name}.truth.json"
        with open(os.path.join(out_dir, source_name), "w", encoding="utf-8") as handle:
            handle.write(program.source)
        with open(os.path.join(out_dir, truth_name), "w", encoding="utf-8") as handle:
            json.dump(answer_key_json(program), handle, indent=2, sort_keys=True)
            handle.write("\n")
        manifest["programs"].append(
            {
                "name": program.name,
                "seed": program.seed,
                "source": source_name,
                "truth": truth_name,
                "functions": len(program.functions),
            }
        )
    manifest_path = os.path.join(out_dir, "manifest.json")
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest_path


__all__ = [
    "ALL_BACKENDS",
    "EDIT_STATEMENT",
    "GENERATOR_VERSION",
    "FamilyMember",
    "FamilyToggle",
    "GenProfile",
    "GeneratedEdit",
    "GeneratedFamily",
    "GeneratedProgram",
    "MinimizationResult",
    "ORACLE_PREDICATES",
    "OracleMismatch",
    "OracleReport",
    "answer_key_json",
    "apply_toggles",
    "check_predicate",
    "emit_regression_test",
    "enumerate_toggles",
    "family_answer_key_json",
    "generate_corpus",
    "generate_edit",
    "generate_families",
    "generate_family",
    "generate_program",
    "load_naive_reference",
    "minimize_program",
    "named_profiles",
    "result_fingerprint",
    "run_oracle",
    "write_corpus",
]
