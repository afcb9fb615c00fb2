"""Benchmark suites for the evaluation, all built on :mod:`repro.gen`.

The paper's corpus (coreutils, SPEC CPU2006, Windows DLLs -- Figures 7 and 10)
cannot be redistributed or rebuilt here.  Every suite below is manufactured
by the ground-truth generator instead, so every workload carries the
generator's answer key as its ground truth:

* :func:`standard_suite` (Figures 7-10) -- six clusters named after Figure
  10's, each one :func:`repro.gen.generate_family` product line whose members
  share most of their code the way binaries built from one code base do, plus
  eight standalone programs named after Figure 7's entries, whose sizes span
  more than an order of magnitude;
* :func:`scaling_suite` (Figures 11 and 12) -- one fixed profile swept by size;
* :func:`generated_suite` and :func:`family_suite` -- open-ended families of
  independent programs and of product lines.

Everything is deterministic given the seed (no ``hash()``), so every figure
regenerates identically in every interpreter.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence

from ..frontend import CompilationResult
from ..gen.family import GeneratedFamily, generate_families, generate_family
from ..gen.generator import GeneratedProgram, generate_corpus, generate_program
from ..gen.profile import GenProfile, named_profiles


@dataclass
class Workload:
    """One synthetic "binary": its source, compiled program and ground truth."""

    name: str
    cluster: str
    source: str
    compilation: CompilationResult

    @property
    def program(self):
        return self.compilation.program

    @property
    def ground_truth(self):
        return self.compilation.ground_truth

    @property
    def instructions(self) -> int:
        return self.program.instruction_count


def program_workload(program: GeneratedProgram, cluster: Optional[str] = None) -> Workload:
    """A generated program as a workload, in its own cluster unless ``cluster`` names one."""
    return Workload(
        name=program.name,
        cluster=cluster or program.name,
        source=program.source,
        compilation=program.compile(),
    )


def family_workloads(family: GeneratedFamily, cluster: Optional[str] = None) -> List[Workload]:
    """Every member of ``family`` as a workload, all in one cluster (by
    default the family's name), the way Figure 10 clusters binaries built
    from one code base."""
    return [program_workload(member.program, cluster or family.name) for member in family.members]


# ---------------------------------------------------------------------------
# Standard suites
# ---------------------------------------------------------------------------

#: Figure 10's clusters: name, member count and size factor of the
#: ``default`` profile.
_CLUSTERS = [
    ("freeglut-demos", 3, 0.8),
    ("coreutils", 8, 1.6),
    ("vpx-d", 4, 2.0),
    ("vpx-e", 3, 2.4),
    ("sphinx2", 4, 2.2),
    ("putty", 4, 2.4),
]

#: Figure 7's standalone programs: name, profile preset and size factor.
_STANDALONE = [
    ("mcf", "smoke", 0.5),
    ("libidn", "smoke", 2.0),
    ("zlib", "default", 1.0),
    ("bzip2", "default", 2.0),
    ("ogg", "default", 3.0),
    ("libbz2", "stress", 1.0),
    ("sjeng", "stress", 2.5),
    ("hmmer", "stress", 6.0),
]


def standard_suite(scale: float = 1.0, seed: int = 20160613) -> List[Workload]:
    """The clustered benchmark suite used for Figures 7 to 10.

    ``scale`` multiplies every profile's struct and function counts; at the
    default the largest standalone program has more than ten times the
    procedures of the smallest.
    """
    presets = named_profiles()
    suite: List[Workload] = []
    for offset, (cluster, members, factor) in enumerate(_CLUSTERS, start=1):
        profile = presets["default"].scaled(factor * scale)
        suite += family_workloads(generate_family(seed + offset, profile, members, name=cluster))
    for name, preset, factor in _STANDALONE:
        # crc32, not hash(): the per-name seed (and therefore the workload's
        # content) must not vary with PYTHONHASHSEED across processes.
        program_seed = seed + zlib.crc32(name.encode()) % 1000
        profile = presets[preset].scaled(factor * scale)
        suite.append(program_workload(generate_program(program_seed, profile, name=name)))
    return suite


def scaling_suite(
    sizes: Sequence[int] = (6, 12, 25, 50, 100, 200), seed: int = 20160614
) -> List[Workload]:
    """Programs of increasing size for the Figure 11/12 scaling sweeps: one
    fixed profile scaled to about ``n`` library functions for each ``n``.

    The profile is ``smoke`` without the union-view, varargs and
    dispatch-table idioms.  Each of those is drawn once per program whatever
    its size, so at small ``n`` they made a smaller program outgrow a larger
    one; every idiom that scales with the struct and function counts stays.
    """
    profile = replace(GenProfile.smoke(), union_weight=0.0, varargs_weight=0.0, dispatch_weight=0.0)
    return [
        program_workload(
            generate_program(seed + n, profile.scaled(n / profile.n_functions), name=f"scale_{n}")
        )
        for n in sizes
    ]


def generated_suite(
    count: int = 8,
    seed: int = 20160615,
    profile: Optional[GenProfile] = None,
    cluster: str = "generated",
) -> List[Workload]:
    """The ``generated`` workload family: profile-driven ground-truth programs.

    An effectively unbounded, seed-reproducible source of programs with
    recursive structs, multi-level pointers, handler slots, const parameters,
    deep and mutually-recursive call graphs, dead code and polymorphic
    helpers, all in one cluster.
    """
    programs = generate_corpus(count, seed, profile or GenProfile.default(), name_prefix=f"{cluster}_")
    return [program_workload(program, cluster) for program in programs]


def family_suite(
    families: int = 4,
    seed: int = 20160616,
    profile: Optional[GenProfile] = None,
    members: int = 4,
    cluster: str = "family",
) -> List[Workload]:
    """The ``family`` workload: toggle-derived program *families*.

    Each family is one :func:`repro.gen.family.generate_family` product line
    -- a base program plus variants differing by declared feature toggles --
    flattened member-by-member.  Members of one family share most procedures
    byte-for-byte, so this is the canonical workload for summary-store reuse
    and incremental-session studies; every member still carries its own
    re-derived answer key, so metrics and figures run over it unchanged.
    Workloads are clustered per family (``family:<name>``).
    """
    workloads: List[Workload] = []
    for family in generate_families(
        families, seed, profile or GenProfile.default(), members=members, name_prefix=f"{cluster}_"
    ):
        workloads += family_workloads(family, f"{cluster}:{family.name}")
    return workloads
