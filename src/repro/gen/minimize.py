"""Delta-minimization of oracle failures into committed regression tests.

When the differential oracle trips, the operator historically got a whole
failing program -- dozens of functions, most of them irrelevant.  This module
turns that failure into a *reproducer*: :func:`minimize_program` runs ddmin
(Zeller/Hildebrandt delta debugging) first over whole procedures, then over
the top-level statement groups of each surviving procedure, re-running the
failing oracle predicate at every step; :func:`emit_regression_test` then
writes the minimized program as a ready-to-commit pytest file under
``tests/regress/``.

The emitted test asserts the predicate *passes* on the minimized program: it
keeps failing while the defect is live and pins the fix afterwards, which is
what a committed regression test should do.

Predicates live in :data:`ORACLE_PREDICATES` -- each is a self-contained
re-check of one oracle property (``(name, source) -> failure description or
None``), so a minimized reproducer needs nothing but the repo itself to run.
A candidate program is *valid* when it still compiles through the mini-C
frontend and *failing* when the predicate returns a message; ddmin only ever
steps between valid failing candidates, so the result is 1-minimal at
procedure granularity (removing any single remaining procedure either breaks
compilation or makes the predicate pass) whenever the evaluation budget is
not exhausted.  Everything is deterministic: ddmin visits complements in a
fixed order and the predicates are pure re-analyses.

For end-to-end drills (and the seeded e2e test), the environment variable
``REPRO_ORACLE_INJECT`` forces the conservativeness predicate to fail on any
program whose *source* contains the given substring -- a content-dependent
artificial bug the minimizer can actually localize.
"""

from __future__ import annotations

import hashlib
import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..service import AnalysisService, IncrementalSession, ServiceConfig, analyze_corpus
from .generator import GeneratedProgram, _render
from .profile import GenProfile

#: hard ceiling on predicate evaluations per minimization (ddmin is quadratic
#: in the worst case; the budget keeps a sweep's failure handling bounded).
DEFAULT_MAX_EVALUATIONS = 400


# ---------------------------------------------------------------------------
# Oracle predicates
# ---------------------------------------------------------------------------

_services: Dict[str, AnalysisService] = {}


def _service(executor: str = "serial") -> AnalysisService:
    """A shared service per executor: the uncached serial reference, or a
    cache-backed fan-out service whose process pool stays warm."""
    if executor not in _services:
        _services[executor] = AnalysisService(
            ServiceConfig(use_cache=executor == "processes", executor=executor)
        )
    return _services[executor]


def conservativeness_failure(
    name: str,
    source: str,
    types,
    truth,
    min_conservativeness: float,
) -> Optional[str]:
    """The oracle's conservativeness check as a reusable predicate body.

    Returns a failure description, or ``None`` when the inferred types are
    conservative enough against the answer key.  ``REPRO_ORACLE_INJECT=<text>``
    forces a failure whenever ``<text>`` occurs in ``source`` -- the shared
    injection point both the oracle sweep and the minimizer's end-to-end
    tests use to rehearse the failure path with a localizable artificial bug.
    """
    from ..eval.metrics import evaluate_program

    inject = os.environ.get("REPRO_ORACLE_INJECT")
    if inject and inject in source:
        return f"injected conservativeness failure (REPRO_ORACLE_INJECT={inject!r})"
    metrics = evaluate_program(name, types, truth)
    if metrics.conservativeness < min_conservativeness:
        offenders = [
            f"{c.function}/{c.location}: {c.inferred} vs truth {c.truth}"
            for c in metrics.comparisons
            if not c.conservative
        ]
        return (
            f"{metrics.conservativeness:.2f} < {min_conservativeness:.2f}: "
            + "; ".join(offenders[:3])
        )
    return None


def _conservativeness_predicate(name: str, source: str) -> Optional[str]:
    from ..frontend import compile_c

    comp = compile_c(source)
    types = _service().analyze(comp.program)
    return conservativeness_failure(name, source, types, comp.ground_truth, 0.85)


def _processes_predicate(name: str, source: str) -> Optional[str]:
    from ..frontend import compile_c
    from .oracle import result_fingerprint

    program = compile_c(source).program
    ref = result_fingerprint(_service().analyze(program))
    # Fan-out needs two programs: the candidate rides with a renamed twin.
    corpus = analyze_corpus(
        {name: program, f"{name}.twin": program}, service=_service("processes")
    )
    types = corpus[name].types
    if types.stats.get("executor") != "processes":
        return "no worker solved the program: fan-out fell back in-process"
    if result_fingerprint(types) != ref:
        return "processes backend result differs from the serial reference"
    return None


def _cache_warm_predicate(name: str, source: str) -> Optional[str]:
    from ..frontend import compile_c
    from .oracle import result_fingerprint

    program = compile_c(source).program
    ref = result_fingerprint(_service().analyze(program))
    with AnalysisService(ServiceConfig(use_cache=True)) as cached:
        session = IncrementalSession(cached)
        session.analyze(str(program))
        warm = session.analyze(str(program))
    if result_fingerprint(warm) != ref:
        return "warm cached re-run differs from the uncached reference"
    solved = warm.stats.get("sccs_solved", -1)
    if solved != 0:
        return f"warm re-run solved {solved} SCCs, expected 0"
    return None


#: every oracle check the minimizer can re-run standalone, keyed exactly like
#: the sweep's mismatch ``check`` labels (family variants strip ``family:``).
ORACLE_PREDICATES: Dict[str, Callable[[str, str], Optional[str]]] = {
    "conservativeness": _conservativeness_predicate,
    "backend:processes": _processes_predicate,
    "cache:warm": _cache_warm_predicate,
}


def check_predicate(predicate: str, name: str, source: str) -> Optional[str]:
    """Run one named oracle predicate; the emitted regression tests call this."""
    return ORACLE_PREDICATES[predicate](name, source)


# ---------------------------------------------------------------------------
# ddmin
# ---------------------------------------------------------------------------


def _ddmin(items: List, fails: Callable[[List], bool]) -> List:
    """Classic complement-driven ddmin over ``items``.

    ``fails(subset)`` must be ``True`` for the initial list; the returned list
    still fails and is 1-minimal (no single item can be removed) unless the
    caller's evaluation budget ran out first.  Deterministic: partitions and
    complements are visited in a fixed order.
    """
    current = list(items)
    n = 2
    while len(current) >= 2 and n <= len(current):
        bounds = [round(i * len(current) / n) for i in range(n + 1)]
        reduced = False
        for i in range(n):
            complement = current[: bounds[i]] + current[bounds[i + 1] :]
            if complement and fails(complement):
                current = complement
                n = max(2, n - 1)
                reduced = True
                break
        if not reduced:
            if n >= len(current):
                break
            n = min(len(current), n * 2)
    return current


def _split_statements(text: str) -> Tuple[str, List[List[str]], str]:
    """Split a rendered function block into (header, statement groups, footer).

    A group is one top-level statement: a single ``...;`` line, or a compound
    (``while``/``if``) spanning from its opening line to the line where brace
    depth returns to zero -- removing a whole group always leaves the braces
    balanced.
    """
    lines = text.splitlines()
    header, body, footer = lines[0], lines[1:-1], lines[-1]
    groups: List[List[str]] = []
    current: List[str] = []
    depth = 0
    for line in body:
        current.append(line)
        depth += line.count("{") - line.count("}")
        if depth == 0:
            groups.append(current)
            current = []
    if current:  # unbalanced tail: keep it atomic
        groups.append(current)
    return header, groups, footer


def _join_statements(header: str, groups: Sequence[Sequence[str]], footer: str) -> str:
    lines = [header]
    for group in groups:
        lines.extend(group)
    lines.append(footer)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Minimization driver
# ---------------------------------------------------------------------------


@dataclass
class MinimizationResult:
    """Outcome of one ddmin run over a failing generated program."""

    name: str
    seed: int
    profile_name: str
    predicate: str
    #: the predicate's failure message on the *minimized* source.
    failure: str
    original_source: str
    source: str
    functions: List[str]
    evaluations: int

    @property
    def reduction(self) -> float:
        """Minimized size as a fraction of the original (by characters)."""
        return len(self.source) / max(1, len(self.original_source))


def minimize_program(
    program: GeneratedProgram,
    predicate: str,
    profile_name: str = "default",
    max_evaluations: int = DEFAULT_MAX_EVALUATIONS,
) -> MinimizationResult:
    """ddmin ``program`` against ``ORACLE_PREDICATES[predicate]``.

    Raises :class:`ValueError` if the program does not currently fail the
    predicate (nothing to minimize) or the predicate name is unknown.
    """
    if predicate not in ORACLE_PREDICATES:
        raise ValueError(
            f"unknown predicate {predicate!r} (known: {sorted(ORACLE_PREDICATES)})"
        )
    from ..frontend import compile_c

    check = ORACLE_PREDICATES[predicate]
    if check(program.name, program.source) is None:
        raise ValueError(f"{program.name} does not fail predicate {predicate!r}")

    struct_blocks = list(program._struct_blocks)
    global_decls = list(program._global_decls)
    evaluations = 0

    def render(blocks: Sequence[Tuple[str, str]]) -> str:
        return _render(struct_blocks, list(blocks), global_decls)

    def fails(blocks: List[Tuple[str, str]]) -> bool:
        nonlocal evaluations
        if evaluations >= max_evaluations:
            return False  # budget exhausted: freeze the current candidate
        evaluations += 1
        source = render(blocks)
        try:
            compile_c(source)
        except Exception:
            return False  # invalid candidate (dangling call/variable/return)
        return check(program.name, source) is not None

    # Pass 1: whole procedures.
    blocks = _ddmin(list(program._blocks), fails)

    # Pass 2: top-level statement groups within each surviving procedure.
    for index in range(len(blocks)):
        name, text = blocks[index]
        header, groups, footer = _split_statements(text)
        if len(groups) < 2:
            continue

        def fails_with(kept: List[List[str]]) -> bool:
            candidate = list(blocks)
            candidate[index] = (name, _join_statements(header, kept, footer))
            return fails(candidate)

        kept = _ddmin(groups, fails_with)
        blocks[index] = (name, _join_statements(header, kept, footer))

    source = render(blocks)
    failure = check(program.name, source)
    assert failure is not None  # ddmin only steps between failing candidates
    return MinimizationResult(
        name=program.name,
        seed=program.seed,
        profile_name=profile_name,
        predicate=predicate,
        failure=failure,
        original_source=program.source,
        source=source,
        functions=[fname for fname, _ in blocks],
        evaluations=evaluations,
    )


# ---------------------------------------------------------------------------
# Regression-test emission
# ---------------------------------------------------------------------------


def emit_regression_test(result: MinimizationResult, out_dir: str = "tests/regress") -> str:
    """Write ``result`` as a self-contained pytest file; returns its path.

    The file name carries a content digest so distinct reproducers never
    collide and re-emitting the same one is idempotent.
    """
    os.makedirs(out_dir, exist_ok=True)
    digest = hashlib.sha256(
        f"{result.predicate}\n{result.source}".encode("utf-8")
    ).hexdigest()[:8]
    slug = re.sub(r"\W+", "_", result.name).strip("_")
    predicate_slug = re.sub(r"\W+", "_", result.predicate).strip("_")
    path = os.path.join(
        out_dir, f"test_regress_{slug}_{predicate_slug}_{digest}.py"
    )
    if '"""' in result.source or result.source.endswith("\\"):
        source_literal = repr(result.source)
    else:
        source_literal = f'"""\\\n{result.source}"""'
    percent = round(result.reduction * 100)
    content = f'''"""Auto-minimized oracle reproducer (see repro.gen.minimize).

Origin: generator seed {result.seed}, profile {result.profile_name!r};
the differential oracle's {result.predicate!r} check failed and ddmin
reduced the program to {percent}% of its original size
({result.evaluations} predicate evaluations).

Failure observed on this minimized program at emission time:
    {result.failure}

Reproduce the original sweep:
    python -m repro gen --oracle --count 1 --seed {result.seed} \\
        --profile {result.profile_name} --minimize

This test asserts the predicate now *passes*: it keeps failing while the
defect is live and pins the fix afterwards.
"""

MINIMIZED_SOURCE = {source_literal}


def test_{slug}_{predicate_slug}():
    from repro.gen.minimize import check_predicate

    failure = check_predicate({result.predicate!r}, {result.name!r}, MINIMIZED_SOURCE)
    assert failure is None, failure
'''
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return path
