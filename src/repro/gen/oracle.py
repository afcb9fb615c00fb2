"""Differential oracle harness over generated corpora.

For every program of a seeded generated corpus the harness asserts, across
every executor backend and cache state, that the analysis is *one function*:

* **backend identity** -- the sweep's programs analyzed through
  :func:`~repro.service.batch.analyze_corpus` fan-out on worker processes
  produce results byte-identical to the serial in-process reference
  (canonical JSON of the typed surface, timings excluded), and every one of
  them was actually solved by a worker;
* **cache identity** -- through one :class:`IncrementalSession` fed asm
  text, a cold cache-backed run, a warm re-run (which must perform zero SCC
  solves), an incremental re-analysis after a generated edit and a reopen
  of the unedited program each reproduce the reference result
  byte-for-byte, and the edit's invalidation cone contains the edited
  function;
* **conservativeness** -- the inferred types score at least
  ``min_conservativeness`` against the generator's ground-truth answer key
  under :func:`repro.eval.metrics.evaluate_program` (the paper's section 6.3
  property, thresholded because stack-aliasing imprecision is expected);
* **derives agreement** -- on sampled per-procedure constraint sets, the
  production :func:`~repro.core.simplify.simplify_constraints` output is a
  superset of the retained seed oracle ``naive_simplify_constraints``
  (``tests/core/naive_reference.py``), and every extra judgement is provable
  on the saturated graph (:func:`repro.core.proves`).

Any violation is recorded as an :class:`OracleMismatch`; a sweep passes only
when there are none.  The whole sweep is reproducible from ``(seed, profile,
count)`` -- the report's ``summary()`` prints the exact CLI line.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core import proves, simplify_constraints
from ..eval.metrics import evaluate_program
from ..service import AnalysisService, IncrementalSession, ServiceConfig, analyze_corpus
from ..typegen.abstract_interp import generate_program_constraints
from .family import GeneratedFamily, generate_family
from .generator import GeneratedProgram, generate_corpus, generate_edit
from .minimize import conservativeness_failure
from .profile import GenProfile

#: every executor strategy the service accepts, in check order.
ALL_BACKENDS = ("serial", "processes")

#: procedures whose constraint sets exceed this are not sampled for the
#: naive-reference comparison (the seed DFS is exponential-ish by design).
MAX_DERIVES_CONSTRAINTS = 90


def result_fingerprint(types) -> str:
    """A canonical digest of the typed surface of one analysis.

    Covers everything a client can observe -- per-procedure payloads, the
    program-wide struct table and the rendered report -- and excludes ``stats``
    (timings and scheduling differ across backends by construction).
    """
    payload = types.to_json()
    payload.pop("stats", None)
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def load_naive_reference():
    """The retained seed algorithms (``tests/core/naive_reference.py``).

    They live with the tests, not the package, so installed copies may not
    have them; returns ``None`` in that case and the derives check is skipped
    (and reported as skipped, never silently).  ``REPRO_NAIVE_REFERENCE``
    overrides the search path.
    """
    candidates = []
    override = os.environ.get("REPRO_NAIVE_REFERENCE")
    if override:
        candidates.append(override)
    here = os.path.dirname(os.path.abspath(__file__))
    candidates.append(
        os.path.join(
            os.path.dirname(os.path.dirname(os.path.dirname(here))),
            "tests",
            "core",
            "naive_reference.py",
        )
    )
    for path in candidates:
        if os.path.isfile(path):
            spec = importlib.util.spec_from_file_location("naive_reference", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return None


@dataclass
class OracleMismatch:
    program: str
    check: str
    detail: str

    def __str__(self) -> str:
        return f"{self.program}: [{self.check}] {self.detail}"


@dataclass
class OracleReport:
    """Outcome of one differential sweep."""

    seed: int
    profile: GenProfile
    profile_name: str
    backends: Tuple[str, ...]
    programs: int = 0
    derives_samples: int = 1
    min_conservativeness: float = 0.85
    #: variant families swept (0 = independent-program mode only).
    families: int = 0
    #: members per family, base included.
    family_members: int = 0
    #: task chunks the ``processes`` check dispatched to worker processes.
    fanout_chunks: int = 0
    #: check name -> number of times it ran (one count per program+backend).
    checks: Dict[str, int] = dc_field(default_factory=dict)
    mismatches: List[OracleMismatch] = dc_field(default_factory=list)
    skipped: List[str] = dc_field(default_factory=list)
    #: pytest reproducer files the minimizer emitted for this sweep's failures.
    reproducers: List[str] = dc_field(default_factory=list)
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def count(self, check: str) -> None:
        self.checks[check] = self.checks.get(check, 0) + 1

    def summary(self) -> str:
        scope = f"{self.programs} programs"
        family_flags = ""
        if self.families:
            scope += f" + {self.families} families x {self.family_members} members"
            family_flags = f"--families {self.families} --members {self.family_members} "
        lines = [
            f"oracle sweep: {scope}, seed {self.seed}, "
            f"profile {self.profile_name!r}, backends {'/'.join(self.backends)}",
            f"  reproduce: python -m repro gen --oracle --count {self.programs} "
            f"--seed {self.seed} --profile {self.profile_name} "
            f"--backends {','.join(self.backends)} {family_flags}"
            f"--derives-samples {self.derives_samples} "
            f"--min-conservativeness {self.min_conservativeness}",
        ]
        for check in sorted(self.checks):
            lines.append(f"  {check:<24} {self.checks[check]:>6} checks")
        if "processes" in self.backends:
            lines.append(f"  fan-out: {self.fanout_chunks} chunks dispatched to workers")
        for note in self.skipped:
            lines.append(f"  skipped: {note}")
        for path in self.reproducers:
            lines.append(f"  reproducer: {path}")
        if self.mismatches:
            lines.append(f"  MISMATCHES: {len(self.mismatches)}")
            for mismatch in self.mismatches[:20]:
                lines.append(f"    {mismatch}")
            if len(self.mismatches) > 20:
                lines.append(f"    ... and {len(self.mismatches) - 20} more")
        else:
            lines.append(
                f"  zero mismatches in {self.elapsed_seconds:.1f}s "
                f"({self.elapsed_seconds / max(1, self.programs) * 1000:.0f} ms/program)"
            )
        return "\n".join(lines)


def run_oracle(
    count: int,
    seed: int,
    profile: Optional[GenProfile] = None,
    profile_name: str = "default",
    backends: Sequence[str] = ALL_BACKENDS,
    derives_samples: int = 1,
    min_conservativeness: float = 0.85,
    progress: Optional[Callable[[int, int], None]] = None,
    corpus: Optional[List[GeneratedProgram]] = None,
    families: int = 0,
    family_members: int = 4,
    minimize_dir: Optional[str] = None,
) -> OracleReport:
    """Run the differential oracle over ``count`` generated programs.

    ``corpus`` lets a caller that already generated the corpus (the CLI's
    combined ``--out --oracle`` mode) reuse it instead of regenerating; it
    must be the ``generate_corpus(count, seed, profile)`` corpus for the
    other arguments, which stay authoritative for the reproduce line.

    ``families > 0`` additionally sweeps that many toggle-derived variant
    families of ``family_members`` members each (:mod:`repro.gen.family`):
    per member, backend identity and conservativeness against the member's
    own answer key; per family, *cross-member store reuse* (an SCC whose
    summary an earlier member admitted is never solved again) and
    *session-edit equivalence* (feeding each variant through one live
    :class:`IncrementalSession` fingerprint-matches a cold solve).

    ``minimize_dir`` turns failures into reproducers: the first minimizable
    mismatch per program is ddmin-reduced (:mod:`repro.gen.minimize`) and
    emitted as a pytest file under that directory (``report.reproducers``).
    """
    profile = profile or GenProfile.default()
    backends = tuple(backends)
    unknown = set(backends) - set(ALL_BACKENDS)
    if unknown:
        raise ValueError(
            f"unknown backends {sorted(unknown)} (expected some of {ALL_BACKENDS})"
        )
    report = OracleReport(
        seed=seed,
        profile=profile,
        profile_name=profile_name,
        backends=backends,
        derives_samples=derives_samples,
        min_conservativeness=min_conservativeness,
        family_members=family_members if families else 0,
    )
    naive = load_naive_reference() if derives_samples > 0 else None
    if derives_samples > 0 and naive is None:
        report.skipped.append(
            "derives-agreement (tests/core/naive_reference.py not found; "
            "set REPRO_NAIVE_REFERENCE)"
        )

    start = time.perf_counter()
    reference = AnalysisService(ServiceConfig(use_cache=False))
    # Fan-out needs the summary store: workers ship summaries back into it.
    fanout_service = (
        AnalysisService(ServiceConfig(use_cache=True, executor="processes"))
        if "processes" in backends
        else None
    )
    cache_service = AnalysisService(ServiceConfig(use_cache=True))
    rng = random.Random(seed)
    total = count + families
    try:
        if corpus is None:
            corpus = generate_corpus(count, seed, profile)
        compiled = [program.compile() for program in corpus]
        fanout = _fanout_fingerprints(
            fanout_service, report, {p.name: c.program for p, c in zip(corpus, compiled)}
        )
        for index, (program, comp) in enumerate(zip(corpus, compiled)):
            before = len(report.mismatches)
            _check_program(
                program,
                comp,
                report,
                reference,
                fanout,
                cache_service,
                naive,
                derives_samples,
                min_conservativeness,
                rng,
            )
            report.programs += 1
            _emit_reproducers(program, report, before, minimize_dir)
            if progress is not None:
                progress(index + 1, total)
        for index in range(families):
            family = generate_family(
                seed + index, profile, members=family_members,
                name=f"fam{seed}_{index}",
            )
            _check_family(
                family,
                report,
                reference,
                fanout_service,
                min_conservativeness,
                minimize_dir,
            )
            report.families += 1
            if progress is not None:
                progress(count + index + 1, total)
    finally:
        reference.close()
        cache_service.close()
        if fanout_service is not None:
            fanout_service.close()
    report.elapsed_seconds = time.perf_counter() - start
    return report


def _fanout_fingerprints(
    service: Optional[AnalysisService],
    report: OracleReport,
    programs: Dict[str, object],
) -> Dict[str, Optional[str]]:
    """Fingerprint ``programs`` analyzed through corpus fan-out.

    ``None`` marks a program no worker solved (its chunk failed and the
    parent fell back in-process), which the caller reports as a mismatch:
    a fallback must never pass for a fan-out check.  Returns ``{}`` when the
    sweep does not check the ``processes`` backend.  A corpus of fewer than
    two programs cannot fan out and is recorded as skipped.
    """
    if service is None or not programs:
        return {}
    if len(programs) < 2:
        report.skipped.append(
            f"backend:processes for {sorted(programs)} (fan-out needs >= 2 programs)"
        )
        return {}
    before = service.procpool_snapshot().get("chunks_dispatched", 0)
    corpus = analyze_corpus(programs, service=service)
    report.fanout_chunks += service.procpool_snapshot()["chunks_dispatched"] - before
    return {
        name: result_fingerprint(entry.types)
        if entry.types.stats.get("executor") == "processes"
        else None
        for name, entry in corpus.reports.items()
    }


def _check_fanout(
    report: OracleReport,
    check: str,
    name: str,
    fanout: Dict[str, Optional[str]],
    ref_fp: str,
    context: str,
) -> None:
    """The ``processes`` backend-identity check for one program."""
    if name not in fanout:
        return
    report.count(check)
    fp = fanout[name]
    if fp is None:
        detail = f"no worker solved it: fan-out fell back in-process ({context})"
    elif fp != ref_fp:
        detail = f"result differs from serial reference ({context})"
    else:
        return
    report.mismatches.append(OracleMismatch(name, check, detail))


def _check_program(
    program: GeneratedProgram,
    comp,
    report: OracleReport,
    reference: AnalysisService,
    fanout: Dict[str, Optional[str]],
    cache_service: AnalysisService,
    naive,
    derives_samples: int,
    min_conservativeness: float,
    rng: random.Random,
) -> None:
    from ..frontend import compile_c

    ref_types = reference.analyze(comp.program)
    ref_fp = result_fingerprint(ref_types)

    # -- (a) backend identity ---------------------------------------------------
    _check_fanout(
        report, "backend:processes", program.name, fanout, ref_fp,
        f"seed {program.seed}",
    )

    # -- (b) cache states -------------------------------------------------------
    # The session is driven with asm text, as the server and the benchmark
    # drive it, so its chunk-table and display reuse run here too.
    base_asm = str(comp.program)
    session = IncrementalSession(cache_service)
    report.count("cache:cold")
    cold = session.analyze(base_asm)
    if result_fingerprint(cold) != ref_fp:
        report.mismatches.append(
            OracleMismatch(
                program.name, "cache:cold", f"cold cached run differs (seed {program.seed})"
            )
        )
    report.count("cache:warm")
    warm = session.analyze(base_asm)
    if result_fingerprint(warm) != ref_fp:
        report.mismatches.append(
            OracleMismatch(
                program.name, "cache:warm", f"warm re-run differs (seed {program.seed})"
            )
        )
    if warm.stats.get("sccs_solved", -1) != 0:
        report.mismatches.append(
            OracleMismatch(
                program.name,
                "cache:warm",
                f"warm re-run solved {warm.stats.get('sccs_solved')} SCCs, expected 0",
            )
        )

    report.count("cache:incremental")
    edit = generate_edit(program, edit_seed=program.seed)
    edited_comp = compile_c(edit.source)
    incremental = session.analyze(str(edited_comp.program))
    fresh = reference.analyze(edited_comp.program)
    if result_fingerprint(incremental) != result_fingerprint(fresh):
        report.mismatches.append(
            OracleMismatch(
                program.name,
                "cache:incremental",
                f"incremental re-analysis after editing {edit.function!r} differs "
                f"from a fresh analysis (seed {program.seed})",
            )
        )
    invalidated = incremental.stats.get("invalidated_procedures", [])
    if edit.function not in invalidated:
        report.mismatches.append(
            OracleMismatch(
                program.name,
                "cache:incremental",
                f"edited {edit.function!r} missing from invalidation cone {invalidated}",
            )
        )
    # Reopening the base after the edit reuses what the edit left untouched.
    reopened = session.analyze(base_asm)
    if result_fingerprint(reopened) != ref_fp:
        report.mismatches.append(
            OracleMismatch(
                program.name,
                "cache:incremental",
                f"reopening the base after editing {edit.function!r} differs "
                f"from a fresh analysis (seed {program.seed})",
            )
        )

    # -- (c) conservativeness vs. ground truth ---------------------------------
    report.count("conservativeness")
    failure = conservativeness_failure(
        program.name, program.source, ref_types, comp.ground_truth, min_conservativeness
    )
    if failure is not None:
        report.mismatches.append(
            OracleMismatch(
                program.name,
                "conservativeness",
                f"(seed {program.seed}) {failure}",
            )
        )

    # -- (d) derives agreement with the seed oracles ----------------------------
    if naive is None or derives_samples <= 0:
        return
    inputs = generate_program_constraints(comp.program)
    known = set(comp.program.procedures)
    eligible = [
        name
        for name in inputs
        if len(inputs[name].constraints) <= MAX_DERIVES_CONSTRAINTS
    ]
    for name in rng.sample(eligible, min(derives_samples, len(eligible))):
        report.count("derives")
        constraints = inputs[name].constraints
        bases = {dtv.base for c in constraints for dtv in (c.left, c.right)}
        interesting = sorted(bases & (known | {name}))
        if not interesting:
            continue
        fast = set(simplify_constraints(constraints, interesting).subtype)
        slow = set(naive.naive_simplify_constraints(constraints, interesting).subtype)
        if not slow <= fast:
            report.mismatches.append(
                OracleMismatch(
                    program.name,
                    "derives",
                    f"{name}: worklist simplification lost "
                    f"{len(slow - fast)} seed judgements (seed {program.seed})",
                )
            )
            continue
        for extra in sorted(fast - slow, key=str):
            if not proves(constraints, extra):
                report.mismatches.append(
                    OracleMismatch(
                        program.name,
                        "derives",
                        f"{name}: unprovable extra judgement {extra} "
                        f"(seed {program.seed})",
                    )
                )
                break


def _check_family(
    family: GeneratedFamily,
    report: OracleReport,
    reference: AnalysisService,
    fanout_service: Optional[AnalysisService],
    min_conservativeness: float,
    minimize_dir: Optional[str],
) -> None:
    """Family-mode checks: per-member identity plus cross-member reuse.

    Members flow, in order, through one fresh cache-backed service and one
    live :class:`IncrementalSession`, so the session-edit path and the
    summary store see exactly the family's own history:

    * every member's live-session result must fingerprint-match a cold
      uncached solve of that member (``family:session``);
    * an SCC whose store key an earlier member admitted must be served from
      cache, never re-solved (``family:store-reuse``), and every variant must
      actually share summaries with its predecessors -- toggles edit a few
      procedures, not the whole program.
    """
    family_service = AnalysisService(ServiceConfig(use_cache=True))
    session = IncrementalSession(family_service)
    admitted: Dict[str, str] = {}  # store key -> first member that admitted it
    compiled = [member.program.compile() for member in family.members]
    fanout = _fanout_fingerprints(
        fanout_service,
        report,
        {m.name: c.program for m, c in zip(family.members, compiled)},
    )
    try:
        for member, comp in zip(family.members, compiled):
            before = len(report.mismatches)
            ref_types = reference.analyze(comp.program)
            ref_fp = result_fingerprint(ref_types)
            toggles = ", ".join(t.describe() for t in member.toggles) or "<base>"

            _check_fanout(
                report, "family:backend:processes", member.name, fanout, ref_fp,
                f"seed {family.seed}, toggles {toggles}",
            )

            report.count("family:conservativeness")
            failure = conservativeness_failure(
                member.name,
                member.source,
                ref_types,
                comp.ground_truth,
                min_conservativeness,
            )
            if failure is not None:
                report.mismatches.append(
                    OracleMismatch(
                        member.name,
                        "family:conservativeness",
                        f"(seed {family.seed}, toggles {toggles}) {failure}",
                    )
                )

            report.count("family:session")
            live = session.analyze(str(comp.program))
            if result_fingerprint(live) != ref_fp:
                report.mismatches.append(
                    OracleMismatch(
                        member.name,
                        "family:session",
                        f"session edit differs from a cold solve "
                        f"(seed {family.seed}, toggles {toggles})",
                    )
                )

            report.count("family:store-reuse")
            scc_keys: Dict[str, str] = live.stats.get("scc_store_keys", {})
            solved = set(live.stats.get("solved_procedures", []))
            stale = sorted(
                scc
                for scc, key in scc_keys.items()
                if key in admitted and set(scc.split("|")) & solved
            )
            if stale:
                report.mismatches.append(
                    OracleMismatch(
                        member.name,
                        "family:store-reuse",
                        f"re-solved SCCs whose summaries were admitted by "
                        f"{sorted({admitted[scc_keys[s]] for s in stale})}: "
                        f"{stale[:3]} (seed {family.seed})",
                    )
                )
            if member.index > 0 and not any(key in admitted for key in scc_keys.values()):
                report.mismatches.append(
                    OracleMismatch(
                        member.name,
                        "family:store-reuse",
                        f"variant shares no summaries with earlier members "
                        f"(seed {family.seed}, toggles {toggles})",
                    )
                )
            for key in scc_keys.values():
                admitted.setdefault(key, member.name)

            _emit_reproducers(member.program, report, before, minimize_dir)
    finally:
        family_service.close()


def _emit_reproducers(
    program: GeneratedProgram,
    report: OracleReport,
    since: int,
    minimize_dir: Optional[str],
) -> None:
    """ddmin the first minimizable mismatch recorded after ``since`` into a
    committed pytest reproducer (one per program; see repro.gen.minimize)."""
    if minimize_dir is None:
        return
    from .minimize import ORACLE_PREDICATES, emit_regression_test, minimize_program

    for mismatch in report.mismatches[since:]:
        check = mismatch.check
        if check.startswith("family:"):
            check = check[len("family:"):]
        if check not in ORACLE_PREDICATES:
            continue
        try:
            result = minimize_program(
                program, check, profile_name=report.profile_name
            )
        except ValueError:
            # The failure does not reproduce through the standalone
            # predicate (e.g. it needed the sweep's exact cache history).
            continue
        report.reproducers.append(emit_regression_test(result, minimize_dir))
        return
