"""The benchmark's four workloads.

Every input comes from ``repro.gen`` at the run's seed; the program under
test only ever sees generated assembly text.  A workload prepares its inputs
(the benchmark's own work, untimed), sets the program up (timed as
``setup_s``), then yields rounds of ops.  An op is a timed ``call`` plus an
untimed ``check`` that verifies the answer.

* ``cold-corpus`` -- one-shot ``analyze_program`` over stress programs of
  mixed scale (44, 128 and 324 procedures), cache off.
* ``edit-replay`` -- one ``IncrementalSession`` per family, alternating
  one-function edits with reopens of earlier versions.
* ``server-mixed`` -- a ``python -m repro.server`` process driven by two
  connections in lockstep rounds over a query/analyze/session mix.
* ``corpus-fanout`` -- ``analyze_corpus`` on the process backend (two
  workers) through one long-lived service, one never-seen family per op.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import select
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

from calib import calibrated

from repro import (
    AnalysisService,
    IncrementalSession,
    ServiceConfig,
    SummaryStore,
    analyze_corpus,
    analyze_program,
)
from repro.eval.metrics import evaluate_program
from repro.frontend import compile_c
from repro.gen import (
    GenProfile,
    generate_edit,
    generate_family,
    generate_program,
    result_fingerprint,
)
from repro.server import TypeQueryClient

#: where the program's sources live in a checkout.
SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


# ---------------------------------------------------------------------------
# Ops, verdicts and answer scoring
# ---------------------------------------------------------------------------


@dataclass
class Scores:
    """Answer-key comparisons pooled over every variable of every checked op."""

    variables: int = 0
    conservative: int = 0
    distance: float = 0.0
    pointer_sum: float = 0.0
    pointer_n: int = 0
    const_truth: int = 0
    const_hit: int = 0

    def add(self, other: "Scores") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def metrics(self) -> Dict[str, float]:
        return {
            "accuracy.conservative": self.conservative / max(1, self.variables),
            "accuracy.pointer": self.pointer_sum / max(1, self.pointer_n),
            "accuracy.const_recall": self.const_hit / max(1, self.const_truth),
            "accuracy.distance": self.distance / max(1, self.variables),
        }


def score(types, truth) -> Scores:
    """Score one analysis against the generator's answer key."""
    scores = Scores()
    for c in evaluate_program("", types, truth).comparisons:
        scores.variables += 1
        scores.conservative += int(c.conservative)
        scores.distance += c.distance
        if c.pointer_score is not None:
            scores.pointer_sum += c.pointer_score
            scores.pointer_n += 1
        if c.const_truth:
            scores.const_truth += 1
            scores.const_hit += int(c.const_inferred)
    return scores


@dataclass
class Verdict:
    ok: bool
    message: str = ""
    #: answer-key scores of every program this op answered, by program name.
    scores: Dict[str, Scores] = field(default_factory=dict)
    #: per-op layer counts (procedures, constraints, cone sizes, bytes ...).
    counts: Dict[str, float] = field(default_factory=dict)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Verdict]


def payload_fingerprint(payload: Dict[str, object]) -> str:
    """``result_fingerprint`` applied to a wire payload instead of live types."""
    payload = {k: v for k, v in payload.items() if k not in ("stats", "program_id")}
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def reply_bytes(payload: Dict[str, object]) -> float:
    """Reply size without the timing-bearing ``stats`` block."""
    return float(len(json.dumps({k: v for k, v in payload.items() if k != "stats"})))


def analysis_counts(types) -> Dict[str, float]:
    stats = types.stats
    return {
        "procedures": float(stats.get("procedures", 0)),
        "constraints": float(stats.get("constraints", 0)),
        "sccs_solved": float(stats.get("sccs_solved", 0)),
        **{f"stage.{k}": float(v) for k, v in types.stage_seconds.items()
           if isinstance(v, (int, float))},
    }


@dataclass
class Subject:
    """One generated program: asm text for the program, answer key for us."""

    name: str
    asm: str
    truth: object
    procedures: int
    reference: Optional[str] = None  # verified result fingerprint
    scores: Optional[Scores] = None
    signatures: Optional[Dict[str, str]] = None

    @classmethod
    def from_source(cls, name: str, source: str, truth) -> "Subject":
        program = compile_c(source).program
        return cls(name, str(program), truth, len(program.procedures))

    @classmethod
    def generate(cls, seed: int, profile: GenProfile, name: str) -> "Subject":
        generated = generate_program(seed, profile, name=name)
        return cls.from_source(name, generated.source, generated.ground_truth)

    def verdict(self, types, counts: Optional[Dict[str, float]] = None) -> Verdict:
        """Check ``types`` against the verified reference and the answer key."""
        fingerprint = result_fingerprint(types)
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            return Verdict(False, f"{self.name}: result fingerprint drifted")
        if self.scores is None:
            self.scores = score(types, self.truth)
        return Verdict(True, scores={self.name: self.scores},
                       counts=counts or analysis_counts(types))


def expect_types(result) -> None:
    if isinstance(result, BaseException):
        raise result
    if not hasattr(result, "functions"):
        raise TypeError(f"not an analysis result: {type(result).__name__}")


def rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb_pid(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process, 0 when it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(parent: int) -> List[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == parent:
            pids.append(int(entry))
    return pids


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    return env


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    name = ""
    #: connections driven in lockstep per round (1 = closed single caller).
    concurrency = 1
    #: times the set-up is repeated; ``setup_s`` is the median.
    setup_repeats = 5
    #: rounds in one full cycle of the op mix (the counted pass runs one),
    #: the ops in it, and its duration at reference speed (sizes a run).
    rounds_per_cycle = 1
    cycle_ops = 10
    cycle_seconds = 3.0

    def __init__(self, seed: int, tiny: bool, store_factory=SummaryStore) -> None:
        self.seed = seed
        self.tiny = tiny
        self.store_factory = store_factory

    def setup(self, kernels: List[float]) -> List[float]:
        raise NotImplementedError

    def rounds(self) -> Iterator[List[Op]]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return rss_mb_self()

    def layer_stats(self) -> Dict[str, float]:
        """Program-side counters read after the pass (traced runs only)."""
        return {}

    def close(self) -> None:
        pass


_SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import repro; "
    "repro.AnalysisService(repro.ServiceConfig(use_cache=False)); "
    "print(time.perf_counter() - t)"
)


class ColdCorpus(Workload):
    """One-shot analyses of stress programs at three scales, cache off."""

    name = "cold-corpus"
    #: the per-round scale mix: 7 small, 1 medium, 2 large.  p50 falls inside
    #: the small programs and p90 inside the large ones.
    MIX = "SSSLSSMSSL"

    def __init__(self, seed: int, tiny: bool, store_factory=SummaryStore) -> None:
        super().__init__(seed, tiny, store_factory)
        factors = {"S": 1, "M": 4, "L": 11} if not tiny else {"S": 0.3, "M": 0.5, "L": 1}
        #: distinct programs per scale; rounds cycle through them.
        self.pool_sizes = {"S": 50, "M": 10, "L": 8} if not tiny else {"S": 3, "M": 1, "L": 1}
        self.profiles = {k: GenProfile.stress().scaled(f) for k, f in factors.items()}
        self.pools: Dict[str, Dict[int, Subject]] = {k: {} for k in factors}

    def subject(self, scale: str, index: int) -> Subject:
        slot = index % self.pool_sizes[scale]
        pool = self.pools[scale]
        if slot not in pool:
            seed = (self.seed * 1_000_003 + slot) * 4 + "SML".index(scale)
            pool[slot] = Subject.generate(seed, self.profiles[scale], f"c{scale}{slot}")
        return pool[slot]

    def setup(self, kernels: List[float]) -> List[float]:
        # Program start-up: a fresh interpreter importing repro and building
        # the one-shot service, as every command-line analysis pays it.
        def start() -> float:
            out = subprocess.run(
                [sys.executable, "-c", _SETUP_SNIPPET],
                env=program_env(), capture_output=True, text=True, timeout=120, check=True,
            )
            return float(out.stdout.strip().splitlines()[-1])

        times = []
        for _ in range(self.setup_repeats):
            inner, _, factor = calibrated(start, kernels)
            times.append(inner * factor)
        return times

    def rounds(self) -> Iterator[List[Op]]:
        counters = {"S": 0, "M": 0, "L": 0}
        while True:
            ops = []
            for scale in self.MIX:
                subject = self.subject(scale, counters[scale])
                counters[scale] += 1
                ops.append(self._op(scale, subject))
            yield ops

    @staticmethod
    def _op(scale: str, subject: Subject) -> Op:
        def check(result) -> Verdict:
            expect_types(result)
            return subject.verdict(result)

        return Op(f"analyze_{scale}", lambda: analyze_program(subject.asm), check)


class EditReplay(Workload):
    """Incremental sessions: one-function edits and reopens of old versions."""

    name = "edit-replay"
    setup_repeats = 1  # every family's session open is one set-up sample
    cycle_seconds = 5.0

    def __init__(self, seed: int, tiny: bool, store_factory=SummaryStore) -> None:
        super().__init__(seed, tiny, store_factory)
        self.family_count = 8 if not tiny else 1
        self.cycle_ops = 3 * self.family_count  # per family: edit, reopen, reopen
        profile = GenProfile.default().scaled(9 if not tiny else 1)
        self.families = [
            generate_family(seed * 1_000_003 + i, profile, members=1, name=f"fam{i}")
            for i in range(self.family_count)
        ]
        self.bases = [
            Subject.from_source(f"fam{i}", fam.base.source, fam.base.ground_truth)
            for i, fam in enumerate(self.families)
        ]
        self.sessions: List[IncrementalSession] = []
        self.services: List[AnalysisService] = []
        # Versions seen per family; kept across passes so every edit is new.
        self.history: List[List[Subject]] = [[base] for base in self.bases]
        self.edit_seed = 0

    def setup(self, kernels: List[float]) -> List[float]:
        times = []
        for base in self.bases:
            service = AnalysisService(ServiceConfig(), store=self.store_factory())
            session = IncrementalSession(service)
            types, raw, factor = calibrated(lambda: session.analyze(base.asm), kernels)
            verdict = self._check_edit(base, types)
            if not verdict.ok:
                raise RuntimeError(verdict.message)
            self.services.append(service)
            self.sessions.append(session)
            times.append(raw * factor)
        return times

    @staticmethod
    def _check_edit(subject: Subject, types) -> Verdict:
        """An incremental result must equal a cold analysis of the same text."""
        expect_types(types)
        if subject.reference is None:
            subject.reference = result_fingerprint(analyze_program(subject.asm))
        return subject.verdict(types, EditReplay._counts(types, edit=True))

    @staticmethod
    def _counts(types, edit: bool) -> Dict[str, float]:
        counts = analysis_counts(types)
        stats = types.stats
        if edit and "invalidated_procedures" in stats:
            cone = len(stats["invalidated_procedures"])
            counts["cone_procedures"] = float(cone)
            counts["solved_procedures"] = float(len(stats.get("solved_procedures", ())))
            # Every procedure is re-parsed and re-generated on each version.
            counts["regen_waste_ratio"] = counts["procedures"] / max(1, cone)
        return counts

    def rounds(self) -> Iterator[List[Op]]:
        while True:
            ops = []
            for i, family in enumerate(self.families):
                session = self.sessions[i]
                history = self.history[i]
                self.edit_seed += 1
                edit = generate_edit(family.base, edit_seed=self.edit_seed)
                version = Subject.from_source(
                    f"fam{i}e{self.edit_seed}", edit.source, family.base.ground_truth
                )
                # Reopen an older version, then the newest one before this edit.
                earlier = history[(self.edit_seed * 7919) % len(history)]
                later = history[-1]
                history.append(version)
                ops.append(self._edit_op(session, version))
                ops.append(self._reopen_op(session, earlier))
                ops.append(self._reopen_op(session, later))
            yield ops

    def _edit_op(self, session: IncrementalSession, version: Subject) -> Op:
        return Op(
            "edit",
            lambda: session.analyze(version.asm),
            lambda types: self._check_edit(version, types),
        )

    def _reopen_op(self, session: IncrementalSession, version: Subject) -> Op:
        def check(types) -> Verdict:
            expect_types(types)
            return version.verdict(types, self._counts(types, edit=False))

        return Op("reopen", lambda: session.analyze(version.asm), check)


class ServerMixed(Workload):
    """Two lockstep connections against a ``python -m repro.server`` process."""

    name = "server-mixed"
    concurrency = 2
    #: ten lockstep rounds of two ops: 12 query, 3 analyze of a registered
    #: program (H), 3 analyze of a never-seen one (N), one session open (O)
    #: and one edit of that session (E) -- 60/15/15/10 percent.  N and O
    #: analyze same-scale programs cold, so they are the slowest 20% and p90
    #: falls inside them; p50 falls inside the queries.
    PATTERN = ["QN", "QH", "OQ", "QQ", "HQ", "QN", "QE", "NQ", "QH", "QQ"]
    rounds_per_cycle = len(PATTERN)
    cycle_ops = 2 * len(PATTERN)
    cycle_seconds = 1.5

    def __init__(self, seed: int, tiny: bool, store_factory=SummaryStore) -> None:
        super().__init__(seed, tiny, store_factory)
        self.profile = GenProfile.stress().scaled(1 if not tiny else 0.3)
        self.registered = [
            Subject.generate(seed * 1_000_003 + i, self.profile, f"reg{i}")
            for i in range(8 if not tiny else 2)
        ]
        self.fresh_index = 0
        self.process: Optional[subprocess.Popen] = None
        self.port = 0
        self.clients: List[TypeQueryClient] = []
        self.ids: Dict[str, str] = {}  # subject name -> program id

    # -- server lifecycle --------------------------------------------------------

    def _start(self) -> subprocess.Popen:
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--port", "0"],
            env=program_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        ready, _, _ = select.select([process.stdout], [], [], 120)
        line = process.stdout.readline() if ready else ""
        if "listening on" not in line:
            self._stop(process)
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1])
        return process

    @staticmethod
    def _stop(process: subprocess.Popen) -> None:
        process.terminate()
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=30)
        if process.stdout is not None:
            process.stdout.close()

    def setup(self, kernels: List[float]) -> List[float]:
        # The op's work is split between this process and the server.  Both
        # run on one CPU (the server inherits the affinity), so the kernel,
        # which runs here, measures the CPU the whole op runs on; with two
        # CPUs the server's share ran on a CPU the kernel never sampled.
        # Lockstep rounds keep the server busy while this process waits.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        times = []
        for _ in range(self.setup_repeats):
            if self.process is not None:
                self._stop(self.process)
            self.process, raw, factor = calibrated(self._start, kernels)
            times.append(raw * factor)
        self.clients = [
            TypeQueryClient(port=self.port, timeout=120) for _ in range(self.concurrency)
        ]
        # Warm-up (untimed): register the programs that queries and H ops hit.
        for subject in self.registered:
            reply = self.clients[0].analyze(subject.asm)
            self.ids[subject.name] = reply["program_id"]
            self._reference(subject)
        return times

    def peak_rss_mb(self) -> float:
        return rss_mb_pid(self.process.pid) if self.process is not None else 0.0

    def layer_stats(self) -> Dict[str, float]:
        stats = self.clients[0].stats()
        registry = stats.get("registry", {})
        gate = stats.get("gate", {})
        return {
            "server.registry_hit_ratio": float(registry.get("hit_rate", 0.0)),
            "server.queue_wait_ms": 1000.0 * float(gate.get("estimated_queue_wait_seconds") or 0.0),
            "server.shed": float(stats.get("shed_total", 0)),
            "server.coalesced": float(stats.get("coalesced_total", 0)),
        }

    def close(self) -> None:
        for client in self.clients:
            client.close()
        if self.process is not None:
            self._stop(self.process)
            self.process = None

    # -- ops ---------------------------------------------------------------------

    @staticmethod
    def _reference(subject: Subject):
        """The in-process answer this server reply must match byte for byte."""
        if subject.reference is None:
            types = analyze_program(subject.asm)
            subject.verdict(types)
            subject.signatures = {n: types.signature(n) for n in sorted(types.functions)}
        return subject

    def _fresh(self, prefix: str, profile: GenProfile) -> Subject:
        self.fresh_index += 1
        seed = (self.seed * 1_000_003 + self.fresh_index) * 8 + 5
        return Subject.generate(seed, profile, f"{prefix}{self.fresh_index}")

    def rounds(self) -> Iterator[List[Op]]:
        query_index = 0
        hit_index = 0
        session: Dict[str, object] = {}
        while True:
            for pair in self.PATTERN:
                ops = []
                for slot, code in enumerate(pair):
                    client = self.clients[slot]
                    if code == "Q":
                        known = [s for s in self.registered if s.name in self.ids]
                        ops.append(self._query_op(client, known[query_index % len(known)]))
                        query_index += 1
                    elif code == "H":
                        ops.append(self._analyze_op(
                            client, self.registered[hit_index % len(self.registered)], "analyze_hit"
                        ))
                        hit_index += 1
                    elif code == "N":
                        subject = self._fresh("new", self.profile)
                        ops.append(self._analyze_op(client, subject, "analyze_new"))
                    elif code == "O":
                        self.fresh_index += 1
                        base = generate_program(
                            (self.seed * 1_000_003 + self.fresh_index) * 8 + 6, self.profile,
                            name=f"s{self.fresh_index}",
                        )
                        session["base"] = base
                        subject = Subject.from_source(base.name, base.source, base.ground_truth)
                        ops.append(self._session_op(client, subject, session, None))
                    else:
                        base = session["base"]
                        edit = generate_edit(base, edit_seed=self.fresh_index)
                        subject = Subject.from_source(f"{base.name}e", edit.source, base.ground_truth)
                        ops.append(self._session_op(client, subject, session, session.get("id")))
                yield ops

    def _query_op(self, client: TypeQueryClient, subject: Subject) -> Op:
        program_id = self.ids[subject.name]

        def check(payload) -> Verdict:
            if isinstance(payload, BaseException):
                raise payload
            if payload_fingerprint(payload) != subject.reference:
                return Verdict(False, f"query {subject.name}: reply differs from in-process")
            return Verdict(True, scores={subject.name: subject.scores},
                           counts={"reply_bytes": reply_bytes(payload)})

        return Op("query", lambda: client.query(program_id), check)

    def _analyze_op(self, client: TypeQueryClient, subject: Subject, kind: str) -> Op:
        def check(reply) -> Verdict:
            if isinstance(reply, BaseException):
                raise reply
            self._reference(subject)
            if reply.get("signatures") != subject.signatures:
                return Verdict(False, f"{kind} {subject.name}: signatures differ")
            if kind == "analyze_hit" and not reply.get("cached"):
                return Verdict(False, f"{kind} {subject.name}: registry missed")
            if subject.name not in self.ids:
                self.ids[subject.name] = reply["program_id"]
                self.registered.append(subject)
            return Verdict(True, scores={subject.name: subject.scores},
                           counts={"reply_bytes": reply_bytes(reply)})

        return Op(kind, lambda: client.analyze(subject.asm), check)

    def _session_op(self, client, subject: Subject, session: Dict[str, object],
                    session_id: Optional[str]) -> Op:
        if session_id is None:
            call = lambda: client.session_open(subject.asm)  # noqa: E731
            kind = "session_open"
        else:
            call = lambda: client.session_edit(session_id, subject.asm)  # noqa: E731
            kind = "session_edit"

        def check(reply) -> Verdict:
            if isinstance(reply, BaseException):
                raise reply
            self._reference(subject)
            if reply.get("signatures") != subject.signatures:
                return Verdict(False, f"{kind} {subject.name}: signatures differ")
            if kind == "session_open":
                session["id"] = reply["session_id"]
            else:
                client.session_close(session_id)
            return Verdict(True, scores={subject.name: subject.scores},
                           counts={"reply_bytes": reply_bytes(reply),
                                   "cone_procedures": float(len(reply.get("invalidated_procedures", ())))})

        return Op(kind, call, check)


class CorpusFanout(Workload):
    """``analyze_corpus`` on the process backend, one never-seen family per op."""

    name = "corpus-fanout"
    cycle_seconds = 1.2

    def __init__(self, seed: int, tiny: bool, store_factory=SummaryStore) -> None:
        super().__init__(seed, tiny, store_factory)
        self.profile = GenProfile.default().scaled(1 if not tiny else 0.5)
        self.members = 2
        self.service: Optional[AnalysisService] = None
        self.family_index = 0

    def _service(self) -> AnalysisService:
        return AnalysisService(
            ServiceConfig(executor="processes", max_workers=2), store=self.store_factory()
        )

    def setup(self, kernels: List[float]) -> List[float]:
        warm = [
            Subject.generate(self.seed * 1_000_003 + 900 + i, GenProfile.smoke(), f"warm{i}")
            for i in range(2)
        ]
        corpus = {s.name: s.asm for s in warm}
        times = []
        for _ in range(self.setup_repeats):
            if self.service is not None:
                self.service.close()

            def start() -> AnalysisService:
                service = self._service()
                analyze_corpus(corpus, service=service)  # spawns and warms the pool
                return service

            self.service, raw, factor = calibrated(start, kernels)
            times.append(raw * factor)
        return times

    def peak_rss_mb(self) -> float:
        return rss_mb_self() + sum(rss_mb_pid(pid) for pid in child_pids(os.getpid()))

    def layer_stats(self) -> Dict[str, float]:
        snapshot = self.service.procpool_snapshot()
        return {
            "procpool.chunks_dispatched": float(snapshot.get("chunks_dispatched", 0)),
            "procpool.chunks_failed": float(snapshot.get("chunks_failed", 0)),
        }

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    def rounds(self) -> Iterator[List[Op]]:
        while True:
            ops = []
            for _ in range(10):
                self.family_index += 1
                family = generate_family(
                    (self.seed * 1_000_003 + self.family_index) * 2 + 1, self.profile,
                    members=self.members, name=f"f{self.family_index}",
                )
                subjects = [
                    Subject.from_source(m.name, m.source, m.ground_truth)
                    for m in family.members
                ]
                ops.append(self._op(subjects))
            yield ops

    def _op(self, subjects: List[Subject]) -> Op:
        corpus = {s.name: s.asm for s in subjects}

        def check(report) -> Verdict:
            if isinstance(report, BaseException):
                raise report
            scores: Dict[str, Scores] = {}
            hits = misses = 0
            for subject in subjects:
                # Processes vs serial: the serial cold analysis is the reference.
                if subject.reference is None:
                    subject.reference = result_fingerprint(analyze_program(subject.asm))
                verdict = subject.verdict(report[subject.name].types)
                if not verdict.ok:
                    return verdict
                scores.update(verdict.scores)
                hits += report[subject.name].cache_hits
                misses += report[subject.name].cache_misses
            return Verdict(True, scores=scores, counts={
                "procedures": float(sum(s.procedures for s in subjects)),
                "batch_store_hits": float(hits),
                "batch_store_misses": float(misses),
            })

        return Op("corpus", lambda: analyze_corpus(corpus, service=self.service), check)


WORKLOADS = {w.name: w for w in (ColdCorpus, EditReplay, ServerMixed, CorpusFanout)}
