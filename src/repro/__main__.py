"""One-shot command line interface: ``python -m repro analyze <file.s> [--json]``.

Analyzes a single program without a server round trip and prints either the
human-readable signatures or the full JSON payload.  The JSON output is built
by the same :func:`repro.server.protocol.program_payload` the type-query
server uses, so dumps produced here are byte-compatible with what a server
returns for the same source -- a saved ``--json`` file *is* a valid ``query``
result.

``python -m repro gen ...`` drives the ground-truth program generator: emit
a seeded corpus to disk (``--out``) and/or run the differential oracle sweep
across executor backends and cache states (``--oracle``); see ``repro.gen``.

``python -m repro serve ...`` is a convenience alias for
``python -m repro.server ...``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence


def _infer_kind(path: str, kind: Optional[str]) -> str:
    if kind is not None:
        return kind
    return "c" if path.endswith(".c") else "asm"


def _read_source(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def cmd_analyze(args: argparse.Namespace) -> int:
    from .server import protocol
    from .server.registry import ProgramRegistry
    from .service.incremental import AnalysisService, ServiceConfig
    from .service.store import environment_fingerprint

    source = _read_source(args.path)
    kind = _infer_kind(args.path, args.kind)
    service = AnalysisService(ServiceConfig(use_cache=False))
    tracer = None
    if args.trace_out:
        from .obs import Tracer, tracing

        tracer = Tracer()
    try:
        if kind == "c":
            from .frontend import compile_c

            program = compile_c(source).program
        else:
            from .ir.asmparser import parse_program

            program = parse_program(source)
        if tracer is not None:
            with tracing(tracer):
                types = service.analyze(program)
        else:
            types = service.analyze(program)
    except Exception as exc:
        print(f"error: {kind} analysis of {args.path} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        service.close()

    if tracer is not None:
        # Extension picks the format: .jsonl -> the line-delimited span log,
        # anything else -> Chrome trace-event JSON (Perfetto-loadable).
        if args.trace_out.endswith(".jsonl"):
            tracer.export_jsonl(args.trace_out)
        else:
            tracer.export_chrome(args.trace_out)
        print(
            f"trace: {len(tracer.spans())} spans -> {args.trace_out}", file=sys.stderr
        )

    if args.procedure is not None and args.procedure not in types.functions:
        known = ", ".join(sorted(types.functions)) or "<none>"
        print(
            f"error: no procedure {args.procedure!r} (known: {known})", file=sys.stderr
        )
        return 1

    # The same environment-qualified content hash a default-configured server
    # would assign, so ids in saved dumps resolve against a live daemon.
    environment = environment_fingerprint(
        service.lattice, service.extern_table, service.config.solver
    )
    program_id = ProgramRegistry.make_id(kind, source, environment)
    if args.json:
        if args.procedure is not None:
            payload = protocol.procedure_payload(types, program_id, args.procedure)
        else:
            payload = protocol.program_payload(types, program_id)
        json.dump(payload, sys.stdout, indent=2, sort_keys=True, default=str)
        print()
    elif args.procedure is not None:
        print(types.signature(args.procedure))
        for name, struct in sorted(types.procedure_structs(args.procedure).items()):
            print(f"{struct};")
    else:
        print(types.report())
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .gen import (
        generate_corpus,
        generate_family,
        named_profiles,
        run_oracle,
        write_corpus,
    )

    profiles = named_profiles()
    profile = profiles[args.profile]
    backends = [b.strip() for b in args.backends.split(",") if b.strip()]

    status = 0
    corpus = None
    if args.out:
        if args.families > 0:
            # Family mode writes every member (variants included), so the
            # emitted corpus is the exact program set a family sweep checks.
            corpus = [
                member.program
                for index in range(args.families)
                for member in generate_family(
                    args.seed + index,
                    profile,
                    members=args.members,
                    name=f"fam{args.seed}_{index}",
                ).members
            ]
        else:
            corpus = generate_corpus(args.count, args.seed, profile)
        manifest = write_corpus(
            corpus,
            args.out,
            seed=args.seed,
            profile_name=args.profile,
            members=args.members if args.families > 0 else 0,
        )
        total = sum(len(program.functions) for program in corpus)
        print(
            f"wrote {len(corpus)} programs ({total} functions) to {args.out} "
            f"(manifest: {manifest})"
        )
        if args.families > 0:
            corpus = None  # family members are not the independent-mode corpus
    if args.oracle:
        def progress(done: int, total: int) -> None:
            if done % 50 == 0 or done == total:
                print(f"  ... {done}/{total} programs checked", file=sys.stderr)

        report = run_oracle(
            count=args.count,
            seed=args.seed,
            profile=profile,
            profile_name=args.profile,
            backends=backends,
            derives_samples=args.derives_samples,
            min_conservativeness=args.min_conservativeness,
            progress=progress if not args.quiet else None,
            corpus=corpus,
            families=args.families,
            family_members=args.members,
            minimize_dir=args.minimize_out if args.minimize else None,
        )
        print(report.summary())
        status = 0 if report.ok else 1
    if not args.out and not args.oracle:
        for program in generate_corpus(args.count, args.seed, profile):
            print(
                f"{program.name}: seed {program.seed}, "
                f"{len(program.functions)} functions "
                f"({len(program.dead_functions)} dead), "
                f"{len(program.source.splitlines())} lines"
            )
        print("(use --out DIR to write sources+answer keys, --oracle to verify)")
    return status


def cmd_serve(args: argparse.Namespace) -> int:
    from .server.__main__ import main as serve_main

    return serve_main(args.server_args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Retypd reproduction: machine-code type inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser(
        "analyze", help="analyze one assembly (.s) or mini-C (.c) file and print its types"
    )
    analyze.add_argument("path", help="input file, or '-' for stdin")
    analyze.add_argument(
        "--kind",
        choices=["asm", "c"],
        default=None,
        help="source language (default: by extension, .c -> mini-C, else asm)",
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="print the full JSON payload (server-protocol encoding) instead of signatures",
    )
    analyze.add_argument(
        "--procedure", default=None, help="restrict output to one procedure"
    )
    analyze.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="export a span trace of the analysis: .jsonl writes the span log, "
        "any other extension writes Chrome trace-event JSON (Perfetto)",
    )
    analyze.set_defaults(func=cmd_analyze)

    gen = sub.add_parser(
        "gen",
        help="generate ground-truth mini-C corpora and run the differential oracle",
    )
    gen.add_argument("--count", type=int, default=10, help="number of programs")
    gen.add_argument("--seed", type=int, default=20160613, help="corpus seed")
    gen.add_argument(
        "--profile",
        choices=["smoke", "default", "stress"],
        default="default",
        help="feature-mix preset (see repro.gen.GenProfile)",
    )
    gen.add_argument("--out", default=None, help="emit .c sources + answer keys here")
    gen.add_argument(
        "--oracle",
        action="store_true",
        help="run the differential oracle sweep (exit 1 on any mismatch)",
    )
    gen.add_argument(
        "--backends",
        default="serial,processes",
        help="comma-separated executor backends for the oracle sweep "
        "(processes: the sweep's programs through corpus fan-out)",
    )
    gen.add_argument(
        "--derives-samples",
        type=int,
        default=1,
        help="constraint sets per program checked against the seed oracles (0 disables)",
    )
    gen.add_argument(
        "--min-conservativeness",
        type=float,
        default=0.85,
        help="per-program conservativeness floor for the oracle",
    )
    gen.add_argument(
        "--families",
        type=int,
        default=0,
        help="additionally sweep this many toggle-derived variant families "
        "(store reuse + incremental-session equivalence checks; see "
        "repro.gen.family)",
    )
    gen.add_argument(
        "--members",
        type=int,
        default=4,
        help="members per family, base included (with --families)",
    )
    gen.add_argument(
        "--minimize",
        action="store_true",
        help="ddmin any oracle failure and emit a pytest reproducer "
        "(see repro.gen.minimize)",
    )
    gen.add_argument(
        "--minimize-out",
        default="tests/regress",
        metavar="DIR",
        help="directory for emitted reproducers (default: tests/regress)",
    )
    gen.add_argument("--quiet", action="store_true", help="suppress progress output")
    gen.set_defaults(func=cmd_gen)

    serve = sub.add_parser(
        "serve", help="run the type-query server (alias for python -m repro.server)"
    )
    serve.add_argument("server_args", nargs=argparse.REMAINDER, help="arguments for repro.server")
    serve.set_defaults(func=cmd_serve)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
