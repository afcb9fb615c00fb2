"""Type-query server throughput: concurrent clients, cold vs. warm latency.

Starts a server in-process, then measures three things:

* **cold analyze latency** -- submitting a never-seen program (full pipeline:
  parse, constraint generation, SCC solving, sketch display);
* **warm query latency** -- querying an already-analyzed program (a registry
  dict lookup plus JSON encoding, the server's steady-state hot path);
* **concurrent fan-out** -- N asyncio clients (default 8) each running an
  analyze-then-query loop against one server, with every answer checked
  byte-identical to the single-client reference.

The structural claim (and the PR's acceptance bar): warm queries must be at
least 10x faster than cold analyses, and all concurrent clients must be
served correct answers.  Exits non-zero if either fails, so CI can gate on
it.  ``--quick`` shrinks the workload for smoke use.

``--slo`` runs the SLO load harness: a sweep of 8 -> 512 concurrent clients
over mixed verb traffic (analyze / query / session.open-edit-close, programs
sampled from ``repro.gen`` corpora and families), reporting per-verb
p50/p95/p99 latency, shed (``overloaded``) counts, a per-level single-flight
coalescing probe and the saturation throughput, written to
``results/BENCH_slo.json``.  ``--slo-clients N`` pins the sweep to one client
count (the CI smoke shape) and ``--p99-gate SECONDS`` exits non-zero when the
query p99 at that level exceeds the bound.

Run with::

    PYTHONPATH=src python benchmarks/bench_server_throughput.py [--quick]
    PYTHONPATH=src python benchmarks/bench_server_throughput.py --slo [--quick]
    PYTHONPATH=src python benchmarks/bench_server_throughput.py --slo --quick \
        --slo-clients 32 --p99-gate 2.5
"""

import argparse
import asyncio
import json
import os
import statistics
import sys
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.gen import GenProfile, generate_program
from repro.obs import Histogram
from repro.server import (
    AsyncTypeQueryClient,
    ServerConfig,
    TypeQueryClient,
    TypeQueryError,
    TypeQueryServer,
)

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")


def latency_summary(latencies) -> dict:
    """Fold raw per-request latencies through an obs histogram: the summary
    reports the same estimated p50/p95/p99 a live server's ``metrics`` verb
    would, so trajectory files and production dashboards agree on method."""
    hist = Histogram()
    for value in latencies:
        hist.observe(value)
    summary = {
        "count": hist.count,
        "mean_seconds": hist.sum / hist.count if hist.count else None,
        "min_seconds": min(latencies) if latencies else None,
        "max_seconds": max(latencies) if latencies else None,
    }
    summary.update({key: value for key, value in hist.percentiles().items()})
    return summary


def write_bench_json(name: str, payload: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, name)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def start_server(max_concurrency: int, **config_kwargs):
    """Server on a daemon thread; returns (port, server)."""
    started = threading.Event()
    info = {}

    def run():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)

        async def main():
            server = TypeQueryServer(
                ServerConfig(port=0, max_concurrency=max_concurrency, **config_kwargs)
            )
            _, port = await server.start()
            info.update(port=port, server=server)
            started.set()
            await server.serve_forever()

        loop.run_until_complete(main())

    threading.Thread(target=run, daemon=True).start()
    assert started.wait(60), "server failed to start"
    return info["port"], info["server"]


def make_sources(count: int, functions: int):
    """Distinct asm programs (pre-compiled from generated mini-C)."""
    profile = GenProfile(n_functions=functions)
    return [
        str(generate_program(1000 + index, profile, name=f"bench{index}").compile().program)
        for index in range(count)
    ]


def canonical(payload) -> str:
    if isinstance(payload, dict):
        payload = {key: value for key, value in payload.items() if key != "stats"}
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)


def bench_cold_analyze(port: int, sources) -> list:
    latencies = []
    with TypeQueryClient(port=port) as client:
        for source in sources:
            start = time.perf_counter()
            result = client.analyze(source)
            latencies.append(time.perf_counter() - start)
            assert result["cached"] is False, "cold program unexpectedly cached"
    return latencies


def bench_warm_query(port: int, source: str, repeats: int) -> list:
    latencies = []
    with TypeQueryClient(port=port) as client:
        program_id = client.analyze(source)["program_id"]
        procedures = client.query(program_id)["functions"]
        target = sorted(procedures)[0]
        for _ in range(repeats):
            start = time.perf_counter()
            client.query(program_id, target)
            latencies.append(time.perf_counter() - start)
    return latencies


def bench_concurrent(port: int, source: str, clients: int, queries: int):
    """N clients fan out; returns (wall_seconds, requests, mismatches)."""
    with TypeQueryClient(port=port) as reference_client:
        program_id = reference_client.analyze(source)["program_id"]
        procedures = sorted(reference_client.query(program_id)["functions"])
        reference = {
            name: canonical(reference_client.query(program_id, name))
            for name in procedures
        }

    async def one_client(index: int):
        client = await AsyncTypeQueryClient.connect("127.0.0.1", port, connect_retries=10)
        try:
            result = await client.analyze(source)
            mismatches = 0 if result["program_id"] == program_id else 1
            requests = 1
            for i in range(queries):
                name = procedures[(index + i) % len(procedures)]
                payload = await client.query(program_id, name)
                requests += 1
                if canonical(payload) != reference[name]:
                    mismatches += 1
            return requests, mismatches
        finally:
            await client.aclose()

    async def fan_out():
        return await asyncio.gather(*(one_client(i) for i in range(clients)))

    start = time.perf_counter()
    results = asyncio.run(fan_out())
    wall = time.perf_counter() - start
    requests = sum(r for r, _ in results)
    mismatches = sum(m for _, m in results)
    return wall, requests, mismatches


# ---------------------------------------------------------------------------
# The SLO load harness (--slo)
# ---------------------------------------------------------------------------

#: client counts swept by the full harness; --quick keeps the first and the
#: CI smoke level, --slo-clients pins a single one.
SLO_LEVELS = [8, 16, 32, 64, 128, 256, 512]
SLO_QUICK_LEVELS = [8, 32]


def _raise_fd_limit(target: int = 8192) -> None:
    """512 clients + 512 accepted sockets live in one process: lift the soft
    RLIMIT_NOFILE toward ``target`` (best-effort; capped by the hard limit)."""
    try:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
        if soft < target:
            resource.setrlimit(resource.RLIMIT_NOFILE, (min(target, hard), hard))
    except (ImportError, ValueError, OSError):
        pass


def build_slo_workload(quick: bool):
    """Deterministic mixed traffic from ``repro.gen``: a corpus of independent
    programs plus toggle-derived family variants (analyze traffic), and
    per-client edited sources (session traffic)."""
    from repro.gen import GenProfile, generate_corpus, generate_edit, generate_family

    profile = GenProfile.smoke()
    corpus = generate_corpus(4 if quick else 6, seed=20260807, profile=profile)
    family = generate_family(
        20260808, profile=profile, members=3 if quick else 4, name="slofam"
    )
    analyze_sources = [program.source for program in corpus]
    analyze_sources += [member.source for member in family.members]
    session_base = family.base.source
    session_edits = [
        generate_edit(family.base, edit_seed=seed).source for seed in range(4)
    ]
    return analyze_sources, session_base, session_edits


def _slo_verb(index: int, step: int) -> str:
    """The deterministic per-(client, step) verb schedule: ~60% query, ~30%
    analyze (warm after the first touch), ~10% session cycles -- and session
    traffic only on every 16th client so ``max_sessions`` bounds hold at 512."""
    slot = (index * 13 + step * 7) % 10
    if slot < 6:
        return "query"
    if slot < 9:
        return "analyze"
    return "session" if index % 16 == 0 else "query"


def _coalesce_probe(host: str, port: int, server, source: str, clients: int) -> dict:
    """All ``clients`` submit the same never-seen program at once: exactly one
    solve may run (single-flight coalescing) and every reply that joined the
    flight must be byte-identical."""
    admits_before = server.registry.admits
    coalesced_before = server.coalesced_total

    async def submit():
        client = await AsyncTypeQueryClient.connect(
            host, port, connect_retries=30, connect_delay=0.1
        )
        try:
            start = time.perf_counter()
            reply = await client.analyze(source, kind="c")
            return time.perf_counter() - start, reply
        finally:
            await client.aclose()

    async def fan_out():
        return await asyncio.gather(*(submit() for _ in range(clients)))

    results = asyncio.run(fan_out())
    latencies = [elapsed for elapsed, _ in results]
    replies = [reply for _, reply in results]
    inflight = [r for r in replies if not r["cached"]]
    identical = len({canonical(r) for r in inflight}) == 1 if inflight else False
    return {
        "clients": clients,
        "solves": server.registry.admits - admits_before,
        "coalesced_delta": server.coalesced_total - coalesced_before,
        "identical_inflight_replies": identical,
        "inflight_replies": len(inflight),
        "latency": latency_summary(latencies),
    }


def _run_slo_level(host, port, server, level, requests_per_client, workload):
    """One sweep level: ``level`` concurrent clients each walking the verb
    schedule; returns the per-verb latency/shed/error accounting."""
    analyze_sources, session_base, session_edits, query_targets = workload
    latencies = {}
    sheds = {}
    errors = []

    def record(verb, elapsed):
        latencies.setdefault(verb, []).append(elapsed)

    def shed(verb):
        sheds[verb] = sheds.get(verb, 0) + 1

    async def timed(verb, coro):
        start = time.perf_counter()
        try:
            result = await coro
        except TypeQueryError as exc:
            if exc.code == "overloaded":
                shed(verb)
                return None
            errors.append(f"{verb}: [{exc.code}] {exc.message}")
            return None
        record(verb, time.perf_counter() - start)
        return result

    async def one_client(index: int):
        client = await AsyncTypeQueryClient.connect(
            host, port, connect_retries=30, connect_delay=0.1
        )
        try:
            for step in range(requests_per_client):
                verb = _slo_verb(index, step)
                if verb == "query":
                    program_id, procedure = query_targets[
                        (index * 3 + step) % len(query_targets)
                    ]
                    await timed("query", client.query(program_id, procedure))
                elif verb == "analyze":
                    source = analyze_sources[(index + step) % len(analyze_sources)]
                    await timed("analyze", client.analyze(source, kind="c"))
                else:
                    opened = await timed(
                        "session.open", client.session_open(session_base, kind="c")
                    )
                    if opened is None:
                        continue
                    session_id = opened["session_id"]
                    edited = session_edits[index % len(session_edits)]
                    await timed(
                        "session.edit",
                        client.session_edit(session_id, edited, kind="c"),
                    )
                    await timed("session.close", client.session_close(session_id))
        finally:
            await client.aclose()

    async def fan_out():
        await asyncio.gather(*(one_client(i) for i in range(level)))

    start = time.perf_counter()
    asyncio.run(fan_out())
    wall = time.perf_counter() - start
    completed = sum(len(values) for values in latencies.values())
    return {
        "clients": level,
        "requests": completed,
        "wall_seconds": wall,
        "requests_per_second": completed / wall if wall else None,
        "per_verb": {verb: latency_summary(values) for verb, values in sorted(latencies.items())},
        "shed": {"total": sum(sheds.values()), "per_verb": dict(sorted(sheds.items()))},
        "errors": errors,
    }


def bench_slo(args) -> int:
    """The ``--slo`` mode: the latency-under-load trajectory of one server."""
    from repro.gen import GenProfile, generate_program

    _raise_fd_limit()
    if args.slo_clients is not None:
        levels = [args.slo_clients]
    else:
        levels = SLO_QUICK_LEVELS if args.quick else SLO_LEVELS
    requests_per_client = 6 if args.quick else 8

    print("generating traffic from repro.gen corpora and families ...")
    analyze_sources, session_base, session_edits = build_slo_workload(args.quick)

    port, server = start_server(
        max_concurrency=4,
        max_pending=256,
        max_queue_wait_seconds=args.max_queue_wait,
        max_sessions=64,
    )
    host = "127.0.0.1"
    print(f"server on port {port} (max_concurrency=4, max_pending=256, "
          f"max_queue_wait={args.max_queue_wait}s)\n")

    # Warm-up: analyze every traffic program once and collect (program_id,
    # procedure) query targets, so steady-state traffic measures the serving
    # path, not a cold store.
    query_targets = []
    with TypeQueryClient(host, port, timeout=300.0) as reference:
        for source in analyze_sources + [session_base] + session_edits:
            result = reference.analyze(source, kind="c")
            procedures = result["procedures"]
            for procedure in procedures[:3]:
                query_targets.append((result["program_id"], procedure))
    workload = (analyze_sources, session_base, session_edits, query_targets)

    level_rows = []
    failures = []
    for level_index, level in enumerate(levels):
        probe_clients = min(level, 32)
        probe_source = generate_program(
            seed=77_000 + level_index, profile=GenProfile.smoke(), name=f"probe{level}"
        ).source
        shed_before, coalesced_before = server.shed_total, server.coalesced_total

        probe = _coalesce_probe(host, port, server, probe_source, probe_clients)
        row = _run_slo_level(host, port, server, level, requests_per_client, workload)
        row["coalesce_probe"] = probe
        row["server_counters"] = {
            "coalesced_total": server.coalesced_total,
            "shed_total": server.shed_total,
            "coalesced_delta": server.coalesced_total - coalesced_before,
            "shed_delta": server.shed_total - shed_before,
        }
        level_rows.append(row)

        query_summary = row["per_verb"].get("query", {})
        p99 = query_summary.get("p99")
        print(f"  {level:4d} clients: {row['requests']:5d} requests in "
              f"{row['wall_seconds']:.2f}s ({row['requests_per_second']:7.0f} req/s), "
              f"query p99 {p99 * 1000:7.2f} ms, shed {row['shed']['total']}, "
              f"probe {probe['clients']}-way -> {probe['solves']} solve"
              if p99 is not None else f"  {level:4d} clients: no query traffic")

        if probe["solves"] != 1:
            failures.append(
                f"level {level}: coalesce probe ran {probe['solves']} solves (want 1)"
            )
        if not probe["identical_inflight_replies"]:
            failures.append(f"level {level}: coalesced replies were not byte-identical")
        if row["errors"]:
            failures.append(
                f"level {level}: {len(row['errors'])} unexpected errors "
                f"(first: {row['errors'][0]})"
            )

    saturation = max(
        (row for row in level_rows if row["requests_per_second"]),
        key=lambda row: row["requests_per_second"],
    )
    print(f"\nsaturation throughput: {saturation['requests_per_second']:.0f} req/s "
          f"at {saturation['clients']} clients")

    gate = None
    if args.p99_gate is not None:
        gated_row = level_rows[0]
        gated_p99 = gated_row["per_verb"].get("query", {}).get("p99")
        gate = {
            "verb": "query",
            "clients": gated_row["clients"],
            "bound_seconds": args.p99_gate,
            "p99_seconds": gated_p99,
            "passed": gated_p99 is not None and gated_p99 <= args.p99_gate,
        }
        if not gate["passed"]:
            failures.append(
                f"query p99 {gated_p99}s at {gated_row['clients']} clients "
                f"exceeds the {args.p99_gate}s gate"
            )
        else:
            print(f"p99 gate: query p99 {gated_p99 * 1000:.2f} ms <= "
                  f"{args.p99_gate * 1000:.0f} ms at {gated_row['clients']} clients")

    bench_path = write_bench_json(
        "BENCH_slo.json",
        {
            "benchmark": "slo_load",
            "quick": bool(args.quick),
            "requests_per_client": requests_per_client,
            "generator": {
                "profile": "smoke",
                "analyze_sources": len(analyze_sources),
                "session_edit_variants": len(session_edits),
                "query_targets": len(query_targets),
            },
            "server": {
                "max_concurrency": 4,
                "max_pending": 256,
                "max_queue_wait_seconds": args.max_queue_wait,
                "backend": server.config.backend,
            },
            "levels": level_rows,
            "saturation": {
                "clients": saturation["clients"],
                "requests_per_second": saturation["requests_per_second"],
            },
            "p99_gate": gate,
        },
    )
    print(f"machine-readable     : {bench_path}")

    if failures:
        print("\nFAILED: " + "; ".join(failures))
        return 1
    print(f"\nOK: swept {levels} clients, coalescing held at every level")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="type-query server throughput benchmark")
    parser.add_argument("--quick", action="store_true", help="small workload for CI smoke")
    parser.add_argument("--clients", type=int, default=8, help="concurrent clients (default: 8)")
    parser.add_argument("--functions", type=int, default=None,
                        help="functions per generated program (default: 6 quick, 14 full)")
    parser.add_argument("--slo", action="store_true",
                        help="SLO load harness: sweep concurrent clients over mixed "
                        "verb traffic (writes BENCH_slo.json)")
    parser.add_argument("--slo-clients", type=int, default=None, metavar="N",
                        help="pin the --slo sweep to one client count (CI smoke)")
    parser.add_argument("--p99-gate", type=float, default=None, metavar="SECONDS",
                        help="--slo: exit non-zero when query p99 at the first "
                        "swept level exceeds this bound")
    parser.add_argument("--max-queue-wait", type=float, default=2.0, metavar="SECONDS",
                        help="--slo: the server's admission-control wait cap "
                        "(default: %(default)s)")
    args = parser.parse_args()

    functions = args.functions or (6 if args.quick else 14)
    if args.slo:
        return bench_slo(args)
    cold_programs = 3 if args.quick else 6
    warm_repeats = 50 if args.quick else 300
    queries_per_client = 10 if args.quick else 40

    print(f"generating {cold_programs + 1} programs of ~{functions} functions ...")
    sources = make_sources(cold_programs + 1, functions)
    hot_source, cold_sources = sources[0], sources[1:]

    port, server = start_server(max_concurrency=max(4, min(args.clients, 8)))
    print(f"server on port {port}\n")

    cold = bench_cold_analyze(port, cold_sources)
    cold_mean = statistics.mean(cold)
    print(f"cold analyze latency : mean {cold_mean * 1000:8.2f} ms  "
          f"(min {min(cold) * 1000:.2f}, max {max(cold) * 1000:.2f}, n={len(cold)})")

    warm = bench_warm_query(port, hot_source, warm_repeats)
    warm_mean = statistics.mean(warm)
    print(f"warm query latency   : mean {warm_mean * 1000:8.2f} ms  "
          f"(p50 {statistics.median(warm) * 1000:.2f}, n={len(warm)})")
    speedup = cold_mean / warm_mean if warm_mean else float("inf")
    print(f"warm/cold speedup    : {speedup:10.1f}x")

    wall, requests, mismatches = bench_concurrent(
        port, hot_source, args.clients, queries_per_client
    )
    print(f"concurrent fan-out   : {args.clients} clients, {requests} requests in "
          f"{wall:.3f}s ({requests / wall:.0f} req/s), {mismatches} mismatches")

    registry = server.registry.snapshot()
    print(f"registry             : {registry['programs']} programs, "
          f"hit rate {registry['hit_rate']:.0%}")

    bench_path = write_bench_json(
        "BENCH_server.json",
        {
            "benchmark": "server_throughput",
            "backend": server.config.backend,
            "quick": bool(args.quick),
            "functions_per_program": functions,
            "cold_analyze": latency_summary(cold),
            "warm_query": latency_summary(warm),
            "warm_cold_speedup": speedup,
            "concurrent": {
                "clients": args.clients,
                "requests": requests,
                "wall_seconds": wall,
                "requests_per_second": requests / wall if wall else None,
                "mismatches": mismatches,
            },
            "registry": registry,
        },
    )
    print(f"machine-readable     : {bench_path}")

    failed = []
    if mismatches:
        failed.append(f"{mismatches} concurrent answers differed from the reference")
    if speedup < 10.0:
        failed.append(f"warm-query speedup {speedup:.1f}x below the 10x bar")
    if failed:
        print("\nFAILED: " + "; ".join(failed))
        return 1
    print(f"\nOK: {args.clients} concurrent clients served, warm queries "
          f"{speedup:.0f}x faster than cold analyses")
    return 0


if __name__ == "__main__":
    sys.exit(main())
