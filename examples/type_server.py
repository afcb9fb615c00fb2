"""The type-query server from a client's point of view.

Connects to a running server (``--port``), or starts one in-process when no
port is given, then walks the whole verb surface:

1. ``analyze`` -- submit a mini-C program, get a content-addressed program id;
2. ``query`` -- fetch one procedure's signature, type scheme and struct
   layout, and check them against an in-process ``analyze_program`` run;
3. ``stats`` with a program id -- the per-stage solver timings (graph build,
   saturation, simplification queries, sketches) of that analysis;
4. ``session.open`` / ``session.edit`` -- edit one function and watch the
   server re-solve only the invalidation cone;
5. ``corpus`` -- submit two related programs in one batch and observe shared
   summary-store hits.

Run against an external server (exits non-zero on any mismatch, so CI can use
it as a smoke test)::

    python -m repro.server --port 8791 &
    python examples/type_server.py --port 8791

Or self-contained::

    python examples/type_server.py

See the top-level README.md for the protocol reference.
"""

import argparse
import asyncio
import os
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro import analyze_program
from repro.frontend import compile_c
from repro.server import ServerConfig, TypeQueryClient, TypeQueryServer

LIBRARY = """
struct node { struct node * next; int value; };

struct node * push_front(struct node * head, int value) {
    struct node * n;
    n = (struct node *) malloc(sizeof(struct node));
    n->value = value;
    n->next = head;
    return n;
}

int total(const struct node * head) {
    int sum;
    sum = 0;
    while (head != NULL) {
        sum = sum + head->value;
        head = head->next;
    }
    return sum;
}
"""

DRIVER = LIBRARY + """
int demo(int seed) {
    struct node * head;
    head = push_front(NULL, seed);
    head = push_front(head, seed + 1);
    return total(head);
}
"""

EDITED = DRIVER.replace("return total(head);", "return total(head) + 1;")


def start_in_process_server() -> int:
    """Run a daemon thread hosting the server; returns the bound port."""
    started = threading.Event()
    info = {}

    def run():
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)

        async def main():
            server = TypeQueryServer(ServerConfig(port=0))
            _, port = await server.start()
            info["port"] = port
            started.set()
            await server.serve_forever()

        loop.run_until_complete(main())

    threading.Thread(target=run, daemon=True).start()
    assert started.wait(60), "in-process server failed to start"
    return info["port"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=None,
                        help="connect to a running server (default: start one in-process)")
    args = parser.parse_args()

    port = args.port if args.port is not None else start_in_process_server()
    where = "external" if args.port is not None else "in-process"

    failures = 0
    with TypeQueryClient(args.host, port, connect_retries=50) as client:
        hello = client.ping()
        print(f"connected to {hello['server']} v{hello['version']} ({where}, port {port})")

        # -- 1. analyze ------------------------------------------------------
        result = client.analyze(LIBRARY, kind="c")
        program_id = result["program_id"]
        print(f"\n=== analyze: program {program_id[:16]}... ===")
        for name, signature in result["signatures"].items():
            print(f"  {signature}")

        # -- 2. query + fidelity check --------------------------------------
        print("\n=== query 'total': scheme and struct layout ===")
        procedure = client.query(program_id, "total")
        print(f"  {procedure['signature']}")
        print(f"  scheme: {procedure['scheme_text']}")
        for name, struct in procedure["structs"].items():
            print(f"  layout: {struct['c']}")

        reference = analyze_program(compile_c(LIBRARY).program)
        if procedure["signature"] != reference.signature("total"):
            print("MISMATCH: remote signature differs from in-process result")
            failures += 1
        if procedure["scheme_text"] != str(reference.scheme("total")):
            print("MISMATCH: remote scheme differs from in-process result")
            failures += 1

        # -- 3. per-program stage timings ------------------------------------
        # (asked before the corpus step below re-admits this program id with a
        # fully cache-served -- and therefore all-zero -- timing record)
        print("\n=== stats: where did the solver spend its time? ===")
        timing = client.stats(program_id)
        stage = timing["stage_seconds"]
        for stage_name in ("graph", "saturate", "simplify", "sketch"):
            print(f"  {stage_name:<9} {stage[f'{stage_name}_seconds'] * 1000:8.2f} ms")
        print(
            f"  total     {stage['total_seconds'] * 1000:8.2f} ms over "
            f"{stage['sccs_timed']} SCCs "
            f"({stage['saturation_edges']} saturation edges, "
            f"{stage['graph_edges']} graph edges)"
        )
        if stage["sccs_timed"] == 0:
            print("MISMATCH: a cold analysis must have timed at least one SCC solve")
            failures += 1

        # -- 4. incremental session -----------------------------------------
        print("\n=== session: edit one function, re-solve only its cone ===")
        opened = client.session_open(DRIVER, kind="c")
        session_id = opened["session_id"]
        print(f"  opened session {session_id[:8]}... ({len(opened['procedures'])} procedures)")
        edited = client.session_edit(session_id, EDITED, kind="c")
        print(f"  edited 'demo': invalidated = {edited['invalidated_procedures']}")
        print(f"                 re-solved   = {edited['solved_procedures']}")
        print(f"                 from cache  = {edited['cached_procedures']}")
        if set(edited["invalidated_procedures"]) != {"demo"}:
            print("MISMATCH: editing a leaf caller should invalidate only itself")
            failures += 1
        client.session_close(session_id)

        # -- 5. corpus batch -------------------------------------------------
        print("\n=== corpus: two programs, one shared summary store ===")
        batch = client.corpus(
            {
                "library": {"source": LIBRARY, "kind": "c"},
                "driver": {"source": DRIVER, "kind": "c"},
            }
        )
        for name, entry in batch["programs"].items():
            print(
                f"  {name:<8} {len(entry['procedures'])} procedures, "
                f"{entry['cache_hits']} summary hits, {entry['cache_misses']} misses"
            )
        driver_hits = batch["programs"]["driver"]["cache_hits"]
        if driver_hits == 0:
            print("MISMATCH: the driver shares the library and should hit its summaries")
            failures += 1

        stats = client.stats()
        print(
            f"\nserver stats: {stats['requests_served']} requests, "
            f"registry {stats['registry']['programs']} programs "
            f"(hit rate {stats['registry']['hit_rate']:.0%}), "
            f"store hit rate {stats['store'].get('hit_rate', 0.0):.0%}"
        )

    if failures:
        print(f"\n{failures} mismatch(es) -- FAILED")
        return 1
    print("\nall remote answers match in-process analysis -- OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
