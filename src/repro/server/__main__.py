"""CLI entry point: ``python -m repro.server --port 8791 --store-dir .cache``."""

from __future__ import annotations

import argparse
import asyncio
import logging
import sys
from typing import Optional, Sequence

from .app import ServerConfig, run_server
from .protocol import MAX_LINE_BYTES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve Retypd type analyses over newline-delimited JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    parser.add_argument(
        "--port", type=int, default=8791, help="TCP port; 0 picks a free one (default: %(default)s)"
    )
    parser.add_argument(
        "--store-dir",
        default=None,
        help="directory for the persistent summary-store disk tier (default: memory only)",
    )
    parser.add_argument(
        "--cache-capacity", type=int, default=4096, help="summary-store LRU entries (default: %(default)s)"
    )
    parser.add_argument(
        "--registry-capacity", type=int, default=128, help="analyzed programs kept hot (default: %(default)s)"
    )
    parser.add_argument(
        "--max-concurrency", type=int, default=4, help="analyses running at once (default: %(default)s)"
    )
    parser.add_argument(
        "--max-pending", type=int, default=64, help="analyses queued before 'overloaded' replies (default: %(default)s)"
    )
    parser.add_argument(
        "--max-queue-wait",
        type=float,
        default=30.0,
        help="shed with 'overloaded' when the estimated queue wait exceeds "
        "this many seconds; 0 disables the estimate and keeps only the "
        "static --max-pending cap (default: %(default)s)",
    )
    parser.add_argument(
        "--max-request-bytes", type=int, default=MAX_LINE_BYTES, help="request line cap (default: %(default)s)"
    )
    parser.add_argument(
        "--backend",
        choices=["serial", "processes"],
        default="serial",
        help="'processes' fans the programs of each corpus request out to "
        "worker processes (true multi-core); a single analyze always solves "
        "in-process (default: %(default)s)",
    )
    parser.add_argument(
        "--backend-workers",
        type=int,
        default=None,
        help="worker count for corpus fan-out (default: min(8, cpus))",
    )
    parser.add_argument(
        "--allow-shutdown", action="store_true", help="honour the remote 'shutdown' verb"
    )
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    config = ServerConfig(
        host=args.host,
        port=args.port,
        store_dir=args.store_dir,
        cache_capacity=args.cache_capacity,
        registry_capacity=args.registry_capacity,
        max_concurrency=args.max_concurrency,
        max_pending=args.max_pending,
        max_queue_wait_seconds=args.max_queue_wait or None,
        max_request_bytes=args.max_request_bytes,
        backend=args.backend,
        backend_workers=args.backend_workers,
        allow_shutdown=args.allow_shutdown,
    )
    try:
        asyncio.run(run_server(config))
    except KeyboardInterrupt:
        print("interrupted, shutting down", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
