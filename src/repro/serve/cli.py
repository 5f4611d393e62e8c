"""Implementations of ``python -m repro serve``, ``worker``, ``submit``.

Kept out of :mod:`repro.__main__` so the parser stays import-light;
the command functions receive the parsed ``argparse`` namespace, and
``serve``/``worker`` also the runner :mod:`repro.__main__` built from
its pool flags.

``serve`` brings up the daemon of :mod:`repro.serve.server` on a unix
socket (``--socket``) or TCP port (``--port``) and runs until
SIGTERM/SIGINT, then drains gracefully and exits 0.  With ``--cluster``
the same listener also acts as the fleet coordinator for worker nodes.

``worker`` runs one :class:`~repro.cluster.worker.WorkerNode`: it joins
a ``--cluster`` daemon (``--join ADDR``), executes leased jobs on its
own local runner, and heartbeats until SIGTERM.

``submit`` is the matching client: job files in, streamed results out.
A ``.json`` argument is read as one job-spec object (or a list of
them); anything else is treated as a mini-JS program and wrapped in an
``analyze`` job spec — so ``repro submit --socket S prog.js`` is the
daemon-shaped twin of ``repro batch prog.js``.
"""

from __future__ import annotations

import json
import sys
import time
from typing import List


def _job_specs_from_args(args) -> List[dict]:
    specs: List[dict] = []
    for path in args.files:
        if path.endswith(".json"):
            with open(path) as handle:
                loaded = json.load(handle)
            if isinstance(loaded, dict):
                loaded = [loaded]
            if not isinstance(loaded, list):
                raise ValueError(
                    f"{path}: expected a job-spec object or list"
                )
            specs.extend(loaded)
        else:
            with open(path) as handle:
                source = handle.read()
            specs.append(
                {
                    "kind": "analyze",
                    "job_id": "",
                    "source": source,
                    "path": path,
                    "level": args.level,
                    "max_tests": args.max_tests,
                    "time_budget": args.time_budget,
                    "backend": args.backend,
                }
            )
    return specs


def run_serve(args, runner, obs_run) -> None:
    """Serve ``runner`` until SIGTERM/SIGINT, then drain and return."""
    import asyncio

    from repro.serve.server import ServeConfig, ServeServer

    server = ServeServer(
        runner,
        ServeConfig(
            socket=args.socket,
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            max_inflight=args.max_inflight,
            single_flight=not args.no_single_flight,
            cluster=args.cluster,
            heartbeat_s=args.heartbeat_s,
            heartbeat_miss=args.heartbeat_miss,
        ),
        obs_run=obs_run,
    )

    async def main() -> None:
        task = asyncio.ensure_future(server.run(install_signals=True))
        while server.address is None and not task.done():
            await asyncio.sleep(0.01)
        if server.address is not None:
            where = (
                server.address[1]
                if server.address[0] == "unix"
                else f"{server.address[1]}:{server.address[2]}"
            )
            mode = " cluster" if args.cluster else ""
            print(
                f"serving{mode} on {where} "
                f"(workers={args.workers}, max_queue={args.max_queue})",
                flush=True,
            )
        await task

    asyncio.run(main())


def run_worker(args, runner) -> int:
    import signal

    from repro.cluster.worker import WorkerConfig, WorkerNode

    node = WorkerNode(
        runner,
        WorkerConfig(
            join=args.join,
            capacity=args.capacity,
            worker_id=args.worker_id,
            remote_cache=not args.no_remote_cache,
        ),
    )
    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, lambda *_: node.stop())
        except (ValueError, OSError):
            pass  # non-main thread (tests drive run() directly)
    print(
        f"worker joining {args.join} "
        f"(capacity={args.capacity}, workers={args.workers})",
        flush=True,
    )
    node.run()
    snapshot = node.snapshot()
    print(
        f"worker stopped ({snapshot['jobs_done']} jobs done, "
        f"{snapshot['registrations']} registrations)",
        flush=True,
    )
    return 0


def run_submit(args) -> int:
    from repro.serve.client import Rejected, ServeClient
    from repro.service.report import BatchReport, print_batch_report

    with ServeClient(
        socket_path=args.socket,
        host=args.host,
        port=args.port,
        timeout=args.timeout,
        reconnect=True,
    ) as client:
        if args.stats:
            frame = client.stats()
            print(
                json.dumps(
                    {"server": frame["server"], "obs": frame["obs"]},
                    indent=2,
                    sort_keys=True,
                )
            )
            return 0
        if args.health:
            health = client.health()
            print(json.dumps(health, indent=2, sort_keys=True))
            return 0 if health.get("ready") else 1
        try:
            specs = _job_specs_from_args(args)
        except (OSError, ValueError) as exc:
            print(f"submit: {exc}", file=sys.stderr)
            return 2
        if not specs:
            print("submit: no jobs (give job .json or mini-JS files)",
                  file=sys.stderr)
            return 2
        started = time.monotonic()
        order = {}
        rejected = 0
        for index, spec in enumerate(specs):
            deadline = time.monotonic() + args.wait_on_overload
            while True:
                try:
                    ack = client.submit(spec)
                except Rejected as exc:
                    # Honor the daemon's retry_after hint (bounded by
                    # --wait-on-overload) instead of dropping the job
                    # on the first overload rejection.
                    remaining = deadline - time.monotonic()
                    if exc.reason == "overloaded" and remaining > 0:
                        time.sleep(
                            min(exc.retry_after or 0.5, max(0.05, remaining))
                        )
                        continue
                    rejected += 1
                    print(
                        f"rejected ({exc.reason}): job {index}",
                        file=sys.stderr,
                    )
                    break
                order[ack["id"]] = index
                break
        results = []
        for request_id, result, coalesced in client.iter_results():
            results.append(result)
            if args.stream:
                line = dict(result.to_spec())
                line["coalesced"] = coalesced
                print(json.dumps(line, sort_keys=True), flush=True)
        if not args.stream:
            report = BatchReport(
                results=results,
                wall_time=time.monotonic() - started,
                workers=0,
                jobs_submitted=len(specs),
                jobs_executed=len(results),
            )
            print_batch_report(report, args.json)
    if rejected:
        return 3
    return 0 if all(r.status == "ok" for r in results) else 1
