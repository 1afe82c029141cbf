"""The ``wire`` workload's server process.

Usage: ``python3 perfbench/wire_server.py <src-dir> <columns.npz> <buckets>``

Loads the generated columns, runs ANALYZE, serves them through an
``EstimationServer`` on a free loopback port and prints ``READY <port>``.
It serves until a line (or EOF) arrives on stdin, then waits for the
connection handlers of the (already closed) clients to finish, stops the
server and prints one JSON line: its peak RSS and the service counters.
"""

from __future__ import annotations

import asyncio
import json
import resource
import sys

#: How long to wait for closed clients' handlers before stopping anyway.
DRAIN_TIMEOUT_S = 10.0


async def serve(service, server_class) -> None:
    server = server_class(service, name="perfbench-wire")
    _, port = await server.start()
    print("READY", port, flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.readline)
    current = asyncio.current_task()
    pending = [task for task in asyncio.all_tasks() if task is not current]
    if pending:
        await asyncio.wait(pending, timeout=DRAIN_TIMEOUT_S)
    await server.stop()


def main(argv: list[str]) -> int:
    src, data_path, buckets = argv[1], argv[2], int(argv[3])
    sys.path.insert(0, src)
    import numpy as np

    from repro.engine.analyze import analyze_relation
    from repro.engine.catalog import StatsCatalog
    from repro.engine.relation import Relation
    from repro.net import EstimationServer
    from repro.serve import EstimationService

    catalog = StatsCatalog()
    with np.load(data_path) as data:
        for name in sorted(data.files):
            relation = Relation.from_columns(name, {"a": data[name].tolist()})
            analyze_relation(relation, "a", catalog, kind="end-biased", buckets=buckets)
    service = EstimationService(catalog, name="perfbench-wire")
    asyncio.run(serve(service, EstimationServer))
    stats = service.stats()
    print(
        json.dumps(
            {
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "probes_served": stats.probes_served,
                "degradation_reasons": dict(stats.degradation_reasons),
                "table_hits": stats.table_hits,
                "table_misses": stats.table_misses,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
