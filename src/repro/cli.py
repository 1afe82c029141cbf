"""Command-line interface to the reproduction.

Subcommands cover the common interactive uses:

* ``zipf`` — print a Zipf frequency vector (equation (1));
* ``histogram`` — build a histogram over a Zipf set and show its buckets;
* ``advise`` — minimum buckets for an error tolerance (Section 3.1);
* ``selfjoin`` — one row of the Figures 3-5 comparison;
* ``chain`` — one row of the Figures 6-7 comparison;
* ``table1`` — the construction-cost table;
* ``serve-stats`` — batched estimation-service workload with cache metrics
  (``--obs`` appends the metric registry; ``--emit-wire``/``--probes-from``
  write and replay wire-schema batch artifacts);
* ``serve`` — the asyncio network front-end over a synthetic analyzed
  catalog (length-prefixed frames + HTTP shim; see docs/NETWORK.md);
* ``obs dump`` — drive a serve+maintain+recover workload and expose the
  metric registry (Prometheus text or JSON);
* ``obs trace dump|tree|slowest`` — inspect a JSONL span-sink file
  (raw spans, assembled trace trees, slowest traces);
* ``stats check`` / ``stats repair`` — verify or repair an on-disk
  statistics catalog (checksums, journal replay, quarantine);
* ``agent run|status|enqueue|dead-letter`` — the durable maintenance
  agent and its job queue (see docs/MAINTENANCE.md);
* ``arrangements`` — the Section 3.1 arrangement study.

Exit codes for the scripting-oriented commands (``stats``, ``agent``)
are documented in docs/PERSISTENCE.md: 0 success, 1 findings
(``stats check``), 2 usage, :data:`EXIT_CORRUPTION` (3) when corruption
was found, :data:`EXIT_IO_ERROR` (4) when the storage itself failed.

Example::

    python -m repro.cli advise --total 10000 --domain 200 --z 1.5 --tolerance 0.01
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

#: Exit codes shared by the scripting-oriented subcommands so CI can tell
#: outcomes apart (documented in docs/PERSISTENCE.md).  0 = success,
#: 1 = findings reported (``stats check``), 2 = usage error (argparse).
EXIT_CORRUPTION = 3
EXIT_IO_ERROR = 4


def _add_zipf_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--total", type=float, default=1000.0, help="relation size T")
    parser.add_argument("--domain", type=int, default=100, help="domain size M")
    parser.add_argument("--z", type=float, default=1.0, help="Zipf skew parameter")


def _cmd_zipf(args) -> int:
    from repro.data.quantize import quantize_to_integers
    from repro.data.zipf import zipf_frequencies

    freqs = zipf_frequencies(args.total, args.domain, args.z)
    if args.quantize:
        freqs = quantize_to_integers(freqs)
    for rank, freq in enumerate(freqs, start=1):
        print(f"{rank}\t{freq:g}")
    return 0


def _cmd_histogram(args) -> int:
    from repro.data.zipf import zipf_frequencies
    from repro.core.biased import v_opt_bias_hist
    from repro.core.serial import v_optimal_serial_histogram
    from repro.core.heuristic import trivial_histogram
    from repro.core.optimality import self_join_size

    freqs = zipf_frequencies(args.total, args.domain, args.z)
    if args.kind == "end-biased":
        hist = v_opt_bias_hist(freqs, args.buckets)
    elif args.kind == "serial":
        hist = v_optimal_serial_histogram(freqs, args.buckets, method="dp")
    elif args.kind == "trivial":
        hist = trivial_histogram(freqs)
    else:
        print(f"unknown histogram kind {args.kind!r}", file=sys.stderr)
        return 2
    exact = self_join_size(freqs)
    print(f"kind={hist.kind} buckets={hist.bucket_count} M={args.domain}")
    for index, bucket in enumerate(hist.buckets, start=1):
        print(
            f"  bucket {index}: count={bucket.count} total={bucket.total:.2f} "
            f"avg={bucket.average:.4f} var={bucket.variance:.4f}"
        )
    print(f"self-join exact={exact:.1f} estimate={hist.self_join_estimate():.1f} "
          f"error={hist.self_join_error():.1f}")
    return 0


def _cmd_advise(args) -> int:
    from repro.core.advisor import advisory_report, minimum_buckets
    from repro.data.zipf import zipf_frequencies

    freqs = zipf_frequencies(args.total, args.domain, args.z)
    bucket_counts = [b for b in (1, 2, 5, 10, 20, 50) if b <= args.domain]
    for row in advisory_report(freqs, bucket_counts, kind=args.kind):
        print(f"  {row}")
    needed = minimum_buckets(freqs, args.tolerance, kind=args.kind)
    print(
        f"minimum {args.kind} buckets for {args.tolerance:.2%} relative "
        f"self-join error: {needed}"
    )
    return 0


def _cmd_selfjoin(args) -> int:
    from repro.data.zipf import zipf_frequencies
    from repro.experiments.selfjoin import HistogramType, self_join_sigmas

    freqs = zipf_frequencies(args.total, args.domain, args.z)
    sigmas = self_join_sigmas(
        freqs, args.buckets, trials=args.trials, rng=args.seed
    )
    for histogram_type in HistogramType:
        print(f"{histogram_type.value:>12s}  sigma={sigmas[histogram_type]:.2f}")
    return 0


def _cmd_chain(args) -> int:
    from repro.experiments.chains import CHAIN_HISTOGRAM_TYPES, mean_relative_error
    from repro.queries.workload import QueryClass, sample_chain_query

    query_class = {
        "low": QueryClass.LOW_SKEW,
        "mixed": QueryClass.MIXED_SKEW,
        "high": QueryClass.HIGH_SKEW,
    }[args.skew_class]
    query = sample_chain_query(args.joins, query_class, rng=args.seed)
    print(f"chain query: {args.joins} joins, skews={query.skews}")
    for histogram_type in CHAIN_HISTOGRAM_TYPES:
        error = mean_relative_error(
            query,
            histogram_type,
            args.buckets,
            permutations=args.permutations,
            rng=args.seed,
        )
        print(f"{histogram_type.value:>12s}  E[|S-S'|/S]={error:.4f}")
    return 0


def _cmd_table1(args) -> int:
    from repro.experiments.config import TimingExperimentConfig
    from repro.experiments.report import format_table
    from repro.experiments.timing import construction_timing_table

    config = TimingExperimentConfig(
        serial_sizes=tuple(args.serial_sizes),
        end_biased_sizes=tuple(args.end_biased_sizes),
        repeats=args.repeats,
    )
    rows = construction_timing_table(config)
    table = [
        [
            r.set_size,
            r.serial_seconds.get(3),
            r.serial_seconds.get(5),
            r.end_biased_seconds,
            r.serial_dp_seconds,
        ]
        for r in rows
    ]
    print(
        format_table(
            ["attribute values", "serial b=3", "serial b=5", "end-biased b=10", "serial DP b=10"],
            table,
            precision=5,
        )
    )
    return 0


def _cmd_tune(args) -> int:
    """Demonstrate the statistics tuner on synthetic relations."""
    from repro.data.quantize import quantize_to_integers
    from repro.data.zipf import zipf_frequencies
    from repro.engine.catalog import StatsCatalog
    from repro.engine.relation import Relation
    from repro.engine.tuning import tune_database
    from repro.util.rng import derive_rng

    gen = derive_rng(args.seed)
    relations = []
    for index, z in enumerate(args.z_values):
        freqs = quantize_to_integers(zipf_frequencies(args.total, args.domain, z))
        column = [v for v, f in enumerate(freqs) for _ in range(int(f))]
        gen.shuffle(column)
        relations.append(Relation.from_columns(f"R{index}", {"a": column}))
    catalog = StatsCatalog()
    for rec in tune_database(relations, catalog, tolerance=args.tolerance):
        print(rec)
    print(f"catalog now holds {len(catalog)} analyzed attributes")
    return 0


def _build_synthetic_catalog(args, gen):
    """Analyzed Zipf columns R0..Rn shared by ``serve-stats`` and ``serve``."""
    from repro.data.quantize import quantize_to_integers
    from repro.data.zipf import zipf_frequencies
    from repro.engine.analyze import analyze_relation
    from repro.engine.catalog import StatsCatalog
    from repro.engine.relation import Relation

    catalog = StatsCatalog()
    names = []
    for index, z in enumerate(args.z_values):
        freqs = quantize_to_integers(zipf_frequencies(args.total, args.domain, z))
        column = [v for v, f in enumerate(freqs) for _ in range(int(f))]
        gen.shuffle(column)
        relation = Relation.from_columns(f"R{index}", {"a": column})
        analyze_relation(relation, "a", catalog, kind=args.kind, buckets=args.buckets)
        names.append(relation.name)
    return catalog, names


def _build_synthetic_probes(args, gen, names):
    """The mixed equality/range/join workload the serve commands drive."""
    from repro.serve import EqualityProbe, JoinProbe, RangeProbe

    probes = []
    for _ in range(args.probes):
        name = names[int(gen.integers(len(names)))]
        shape = int(gen.integers(3))
        if shape == 0:
            probes.append(EqualityProbe(name, "a", int(gen.integers(args.domain))))
        elif shape == 1:
            low, high = sorted(int(v) for v in gen.integers(args.domain, size=2))
            probes.append(RangeProbe(name, "a", low, high))
        else:
            other = names[int(gen.integers(len(names)))]
            probes.append(JoinProbe(name, "a", other, "a"))
    # Poison the tail with unknown-relation probes to demonstrate the
    # degradation accounting (--unknown-probes 0 keeps the batch clean).
    for index in range(getattr(args, "unknown_probes", 0)):
        probes.append(EqualityProbe("UNANALYZED", "a", index))
    return probes


def _load_wire_probes(path: str):
    """Read a wire-schema probe batch (see ``repro serve-stats --emit-wire``)."""
    import json

    from repro.net import probes_from_wire
    from repro.net.protocol import check_version

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if isinstance(payload, dict):
        check_version(payload)
        entries = payload.get("probes", [])
    else:
        entries = payload
    return probes_from_wire(entries)


def _dump_wire_probes(probes, path: str) -> None:
    """Write *probes* as a replayable wire-schema batch artifact."""
    import json

    from repro.net import probes_to_wire
    from repro.net.protocol import message

    payload = message("batch", probes=probes_to_wire(probes))
    text = json.dumps(payload, indent=2, allow_nan=False)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _cmd_serve_stats(args) -> int:
    """Run a batched workload (synthetic or replayed) and report metrics."""
    import numpy as np

    from repro.serve import EstimationService
    from repro.util.rng import derive_rng

    gen = derive_rng(args.seed)
    catalog, names = _build_synthetic_catalog(args, gen)
    service = EstimationService(catalog, on_error=args.on_error)
    if args.probes_from:
        try:
            probes = _load_wire_probes(args.probes_from)
        except OSError as exc:
            print(f"repro serve-stats: I/O error: {exc}", file=sys.stderr)
            return EXIT_IO_ERROR
        except ValueError as exc:  # invalid JSON, or a WireCodecError
            print(
                f"repro serve-stats: cannot replay {args.probes_from}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(f"replaying {len(probes)} probes from {args.probes_from}")
    else:
        probes = _build_synthetic_probes(args, gen, names)
    if args.emit_wire:
        _dump_wire_probes(probes, args.emit_wire)
        if args.emit_wire != "-":
            print(f"wrote wire batch artifact to {args.emit_wire}")
    estimates = service.estimate_batch(probes)
    finite = estimates[np.isfinite(estimates)]
    print(
        f"answered {estimates.size} probes over {len(names)} analyzed columns; "
        f"estimate mass {float(np.sum(finite, dtype=np.float64)):.1f}"
    )
    print(f"catalog version: {catalog.version}")
    print(service.stats().format())
    if args.obs:
        from repro.obs import get_registry

        print()
        print("# --- metric registry (repro obs) ---")
        sys.stdout.write(get_registry().to_prometheus())
    return 0


def _cmd_serve(args) -> int:
    """Serve a synthetic analyzed catalog over the network protocol.

    Binds the asyncio estimation server (length-prefixed frames + the
    HTTP/JSON shim on one port), prints the bound address, and serves
    until ``--duration`` elapses or Ctrl-C.  Tenants come from repeated
    ``--tenant NAME=TOKEN`` flags; without any, the server is open.
    """
    import asyncio

    from repro.net import EstimationServer, TenantConfig
    from repro.serve import EstimationService
    from repro.util.rng import derive_rng

    gen = derive_rng(args.seed)
    catalog, names = _build_synthetic_catalog(args, gen)
    service = EstimationService(catalog, on_error=args.on_error)
    tenants = []
    for spec in args.tenant or []:
        name, sep, token = spec.partition("=")
        if not sep or not name or not token:
            print(f"--tenant must look like NAME=TOKEN, got {spec!r}", file=sys.stderr)
            return 2
        tenants.append(
            TenantConfig(
                name=name,
                token=token,
                max_probes_per_batch=args.quota_batch,
                max_pending_probes=args.quota_pending,
            )
        )
    server = EstimationServer(
        service,
        host=args.host,
        port=args.port,
        tenants=tenants or None,
        chunk_probes=args.chunk_probes,
    )

    async def run() -> None:
        host, port = await server.start()
        print(f"serving {len(names)} analyzed columns on {host}:{port}", flush=True)
        try:
            if args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:
        pass
    print(service.stats().format())
    return 0


def _run_obs_workload(seed: int, probes: int) -> object:
    """Drive a small serve + maintain + crash-recover workload.

    Populates the default metric registry with live counters, span
    histograms, events, and accuracy-monitor samples so ``repro obs dump``
    has something real to expose: batched equality/range/join probes over
    analyzed Zipf columns (each equality answer checked against the exact
    column frequency), a journaled maintained histogram that publishes and
    checkpoints through ``save_catalog``, a recovery load whose report the
    service absorbs, and a Proposition 3.1 self-join cross-check.
    """
    import tempfile
    from collections import Counter

    from repro.core.biased import v_opt_bias_hist
    from repro.core.frequency import AttributeDistribution
    from repro.core.optimality import self_join_size
    from repro.data.quantize import quantize_to_integers
    from repro.data.zipf import zipf_frequencies
    from repro.engine.analyze import analyze_relation
    from repro.engine.catalog import StatsCatalog
    from repro.engine.journal import MaintenanceJournal
    from repro.engine.persist import load_catalog, save_catalog
    from repro.engine.relation import Relation
    from repro.maint.update import MaintainedEndBiased
    from repro.obs import get_monitor
    from repro.serve import EqualityProbe, EstimationService, JoinProbe, RangeProbe
    from repro.util.rng import derive_rng

    gen = derive_rng(seed)
    catalog = StatsCatalog()
    columns: dict[str, Counter] = {}
    names = []
    domain = 120
    for index, z in enumerate((0.6, 1.2)):
        freqs = quantize_to_integers(zipf_frequencies(4000.0, domain, z))
        column = [v for v, f in enumerate(freqs) for _ in range(int(f))]
        gen.shuffle(column)
        relation = Relation.from_columns(f"R{index}", {"a": column})
        analyze_relation(relation, "a", catalog, kind="end-biased", buckets=12)
        columns[relation.name] = Counter(column)
        names.append(relation.name)

    monitor = get_monitor()
    service = EstimationService(catalog, name="obs-workload")
    eq_probes = [
        EqualityProbe(
            names[int(gen.integers(len(names)))], "a", int(gen.integers(domain))
        )
        for _ in range(probes)
    ]
    estimates = service.estimate_batch(eq_probes)
    for probe, estimated in zip(eq_probes, estimates):
        actual = float(columns[probe.relation].get(probe.value, 0))
        monitor.record_observation(probe, float(estimated), actual)
    service.estimate_batch(
        [
            RangeProbe(names[0], "a", 3, 40),
            JoinProbe(names[0], "a", names[1], "a"),
        ]
    )

    # One loopback round-trip through the network front-end so the
    # net.* spans and per-tenant counters land in the registry too.
    from time import perf_counter, sleep

    from repro.net import EstimationClient, TenantConfig, serve_in_thread
    from repro.obs import get_registry

    with serve_in_thread(
        service,
        tenants=[TenantConfig(name="obs-tenant", token="obs")],
        name="obs-net",
    ) as handle:
        host, port = handle.address
        with EstimationClient(host, port, token="obs") as client:
            client.estimate_batch(eq_probes[:64])
        # The net.accept span closes when the server finishes tearing
        # down the connection we just left; wait for it (bounded) so the
        # dump reliably includes the whole span family.
        deadline = perf_counter() + 2.0
        while perf_counter() < deadline:
            if 'span="net.accept"' in get_registry().to_prometheus():
                break
            sleep(0.02)

    # Proposition 3.1 cross-check: S - S' = Σ p_i·v_i on a seeded Zipf set.
    check_freqs = quantize_to_integers(zipf_frequencies(2000.0, 60, 1.0))
    monitor.record_self_join(
        "zipf-check", v_opt_bias_hist(check_freqs, 8), self_join_size(check_freqs)
    )

    with tempfile.TemporaryDirectory(prefix="repro-obs-") as scratch:
        snapshot = Path(scratch) / "catalog.json"
        journal_path = Path(scratch) / "catalog.journal"
        journal = MaintenanceJournal(journal_path)
        maint_freqs = quantize_to_integers(zipf_frequencies(1500.0, 40, 1.0))
        distribution = AttributeDistribution(
            list(range(len(maint_freqs))), maint_freqs
        )
        maintained = MaintainedEndBiased(
            distribution, 6, journal=journal, relation="M0", attribute="a"
        )
        for _ in range(25):
            maintained.insert(int(gen.integers(len(maint_freqs))))
        maintained.publish(catalog, "M0", "a")
        save_catalog(catalog, snapshot, journal=journal)
        # Deltas after the snapshot are exactly what recovery must replay.
        for _ in range(10):
            maintained.insert(int(gen.integers(len(maint_freqs))))
        report = load_catalog(snapshot, recover=True, journal=journal_path)
        service.apply_recovery(report)
        service.estimate_batch([EqualityProbe("M0", "a", 1)])
    # The caller must keep the service alive through exposition: its
    # metrics are exported via a weak registry collector.
    return service


def _cmd_obs_dump(args) -> int:
    """Expose the default metric registry (after an optional workload)."""
    from repro.obs import get_registry

    service = None
    if not args.no_workload:
        service = _run_obs_workload(args.seed, args.probes)
    registry = get_registry()
    if args.format == "prom":
        sys.stdout.write(registry.to_prometheus())
    else:
        print(registry.to_json())
    del service  # held alive until after exposition (weak collector)
    return 0


def _cmd_obs_trace(args) -> int:
    """Inspect a JSONL span sink: raw spans, assembled trees, slowest."""
    import json

    from repro.obs.export import (
        assemble_traces,
        read_spans,
        render_trace_tree,
        slowest_traces,
        span_to_wire,
        trace_summary,
    )

    try:
        records, dropped = read_spans(args.file)
    except OSError as exc:
        print(f"repro obs trace: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    if dropped:
        print(
            f"repro obs trace: skipped {dropped} malformed line(s)",
            file=sys.stderr,
        )
    if args.mode == "dump":
        for record in records:
            print(json.dumps(span_to_wire(record), sort_keys=True))
        return 0
    traces = assemble_traces(records)
    if args.mode == "slowest":
        traces = slowest_traces(traces, limit=args.limit)
    elif args.limit:
        traces = traces[: args.limit]
    for trace in traces:
        summary = trace_summary(trace)
        duration_ms = summary["duration_seconds"] * 1000.0
        print(
            f"trace {summary['trace_id'] or '<untraced>'}: "
            f"{summary['spans']} spans, {duration_ms:.3f} ms"
            + (" [error]" if summary["error"] else "")
        )
        print(render_trace_tree(trace))
    return 0


def _cmd_stats_check(args) -> int:
    """Verify an on-disk catalog: checksums, format, journal health."""
    from repro.engine.persist import load_catalog

    try:
        report = load_catalog(args.catalog, recover=True, journal=args.journal)
    except OSError as exc:
        print(f"repro stats check: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    print(report.summary())
    return 0 if report.clean else 1


def _cmd_stats_repair(args) -> int:
    """Rewrite a catalog snapshot keeping only verified (+replayed) entries.

    Exit codes: 0 when the input was already clean, :data:`EXIT_CORRUPTION`
    when corruption was found (and repaired away), :data:`EXIT_IO_ERROR`
    when the storage itself failed.
    """
    from repro.engine.journal import MaintenanceJournal
    from repro.engine.persist import load_catalog, save_catalog

    try:
        report = load_catalog(args.catalog, recover=True, journal=args.journal)
    except OSError as exc:
        print(f"repro stats repair: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    print(report.summary())
    in_place = args.output is None
    destination = args.catalog if in_place else args.output
    # Checkpointing drops journal records the *repaired* snapshot includes.
    # That is only safe when the repaired snapshot replaces the original;
    # repairing to --output must leave the original snapshot/journal pair
    # untouched, or serving from the original path would lose those
    # acknowledged deltas.
    try:
        journal = (
            MaintenanceJournal(args.journal)
            if args.journal is not None and in_place
            else None
        )
        save_catalog(report.catalog, destination, journal=journal)
    except OSError as exc:
        print(f"repro stats repair: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    if args.journal is not None and not in_place:
        print(f"journal {args.journal} left untouched (repairing to a copy)")
    print(
        f"repaired snapshot written to {destination}: "
        f"{len(report.catalog)} entries kept, "
        f"{len(report.quarantined)} quarantined entries dropped"
    )
    if report.quarantined:
        print(
            "note: dropped statistics are gone; re-run ANALYZE for "
            + ", ".join(sorted({q.label() for q in report.quarantined}))
        )
    return 0 if report.clean else EXIT_CORRUPTION


def _run_agent_command(body) -> int:
    """Run one ``repro agent`` handler body under the shared exit-code map."""
    from repro.engine.eventlog import LogFormatError
    from repro.engine.journal import JournalReplayError
    from repro.engine.persist import CatalogFormatError

    try:
        return body()
    except (LogFormatError, CatalogFormatError, JournalReplayError) as exc:
        print(f"repro agent: corruption: {exc}", file=sys.stderr)
        return EXIT_CORRUPTION
    except OSError as exc:
        print(f"repro agent: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR


def _open_queue(args):
    from repro.maint.queue import DurableJobQueue

    return DurableJobQueue(args.queue, lease_duration=args.lease)


def _cmd_agent_run(args) -> int:
    """Run the maintenance agent over a durable queue until drained/stopped."""

    def body() -> int:
        from repro.engine.catalog import StatsCatalog
        from repro.engine.journal import MaintenanceJournal
        from repro.engine.persist import load_catalog
        from repro.maint.agent import AgentContext, DriftPolicy, MaintenanceAgent

        queue = _open_queue(args)
        snapshot_path = Path(args.catalog) if args.catalog else None
        if snapshot_path is not None and snapshot_path.exists():
            catalog = load_catalog(snapshot_path, journal=args.journal)
        else:
            catalog = StatsCatalog()
        journal = (
            MaintenanceJournal(args.journal) if args.journal is not None else None
        )
        context = AgentContext(
            queue=queue,
            catalog=catalog,
            snapshot_path=snapshot_path,
            journal=journal,
            buckets=args.buckets,
            drift=DriftPolicy(
                max_relative_error=args.drift_threshold,
                min_observations=args.drift_min_observations,
            ),
        )
        agent = MaintenanceAgent(context, name=args.name)
        if args.max_jobs is not None:
            resolved = agent.run(max_jobs=args.max_jobs)
        else:
            try:
                resolved = agent.run()
            except KeyboardInterrupt:
                agent.stop()
                resolved = agent.drain()
        print(
            f"agent {args.name}: resolved {resolved} job(s); "
            f"queue depth now {queue.depth()} "
            f"(pending={queue.depth('pending')}, dead={queue.depth('dead')})"
        )
        return 0

    return _run_agent_command(body)


def _cmd_agent_status(args) -> int:
    """Read-only queue diagnosis; exit 3 on any log damage (strict scan)."""

    def body() -> int:
        from repro.engine.eventlog import scan_log
        from repro.maint.queue import JOB_STATUSES, _validate_event

        # Strict scan first: status must *report* damage, never repair it.
        scan_log(args.queue, strict=True, validate=_validate_event)
        queue = _open_queue(args)
        print(f"queue: {args.queue}")
        depths = " ".join(
            f"{status}={queue.depth(status)}" for status in JOB_STATUSES
        )
        print(f"jobs: total={queue.depth()} {depths}")
        print(f"oldest pending age: {queue.oldest_pending_age():.1f}s")
        for job in queue.jobs():
            if job["status"] == "done" and not args.all:
                continue
            line = (
                f"  {job['id']} {job['kind']} {job['status']} "
                f"attempts={job['attempts']}"
            )
            if job["owner"]:
                line += f" owner={job['owner']}"
            if job["last_error"]:
                line += f" error={job['last_error']!r}"
            print(line)
        return 0

    return _run_agent_command(body)


def _cmd_agent_enqueue(args) -> int:
    """Durably enqueue one maintenance job (idempotent with --dedupe-key)."""

    def body() -> int:
        queue = _open_queue(args)
        params: dict = {}
        if args.relation is not None:
            params["relation"] = args.relation
        if args.attribute is not None:
            params["attribute"] = args.attribute
        if args.threshold is not None:
            params["threshold"] = args.threshold
        dedupe_key = args.dedupe_key
        if dedupe_key is None and args.kind == "rebuild" and params:
            dedupe_key = (
                f"rebuild:{params.get('relation')}.{params.get('attribute')}"
            )
        job = queue.enqueue(args.kind, params or None, dedupe_key=dedupe_key)
        print(f"enqueued {job.id} ({job.kind})")
        return 0

    return _run_agent_command(body)


def _cmd_agent_dead_letter(args) -> int:
    """List the dead-letter lane, or requeue one job out of it."""

    def body() -> int:
        queue = _open_queue(args)
        if args.requeue is not None:
            try:
                job = queue.requeue_dead(args.requeue)
            except ValueError as exc:
                print(f"repro agent: {exc}", file=sys.stderr)
                return 2
            print(f"requeued {job.id} ({job.kind})")
            return 0
        lane = queue.dead_letters()
        if not lane:
            print("dead-letter lane is empty")
            return 0
        for job in lane:
            print(
                f"{job['id']} {job['kind']} attempts={job['attempts']} "
                f"error={job['last_error']!r}"
            )
        return 0

    return _run_agent_command(body)


def _cmd_describe(args) -> int:
    from repro.data.zipf import zipf_frequencies
    from repro.util.stats import profile_frequencies

    freqs = zipf_frequencies(args.total, args.domain, args.z)
    print(profile_frequencies(freqs))
    return 0


def _cmd_lint(args) -> int:
    from repro.analysis.diagnostics import format_report
    from repro.analysis.linter import (
        LintConfig,
        LintError,
        discover_changed_files,
        exit_code,
        lint_paths,
        parse_rule_selection,
    )
    from repro.analysis.rules import ALL_RULES
    from repro.analysis.sarif import to_sarif_json

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code} [{rule.severity.value}] {rule.name}: {rule.summary}")
        return 0
    paths = args.paths or _default_lint_paths()
    if not paths:
        print("repro lint: no lintable paths found", file=sys.stderr)
        return 2
    try:
        if args.changed is not False:
            base = args.changed if args.changed is not None else "HEAD"
            paths = discover_changed_files(base, roots=paths)
            if not paths:
                if args.format == "text":
                    print("repolint: clean (no changed files)")
                else:
                    print(to_sarif_json([]), end="")
                return 0
        config = LintConfig(select=parse_rule_selection(args.rules))
        violations = lint_paths(paths, config, jobs=args.jobs)
    except LintError as error:
        print(f"repro lint: {error}", file=sys.stderr)
        return 2
    if args.format == "sarif":
        print(to_sarif_json(violations), end="")
    else:
        print(format_report(violations))
    return exit_code(violations, strict=args.strict)


def _default_lint_paths() -> list[str]:
    """The project trees ``repro lint`` covers when no paths are given.

    The installed package is always linted; ``benchmarks/`` rides along when
    running from a source checkout that has it.
    """
    import repro

    package_dir = Path(repro.__file__).resolve().parent
    paths = [str(package_dir)]
    benchmarks = package_dir.parent.parent / "benchmarks"
    if benchmarks.is_dir():
        paths.append(str(benchmarks))
    return paths


def _cmd_arrangements(args) -> int:
    from repro.data.zipf import zipf_frequencies
    from repro.experiments.arrangements import optimal_biased_pair_study

    study = optimal_biased_pair_study(
        zipf_frequencies(args.total, args.domain, args.z_left),
        zipf_frequencies(args.total, args.domain, args.z_right),
        args.buckets,
        max_arrangements=args.max_arrangements,
        rng=args.seed,
    )
    print(study)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of Ioannidis & Poosala (SIGMOD 1995): serial and "
            "end-biased histograms for query result size estimation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("zipf", help="print a Zipf frequency vector (eq. (1))")
    _add_zipf_arguments(p)
    p.add_argument("--quantize", action="store_true", help="round to integers")
    p.set_defaults(func=_cmd_zipf)

    p = sub.add_parser("histogram", help="build and display one histogram")
    _add_zipf_arguments(p)
    p.add_argument("--buckets", type=int, default=5)
    p.add_argument("--kind", choices=["trivial", "end-biased", "serial"], default="end-biased")
    p.set_defaults(func=_cmd_histogram)

    p = sub.add_parser("advise", help="minimum buckets for an error tolerance")
    _add_zipf_arguments(p)
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--kind", choices=["end-biased", "serial"], default="end-biased")
    p.set_defaults(func=_cmd_advise)

    p = sub.add_parser("selfjoin", help="one self-join sigma comparison (Figs. 3-5)")
    _add_zipf_arguments(p)
    p.add_argument("--buckets", type=int, default=5)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=1995)
    p.set_defaults(func=_cmd_selfjoin)

    p = sub.add_parser("chain", help="one chain-query comparison (Figs. 6-7)")
    p.add_argument("--joins", type=int, default=5)
    p.add_argument("--buckets", type=int, default=5)
    p.add_argument("--skew-class", choices=["low", "mixed", "high"], default="mixed")
    p.add_argument("--permutations", type=int, default=20)
    p.add_argument("--seed", type=int, default=1995)
    p.set_defaults(func=_cmd_chain)

    p = sub.add_parser("table1", help="construction-cost table (Table 1)")
    p.add_argument("--serial-sizes", type=int, nargs="+", default=[10, 15, 20])
    p.add_argument("--end-biased-sizes", type=int, nargs="+", default=[100, 10_000])
    p.add_argument("--repeats", type=int, default=1)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("describe", help="summary statistics of a Zipf frequency set")
    _add_zipf_arguments(p)
    p.set_defaults(func=_cmd_describe)

    p = sub.add_parser("tune", help="recommend and apply per-attribute bucket counts")
    p.add_argument("--total", type=float, default=1000.0)
    p.add_argument("--domain", type=int, default=50)
    p.add_argument("--z-values", type=float, nargs="+", default=[0.05, 1.0, 2.0])
    p.add_argument("--tolerance", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=1995)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser(
        "serve-stats",
        help="run a synthetic batched workload and print service metrics",
    )
    p.add_argument("--total", type=float, default=10_000.0)
    p.add_argument("--domain", type=int, default=200)
    p.add_argument("--z-values", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    p.add_argument("--kind", choices=["end-biased", "serial"], default="end-biased")
    p.add_argument("--buckets", type=int, default=10)
    p.add_argument("--probes", type=int, default=1000)
    p.add_argument(
        "--on-error",
        choices=["fallback", "nan", "raise"],
        default="fallback",
        help="policy for unanswerable probes (see docs/API.md)",
    )
    p.add_argument(
        "--unknown-probes",
        type=int,
        default=0,
        help="append N probes against an un-ANALYZEd relation to exercise "
        "the degradation counters",
    )
    p.add_argument("--seed", type=int, default=1995)
    p.add_argument(
        "--obs",
        action="store_true",
        help="also dump the metric registry (Prometheus text) after the run",
    )
    p.add_argument(
        "--probes-from",
        metavar="FILE.json",
        default=None,
        help="replay a wire-schema probe batch instead of generating one "
        "(see --emit-wire and docs/NETWORK.md; exit 2 when FILE is not a "
        "batch of this wire schema, 4 when it cannot be read)",
    )
    p.add_argument(
        "--emit-wire",
        metavar="FILE.json",
        default=None,
        help="write the driven probe batch as a replayable wire-schema "
        "artifact ('-' for stdout)",
    )
    p.set_defaults(func=_cmd_serve_stats)

    p = sub.add_parser(
        "serve",
        help="serve a synthetic analyzed catalog over the network protocol",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p.add_argument("--total", type=float, default=10_000.0)
    p.add_argument("--domain", type=int, default=200)
    p.add_argument("--z-values", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    p.add_argument("--kind", choices=["end-biased", "serial"], default="end-biased")
    p.add_argument("--buckets", type=int, default=10)
    p.add_argument(
        "--on-error",
        choices=["fallback", "nan", "raise"],
        default="fallback",
        help="service-wide policy for unanswerable probes",
    )
    p.add_argument(
        "--tenant",
        action="append",
        metavar="NAME=TOKEN",
        help="register a tenant (repeatable); omit for an open server",
    )
    p.add_argument(
        "--quota-batch",
        type=int,
        default=0,
        help="max probes per batch per tenant (0 = unlimited)",
    )
    p.add_argument(
        "--quota-pending",
        type=int,
        default=0,
        help="max probes in flight per tenant (0 = unlimited)",
    )
    p.add_argument("--chunk-probes", type=int, default=2048)
    p.add_argument(
        "--duration",
        type=float,
        default=0.0,
        help="serve for N seconds then exit (0 = until Ctrl-C)",
    )
    p.add_argument("--seed", type=int, default=1995)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "obs",
        help="observability: dump the metric registry, spans, and events",
    )
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    sp = obs_sub.add_parser(
        "dump",
        help="run a serve+maintain+recover workload and dump the registry",
    )
    sp.add_argument(
        "--format",
        choices=["prom", "json"],
        default="prom",
        help="exposition format (Prometheus text or JSON with events)",
    )
    sp.add_argument(
        "--no-workload",
        action="store_true",
        help="dump whatever the registry already holds without driving "
        "the built-in workload",
    )
    sp.add_argument("--probes", type=int, default=400)
    sp.add_argument("--seed", type=int, default=1995)
    sp.set_defaults(func=_cmd_obs_dump)
    sp = obs_sub.add_parser(
        "trace",
        help="inspect a JSONL span-sink file (see docs/OBSERVABILITY.md)",
    )
    sp.add_argument(
        "mode",
        choices=["dump", "tree", "slowest"],
        help="dump raw span JSONL, render assembled trace trees, or show "
        "the slowest traces",
    )
    sp.add_argument("file", help="path of the JSONL span-sink file")
    sp.add_argument(
        "--limit",
        type=int,
        default=10,
        help="traces shown by tree/slowest (0 = all for tree)",
    )
    sp.set_defaults(func=_cmd_obs_trace)

    p = sub.add_parser(
        "stats", help="inspect or repair an on-disk statistics catalog"
    )
    stats_sub = p.add_subparsers(dest="stats_command", required=True)
    for name, func, help_text in (
        (
            "check",
            _cmd_stats_check,
            "verify checksums and journal health (exit 1 on findings)",
        ),
        (
            "repair",
            _cmd_stats_repair,
            "rewrite the snapshot from verified entries + journal replay",
        ),
    ):
        sp = stats_sub.add_parser(name, help=help_text)
        sp.add_argument("catalog", help="path of the catalog snapshot file")
        sp.add_argument(
            "--journal",
            default=None,
            help="maintenance journal to replay (and, for repair, checkpoint)",
        )
        if name == "repair":
            sp.add_argument(
                "--output",
                default=None,
                help="write the repaired snapshot here instead of in place",
            )
        sp.set_defaults(func=func)

    p = sub.add_parser(
        "agent",
        help="durable maintenance agent: run, inspect, and feed its job queue",
    )
    agent_sub = p.add_subparsers(dest="agent_command", required=True)

    def _add_agent_queue_arguments(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("queue", help="path of the durable job-queue log")
        sp.add_argument(
            "--lease",
            type=float,
            default=30.0,
            help="lease duration in seconds for claimed jobs",
        )

    sp = agent_sub.add_parser(
        "run", help="consume the queue until stopped (or --max-jobs resolved)"
    )
    _add_agent_queue_arguments(sp)
    sp.add_argument(
        "--catalog",
        default=None,
        help="catalog snapshot rebuilds/checkpoints republish to",
    )
    sp.add_argument(
        "--journal",
        default=None,
        help="maintenance journal checkpointed with snapshot writes",
    )
    sp.add_argument(
        "--max-jobs",
        type=int,
        default=None,
        help="resolve at most N jobs, then exit (drain mode: an empty "
        "queue also exits)",
    )
    sp.add_argument("--buckets", type=int, default=16)
    sp.add_argument(
        "--name", default="maintenance-agent", help="worker name on claims"
    )
    sp.add_argument("--drift-threshold", type=float, default=0.5)
    sp.add_argument("--drift-min-observations", type=int, default=20)
    sp.set_defaults(func=_cmd_agent_run)

    sp = agent_sub.add_parser(
        "status",
        help="read-only queue report (exit 3 on log damage, 4 on I/O error)",
    )
    _add_agent_queue_arguments(sp)
    sp.add_argument(
        "--all",
        action="store_true",
        help="also list completed jobs (hidden by default)",
    )
    sp.set_defaults(func=_cmd_agent_status)

    sp = agent_sub.add_parser("enqueue", help="durably add one job")
    _add_agent_queue_arguments(sp)
    sp.add_argument(
        "kind",
        choices=("rebuild", "checkpoint", "quarantine-repair", "drift-audit"),
    )
    sp.add_argument("--relation", default=None)
    sp.add_argument("--attribute", default=None)
    sp.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="drift-audit override for the mean-relative-error line",
    )
    sp.add_argument(
        "--dedupe-key",
        default=None,
        help="idempotency key (rebuilds default to rebuild:REL.ATTR)",
    )
    sp.set_defaults(func=_cmd_agent_enqueue)

    sp = agent_sub.add_parser(
        "dead-letter", help="list the dead-letter lane or requeue out of it"
    )
    _add_agent_queue_arguments(sp)
    sp.add_argument(
        "--requeue",
        metavar="JOB_ID",
        default=None,
        help="return this dead job to the pending lane, attempts reset",
    )
    sp.set_defaults(func=_cmd_agent_dead_letter)

    p = sub.add_parser("lint", help="run repolint, the project static analyzer")
    p.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package "
        "and benchmarks/ when present)",
    )
    p.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings as well as errors (CI mode)",
    )
    p.add_argument(
        "--rules",
        metavar="CODES",
        help="comma-separated rule codes to run, e.g. R001,R003",
    )
    p.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule with its severity and summary, then exit",
    )
    p.add_argument(
        "--format",
        choices=("text", "sarif"),
        default="text",
        help="report format: human-readable text (default) or SARIF 2.1.0 "
        "for GitHub code scanning",
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="lint files with N worker processes (tree-wide rules such as "
        "R010 still merge in the parent)",
    )
    p.add_argument(
        "--changed",
        nargs="?",
        const=None,
        default=False,
        metavar="BASE",
        help="lint only files differing from git merge-base with BASE "
        "(default HEAD: staged, unstaged, and untracked files)",
    )
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser("arrangements", help="Section 3.1 arrangement study")
    p.add_argument("--total", type=float, default=1000.0)
    p.add_argument("--domain", type=int, default=6)
    p.add_argument("--z-left", type=float, default=1.0)
    p.add_argument("--z-right", type=float, default=2.0)
    p.add_argument("--buckets", type=int, default=3)
    p.add_argument("--max-arrangements", type=int, default=720)
    p.add_argument("--seed", type=int, default=1995)
    p.set_defaults(func=_cmd_arrangements)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
