"""``churn``: the build path, with journaled writes beside reads.

Eight ~50k-row columns each get a journaled ``MaintainedEndBiased``.
The WAL lives in the run's temp dir inside the checkout, with the
default fsync on every append.  Each round writes a batch of deltas
that heats one cold value per column, then reads a 500-probe batch.
When ``needs_rebuild()`` fires (on ``update_fraction`` or on a
promotion), the round rebuilds that column from exact counts and
publishes it, and the next read pays the table compile.  Every few
publishes the catalog is saved and the journal checkpointed.
"""

from __future__ import annotations

import itertools
import time
from pathlib import Path
from typing import Optional

import numpy as np

from data import counts_of, rng, zipf_column
from harness import Recorder, null_span, tail_pct
from workload import Workload

from repro import obs
from repro.core.biased import v_opt_bias_hist
from repro.core.frequency import AttributeDistribution
from repro.core.serial import v_optimal_serial_histogram
from repro.engine.catalog import StatsCatalog
from repro.engine.journal import MaintenanceJournal
from repro.engine.persist import save_catalog
from repro.maint.update import MaintainedEndBiased, MaintenancePolicy
from repro.serve import EqualityProbe, EstimationService

ROWS = 50_000
DOMAINS = (500, 700, 900, 1000, 1300, 1600, 2000, 2500)
SKEWS = (1.4, 1.2, 1.0, 0.9, 0.7, 0.5, 0.3, 0.2)
BUCKETS = 16
WRITE_DELTAS = 8
READ_PROBES = 500
READ_BATCHES = 64
#: Share of deltas that insert the column's heated cold value; of the
#: rest, half insert a value drawn from the column, half delete one.
HEAT_SHARE = 0.5
#: Hottest explicit values of a republished column checked on the read.
HOT_CHECKED = 4
POLICY = MaintenancePolicy(update_fraction=0.005, watch_promotions=True)
SAVE_EVERY = 8
#: Rounds whose reads are scored for q-error (deterministic per seed).
QERROR_ROUNDS = 200
SERIAL_DOMAIN = 1000
POOL = 1 << 16


class Churn(Workload):
    name = "churn"

    def __init__(self, seed: int, tmpdir: Path, acct) -> None:
        super().__init__(seed, tmpdir, acct)
        gen = rng(seed, "churn")
        self.columns = [
            zipf_column(gen, ROWS, d, z) for d, z in zip(DOMAINS, SKEWS)
        ]
        self.width = max(DOMAINS)
        # Row-weighted value pools: inserts draw from them, deletes too.
        self.pools = np.stack([c[gen.integers(0, ROWS, size=POOL)] for c in self.columns])
        self.read_cols = gen.integers(0, len(DOMAINS), size=(READ_BATCHES, READ_PROBES))
        picks = gen.integers(0, POOL, size=(READ_BATCHES, READ_PROBES))
        self.read_vals = self.pools[self.read_cols, picks]
        self.reads = [
            [EqualityProbe(f"C{c}", "a", int(v)) for c, v in zip(cols, vals)]
            for cols, vals in zip(self.read_cols.tolist(), self.read_vals.tolist())
        ]
        self.snapshot = tmpdir / "catalog.json"
        self._setups = itertools.count()
        self.service: Optional[EstimationService] = None
        self.degradations: dict[str, int] = {}
        self._reset_counters()

    def _reset_counters(self) -> None:
        self.round = 0
        self.deltas = 0
        self.rebuilds = 0
        self.publishes = 0
        self.trips = {"update_fraction": 0, "promotion": 0}
        self.refresh_s: list[float] = []
        self.qerrors_: list[float] = []
        self.traced_deltas = 0
        self.traced_fsyncs = 0.0

    # -- system under test -------------------------------------------------

    def setup(self) -> None:
        # The delta stream (and the values it heats) restarts with every
        # set-up, so the window's rounds do not depend on how many ran.
        self.gen = rng(self.seed, "churn-stream")
        journal = MaintenanceJournal(self.tmpdir / f"wal-{next(self._setups)}.jsonl")
        catalog = StatsCatalog()
        self.maintained = []
        for c, column in enumerate(self.columns):
            distribution = AttributeDistribution.from_column(column.tolist())
            m = MaintainedEndBiased(
                distribution, BUCKETS, policy=POLICY, journal=journal,
                relation=f"C{c}", attribute="a",
            )
            m.publish(catalog, f"C{c}", "a")
            self.maintained.append(m)
        self.journal = journal
        self.catalog = catalog
        self.service = EstimationService(catalog, name="perfbench-churn")
        self.counts = np.zeros((len(DOMAINS), self.width), dtype=np.int64)
        for c, column in enumerate(self.columns):
            self.counts[c, : DOMAINS[c]] = counts_of(column, DOMAINS[c])
        self.heated = [self._cold_value(c) for c in range(len(DOMAINS))]
        self._reset_counters()
        probes, expected = self._hot_probes(range(len(DOMAINS)))
        out = self.service.estimate_batch(probes)
        self.acct.record("setup", out.tolist() == expected, "first read != maintained state")

    def teardown(self) -> None:
        if self.service is not None:
            self.degradations = dict(self.service.stats().degradation_reasons)
        self.service = None
        self.catalog = None
        self.maintained = []
        self.journal = None

    def _cold_value(self, c: int) -> int:
        """A value of the implicit bucket to heat until it is promoted."""
        explicit = self.maintained[c].explicit
        for v in self.pools[c, self.gen.integers(0, POOL, size=64)].tolist():
            if v not in explicit:
                return v
        return int(self.pools[c, 0])

    def _hot_probes(self, columns) -> tuple[list, list[float]]:
        probes, expected = [], []
        for c in columns:
            m = self.maintained[c]
            for v in sorted(m.explicit, key=m.explicit.get, reverse=True)[:HOT_CHECKED]:
                probes.append(EqualityProbe(f"C{c}", "a", v))
                expected.append(m.estimate(v))
        return probes, expected

    # -- one round ---------------------------------------------------------

    def request(self, rec: Optional[Recorder]) -> tuple[float, int]:
        span = rec.span if rec is not None else null_span
        if rec is not None:
            fsyncs = _fsync_count()
        with span("churn.round", rec.new_request() if rec is not None else None):
            with span("churn.write"):
                tripped = self._write_batch()
            for c in tripped:
                self._refresh(c, span)
            read_started = time.perf_counter()
            k = self.round % READ_BATCHES
            hot, expected = self._hot_probes(tripped)
            with span("churn.read"):
                out = self.service.estimate_batch(self.reads[k] + hot)
            done = time.perf_counter()
        for c, started in tripped.items():
            self.refresh_s.append(done - started)
        if hot:
            served = out[READ_PROBES:].tolist()
            self.acct.record("window", served == expected, f"round {self.round}: stale hot answers")
        else:
            self.acct.record("window", out.shape == (READ_PROBES,), "short read")
        if self.round < QERROR_ROUNDS:
            truth = self.counts[self.read_cols[k], self.read_vals[k]]
            e = np.maximum(out[:READ_PROBES], 1.0)
            a = np.maximum(truth, 1).astype(np.float64)
            self.qerrors_.extend((np.maximum(e, a) / np.minimum(e, a)).tolist())
        if rec is not None:
            self.traced_deltas += WRITE_DELTAS
            self.traced_fsyncs += _fsync_count() - fsyncs
        self.round += 1
        return done - read_started, len(out)

    def _write_batch(self) -> dict[int, float]:
        """Apply one batch of journaled deltas; returns tripped columns -> trip time."""
        gen = self.gen
        cols = gen.integers(0, len(DOMAINS), size=WRITE_DELTAS).tolist()
        ops = gen.random(WRITE_DELTAS).tolist()
        picks = gen.integers(0, POOL, size=WRITE_DELTAS).tolist()
        tripped: dict[int, float] = {}
        for c, op, pick in zip(cols, ops, picks):
            m = self.maintained[c]
            value = int(self.pools[c, pick])
            if op < HEAT_SHARE:
                value = self.heated[c]
            if op >= HEAT_SHARE + (1.0 - HEAT_SHARE) / 2 and self.counts[c, value] > 0:
                m.delete(value)
                self.counts[c, value] -= 1
            else:
                m.insert(value)
                self.counts[c, value] += 1
            self.deltas += 1
            if c not in tripped and m.needs_rebuild():
                tripped[c] = time.perf_counter()
                drift = m.updates_since_build / m.total_at_build
                self.trips["update_fraction" if drift >= POLICY.update_fraction else "promotion"] += 1
        return tripped

    def _refresh(self, c: int, span) -> None:
        """Rebuild column *c* from exact counts, publish, maybe snapshot."""
        m = self.maintained[c]
        counts = self.counts[c]
        values = np.flatnonzero(counts)
        distribution = AttributeDistribution(values.tolist(), counts[values].astype(np.float64))
        with span("maint.rebuild"):
            m.rebuild(distribution)
        with span("maint.publish"):
            m.publish(self.catalog, f"C{c}", "a")
        self.rebuilds += 1
        self.publishes += 1
        if self.heated[c] in m.explicit:
            self.heated[c] = self._cold_value(c)
        if self.publishes % SAVE_EVERY == 0:
            self._snapshot(span)

    def _snapshot(self, span) -> None:
        with span("persist.save"):
            save_catalog(self.catalog, self.snapshot)
        with span("journal.checkpoint"):
            self.journal.checkpoint(self.catalog)

    # -- results -----------------------------------------------------------

    def qerrors(self) -> list[float]:
        return self.qerrors_

    def degraded(self) -> dict[str, int]:
        return self.degradations

    def extra(self, elapsed: float) -> dict[str, tuple[float, str]]:
        refresh = sorted(self.refresh_s)
        out = {
            "deltas_per_s": (self.deltas / elapsed, "deltas/s"),
            "refreshes": (len(refresh), "count"),
            "trips_update_fraction": (self.trips["update_fraction"], "count"),
            "trips_promotion": (self.trips["promotion"], "count"),
        }
        if refresh:
            out["refresh_p50_ms"] = (np.percentile(refresh, 50) * 1e3, "ms")
            pct = tail_pct(len(refresh), 95)
            out[f"refresh_p{pct:g}_ms"] = (np.percentile(refresh, pct) * 1e3, "ms")
        return out

    def layers(self, rec: Recorder) -> dict[str, tuple[float, str]]:
        for _ in range(5):
            self._snapshot(rec.span)
        scratch = MaintenanceJournal(self.tmpdir / "scratch-wal.jsonl")
        for i in range(200):
            with rec.span("journal.append"):
                scratch.append_insert("S", "a", i)
        unjournaled = MaintainedEndBiased(
            AttributeDistribution.from_column(self.columns[0].tolist()), BUCKETS, policy=POLICY
        )
        for v in self.pools[0, :2000].tolist():
            with rec.span("maint.delta"):
                unjournaled.insert(v)
        for c in range(len(DOMAINS)):
            freqs = self.counts[c][self.counts[c] > 0].astype(np.float64)
            with rec.span("core.vopt_bias"):
                v_opt_bias_hist(freqs, BUCKETS)
        serial = DOMAINS.index(SERIAL_DOMAIN)
        freqs = self.counts[serial][self.counts[serial] > 0].astype(np.float64)
        for _ in range(3):
            with rec.span("core.vopt_serial"):
                v_optimal_serial_histogram(freqs, BUCKETS, method="dp")
        return {
            "journal.append_us": (rec.median_self("journal.append", 1e6), "us"),
            "journal.fsyncs_per_delta": (self.traced_fsyncs / self.traced_deltas, "count"),
            "persist.save_ms": (rec.median_self("persist.save"), "ms"),
            "journal.checkpoint_ms": (rec.median_self("journal.checkpoint"), "ms"),
            "core.vopt_bias_ms": (rec.median_self("core.vopt_bias"), "ms"),
            "core.vopt_serial_ms": (rec.median_self("core.vopt_serial"), "ms"),
            "maint.delta_us": (rec.median_self("maint.delta", 1e6), "us"),
            "maint.rebuild_ms": (rec.median_self("maint.rebuild"), "ms"),
            "maint.publish_ms": (rec.median_self("maint.publish"), "ms"),
            "maint.rebuilds_per_kdelta": (1e3 * self.rebuilds / self.deltas, "count"),
        }


def _fsync_count() -> float:
    return obs.get_registry().counter("repro_span_total", span="journal.fsync").value

