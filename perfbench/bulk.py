"""``bulk``: 10k-probe ``estimate_batch`` sweeps, in process, no codec.

The bypass twin of ``wire``: the same service entry point without the
network, over 16 columns whose compiled tables sit on both sides of
``TREE_INDEX_MIN_SIZE`` (4096 codes) and well inside the 256-table LRU,
so the steady state never compiles.  About 1% of the probes are
unanswerable (an unknown relation or a quarantined column), so the
degradation ladder runs on every batch.
"""

from __future__ import annotations

import itertools
import time
from typing import Optional

import numpy as np

from data import counts_of, prefix_of, range_truth, rng, zipf_column
from harness import Recorder, qerror
from workload import Workload, bit_equal

from repro import obs
from repro.core.frequency import AttributeDistribution
from repro.core.optimality import self_join_error, self_join_size
from repro.engine.analyze import analyze_relation
from repro.engine.catalog import StatsCatalog
from repro.engine.relation import Relation
from repro.serve import EqualityProbe, EstimationService, JoinProbe, ProbeFrame, RangeProbe

ROWS = 20_000
BUCKETS = 16
BATCH_PROBES = 10_000
DISTINCT_BATCHES = 6
#: (domain, Zipf skew) per end-biased column.  Large low-skew domains
#: compile to tables of more than 4096 codes; the first four (M <= 1000)
#: also get a serial V-OptHist copy, for 16 columns in all.
COLUMNS = (
    (100, 1.2), (250, 1.0), (500, 0.9), (1000, 0.8),
    (1500, 0.7), (2500, 0.6), (3500, 0.5), (5000, 0.3),
    (7000, 0.2), (9000, 0.1), (12000, 0.0), (16384, 0.0),
)
SERIAL_MAX_DOMAIN = 1000
QUARANTINED = ("BQ", "a")
UNKNOWN = "NO_SUCH_RELATION"
#: Probe mix: equality, range, join; the rest is unanswerable.
MIX = (0.58, 0.40, 0.01)
LARGE_TABLE = 4096


class Bulk(Workload):
    name = "bulk"

    def __init__(self, seed: int, tmpdir, acct) -> None:
        super().__init__(seed, tmpdir, acct)
        gen = rng(seed, "bulk")
        # (relation, attribute) -> (column, domain, kind)
        self.columns: dict[tuple[str, str], tuple[np.ndarray, int, str]] = {}
        for index, (domain, skew) in enumerate(COLUMNS):
            column = zipf_column(gen, ROWS, domain, skew)
            relation = f"B{index:02d}"
            self.columns[(relation, "a")] = (column, domain, "end-biased")
            if domain <= SERIAL_MAX_DOMAIN:
                self.columns[(relation, "s")] = (column, domain, "serial")
        self.quarantined_column = zipf_column(gen, ROWS, 100, 1.0)
        self.keys = list(self.columns)
        self.counts = {k: counts_of(c, d) for k, (c, d, _) in self.columns.items()}
        self.prefix = {k: prefix_of(v) for k, v in self.counts.items()}
        self.distinct = {k: int(np.count_nonzero(v)) for k, v in self.counts.items()}
        self.batches = []
        self.truths = []
        for _ in range(DISTINCT_BATCHES):
            probes, truth = self._batch(gen)
            self.batches.append(probes)
            self.truths.append(truth)
        self.expected: list[np.ndarray] = []
        self._turn = itertools.count()
        self.service: Optional[EstimationService] = None
        self.relations: dict[str, Relation] = {}
        self.degradations: dict[str, int] = {}
        self._first: Optional[np.ndarray] = None

    # -- inputs -----------------------------------------------------------

    def _batch(self, gen: np.random.Generator) -> tuple[list, np.ndarray]:
        kinds = gen.random(BATCH_PROBES)
        picks = gen.integers(0, len(self.keys), size=(BATCH_PROBES, 2))
        draws = gen.random((BATCH_PROBES, 2))
        probes = []
        truth = np.full(BATCH_PROBES, np.nan)
        for i in range(BATCH_PROBES):
            key = self.keys[picks[i, 0]]
            column, domain, _ = self.columns[key]
            if kinds[i] < MIX[0]:
                value = int(column[int(draws[i, 0] * ROWS)])
                probes.append(EqualityProbe(key[0], key[1], value))
                truth[i] = self.counts[key][value]
            elif kinds[i] < MIX[0] + MIX[1]:
                low, high = sorted(int(d * domain) for d in draws[i])
                probes.append(RangeProbe(key[0], key[1], low, high))
                truth[i] = range_truth(self.prefix[key], low, high)
            elif kinds[i] < sum(MIX):
                other = self.keys[picks[i, 1]]
                probes.append(JoinProbe(key[0], key[1], other[0], other[1]))
                a, b = self.counts[key], self.counts[other]
                n = min(a.size, b.size)
                truth[i] = float(np.dot(a[:n], b[:n]))
            elif draws[i, 0] < 0.5:
                probes.append(EqualityProbe(UNKNOWN, "a", 1))
            else:
                probes.append(EqualityProbe(QUARANTINED[0], QUARANTINED[1], 1))
        return probes, truth

    # -- system under test -------------------------------------------------

    def setup(self) -> None:
        catalog = StatsCatalog()
        relations = {}
        by_relation: dict[str, list[tuple[str, str]]] = {}
        for (relation, attribute), (_, _, kind) in self.columns.items():
            by_relation.setdefault(relation, []).append((attribute, kind))
        for relation, attributes in by_relation.items():
            column = self.columns[(relation, "a")][0].tolist()
            table = Relation.from_columns(relation, {a: column for a, _ in attributes})
            for attribute, kind in attributes:
                analyze_relation(table, attribute, catalog, kind=kind, buckets=BUCKETS)
            relations[relation] = table
        quarantined = Relation.from_columns(
            QUARANTINED[0], {QUARANTINED[1]: self.quarantined_column.tolist()}
        )
        analyze_relation(quarantined, QUARANTINED[1], catalog, buckets=BUCKETS)
        service = EstimationService(catalog, name="perfbench-bulk")
        service.quarantine(*QUARANTINED)
        first = service.estimate_batch(self.batches[0])
        if self._first is not None:
            self.acct.record(
                "setup", bit_equal(first, self._first), "rebuilt service answered differently"
            )
        else:
            self.acct.record("setup", first.shape == (BATCH_PROBES,), "short answer")
            self._first = first
        self.service = service
        self.relations = relations

    def teardown(self) -> None:
        if self.service is not None:
            self.degradations = dict(self.service.stats().degradation_reasons)
        self.service = None
        self.relations = {}

    def check_before(self) -> None:
        service = self.service
        for k, probes in enumerate(self.batches):
            listed = service.estimate_batch(probes)
            framed = service.estimate_batch(ProbeFrame.from_probes(probes))
            self.acct.record("checks", bit_equal(listed, framed), f"batch {k}: list != frame")
            self.expected.append(listed)
            for i in range(0, BATCH_PROBES, 97):
                scalar = _scalar(service, probes[i])
                if scalar is not None:
                    self.acct.record(
                        "checks",
                        bit_equal(np.array([scalar]), listed[i : i + 1]),
                        f"batch {k} probe {i}: scalar != batch",
                    )
        self.acct.record(
            "checks", bit_equal(self.expected[0], self._first), "setup answer != checked answer"
        )

    def request(self, rec: Optional[Recorder]) -> tuple[float, int]:
        k = next(self._turn) % DISTINCT_BATCHES
        probes = self.batches[k]
        started = time.perf_counter()
        if rec is None:
            out = self.service.estimate_batch(probes)
        else:
            with rec.span("bulk.request", rec.new_request()):
                with rec.span("frame.build"):
                    frame = ProbeFrame.from_probes(probes)
                with rec.span("serve.answer"):
                    out = self.service.estimate_batch(frame)
        latency = time.perf_counter() - started
        self.acct.record("window", bit_equal(out, self.expected[k]), f"batch {k} answer changed")
        return latency, BATCH_PROBES

    def qerrors(self) -> list[float]:
        out = []
        for expected, truth in zip(self.expected, self.truths):
            for e, a in zip(expected.tolist(), truth.tolist()):
                if a == a:  # unanswerable probes carry no truth
                    out.append(qerror(e, a))
        return out

    def degraded(self) -> dict[str, int]:
        return self.degradations

    # -- per-layer ---------------------------------------------------------

    def layers(self, rec: Recorder) -> dict[str, tuple[float, str]]:
        service = self.service
        probes = self.batches[0]
        out = {
            "frame.build_ms": (rec.median_self("frame.build"), "ms"),
            "serve.answer_ms": (rec.median_self("serve.answer"), "ms"),
            "frame.groups_per_batch": (
                float(np.median([ProbeFrame.from_probes(b).group_count for b in self.batches])),
                "count",
            ),
        }
        # Single-kind frames: the answer sweep per probe shape.
        shapes = {"eq": [], "range_small": [], "range_large": [], "join": [], "degraded": []}
        for batch in self.batches:
            for probe in batch:
                shapes[self._shape(probe)].append(probe)
        frames = {shape: ProbeFrame.from_probes(ps) for shape, ps in shapes.items()}
        for _ in range(9):
            for shape, frame in frames.items():
                with rec.span(f"serve.shape.{shape}"):
                    service.estimate_batch(frame)
        for shape, scale, unit in (
            ("eq", 1e9, "ns"), ("range_small", 1e9, "ns"), ("range_large", 1e9, "ns"),
            ("join", 1e6, "us"), ("degraded", 1e9, "ns"),
        ):
            per_probe = rec.median_self(f"serve.shape.{shape}", scale) / len(frames[shape])
            out[f"serve.{shape}_{unit}_per_probe"] = (per_probe, unit)
        one = [probes[0]]
        for _ in range(200):
            with rec.span("serve.call"):
                service.estimate_batch(one)
        out["serve.call_us"] = (rec.median_self("serve.call", 1e6), "us")
        stats = service.stats()
        out["serve.degraded_frac"] = (stats.degraded_probes / stats.probes_served, "ratio")
        # Instrumentation on vs off, interleaved on one frame.
        frame = ProbeFrame.from_probes(probes)
        for _ in range(15):
            for enabled in (True, False):
                previous = obs.set_instrumentation(enabled)
                try:
                    with rec.span(f"obs.instrumentation.{'on' if enabled else 'off'}"):
                        service.estimate_batch(frame)
                finally:
                    obs.set_instrumentation(previous)
        on = rec.median_self("obs.instrumentation.on")
        off = rec.median_self("obs.instrumentation.off")
        out["obs.overhead_frac"] = (on / off - 1.0, "ratio")
        # First touch after invalidate(): one compile per column.
        for _ in range(3):
            service.invalidate()
            for key in self.keys:
                band = "large" if self.distinct[key] >= LARGE_TABLE else "small"
                with rec.span(f"tables.compile.{band}"):
                    service.estimate_batch(
                        [EqualityProbe(key[0], key[1], 0), RangeProbe(key[0], key[1], 0, 1)]
                    )
        for band in ("small", "large"):
            out[f"tables.compile_ms.{band}"] = (rec.median_self(f"tables.compile.{band}"), "ms")
        # ANALYZE and its Matrix step on the workload's own columns.
        scratch = StatsCatalog()
        for key, (column, _, kind) in self.columns.items():
            values = column.tolist()
            with rec.span("engine.matrix"):
                AttributeDistribution.from_column(values)
            with rec.span(f"engine.analyze.{kind}"):
                analyze_relation(self.relations[key[0]], key[1], scratch, kind=kind, buckets=BUCKETS)
        out["engine.matrix_ms"] = (rec.median_self("engine.matrix"), "ms")
        for kind in ("end-biased", "serial"):
            out[f"engine.analyze_ms.{kind}"] = (rec.median_self(f"engine.analyze.{kind}"), "ms")
        errors = []
        for key in self.keys:
            histogram = service.catalog.get(*key).histogram
            freqs = self.counts[key][self.counts[key] > 0].astype(np.float64)
            errors.append(self_join_error(histogram) / self_join_size(freqs))
        out["core.selfjoin_rel_error"] = (float(np.median(errors)), "ratio")
        return out

    def _shape(self, probe) -> str:
        if isinstance(probe, JoinProbe):
            return "join"
        key = (probe.relation, probe.attribute)
        if key not in self.distinct:
            return "degraded"
        if isinstance(probe, RangeProbe):
            return "range_large" if self.distinct[key] >= LARGE_TABLE else "range_small"
        return "eq"


def _scalar(service: EstimationService, probe) -> Optional[float]:
    """The scalar-method answer to *probe* (None for unanswerable ones)."""
    if isinstance(probe, EqualityProbe):
        if probe.relation == UNKNOWN:
            return None
        return service.estimate_equality(probe.relation, probe.attribute, probe.value)
    if isinstance(probe, RangeProbe):
        return service.estimate_range(probe.relation, probe.attribute, probe.low, probe.high)
    return service.estimate_join(
        probe.left_relation, probe.left_attribute, probe.right_relation, probe.right_attribute
    )
