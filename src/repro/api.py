"""The blessed one-import surface of the reproduction.

``repro.api`` re-exports the stable names an application needs, grouped by
layer, so downstream code can write::

    from repro import api

    freqs = api.zipf_frequencies(total=10_000, domain_size=200, z=1.0)
    hist = api.v_opt_bias_hist(freqs, buckets=10, values=range(200))
    mass = api.estimate_range(hist, 5, 50)

or import the names directly (``from repro.api import EstimationService``).
A name leaves this surface only with a note in ``docs/API.md`` ("Removed
names") saying what replaces it.  Internal modules (``repro.core.*``,
``repro.serve.tables``, ...) remain importable but offer no such promise.

Layers
------
* **frequency data** — Zipf generators and distributions (Section 2);
* **histograms** — the taxonomy and construction algorithms (Sections 3-4);
* **estimation** — scalar result-size estimators over value-aware
  histograms (Sections 2.2, 5.2, 6);
* **engine** — relations, ANALYZE, and the statistics catalog;
* **serving** — compiled lookup tables and batched estimation
  (:class:`EstimationService`), the layer every estimator answers through;
* **network serving** — the wire boundary around the service
  (:class:`EstimationServer`, the sync/async client SDK, and the
  versioned wire schema; see ``docs/NETWORK.md``);
* **optimizer / SQL** — cardinality estimation, planning, and the
  in-memory :class:`Database`.
"""

from __future__ import annotations

# Frequency data ------------------------------------------------------------
from repro.core.frequency import AttributeDistribution, FrequencySet
from repro.data.zipf import zipf_frequencies

# Histograms ----------------------------------------------------------------
from repro.core.biased import end_biased_histogram, v_opt_bias_hist
from repro.core.heuristic import (
    equi_depth_histogram,
    equi_width_histogram,
    trivial_histogram,
)
from repro.core.histogram import Histogram
from repro.core.serial import (
    v_opt_hist_dp,
    v_opt_hist_exhaustive,
    v_optimal_serial_histogram,
)

# Estimation ----------------------------------------------------------------
from repro.core.estimator import (
    approximate_chain,
    estimate_chain,
    estimate_equality,
    estimate_join,
    estimate_membership,
    estimate_not_equal,
    estimate_range,
    estimate_self_join,
    relative_error,
)

# Engine --------------------------------------------------------------------
from repro.engine.analyze import analyze_database, analyze_relation
from repro.engine.catalog import CatalogEntry, CompactEndBiased, StatsCatalog
from repro.engine.relation import Relation

# Maintenance ---------------------------------------------------------------
from repro.maint.update import MaintainedEndBiased, MaintenancePolicy

# Serving -------------------------------------------------------------------
from repro.serve import (
    ON_ERROR_POLICIES,
    EqualityProbe,
    EstimationService,
    JoinProbe,
    Probe,
    ProbeTrace,
    RangeProbe,
    ServiceMetrics,
    compile_histogram,
)

# Network serving ------------------------------------------------------------
from repro.net import (
    WIRE_SCHEMA_VERSION,
    AsyncEstimationClient,
    EstimationClient,
    EstimationServer,
    TenantConfig,
    connect,
    connect_async,
    probe_from_wire,
    probe_to_wire,
    probes_from_wire,
    probes_to_wire,
    serve_in_thread,
)

# Optimizer and SQL ---------------------------------------------------------
from repro.optimizer.cardinality import CardinalityEstimator
from repro.sql.database import Database
from repro.sql.planner import plan_query

__all__ = [
    # frequency data
    "AttributeDistribution",
    "FrequencySet",
    "zipf_frequencies",
    # histograms
    "Histogram",
    "end_biased_histogram",
    "equi_depth_histogram",
    "equi_width_histogram",
    "trivial_histogram",
    "v_opt_bias_hist",
    "v_opt_hist_dp",
    "v_opt_hist_exhaustive",
    "v_optimal_serial_histogram",
    # estimation
    "approximate_chain",
    "estimate_chain",
    "estimate_equality",
    "estimate_join",
    "estimate_membership",
    "estimate_not_equal",
    "estimate_range",
    "estimate_self_join",
    "relative_error",
    # engine
    "CatalogEntry",
    "CompactEndBiased",
    "Relation",
    "StatsCatalog",
    "analyze_database",
    "analyze_relation",
    # maintenance
    "MaintainedEndBiased",
    "MaintenancePolicy",
    # serving
    "ON_ERROR_POLICIES",
    "EqualityProbe",
    "EstimationService",
    "JoinProbe",
    "Probe",
    "ProbeTrace",
    "RangeProbe",
    "ServiceMetrics",
    "compile_histogram",
    # network serving
    "WIRE_SCHEMA_VERSION",
    "AsyncEstimationClient",
    "EstimationClient",
    "EstimationServer",
    "TenantConfig",
    "connect",
    "connect_async",
    "probe_from_wire",
    "probe_to_wire",
    "probes_from_wire",
    "probes_to_wire",
    "serve_in_thread",
    # optimizer / SQL
    "CardinalityEstimator",
    "Database",
    "plan_query",
]
