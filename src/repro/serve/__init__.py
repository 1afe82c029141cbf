"""Serving layer: compiled lookup tables and the batched estimation service.

The paper frames histograms as a balance between optimality and
*practicality* — the cost a system pays at lookup time (Section 4).  This
package is the reproduction's serving tier: catalog histograms are compiled
once into vectorized lookup tables, cached under the catalog's version
counters, and consulted through a batch-first API
(:meth:`EstimationService.estimate_batch`).  The optimizer, the SQL
planner, and the scalar helpers in :mod:`repro.core.estimator` all answer
through this layer, so every consumer sees the same compiled state —
and batched results are bit-identical to the scalar paths.
"""

from __future__ import annotations

from repro.serve.frame import ProbeColumns, ProbeFrame
from repro.serve.metrics import PROBE_KINDS, ServiceMetrics
from repro.serve.service import (
    DEFAULT_EQ_SELECTIVITY,
    DEFAULT_MAX_TABLES,
    DEFAULT_RANGE_SELECTIVITY,
    ON_ERROR_POLICIES,
    REASON_BACKPRESSURE,
    REASON_COMPILE_FAILED,
    REASON_QUARANTINED,
    REASON_QUOTA_EXCEEDED,
    REASON_REBUILD_IN_PROGRESS,
    EqualityProbe,
    EstimationService,
    JoinProbe,
    Probe,
    ProbeTrace,
    RangeProbe,
    TableCompileError,
)
from repro.serve.tables import (
    CompiledCompact,
    CompiledHistogram,
    compile_compact,
    compile_histogram,
)

__all__ = [
    "DEFAULT_EQ_SELECTIVITY",
    "DEFAULT_MAX_TABLES",
    "DEFAULT_RANGE_SELECTIVITY",
    "ON_ERROR_POLICIES",
    "PROBE_KINDS",
    "REASON_BACKPRESSURE",
    "REASON_COMPILE_FAILED",
    "REASON_QUARANTINED",
    "REASON_QUOTA_EXCEEDED",
    "REASON_REBUILD_IN_PROGRESS",
    "CompiledCompact",
    "CompiledHistogram",
    "EqualityProbe",
    "EstimationService",
    "JoinProbe",
    "Probe",
    "ProbeColumns",
    "ProbeFrame",
    "ProbeTrace",
    "RangeProbe",
    "ServiceMetrics",
    "TableCompileError",
    "compile_compact",
    "compile_histogram",
]
