"""Threaded stress test: concurrent readers against a publishing writer.

The serving contract under concurrency (see ``EstimationService``):

* **no lost updates** — every probe issued by every thread is counted
  exactly once in the metrics;
* **no stale-version serves** — once a catalog ``put`` (an ANALYZE /
  maintenance publish) completes, no later probe is answered from the
  previously compiled table;
* **bounded cache** — ``cached_tables <= max_tables`` at every observable
  point, even while many threads compile concurrently;
* **no stale join products** — a join product stored on a slot is served
  only for the partner version it was computed against, so readers never
  see a join answer from before a completed publish.

Run by CI alongside the ``bench_serve_batch`` smoke to catch
lock-contention and cache-coherence regressions.
"""

import sys
import threading

from repro.core.biased import v_opt_bias_hist
from repro.engine.catalog import CatalogEntry, StatsCatalog
from repro.serve import EstimationService

N_READERS = 4
N_PROBES = 300
N_PUBLISHES = 200
MAX_TABLES = 4
N_HOT_RELATIONS = 8  # twice the LRU bound, to force constant eviction
JOIN_TIMEOUT_S = 120.0
PARTNER_TOTAL = 3


def _published_entry(relation: str, total: int) -> CatalogEntry:
    """A publishable entry whose equality answer equals its publish number."""
    hist = v_opt_bias_hist([float(total)], 1, values=[1])
    return CatalogEntry(relation, "a", "biased", hist, None, 1, float(total))


def _run_threads(writer, reader) -> None:
    """Run one writer beside ``N_READERS`` readers; fail on a hang."""
    threads = [threading.Thread(target=writer, daemon=True)]
    threads += [threading.Thread(target=reader, daemon=True) for _ in range(N_READERS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT_S)
        assert not thread.is_alive(), f"{thread.name} still running: deadlock?"


def test_concurrent_readers_with_publishing_writer():
    catalog = StatsCatalog()
    catalog.put(_published_entry("W", 1))
    for index in range(N_HOT_RELATIONS):
        catalog.put(_published_entry(f"R{index}", 10 + index))
    service = EstimationService(catalog, max_tables=MAX_TABLES)

    errors: list[BaseException] = []
    start = threading.Barrier(N_READERS + 1)

    def writer():
        start.wait()
        try:
            # Publishes with strictly growing totals: 2, 3, ..., N+1.
            for publish in range(2, N_PUBLISHES + 2):
                catalog.put(_published_entry("W", publish))
        except BaseException as exc:
            errors.append(exc)

    def reader():
        start.wait()
        try:
            last = 0.0
            for index in range(N_PROBES):
                seen = service.estimate_equality("W", "a", 1)
                # Published totals only ever grow, so an answer smaller than
                # one already observed means a stale table was served.
                assert seen >= last, f"stale serve: {seen} after {last}"
                last = seen
                # Churn the LRU across more relations than it can hold.
                service.estimate_equality(f"R{index % N_HOT_RELATIONS}", "a", 1)
                assert service.cached_tables <= MAX_TABLES
        except BaseException as exc:
            errors.append(exc)

    _run_threads(writer, reader)

    assert errors == []
    # The quiesced service must serve the final published version.
    assert service.estimate_equality("W", "a", 1) == float(N_PUBLISHES + 1)
    stats = service.stats()
    # No lost metric updates: every probe counted exactly once.
    assert stats.probes_served == N_READERS * N_PROBES * 2 + 1
    assert stats.probes_served == stats.probe_type_total()
    assert service.cached_tables <= MAX_TABLES


def test_concurrent_joins_with_republishing_partner():
    """Readers join ``W`` with a fixed partner while ``W`` is republished.

    Both directions are read: ``W ⋈ P`` stores its product on ``W``'s slot
    (replaced by every publish), ``P ⋈ W`` on the fixed partner's slot,
    where only the partner-version check stands between a reader and a
    stale product.  A short switch interval makes threads interleave
    inside the join path.
    """
    catalog = StatsCatalog()
    catalog.put(_published_entry("W", 1))
    catalog.put(_published_entry("P", PARTNER_TOTAL))
    service = EstimationService(catalog, max_tables=MAX_TABLES)

    errors: list[BaseException] = []
    start = threading.Barrier(N_READERS + 1)

    def writer():
        start.wait()
        try:
            for publish in range(2, N_PUBLISHES + 2):
                catalog.put(_published_entry("W", publish))
        except BaseException as exc:
            errors.append(exc)

    def reader():
        start.wait()
        try:
            last = {("W", "P"): 0.0, ("P", "W"): 0.0}
            for _ in range(N_PROBES):
                for left, right in last:
                    seen = service.estimate_join(left, "a", right, "a")
                    # W's totals only grow, so a smaller join answer than
                    # one already observed is a stale product.
                    assert seen >= last[left, right], (
                        f"stale join {left}⋈{right}: {seen} after {last[left, right]}"
                    )
                    last[left, right] = seen
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        _run_threads(writer, reader)
    finally:
        sys.setswitchinterval(interval)

    assert errors == []
    fresh = EstimationService(catalog)
    for left, right in (("W", "P"), ("P", "W")):
        expected = fresh.estimate_join(left, "a", right, "a")
        assert service.estimate_join(left, "a", right, "a") == expected
        assert expected == float((N_PUBLISHES + 1) * PARTNER_TOTAL)
    stats = service.stats()
    assert stats.join_probes == N_READERS * N_PROBES * 2 + 2
    assert stats.join_products_computed + stats.join_products_reused == stats.join_probes
