"""Join products as compiled state (``_CompiledSlot.joins``).

``EstimationService.join_entries`` keeps each two-way join product on the
left slot, keyed by the partner's (relation, attribute) and version.  The
contract pinned here: a long-lived service answers every join exactly as
a freshly built service over the same catalog would, bit for bit, through
any sequence of re-publishes, drops, quarantines, invalidations and LRU
evictions, under every ``on_error`` policy.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.biased import v_opt_bias_hist
from repro.engine.catalog import CatalogEntry, CompactEndBiased, StatsCatalog
from repro.serve import ON_ERROR_POLICIES, EstimationService, JoinProbe

KEYS = (("L", "a"), ("R", "a"), ("S", "a"))
UNKNOWN = ("Z", "a")
#: Probed by the ``evict`` op to push every joined slot out of the LRU.
FILLERS = (("F0", "a"), ("F1", "a"))
SHAPES = ("histogram", "compact", "uniform")
MAX_TABLES = 2


def _entry(key: tuple[str, str], shape: str, seed: int) -> CatalogEntry:
    """Statistics for *key* that take one rung of the join ladder each.

    ``histogram`` joins through ``join_with`` (or the derived compact
    view against a compact partner), ``compact`` through the explicit /
    remainder rule, ``uniform`` through ``|L|·|R| / max(d_L, d_R)``.
    """
    gen = np.random.default_rng(seed)
    values = sorted(gen.choice(10, size=6, replace=False).tolist())
    freqs = sorted(gen.integers(1, 50, size=6).astype(np.float64).tolist(), reverse=True)
    total = float(sum(freqs))
    relation, attribute = key
    if shape == "histogram":
        hist = v_opt_bias_hist(freqs, 3, values=values)
        return CatalogEntry(relation, attribute, "end-biased", hist, None, 6, total)
    if shape == "compact":
        rest = freqs[2:]
        compact = CompactEndBiased(
            dict(zip(values[:2], freqs[:2])), len(rest), sum(rest) / len(rest)
        )
        return CatalogEntry(relation, attribute, "sampled", None, compact, 6, total)
    return CatalogEntry(relation, attribute, "uniform", None, None, 6, total)


def _answer(service: EstimationService, method: str, left, right):
    """One join through *method*: ``("ok", bytes)`` or the raised type."""
    try:
        if method == "scalar":
            value = service.estimate_join(*left, *right)
        elif method == "batch":
            value = service.estimate_batch([JoinProbe(*left, *right)])[0]
        else:
            value = service.join_entries(
                service.catalog.get(*left), service.catalog.get(*right)
            )
    except Exception as exc:
        return ("raised", type(exc).__name__)
    return ("ok", np.float64(value).tobytes())


key_st = st.sampled_from(KEYS)
method_st = st.sampled_from(("scalar", "batch", "entries"))
join_st = st.tuples(st.just("join"), method_st, key_st, key_st)
op_st = st.one_of(
    # Joins are listed three times so repeated pairs, with a re-publish
    # in between, are common.
    join_st,
    join_st,
    join_st,
    st.tuples(
        st.just("join"), st.sampled_from(("scalar", "batch")), key_st, st.just(UNKNOWN)
    ),
    st.tuples(st.just("put"), key_st, st.sampled_from(SHAPES), st.integers(0, 50)),
    st.tuples(st.just("recreate"), key_st, st.sampled_from(SHAPES), st.integers(0, 50)),
    st.tuples(st.just("quarantine"), key_st),
    st.tuples(st.just("clear"), key_st),
    st.tuples(st.just("invalidate")),
    st.tuples(st.just("evict")),
)


@settings(max_examples=300, deadline=None)
@given(
    policy=st.sampled_from(ON_ERROR_POLICIES),
    shapes=st.tuples(*(st.sampled_from(SHAPES) for _ in KEYS)),
    ops=st.lists(op_st, min_size=1, max_size=30),
)
def test_memo_matches_a_fresh_service(policy, shapes, ops):
    catalog = StatsCatalog()
    for index, (key, shape) in enumerate(zip(KEYS, shapes)):
        catalog.put(_entry(key, shape, index))
    for key in FILLERS:
        catalog.put(_entry(key, "histogram", 99))
    service = EstimationService(catalog, max_tables=MAX_TABLES, on_error=policy)
    held: set[tuple[str, str]] = set()
    for op in ops:
        if op[0] == "join":
            _, method, left, right = op
            fresh = EstimationService(catalog, max_tables=MAX_TABLES, on_error=policy)
            for key in held:
                fresh.quarantine(*key)
            assert _answer(service, method, left, right) == _answer(
                fresh, method, left, right
            ), op
        elif op[0] == "put":
            catalog.put(_entry(op[1], op[2], op[3]))
        elif op[0] == "recreate":
            # A dropped key keeps a tombstone, so the re-created entry
            # continues the version sequence instead of restarting it.
            catalog.drop(*op[1])
            catalog.put(_entry(op[1], op[2], op[3]))
        elif op[0] == "quarantine":
            service.quarantine(*op[1])
            held.add(op[1])
        elif op[0] == "clear":
            service.clear_quarantine(*op[1])
            held.discard(op[1])
        elif op[0] == "evict":
            for key in FILLERS:
                service.estimate_equality(*key, 1)
        else:
            service.invalidate()
    assert service.cached_tables <= MAX_TABLES


def _service_over(shapes: dict[str, str]) -> EstimationService:
    catalog = StatsCatalog()
    for index, (relation, shape) in enumerate(shapes.items()):
        catalog.put(_entry((relation, "a"), shape, index))
    return EstimationService(catalog)


class TestJoinProductMemo:
    def test_second_join_reuses_the_product(self):
        service = _service_over({"L": "histogram", "R": "histogram"})
        first = service.estimate_join("L", "a", "R", "a")
        again = service.estimate_batch([JoinProbe("L", "a", "R", "a")] * 3)
        assert np.array_equal(again, np.full(3, first))
        stats = service.stats()
        # One join group of three probes shares one product.
        assert (stats.join_products_computed, stats.join_products_reused) == (1, 1)

    def test_republished_partner_keeps_one_entry(self):
        service = _service_over({"L": "histogram", "R": "histogram"})
        catalog = service.catalog
        answers = [service.estimate_join("L", "a", "R", "a")]
        for publish in range(50):
            catalog.put(_entry(("R", "a"), "histogram", 100 + publish))
            answers.append(service.estimate_join("L", "a", "R", "a"))
            fresh = EstimationService(catalog).estimate_join("L", "a", "R", "a")
            assert answers[-1] == fresh
        stats = service.stats()
        assert stats.join_products_computed == 51
        assert stats.join_products_reused == 0
        assert len(service._slots[("L", "a")].joins) == 1
        assert len(set(answers)) > 1  # the republishes did change the product


class TestJoinProductMetrics:
    def test_snapshot_as_dict_and_export(self):
        service = _service_over({"L": "histogram", "R": "histogram"})
        service.estimate_join("L", "a", "R", "a")
        service.estimate_join("L", "a", "R", "a")
        snapshot = service.stats()
        snapshot.join_products_reused = 99
        live = service.stats()
        assert (live.join_products_computed, live.join_products_reused) == (1, 1)
        flat = live.as_dict()
        assert flat["join_products_computed"] == 1
        assert flat["join_products_reused"] == 1
        samples = {
            dict(sample.labels)["outcome"]: sample.value
            for sample in service.metrics.collect(service="memo")
            if sample.name == "repro_serve_join_products_total"
        }
        assert samples == {"computed": 1.0, "reused": 1.0}
