"""Tests for repro.api — the blessed one-import surface."""

import warnings

import pytest

from repro import api

#: The pre-1.1 estimator spellings, deleted together with their
#: deprecation shims; none may come back on any public surface.
REMOVED_SPELLINGS = (
    "estimate_equality_selection",
    "estimate_in_selection",
    "estimate_not_equals",
    "estimate_range_selection",
    "estimate_join_size",
    "estimate_chain_size",
    "approximate_chain_matrices",
)


class TestSurface:
    def test_all_names_resolve(self):
        for name in api.__all__:
            assert hasattr(api, name), f"repro.api.{name} missing"

    def test_layers_present(self):
        # One representative name per layer.
        assert callable(api.zipf_frequencies)
        assert callable(api.v_opt_bias_hist)
        assert callable(api.estimate_range)
        assert callable(api.analyze_relation)
        assert callable(api.MaintainedEndBiased)
        assert callable(api.EstimationService)
        assert callable(api.CardinalityEstimator)
        assert callable(api.Database)

    def test_no_deprecated_spellings(self):
        # The removed spellings resolve on no public surface.
        import repro
        import repro.core
        import repro.core.estimator
        from repro.engine.catalog import CompactEndBiased

        for module in (api, repro, repro.core, repro.core.estimator):
            for legacy in REMOVED_SPELLINGS:
                assert legacy not in getattr(module, "__all__", ())
                assert not hasattr(module, legacy)
        assert not hasattr(CompactEndBiased, "estimate")

    def test_no_removed_options(self):
        # Options no caller set, and ServiceMetrics' own timing copies.
        import repro
        import repro.core
        import repro.core.estimator
        import repro.serve
        import repro.serve.metrics

        for module, name in (
            (api, "EstimateOptions"),
            (repro, "EstimateOptions"),
            (repro.core, "EstimateOptions"),
            (repro.core.estimator, "EstimateOptions"),
            (repro.core.estimator, "DEFAULT_ESTIMATE_OPTIONS"),
            (repro.serve, "LATENCY_BUCKET_BOUNDS"),
            (repro.serve.metrics, "latency_bucket_labels"),
        ):
            assert name not in getattr(module, "__all__", ())
            assert not hasattr(module, name), f"{module.__name__}.{name}"


class TestNoInternalDeprecatedCallers:
    def test_no_module_calls_deprecated_estimators(self):
        """No module of the package mentions a removed spelling."""
        from pathlib import Path

        import repro

        package_dir = Path(repro.__file__).resolve().parent
        # ``estimate_not_equals(`` so that ``estimate_not_equals_join`` passes.
        deprecated = tuple(
            f"{name}(" if name == "estimate_not_equals" else name
            for name in REMOVED_SPELLINGS
        )
        offenders = []
        for path in package_dir.rglob("*.py"):
            text = path.read_text(encoding="utf-8")
            for name in deprecated:
                if name in text:
                    offenders.append(f"{path.name}: {name}")
        assert not offenders, f"internal deprecated callers: {offenders}"


class TestEndToEnd:
    def test_histogram_to_estimate(self):
        freqs = api.zipf_frequencies(total=100, domain_size=10, z=1.0)
        hist = api.v_opt_bias_hist(freqs, 4, values=list(range(10)))
        eq = api.estimate_equality(hist, 0)
        mass = api.estimate_range(hist, 0, 9)
        assert eq > 0
        assert mass == pytest.approx(float(hist.approximate_frequencies().sum()))

    def test_catalog_to_service(self):
        relation = api.Relation.from_columns("R", {"a": [1] * 30 + [2] * 10})
        catalog = api.StatsCatalog()
        api.analyze_relation(relation, "a", catalog, kind="end-biased", buckets=2)
        service = api.EstimationService(catalog)
        batch = service.estimate_batch(
            [api.EqualityProbe("R", "a", 1), api.RangeProbe("R", "a", 1, 2)]
        )
        assert batch[0] == pytest.approx(30.0)
        assert batch[1] == pytest.approx(40.0)

    def test_facade_emits_no_deprecation_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            freqs = api.zipf_frequencies(total=50, domain_size=5, z=0.5)
            hist = api.v_opt_bias_hist(freqs, 2, values=list(range(5)))
            api.estimate_membership(hist, [0, 1, 1])
            api.estimate_not_equal(hist, 0)
            api.estimate_join(hist, hist)
