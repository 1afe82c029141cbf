"""Tests for repro.experiments.timing — Table 1 machinery."""

import pytest

from repro.experiments import timing
from repro.experiments.config import TimingExperimentConfig
from repro.experiments.timing import construction_timing_table, time_construction

FAST = TimingExperimentConfig(
    serial_sizes=(10, 14),
    serial_buckets=(3,),
    end_biased_sizes=(100, 1000),
    end_biased_buckets=10,
    repeats=1,
)


class TestTimeConstruction:
    def test_returns_positive_seconds(self):
        seconds = time_construction(lambda: sum(range(1000)), repeats=2)
        assert seconds >= 0

    def test_repeats_validated(self):
        with pytest.raises(ValueError):
            time_construction(lambda: None, repeats=0)


class TestConstructionTimingTable:
    def test_rows_cover_all_sizes(self):
        rows = construction_timing_table(FAST)
        assert [r.set_size for r in rows] == [10, 14, 100, 1000]

    def test_serial_timed_only_for_serial_sizes(self):
        rows = construction_timing_table(FAST)
        by_size = {r.set_size: r for r in rows}
        assert by_size[10].serial_seconds[3] is not None
        assert by_size[100].serial_seconds[3] is None

    def test_end_biased_timed_only_for_its_sizes(self):
        rows = construction_timing_table(FAST)
        by_size = {r.set_size: r for r in rows}
        assert by_size[100].end_biased_seconds is not None
        assert by_size[10].end_biased_seconds is None

    def test_serial_dp_timed_beside_end_biased_up_to_its_cap(self, monkeypatch):
        monkeypatch.setattr(timing, "SERIAL_DP_MAX_SIZE", 100)
        by_size = {r.set_size: r for r in construction_timing_table(FAST)}
        assert by_size[100].serial_dp_seconds is not None
        assert by_size[1000].serial_dp_seconds is None
        assert by_size[10].serial_dp_seconds is None

    def test_partition_counts_recorded(self):
        rows = construction_timing_table(FAST)
        by_size = {r.set_size: r for r in rows}
        assert by_size[10].serial_partitions[3] == 36  # C(9, 2)

    def test_infeasible_serial_skipped(self):
        config = TimingExperimentConfig(
            serial_sizes=(40,), serial_buckets=(5,), end_biased_sizes=(), repeats=1
        )
        rows = construction_timing_table(config, max_partitions=1000)
        assert rows[0].serial_seconds[5] is None
        assert rows[0].serial_partitions[5] > 1000

    def test_blowup_shape(self):
        """The Table 1 shape: serial cost explodes with M, end-biased stays flat."""
        config = TimingExperimentConfig(
            serial_sizes=(10, 18),
            serial_buckets=(4,),
            end_biased_sizes=(1_000, 100_000),
            repeats=1,
        )
        rows = construction_timing_table(config)
        by_size = {r.set_size: r for r in rows}
        small_serial = by_size[10].serial_seconds[4]
        big_serial = by_size[18].serial_seconds[4]
        assert big_serial > small_serial  # C(17,3)=680 vs C(9,3)=84
        eb_small = by_size[1_000].end_biased_seconds
        eb_big = by_size[100_000].end_biased_seconds
        # End-biased is near-linear: 100x data < 1000x time (loose sanity).
        assert eb_big < max(eb_small, 1e-4) * 1000
