"""Benchmark harness: report shape, slope fitting, validation."""

import pytest

from cyclocert import run_bench


class TestRunBench:
    def test_single_size_has_no_slope(self):
        report = run_bench([32], p=3, rng_seed=1)
        assert report.slope is None
        assert len(report.rows) == 1
        assert report.rows[0].verify_ms > 0

    def test_two_sizes_fit_a_slope(self):
        report = run_bench([32, 48], p=3, rng_seed=1)
        assert len(report.rows) == 2
        assert [r.bits for r in report.rows] == [32, 48]
        assert all(r.verify_ms > 0 for r in report.rows)
        assert isinstance(report.slope, float)

    def test_row_metadata(self):
        report = run_bench([40], p=3, rng_seed=3)
        row = report.rows[0]
        assert 12 <= row.n_digits <= 13  # a 40-bit integer has 12 or 13 digits
        assert row.q_digits >= row.n_digits  # q is near N^2 / k

    def test_unsorted_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_bench([64, 32])

    def test_duplicate_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_bench([32, 32])

    def test_small_sizes_rejected(self):
        with pytest.raises(ValueError):
            run_bench([16, 32])

    def test_degree5_rows_keep_requested_order(self):
        report = run_bench([32, 64, 96, 128], p=5, rng_seed=7)
        assert [r.bits for r in report.rows] == [32, 64, 96, 128]
        assert all(r.verify_ms > 0 for r in report.rows)
        # q sits near N^4, far above the N^(5/2) bound
        assert all(r.q_digits > 2 * r.n_digits for r in report.rows)
