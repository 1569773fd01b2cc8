"""Workload generators and the trace file format."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesched.domain import ValidationError
from edgesched.workload import (TraceRecord, burst_source, constant_source,
                                front_heavy_weights, load_trace, qps_at,
                                sinusoidal_source, trace_source,
                                uniform_weights, write_trace)


class TestConstant:
    def test_uniform_split(self):
        src = constant_source(100.0, 8, 1)
        np.testing.assert_allclose(qps_at(src, 0), np.full(8, 12.5))

    def test_high_load_aggregate(self):
        src = constant_source(300.0, 8, 8)
        assert qps_at(src, 7).sum() == pytest.approx(300.0, abs=1e-9)

    def test_every_step_identical(self):
        src = constant_source(100.0, 4, 1001)
        for step in (0, 1, 19, 1000):
            np.testing.assert_array_equal(qps_at(src, step), qps_at(src, 0))


class TestSinusoidal:
    def test_quarter_period_peak(self):
        src = sinusoidal_source(100.0, 50.0, 20, 8, 20)
        # step 5 of period 20 sits at sin(pi/2)
        assert qps_at(src, 5).sum() == pytest.approx(150.0, abs=1e-9)

    def test_aggregate_matches_scalar_rate(self):
        src = sinusoidal_source(100.0, 50.0, 20, 5, 40)
        for step in range(40):
            expected = 100.0 + 50.0 * math.sin(2 * math.pi * step / 20)
            assert qps_at(src, step).sum() == pytest.approx(expected, abs=1e-9)

    def test_negative_rates_clamped(self):
        src = sinusoidal_source(10.0, 50.0, 20, 3, 20)
        for step in range(20):
            assert np.all(qps_at(src, step) >= 0.0)


class TestBurst:
    def test_burst_window(self):
        src = burst_source(50.0, 400.0, burst_start=5, burst_len=3, n_services=4, rows=9)
        assert qps_at(src, 4).sum() == pytest.approx(50.0)
        for step in (5, 6, 7):
            assert qps_at(src, step).sum() == pytest.approx(400.0)
        assert qps_at(src, 8).sum() == pytest.approx(50.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make,field", [
    (lambda x: constant_source(x, 2, 1), "rate"),
    (lambda x: sinusoidal_source(x, 10.0, 20, 2, 1), "mean"),
    (lambda x: sinusoidal_source(100.0, x, 20, 2, 1), "amplitude"),
    (lambda x: burst_source(x, 200.0, 1, 2, 2, 1), "base_rate"),
    (lambda x: burst_source(50.0, x, 1, 2, 2, 1), "burst_rate"),
], ids=["constant-rate", "sinusoidal-mean", "sinusoidal-amplitude",
        "burst-base_rate", "burst-burst_rate"])
def test_generators_reject_non_finite(make, field, bad):
    with pytest.raises(ValidationError, match=f"{field} must be finite"):
        make(bad)


class TestWeights:
    def test_uniform_sums_to_one(self):
        assert uniform_weights(8).sum() == pytest.approx(1.0, abs=1e-9)

    def test_front_heavy_shape(self):
        w = front_heavy_weights(8)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.diff(w) < 0)  # strictly front-loaded
        assert w[0] == pytest.approx(0.3, abs=0.02)

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValidationError):
            constant_source(100.0, 2, 1, weights=[0.9, 0.2])
        with pytest.raises(ValidationError):
            constant_source(100.0, 2, 1, weights=[-0.5, 1.5])
        with pytest.raises(ValidationError, match="finite"):
            constant_source(100.0, 2, 1, weights=[np.nan, np.nan])

    @given(st.integers(1, 16))
    @settings(max_examples=30)
    def test_split_preserves_aggregate(self, n):
        src = constant_source(100.0, n, 1, weights=front_heavy_weights(n))
        assert qps_at(src, 0).sum() == pytest.approx(100.0, abs=1e-9)


class TestDeterminism:
    def test_same_args_same_vector(self):
        src = sinusoidal_source(100.0, 30.0, 10, 6, 4)
        a = qps_at(src, 3)
        b = qps_at(src, 3)
        np.testing.assert_array_equal(a, b)


class TestTraceFormat:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [(0, 0, 10.0), (0, 1, 5.0), (1, 0, 12.5), (1, 1, 4.0)]
        write_trace([TraceRecord(*r) for r in rows], path)
        assert path.read_text().splitlines()[0] == "step,service,qps"
        records = load_trace(path, n_services=2)
        assert [(r.step_index, r.service_id, r.qps) for r in records] == rows

    def test_records_sorted(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("step,service,qps\n1,1,4.0\n0,0,10.0\n0,1,5.0\n1,0,2.0\n")
        records = load_trace(path, n_services=2)
        keys = [(r.step_index, r.service_id) for r in records]
        assert keys == sorted(keys)

    def test_empty_file_is_empty_trace(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("step,service,qps\n")
        assert load_trace(path, n_services=2) == []

    def test_duplicate_rows_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("step,service,qps\n0,0,10.0\n0,0,11.0\n")
        with pytest.raises(ValidationError, match=r":3: duplicate"):
            load_trace(path, n_services=2)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("step,service,qps\n0,0,10.0\n0,zero,1.0\n")
        with pytest.raises(ValidationError, match=r":3:"):
            load_trace(path, n_services=2)

    def test_service_out_of_range(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("step,service,qps\n0,7,10.0\n")
        with pytest.raises(ValidationError):
            load_trace(path, n_services=2)

    def test_negative_qps_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("step,service,qps\n0,0,-1.0\n")
        with pytest.raises(ValidationError):
            load_trace(path, n_services=2)


class TestTraceSource:
    def test_replays_ingested_values(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace([TraceRecord(0, 0, 10.0), TraceRecord(0, 1, 20.0),
                     TraceRecord(1, 0, 30.0), TraceRecord(1, 1, 40.0)], path)
        src = trace_source(path, n_services=2, rows=2)
        np.testing.assert_allclose(qps_at(src, 0), [10.0, 20.0])
        np.testing.assert_allclose(qps_at(src, 1), [30.0, 40.0])

    def test_missing_service_reads_zero(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace([TraceRecord(0, 0, 10.0), TraceRecord(1, 1, 5.0)], path)
        src = trace_source(path, n_services=2, rows=2)
        np.testing.assert_allclose(qps_at(src, 0), [10.0, 0.0])
        np.testing.assert_allclose(qps_at(src, 1), [0.0, 5.0])

    def test_hold_last_past_end(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace([TraceRecord(0, 0, 10.0), TraceRecord(1, 0, 30.0)], path)
        src = trace_source(path, n_services=1, rows=100)
        np.testing.assert_allclose(qps_at(src, 99), [30.0])


class TestRateMatrix:
    """One read-only (rows, n_services) matrix per run; qps_at reads a row."""

    def test_step_absent_from_trace_reads_zero(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace([TraceRecord(0, 0, 10.0), TraceRecord(2, 1, 5.0), TraceRecord(3, 0, 1.0)],
                    path)
        np.testing.assert_array_equal(trace_source(path, 2, 4)[1], [0.0, 0.0])

    def test_last_row_holds_past_trace_end(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace([TraceRecord(0, 0, 10.0), TraceRecord(1, 0, 30.0), TraceRecord(1, 1, 2.0)],
                    path)
        rates = trace_source(path, 2, 6)
        np.testing.assert_array_equal(rates, [[10.0, 0.0]] + [[30.0, 2.0]] * 5)

    def test_far_record_still_gives_requested_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace([TraceRecord(0, 0, 10.0), TraceRecord(10**12, 1, 5.0)], path)
        rates = trace_source(path, 2, 21)
        assert rates.shape == (21, 2)
        np.testing.assert_array_equal(rates[0], [10.0, 0.0])
        np.testing.assert_array_equal(rates[1:], 0.0)

    def test_matrix_is_read_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_trace([TraceRecord(0, 0, 10.0)], path)
        for rates in (constant_source(100.0, 2, 3), sinusoidal_source(100.0, 50.0, 4, 2, 3),
                      burst_source(50.0, 400.0, 1, 1, 2, 3), trace_source(path, 2, 3)):
            assert rates.shape == (3, 2) and rates.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                rates[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                qps_at(rates, 1)[0] = 1.0

    @pytest.mark.parametrize("step", [-1, 3, 10**12])
    def test_qps_at_rejects_step_out_of_range(self, step):
        with pytest.raises(ValidationError, match=rf"step {step} outside"):
            qps_at(constant_source(100.0, 2, 3), step)

    def test_zero_rows_rejected(self):
        with pytest.raises(ValidationError, match="at least one row"):
            constant_source(100.0, 2, 0)
