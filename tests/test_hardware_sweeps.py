"""Tests for the hardware-model parameter sweeps and wide-integer quantization."""

import numpy as np
import pytest

from repro.hardware import (
    breakeven_ff_epochs,
    profile_bundle,
    sweep_batch_size,
    sweep_epochs,
)
from repro.models import build_mlp
from repro.quant import QuantConfig, quantize
from repro.runtime import dispatch


@pytest.fixture(scope="module")
def sweep_profile():
    bundle = build_mlp(input_shape=(1, 28, 28), hidden_layers=2, hidden_units=500)
    return profile_bundle(bundle, batch_size=1)


class TestBatchSizeSweep:
    def test_structure(self, sweep_profile):
        sweep = sweep_batch_size(sweep_profile, batch_sizes=(16, 32, 64),
                                 dataset_size=2000)
        assert sweep.parameter == "batch_size"
        assert sweep.values() == [16.0, 32.0, 64.0]
        assert len(sweep.points) == 3 * 3  # 3 batch sizes x 3 algorithms

    def test_ff_memory_advantage_widens_with_batch(self, sweep_profile):
        sweep = sweep_batch_size(sweep_profile, batch_sizes=(8, 128),
                                 dataset_size=2000)
        savings = sweep.savings("FF-INT8", "BP-GDAI8", metric="memory_mb")
        assert savings[128.0] >= savings[8.0]

    def test_larger_batches_reduce_time(self, sweep_profile):
        """Fewer batches means fewer per-batch kernel overheads."""
        sweep = sweep_batch_size(sweep_profile, batch_sizes=(8, 64),
                                 dataset_size=2000)
        times = sweep.series("BP-FP32", "time_s")
        assert times[1] < times[0]

    def test_series_metric_validation(self, sweep_profile):
        sweep = sweep_batch_size(sweep_profile, batch_sizes=(8,), dataset_size=500)
        with pytest.raises(ValueError):
            sweep.series("FF-INT8", metric="joules")

    def test_invalid_batch_size(self, sweep_profile):
        with pytest.raises(ValueError):
            sweep_batch_size(sweep_profile, batch_sizes=(0,))

    def test_as_dict_serializable(self, sweep_profile):
        import json

        sweep = sweep_batch_size(sweep_profile, batch_sizes=(8,), dataset_size=500)
        json.dumps(sweep.as_dict())


class TestEpochSweep:
    def test_breakeven_exists_and_exceeds_reference_epochs(self, sweep_profile):
        """FF-INT8's cheaper epochs buy more epochs than the BP budget."""
        sweep = sweep_epochs(sweep_profile, ff_epoch_grid=(10, 20, 30, 33, 45),
                             bp_epochs=30, dataset_size=2000)
        breakeven = breakeven_ff_epochs(sweep)
        assert breakeven is not None
        # FF-INT8's cheaper epochs buy at least ~10% more epochs than the
        # BP-GDAI8 budget before the total time crosses over.
        assert breakeven >= 33

    def test_reference_constant_across_grid(self, sweep_profile):
        sweep = sweep_epochs(sweep_profile, ff_epoch_grid=(10, 20), bp_epochs=15,
                             dataset_size=2000)
        reference_times = sweep.series("BP-GDAI8", "time_s")
        assert reference_times[0] == pytest.approx(reference_times[1])

    def test_ff_time_monotone_in_epochs(self, sweep_profile):
        sweep = sweep_epochs(sweep_profile, ff_epoch_grid=(10, 20, 40),
                             dataset_size=2000)
        ff_times = sweep.series("FF-INT8", "time_s")
        assert ff_times == sorted(ff_times)

    def test_invalid_epochs(self, sweep_profile):
        with pytest.raises(ValueError):
            sweep_epochs(sweep_profile, ff_epoch_grid=(0,))


class TestWideIntegerQuantization:
    def test_int16_dtype(self):
        values = np.random.default_rng(0).normal(size=100).astype(np.float32)
        q, _ = quantize(values, QuantConfig(bits=16, rounding="nearest"))
        assert q.dtype == np.int16
        assert q.max() <= 32767 and q.min() >= -32767

    def test_int16_reconstruction_much_finer_than_int8(self):
        values = np.random.default_rng(1).normal(size=2000).astype(np.float32)
        err8 = np.abs(values - _roundtrip(values, 8)).mean()
        err16 = np.abs(values - _roundtrip(values, 16)).mean()
        assert err16 < err8 / 50

    def test_wide_integer_matmul(self):
        rng = np.random.default_rng(2)
        a = rng.integers(-30000, 30000, size=(4, 6)).astype(np.int16)
        b = rng.integers(-30000, 30000, size=(6, 3)).astype(np.int16)
        result = dispatch.int8_gemm(a, b, backend="reference")
        np.testing.assert_array_equal(result, a.astype(np.int64) @ b.astype(np.int64))

    def test_float_operands_still_rejected(self):
        with pytest.raises(TypeError):
            dispatch.int8_gemm(np.ones((2, 2), dtype=np.float64),
                               np.ones((2, 2), dtype=np.int8))


def _roundtrip(values, bits):
    from repro.quant import dequantize

    q, scale = quantize(values, QuantConfig(bits=bits, rounding="nearest"))
    return dequantize(q, scale)
