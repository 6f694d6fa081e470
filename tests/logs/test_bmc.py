"""Tests for BMC sensor logs."""

import numpy as np
import pytest

from repro._util import epoch
from repro.logs.bmc import (
    SENSOR_SAMPLE_DTYPE,
    filter_valid_samples,
    ingest_bmc_log,
    write_bmc_log,
)
from repro.synth.sensors import SensorFieldModel

T0 = epoch("2019-06-01")


@pytest.fixture(scope="module")
def model():
    return SensorFieldModel(seed=2)


class TestRoundTrip:
    def test_write_read(self, tmp_path, model):
        path = tmp_path / "bmc.csv"
        n = write_bmc_log(path, model, [1, 2], T0, T0 + 600.0, cadence_s=60.0)
        assert n == 2 * 10 * 7  # nodes x minutes x sensors
        samples = ingest_bmc_log(path, policy="strict", quarantine=False)[0]
        assert samples.size == n
        assert samples.dtype == SENSOR_SAMPLE_DTYPE
        assert set(np.unique(samples["node"])) == {1, 2}
        assert set(np.unique(samples["sensor"])) == set(range(7))

    def test_values_match_model(self, tmp_path, model):
        path = tmp_path / "bmc.csv"
        write_bmc_log(path, model, [5], T0, T0 + 180.0, sensors=(0,))
        samples = ingest_bmc_log(path, policy="strict", quarantine=False)[0]
        expected = model.raw_samples(
            samples["node"], samples["sensor"], samples["time"]
        )
        np.testing.assert_allclose(samples["value"], expected, atol=0.01)

    def test_sensor_subset(self, tmp_path, model):
        path = tmp_path / "bmc.csv"
        write_bmc_log(path, model, [0], T0, T0 + 120.0, sensors=(6,))
        samples = ingest_bmc_log(path, policy="strict", quarantine=False)[0]
        assert np.all(samples["sensor"] == 6)
        assert np.all(samples["value"] > 100)  # watts

    def test_empty_window_rejected(self, tmp_path, model):
        with pytest.raises(ValueError):
            write_bmc_log(tmp_path / "x.csv", model, [0], T0, T0)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2019-06-01T00:00:00,0001,cpu0,55.0\n")
        with pytest.raises(ValueError):
            ingest_bmc_log(path, policy="strict", quarantine=False)[0]


class TestValidity:
    def test_filter_drops_invalids(self, tmp_path, model):
        path = tmp_path / "bmc.csv"
        # Enough samples that some invalids are expected (~0.5%).
        write_bmc_log(path, model, list(range(20)), T0, T0 + 7200.0)
        samples = ingest_bmc_log(path, policy="strict", quarantine=False)[0]
        valid, frac = filter_valid_samples(samples)
        assert 0 < frac < 0.01  # paper: "significantly less than 1%"
        assert valid.size < samples.size
        # All surviving temperatures are physical.
        temps = valid[valid["sensor"] < 6]
        assert temps["value"].min() > 5.0

    def test_filter_empty(self):
        empty = np.zeros(0, dtype=SENSOR_SAMPLE_DTYPE)
        valid, frac = filter_valid_samples(empty)
        assert valid.size == 0 and frac == 0.0

    def test_filter_wrong_dtype(self):
        with pytest.raises(ValueError):
            filter_valid_samples(np.zeros(3))
