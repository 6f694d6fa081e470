"""Tests for the shared utilities (time handling, hash noise, the
artifact reader)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro._util import (
    DAY_S,
    HOURS_PER_YEAR,
    MONTH_S,
    day_index,
    epoch,
    hash_normalish,
    hash_uniform,
    iso,
    month_index,
    read_artifact,
    splitmix64,
)


class TestTime:
    def test_epoch_origin(self):
        assert epoch("1970-01-01") == 0.0
        assert epoch("1970-01-02") == DAY_S

    def test_epoch_datetime(self):
        assert epoch("1970-01-01T01:00") == 3600.0

    def test_iso_roundtrip(self):
        t = epoch("2019-05-20")
        assert iso(t) == "2019-05-20T00:00:00"

    def test_month_index(self):
        t0 = epoch("2019-01-20")
        assert month_index(t0, t0) == 0
        assert month_index(t0 + MONTH_S + 1, t0) == 1
        out = month_index(np.array([t0, t0 + 2.5 * MONTH_S]), t0)
        assert out.tolist() == [0, 2]

    def test_day_index(self):
        t0 = epoch("2019-01-20")
        assert day_index(t0 + 3.5 * DAY_S, t0) == 3

    def test_constants(self):
        assert HOURS_PER_YEAR == 8760
        assert MONTH_S == pytest.approx(30.44 * DAY_S, rel=0.001)


class TestHashNoise:
    def test_deterministic(self):
        a = hash_uniform(np.arange(100), seed=5)
        b = hash_uniform(np.arange(100), seed=5)
        np.testing.assert_array_equal(a, b)

    def test_seed_sensitivity(self):
        a = hash_uniform(np.arange(100), seed=5)
        b = hash_uniform(np.arange(100), seed=6)
        assert not np.array_equal(a, b)

    def test_uniform_range_and_moments(self):
        u = hash_uniform(np.arange(200_000), seed=1)
        assert u.min() >= 0.0 and u.max() < 1.0
        assert u.mean() == pytest.approx(0.5, abs=0.01)
        assert u.std() == pytest.approx(np.sqrt(1 / 12), abs=0.01)

    def test_multi_key_broadcast(self):
        out = hash_uniform(np.arange(5)[:, None], np.arange(3)[None, :])
        assert out.shape == (5, 3)
        assert np.unique(out).size == 15

    def test_normalish_moments(self):
        z = hash_normalish(np.arange(100_000), seed=2)
        assert z.mean() == pytest.approx(0.0, abs=0.02)
        assert z.std() == pytest.approx(1.0, abs=0.02)

    def test_splitmix_avalanche(self):
        """Adjacent inputs produce uncorrelated outputs (bit avalanche)."""
        a = splitmix64(np.arange(10_000, dtype=np.uint64))
        b = splitmix64(np.arange(1, 10_001, dtype=np.uint64))
        flips = np.bitwise_count(a ^ b).astype(float)
        assert flips.mean() == pytest.approx(32.0, abs=1.0)


@given(st.integers(0, 2**63), st.integers(0, 1000))
@settings(max_examples=50)
def test_property_hash_stable_per_key(key, seed):
    a = hash_uniform(np.uint64(key), seed=seed)
    b = hash_uniform(np.uint64(key), seed=seed)
    assert a == b
    assert 0.0 <= float(a) < 1.0


class _Refused(ValueError):
    pass


class TestReadArtifact:
    def read(self, tmp_path, text, decode=dict, **kw):
        path = tmp_path / "a.json"
        path.write_text(text)
        return read_artifact(
            path, _Refused, decode, what="artifact", hint="rebuild it",
            kind=("kind", "k"), version=("v", 1), **kw,
        )

    def test_checks_then_decodes(self, tmp_path):
        doc = self.read(tmp_path, '{"kind": "k", "v": 1, "x": 2}',
                        decode=lambda d: d["x"])
        assert doc == 2

    @pytest.mark.parametrize("text, found", [
        ("{torn", "unreadable JSON"),
        ("[1]", "type mismatch: found list"),
        ('{"kind": "j", "v": 1}', "kind (kind) mismatch: found 'j'"),
        ('{"kind": "k", "v": 2}', "schema version (v) mismatch: found 2"),
        ('{"kind": "k", "v": 1}', "fields mismatch: found KeyError 'x'"),
    ])
    def test_damage_is_the_loaders_error(self, tmp_path, text, found):
        with pytest.raises(_Refused, match="hint: rebuild it") as exc:
            self.read(tmp_path, text, decode=lambda d: d["x"])
        assert found in str(exc.value)

    def test_repro_errors_from_decode_pass_through(self, tmp_path):
        from repro import ReproError

        def decode(doc):
            raise ReproError("a refusal of its own")

        with pytest.raises(ReproError, match="of its own"):
            self.read(tmp_path, '{"kind": "k", "v": 1}', decode=decode)

    def test_missing_file(self, tmp_path):
        kw = dict(what="artifact", hint="build it")
        assert read_artifact(
            tmp_path / "none.json", _Refused, dict, absent=None, **kw
        ) is None
        with pytest.raises(_Refused, match="artifact missing; hint"):
            read_artifact(tmp_path / "none.json", _Refused, dict, **kw)
