"""CRC-32C kernel correctness and shard sidecar verification.

The checksum implementation is pure numpy (scalar slicing-by-8 below
64 KiB, chunk-parallel GF(2) folding above), so both paths are pinned
to the standard CRC-32C test vector and to each other; the sidecar
layer is exercised against real damage (truncation, bit flips).
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.faults.types import empty_errors
from repro.logs.integrity import (
    SIDECAR_SUFFIX,
    ShardIntegrityError,
    crc32c,
    crc32c_file,
    sidecar_path,
    verify_checksum,
    write_checksum,
)
from repro.logs.store import load_records, save_records

from repro.faults.types import ERROR_DTYPE


class TestCrc32c:
    def test_known_answer(self):
        # The canonical CRC-32C check vector (RFC 3720 appendix B.4).
        assert crc32c(b"123456789") == 0xE3069283

    def test_empty_input(self):
        assert crc32c(b"") == 0

    def test_scalar_and_vector_paths_agree(self):
        rng = np.random.default_rng(7)
        data = rng.integers(0, 256, size=300_000, dtype=np.uint8).tobytes()
        # Full-buffer value (vector path, >= 64 KiB) must equal the value
        # accumulated via small chained blocks (scalar path).
        whole = crc32c(data)
        chained = 0
        for i in range(0, len(data), 4096):
            chained = crc32c(data[i : i + 4096], chained)
        assert whole == chained

    def test_chaining_is_associative(self):
        data = b"The quick brown fox jumps over the lazy dog" * 100
        for split in (1, 17, len(data) // 2, len(data) - 1):
            assert crc32c(data[split:], crc32c(data[:split])) == crc32c(data)

    def test_detects_single_bit_flip(self):
        rng = np.random.default_rng(11)
        data = bytearray(rng.integers(0, 256, size=100_000, dtype=np.uint8))
        reference = crc32c(bytes(data))
        data[50_000] ^= 0x10
        assert crc32c(bytes(data)) != reference

    def test_file_helper_matches_buffer(self, tmp_path):
        payload = b"x" * 70_000 + b"tail"
        path = tmp_path / "blob"
        path.write_bytes(payload)
        value, size = crc32c_file(path, block_bytes=4096)
        assert value == crc32c(payload)
        assert size == len(payload)


class TestSidecars:
    @pytest.fixture
    def shard(self, tmp_path):
        errors = empty_errors(64)
        errors["time"] = np.arange(64)
        errors["node"] = np.arange(64) % 7
        path = tmp_path / "errors-rack00.npy"
        save_records(path, errors)
        write_checksum(path)
        return path

    def test_round_trip_verifies(self, shard):
        assert verify_checksum(shard) is True
        doc = json.loads(sidecar_path(shard).read_text())
        assert doc["algorithm"] == "crc32c"
        assert doc["size"] == shard.stat().st_size

    def test_sidecar_never_globbed_as_shard(self, shard):
        assert sidecar_path(shard).name.endswith(SIDECAR_SUFFIX)
        assert not sidecar_path(shard).match("*.npy")

    def test_missing_sidecar_is_legacy_unless_required(self, shard):
        sidecar_path(shard).unlink()
        assert verify_checksum(shard) is False
        with pytest.raises(ShardIntegrityError, match="no .* sidecar"):
            verify_checksum(shard, required=True)

    def test_truncation_detected(self, shard):
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) // 2])
        with pytest.raises(ShardIntegrityError, match="size mismatch"):
            verify_checksum(shard)

    def test_bit_flip_detected(self, shard):
        data = bytearray(shard.read_bytes())
        data[-5] ^= 0x01  # payload byte, header untouched
        shard.write_bytes(bytes(data))
        with pytest.raises(ShardIntegrityError, match="crc32c mismatch"):
            verify_checksum(shard)

    def test_load_records_verify_gate(self, shard):
        # verify=True consumes an intact shard and rejects a corrupt one.
        load_records(shard, ERROR_DTYPE, verify=True)
        data = bytearray(shard.read_bytes())
        data[-1] ^= 0x80
        shard.write_bytes(bytes(data))
        with pytest.raises(ShardIntegrityError):
            load_records(shard, ERROR_DTYPE, verify=True)

    def test_error_survives_pickling(self, shard):
        # Pool workers hand the exception to the parent through pickle;
        # path and reason must survive so quarantine reporting stays typed.
        err = ShardIntegrityError(shard, "crc32c mismatch (test)")
        clone = pickle.loads(pickle.dumps(err))
        assert isinstance(clone, ShardIntegrityError)
        assert clone.path == err.path
        assert clone.reason == err.reason


def _scalar_crc(data: bytes, value: int = 0) -> int:
    from repro.logs.integrity import _update_scalar

    return (~_update_scalar((~value) & 0xFFFFFFFF, data)) & 0xFFFFFFFF


def _width_boundaries(limit: int) -> list[int]:
    """Sizes <= limit where the chunk width the rule picks changes.

    The rule reads only the size's bit length, so it can only change at
    a power of two.
    """
    from repro.logs.integrity import _VECTOR_MIN, _chunk_width

    return [_VECTOR_MIN] + [
        1 << k for k in range(_VECTOR_MIN.bit_length(), limit.bit_length())
        if _chunk_width(1 << k) != _chunk_width((1 << k) - 1)
    ]


class TestCrc32cKernel:
    """The vector kernel: size-dependent chunk width, tree fold."""

    @pytest.mark.parametrize("data, want", [
        # RFC 3720 appendix B.4.
        (bytes(32), 0x8A9136AA),
        (b"\xff" * 32, 0x62A8AB43),
        (bytes(range(32)), 0x46DD794E),
        (bytes(range(31, -1, -1)), 0x113FDB5C),
        # Vector-path sizes (values from the scalar path).
        ((bytes(range(256)) * 274)[:70_000], 0x6C103E99),
        (bytes(range(256)) * 4096, 0x7D25B26D),
        ((bytes(range(256)) * 4922)[:1_260_000], 0x75AA802D),
    ])
    def test_known_answers(self, data, want):
        assert crc32c(data) == want

    def test_rule_picks_power_of_two_widths_near_sqrt(self):
        from repro.logs.integrity import _chunk_width

        for n in (1 << 16, 70_000, 1 << 20, 1_260_000, 1 << 24, 10**9):
            w = _chunk_width(n)
            assert w & (w - 1) == 0 and w % 4 == 0
            assert n ** 0.5 / 16 <= w <= n ** 0.5 / 2

    def test_widths_change_where_expected(self):
        from repro.logs.integrity import _chunk_width

        assert _width_boundaries(1 << 22) == [
            1 << 16, 1 << 17, 1 << 19, 1 << 21,
        ]
        assert [_chunk_width(n) for n in (1 << 16, 1 << 17, 1 << 19, 1 << 21)] \
            == [64, 128, 256, 512]

    @pytest.mark.parametrize("edge", [1 << 16, 1 << 17, 1 << 19, 1 << 21])
    def test_matches_scalar_on_both_sides_of_each_width(self, edge):
        from repro.logs.integrity import _update_scalar

        rng = np.random.default_rng(edge)
        data = rng.integers(0, 256, size=edge + 7, dtype=np.uint8).tobytes()
        for seed in (0, int(rng.integers(0, 1 << 32))):
            # One scalar pass, extended a byte at a time past the edge.
            reg = _update_scalar((~seed) & 0xFFFFFFFF, data[: edge - 1])
            for n in range(edge - 1, edge + 8):
                if n in (edge - 1, edge, edge + 1, edge + 7):
                    want = (~reg) & 0xFFFFFFFF
                    assert crc32c(data[:n], seed) == want, (n, seed)
                reg = _update_scalar(reg, data[n : n + 1])

    def test_wide_chunks_agree_with_narrow_ones(self):
        # 8 MiB + 3 takes a wider chunk than its 2 MiB pieces, which the
        # test above pins to the scalar path.
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, size=(1 << 23) + 3, dtype=np.uint8)
        data = data.tobytes()
        chained = 0
        for i in range(0, len(data), 1 << 21):
            chained = crc32c(data[i : i + (1 << 21)], chained)
        assert crc32c(data) == chained

    def test_chained_value_continues_across_paths(self):
        rng = np.random.default_rng(5)
        data = rng.integers(0, 256, size=400_003, dtype=np.uint8).tobytes()
        whole = crc32c(data)
        for split in (1, 65_535, 65_536, 200_001, 400_002):
            head, tail = data[:split], data[split:]
            assert crc32c(tail, crc32c(head)) == whole, split

    @pytest.mark.parametrize("make", [
        lambda raw: np.frombuffer(raw, dtype=np.float64).copy(),
        lambda raw: np.frombuffer(raw, dtype="<u4").copy(),
        lambda raw: bytearray(raw),
        lambda raw: memoryview(raw),
        lambda raw: __import__("array").array("I", raw),
    ], ids=["float64", "uint32", "bytearray", "memoryview", "array"])
    def test_memoryviews_of_non_bytes_buffers(self, make):
        rng = np.random.default_rng(9)
        raw = rng.integers(0, 256, size=131_072 + 64, dtype=np.uint8).tobytes()
        buf = make(raw)
        assert crc32c(memoryview(buf)) == crc32c(raw) == _scalar_crc(raw)

    def test_import_builds_no_fold_tables(self):
        import subprocess
        import sys

        from pathlib import Path

        import repro

        code = (
            "import repro.logs.integrity as m; "
            "print(len(m._ADVANCE), m._T.shape)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env={"PYTHONPATH": str(Path(repro.__file__).parents[1])},
        ).stdout.split(None, 1)
        # Only the slicing tables the scalar path needs; no fold
        # operator until a large buffer asks for one.
        assert out == ["0", "(8, 256)\n"]
