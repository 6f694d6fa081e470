"""The section 2.4 public data release, as a packager.

The paper commits to releasing "text files containing both the memory
failure telemetry information extracted from the system logs and the
environmental sensor data extracted from the BMC log files", with the
failure records carrying: timestamp, node ID, socket, type of failure,
DIMM slot, row, rank, bank, bit position, physical address and
vendor-specific syndrome data.

:func:`write_release` lays a campaign out in exactly that shape (plus a
README manifest); :func:`read_release` loads it back.  Missing fields
(Astra's row) are released as ``-1``, as field datasets typically do.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro._util import iso
from repro.faults.types import empty_errors
from repro.machine.node import slot_letter
from repro.synth.het import EVENT_TYPES

#: Header of the failure-telemetry file, mirroring the paper's field list.
FAILURE_HEADER = (
    "timestamp,node,socket,failure_type,dimm_slot,row,rank,bank,"
    "bit_position,physical_address,syndrome"
)

#: Header of the environmental file.
ENVIRONMENT_HEADER = "timestamp,node,sensor,value"


def write_release(
    campaign,
    directory: str | os.PathLike,
    sensor_cadence_s: float = 3600.0,
    sensor_nodes=None,
) -> Path:
    """Write the release layout; returns the directory.

    ``sensor_nodes`` limits the environmental file to a node subset
    (default: the first 64 nodes) -- the full per-minute fleet archive is
    the paper's 8 GiB and can be regenerated from the sensor field at
    will, so the release ships a representative slice plus the recipe.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Failure telemetry: CEs then DUEs, time-ordered.
    with open(directory / "memory_failures.txt", "w") as fh:
        fh.write(FAILURE_HEADER + "\n")
        for rec in campaign.errors:
            slot = slot_letter(int(rec["slot"]))
            fh.write(
                f"{iso(float(rec['time']))},{int(rec['node'])},"
                f"{int(rec['socket'])},CE,{slot},{int(rec['row'])},"
                f"{int(rec['rank'])},{int(rec['bank'])},"
                f"{int(rec['bit_pos'])},0x{int(rec['address']):012x},"
                f"0x{int(rec['syndrome']):02x}\n"
            )
        dues = campaign.het[campaign.het["non_recoverable"]]
        for rec in dues:
            name = EVENT_TYPES[int(rec["event"])]
            fh.write(
                f"{iso(float(rec['time']))},{int(rec['node'])},-1,"
                f"DUE:{name},-,-1,-1,-1,-1,-,-\n"
            )

    # ------------------------------------------------------------------
    # Environmental telemetry: a node slice at the requested cadence.
    if sensor_nodes is None:
        sensor_nodes = np.arange(min(64, campaign.topology.n_nodes))
    from repro.logs.bmc import write_bmc_log

    t0, t1 = campaign.calibration.sensor_window
    n_env = write_bmc_log(
        directory / "environment.txt",
        campaign.sensors,
        sensor_nodes,
        t0,
        t1,
        cadence_s=sensor_cadence_s,
    )

    # ------------------------------------------------------------------
    with open(directory / "README.txt", "w") as fh:
        fh.write(
            "Astra memory error and system monitoring data (synthetic "
            "reproduction)\n"
            "================================================================\n\n"
            "Layout mirrors the data release described in section 2.4 of\n"
            "'Understanding Memory Failures on a Petascale Arm System'\n"
            "(HPDC 2022).  This is the calibrated synthetic campaign, not\n"
            "the original production data.\n\n"
            f"memory_failures.txt : {campaign.n_errors} CE records and "
            f"{int(campaign.het['non_recoverable'].sum())} DUE records\n"
            f"    fields: {FAILURE_HEADER}\n"
            "    row is -1 (not populated in Astra CE records);\n"
            "    storm records carry -1 positional fields.\n"
            f"environment.txt     : {n_env} sensor samples "
            f"({len(sensor_nodes)} nodes at {sensor_cadence_s:.0f} s cadence)\n"
            f"    fields: {ENVIRONMENT_HEADER}\n"
            f"    full fleet series regenerate from seed {campaign.seed}.\n"
        )
    return directory


@dataclass
class ReleaseData:
    """Loaded release content."""

    errors: np.ndarray  # ERROR_DTYPE
    due_times: np.ndarray
    due_nodes: np.ndarray
    environment: np.ndarray  # SENSOR_SAMPLE_DTYPE


def read_release(directory: str | os.PathLike) -> ReleaseData:
    """Load a release directory back into record arrays."""
    from repro.logs.bmc import ingest_bmc_log
    from repro.machine.node import slot_index

    directory = Path(directory)
    ces = []
    due_times, due_nodes = [], []
    with open(directory / "memory_failures.txt") as fh:
        header = fh.readline().strip()
        if header != FAILURE_HEADER:
            raise ValueError("not a release failure file (bad header)")
        for line in fh:
            parts = line.strip().split(",")
            if len(parts) != 11:
                raise ValueError(f"malformed release record: {line!r}")
            t = float(
                np.datetime64(parts[0]).astype("datetime64[s]").astype(np.int64)
            )
            if parts[3] == "CE":
                ces.append(
                    (
                        t,
                        int(parts[1]),
                        int(parts[2]),
                        slot_index(parts[4]),
                        int(parts[6]),
                        int(parts[7]),
                        int(parts[5]),
                        int(parts[8]),
                        int(parts[9], 0),
                        int(parts[10], 0),
                    )
                )
            elif parts[3].startswith("DUE"):
                due_times.append(t)
                due_nodes.append(int(parts[1]))
            else:
                raise ValueError(f"unknown failure type: {parts[3]!r}")

    errors = empty_errors(len(ces))
    for i, (t, node, socket, slot, rank, bank, row, bit, addr, syn) in enumerate(ces):
        errors[i]["time"] = t
        errors[i]["node"] = node
        errors[i]["socket"] = socket
        errors[i]["slot"] = slot
        errors[i]["rank"] = rank
        errors[i]["bank"] = bank
        errors[i]["row"] = row
        errors[i]["bit_pos"] = bit
        errors[i]["address"] = addr
        errors[i]["syndrome"] = syn
    # The release's field list (like the paper's) has no column; it is
    # derivable from the physical address, so recover it on load.
    from repro.machine.dram import AddressMap

    amap = AddressMap()
    valid = errors["address"] > 0
    if valid.any():
        errors["column"][valid] = amap.decode(errors["address"][valid])["column"]
    environment, _ = ingest_bmc_log(
        directory / "environment.txt", policy="strict", quarantine=False
    )
    return ReleaseData(
        errors=errors,
        due_times=np.asarray(due_times),
        due_nodes=np.asarray(due_nodes, dtype=np.int64),
        environment=environment,
    )
