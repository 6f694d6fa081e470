"""Fleet layout: dozens of Astra-sized clusters as one addressable system.

The paper studies one machine (36 racks, 2,592 nodes).  A *fleet* is
``n_clusters`` independent Astra-shaped clusters whose telemetry is
analysed as a single system: cluster ``i`` occupies global racks
``[i * 36, (i + 1) * 36)`` and its local node ids are offset by
``i * 2592``.  Because node ids are rack-major, the offset keeps every
global id consistent with :class:`~repro.machine.topology.AstraTopology`
of ``n_racks = 36 * n_clusters`` -- fleet-wide analyses reuse the
single-machine code paths unchanged.

On disk a fleet is a directory of ordinary campaign directories plus a
small manifest::

    <dir>/fleet.json
    <dir>/cluster-00/   # a standard campaign dir (local node ids)
    <dir>/cluster-01/
    ...

Each cluster directory is independently valid (loadable with
``load_campaign_records``); the global view exists only in aggregation,
which is what lets per-cluster shards be produced, shipped and mmapped
without rewriting any record.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro._util import atomic_write, mismatch
from repro.machine.topology import AstraTopology

#: Manifest filename inside a fleet directory.
MANIFEST_NAME = "fleet.json"

#: Bumped when the manifest layout changes incompatibly.
FLEET_SCHEMA_VERSION = 1

#: Seed stride between clusters: far enough apart that per-cluster
#: generators never reuse a seed for realistic fleet sizes, and stable
#: so cluster ``i`` of fleet seed ``s`` is reproducible forever.
_SEED_STRIDE = 7919  # a prime, to avoid accidental alignment with user seeds


@dataclass(frozen=True)
class FleetSpec:
    """Shape of a fleet: how many clusters, seeded and scaled how."""

    n_clusters: int
    seed: int = 0
    scale: float = 1.0
    #: Per-cluster machine shape; defaults to the paper's Astra.
    base_topology: AstraTopology = field(default_factory=AstraTopology)

    def __post_init__(self):
        if self.n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if not self.scale > 0:
            raise ValueError("scale must be > 0")

    @property
    def name_width(self) -> int:
        """Zero-pad width keeping cluster names lexicographically ordered."""
        return max(2, len(str(self.n_clusters - 1)))

    def cluster_name(self, i: int) -> str:
        self._check_index(i)
        return f"cluster-{i:0{self.name_width}d}"

    def cluster_seed(self, i: int) -> int:
        """Deterministic per-cluster seed (distinct streams per cluster)."""
        self._check_index(i)
        return self.seed + _SEED_STRIDE * (i + 1)

    def node_offset(self, i: int) -> int:
        """Offset turning cluster ``i``'s local node ids into global ids."""
        self._check_index(i)
        return i * self.base_topology.n_nodes

    def fleet_topology(self) -> AstraTopology:
        """The whole fleet as one rack-major topology."""
        return AstraTopology(
            n_racks=self.base_topology.n_racks * self.n_clusters,
            chassis_per_rack=self.base_topology.chassis_per_rack,
            nodes_per_chassis=self.base_topology.nodes_per_chassis,
        )

    def _check_index(self, i: int) -> None:
        if not 0 <= i < self.n_clusters:
            raise IndexError(f"cluster index {i} out of range "
                             f"(fleet has {self.n_clusters})")


@dataclass
class Fleet:
    """A fleet spec bound to its on-disk directory."""

    spec: FleetSpec
    directory: Path
    #: Per-cluster record counts recorded at synthesis time (informational;
    #: aggregation recounts from the actual files).
    n_errors: list = field(default_factory=list)

    @property
    def cluster_dirs(self) -> list[Path]:
        return [self.cluster_dir(i) for i in range(self.spec.n_clusters)]

    def cluster_dir(self, i: int) -> Path:
        return self.directory / self.spec.cluster_name(i)

    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    def to_dict(self) -> dict:
        topo = self.spec.base_topology
        return {
            "schema_version": FLEET_SCHEMA_VERSION,
            "kind": "astra-memrepro-fleet",
            "n_clusters": self.spec.n_clusters,
            "seed": self.spec.seed,
            "scale": self.spec.scale,
            "topology": {
                "n_racks": topo.n_racks,
                "chassis_per_rack": topo.chassis_per_rack,
                "nodes_per_chassis": topo.nodes_per_chassis,
            },
            "clusters": [
                {
                    "name": self.spec.cluster_name(i),
                    "seed": self.spec.cluster_seed(i),
                    "node_offset": self.spec.node_offset(i),
                    "n_errors": (
                        int(self.n_errors[i]) if i < len(self.n_errors) else None
                    ),
                }
                for i in range(self.spec.n_clusters)
            ],
        }

    def save(self) -> Path:
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.manifest_path()
        doc = json.dumps(self.to_dict(), indent=2) + "\n"
        atomic_write(path, doc.encode())
        return path

    @classmethod
    def load(cls, directory: str | os.PathLike) -> "Fleet":
        """Load a fleet manifest; raises :class:`FleetFormatError` if bad."""
        directory = Path(directory)
        path = directory / MANIFEST_NAME
        if not path.exists():
            raise FleetFormatError(
                path, f"not a fleet directory ({MANIFEST_NAME} missing)"
            )
        try:
            doc = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise FleetFormatError(path, f"unreadable manifest ({exc})") from exc
        if not isinstance(doc, dict) or doc.get("kind") != "astra-memrepro-fleet":
            raise FleetFormatError(path, "not an astra-memrepro fleet manifest")
        version = doc.get("schema_version")
        if version != FLEET_SCHEMA_VERSION:
            raise mismatch(
                partial(FleetFormatError, path), "schema_version",
                repr(version), FLEET_SCHEMA_VERSION,
                "re-synthesise the fleet into a fresh --shard-dir with "
                "this version of the code",
            )
        try:
            topo_doc = doc.get("topology", {})
            spec = FleetSpec(
                n_clusters=int(doc["n_clusters"]),
                seed=int(doc["seed"]),
                scale=float(doc["scale"]),
                base_topology=AstraTopology(
                    n_racks=int(topo_doc.get("n_racks", 36)),
                    chassis_per_rack=int(topo_doc.get("chassis_per_rack", 18)),
                    nodes_per_chassis=int(topo_doc.get("nodes_per_chassis", 4)),
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FleetFormatError(path, f"bad manifest fields ({exc})") from exc
        n_errors = [
            c.get("n_errors") for c in doc.get("clusters", [])
            if isinstance(c, dict)
        ]
        return cls(spec=spec, directory=directory, n_errors=n_errors)


class FleetFormatError(ValueError):
    """A fleet directory does not look like one (file and reason named)."""

    def __init__(self, path, reason: str):
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"{self.path}: {reason}")
