"""Paths, environment and small statistics shared by the benchmark."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

#: Checkout root: the benchmark directory's parent.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Everything the benchmark writes lives under here (git-ignored).
WORK = ROOT / ".perfbench"

#: Setup probes per run; ``setup_s`` is their median.
SETUP_PROBES = 3


def have_program() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = os.environ.copy()
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    # Any campaign cache stays inside the checkout.
    env["ASTRA_MEMREPRO_CACHE_DIR"] = str(WORK / "cache")
    env["PYTHONHASHSEED"] = "0"
    env.pop("ASTRA_MEMREPRO_SLOW_INGEST", None)
    env.pop("ASTRA_MEMREPRO_STREAM_DELAY_S", None)
    return env


def setup_import_path() -> None:
    for p in (str(SRC), str(BENCH_DIR)):
        if p not in sys.path:
            sys.path.insert(0, p)
    os.environ["ASTRA_MEMREPRO_CACHE_DIR"] = str(WORK / "cache")


def sha256(data) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


def peak_rss_mb(pid="self") -> float:
    """High-water resident set (``VmHWM``) of a process, in MiB.

    Not ``ru_maxrss``: Linux carries the parent's high-water mark into a
    forked child across ``exec``, so a worker started by a run that had
    just built its inputs would report the parent's peak.
    """
    for line in open(f"/proc/{pid}/status"):
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def environment(workload: str, seed: int, **extra) -> dict:
    import numpy as np

    return {
        "workload": workload,
        "seed": int(seed),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **extra,
    }
