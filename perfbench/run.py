"""End-to-end benchmark of the reproduction: paper, live and serve journeys.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

- ``paper``: text logs -> ``load_campaign_records`` -> ``Campaign.faults``
  -> all 15 paper experiments, repeated for ``--seconds``;
- ``live``: ``StreamPipeline`` resumed from a checkpoint, catching up
  with rollups, the predictor and the alerts sink on;
- ``serve``: ``repro serve`` under an open-loop request schedule.

Inputs come from ``--seed`` only and are built once per seed (outside
any timing) under ``.perfbench/inputs``; each run works in a fresh
directory under ``.perfbench/runs`` and removes it.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  A wrong output makes ``correct`` false and
the exit code 1; a missing program (no ``src/repro``) exits 2 before
printing a result.
"""

from __future__ import annotations

import argparse
import json
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from common import (
    BENCH_DIR,
    ROOT,
    SETUP_PROBES,
    WORK,
    child_env,
    environment,
    have_program,
    setup_import_path,
)

WORKLOADS = ("paper", "live", "serve")

END_TO_END = {
    "setup_s": "s",
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MiB",
}

PAPER_EXPERIMENTS = (
    "table1", "fig02", "fig03", "fig04", "fig05", "fig06", "fig07",
    "fig08", "fig09", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
)
SERVE_ROUTES = ("risk", "top", "stats", "alerts", "query")

#: Every per-layer metric a traced run prints, with its unit.  A layer
#: a workload does not exercise reads 0 on that workload.
PER_LAYER = {
    "setup.import_s": "s",
    "logs.ingest_s": "s",
    "logs.lines": "count",
    "logs.fast_share": "ratio",
    "logs.repaired": "count",
    "logs.quarantined": "count",
    "faults.coalesce_s": "s",
    "faults.n_faults": "count",
    **{f"experiments.{e}_s": "s" for e in PAPER_EXPERIMENTS},
    "experiments.checks_failed": "count",
    "stream.restore_s": "s",
    "stream.poll_s": "s",
    "stream.coalesce_s": "s",
    "query.rollup_update_s": "s",
    "stream.rules_s": "s",
    "predict.score_s": "s",
    "stream.sink_s": "s",
    "stream.checkpoint_s": "s",
    "stream.state_bytes": "bytes",
    "stream.batches": "count",
    "stream.alerts": "count",
    "predict.model_load_s": "s",
    "serve.fold_s": "s",
    "query.rollups_load_s": "s",
    **{f"serve.handle_us.{r}": "us" for r in SERVE_ROUTES},
    "query.execute_us": "us",
    "serve.memo_hit_ratio": "ratio",
    "serve.gen_late_p50_ms": "ms",
    "serve.gen_late_max_ms": "ms",
    "journey.latency_tail_ms": "ms",
    "traced.throughput": "1/s",
    "traced.latency_p50_ms": "ms",
}

PROBE_TIMEOUT_S = 120.0


# -- paper / live: worker processes --------------------------------------
def _probe(workload: str, inputs: Path, probe_dir: Path, seconds: float,
           trace: bool, result: Path):
    """Start one worker; returns ``(proc, spawn-to-READY seconds)``."""
    probe_dir.mkdir(parents=True)
    if workload == "live":
        # Copying the resume state is harness work: done here, untimed.
        import inputs as inputs_mod

        inputs_mod.stage_live_pass(inputs, probe_dir / "pass0")
    log = open(probe_dir.parent / f"{probe_dir.name}.log", "wb")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "journeys.py"), workload,
         str(inputs), str(probe_dir), repr(seconds), "1" if trace else "0",
         str(result)],
        cwd=ROOT, env=child_env(), stdin=subprocess.PIPE,
        stdout=subprocess.PIPE, stderr=log,
    )
    log.close()
    ready, _, _ = select.select([proc.stdout], [], [], PROBE_TIMEOUT_S)
    line = proc.stdout.readline() if ready else b""
    setup_s = time.perf_counter() - t0
    if line.strip() != b"READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(
            f"{workload}: worker never became ready:\n"
            + Path(log.name).read_text()[-2000:]
        )
    return proc, setup_s


def run_journey(workload: str, inputs: Path, run_dir: Path, seconds: float,
                trace: bool) -> dict:
    result = run_dir / "result.json"
    setups = []
    for k in range(SETUP_PROBES):
        proc, setup_s = _probe(workload, inputs, run_dir / f"probe{k}",
                               seconds, trace, result)
        setups.append(setup_s)
        last = k == SETUP_PROBES - 1
        try:
            proc.stdin.write(b"go\n" if last else b"exit\n")
            proc.stdin.close()
            proc.wait(timeout=seconds + PROBE_TIMEOUT_S if last else 30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            log = (run_dir / f"probe{k}.log").read_text()[-2000:]
            raise RuntimeError(
                f"{workload}: worker exited {proc.returncode}:\n{log}"
            )
    out = json.loads(result.read_text())
    out["setups"] = setups
    return SUMMARISE[workload](out, trace)


def _mean(passes: list, key: str) -> float:
    return sum(p[key] for p in passes) / len(passes)


def summarise_paper(out: dict, trace: bool) -> dict:
    passes = out["passes"]
    walls = [p["wall_s"] for p in passes]
    e2e = {
        "setup_s": median(out["setups"]),
        "throughput": sum(p["lines"] for p in passes) / sum(walls),
        "latency_p50_ms": median(walls) * 1e3,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    layers = {}
    if trace:
        layers = {
            "journey.latency_tail_ms": max(walls) * 1e3,
            "logs.ingest_s": _mean(passes, "ingest_s"),
            "logs.lines": _mean(passes, "lines"),
            "logs.fast_share": (
                sum(p["fast_lines"] for p in passes)
                / sum(p["lines"] for p in passes)
            ),
            "faults.coalesce_s": _mean(passes, "coalesce_s"),
            "faults.n_faults": _mean(passes, "n_faults"),
            "experiments.checks_failed": _mean(passes, "checks_failed"),
        }
        for e in PAPER_EXPERIMENTS:
            layers[f"experiments.{e}_s"] = (
                sum(p["experiments_s"][e] for p in passes) / len(passes)
            )
    n = len(PAPER_EXPERIMENTS) * len(passes)
    return {
        "e2e": e2e, "layers": layers, "failures": out["failures"],
        "import_s": out["import_s"], "attempted": n,
        "failed": sum(p["failed"] for p in passes),
        "env": {"passes": len(passes), "setup_runs_s": out["setups"]},
    }


def summarise_live(out: dict, trace: bool) -> dict:
    passes = out["passes"]
    batch_s = [x for p in passes for x in p["batch_s"]]
    e2e = {
        "setup_s": median(out["setups"]),
        "throughput": (
            sum(p["lines"] for p in passes)
            / sum(p["wall_s"] for p in passes)
        ),
        "latency_p50_ms": median(batch_s) * 1e3,
        "peak_rss_mb": out["peak_rss_mb"],
    }
    layers = {}
    if trace:
        layers = {
            "journey.latency_tail_ms": (
                float(np.percentile(batch_s, 90)) * 1e3
            ),
            "logs.lines": _mean(passes, "lines"),
            "logs.repaired": passes[-1]["repaired"],
            "logs.quarantined": passes[-1]["quarantined"],
            "stream.restore_s": _mean(passes, "restore_s"),
            "stream.state_bytes": _mean(passes, "state_bytes"),
            "stream.batches": len(batch_s) / len(passes),
            "stream.alerts": _mean(passes, "alerts"),
        }
        for name in ("stream.poll_s", "stream.coalesce_s",
                     "query.rollup_update_s", "stream.rules_s",
                     "predict.score_s", "stream.sink_s",
                     "stream.checkpoint_s"):
            layers[name] = (
                sum(p["layers"].get(name, 0.0) for p in passes) / len(passes)
            )
    return {
        "e2e": e2e, "layers": layers, "failures": out["failures"],
        "import_s": out["import_s"], "attempted": len(batch_s),
        "failed": sum(len(p["batch_s"]) for p in passes if p["failed"]),
        "env": {
            "passes": len(passes), "setup_runs_s": out["setups"],
            "tail_percentile": 90,
        },
    }


SUMMARISE = {"paper": summarise_paper, "live": summarise_live}


# -- serve ----------------------------------------------------------------
def serve_import_s() -> float:
    """Import time of what ``repro serve`` loads, in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); "
        "import repro.cli, repro.serve, repro.predict.model, repro.query; "
        "print(time.perf_counter() - t)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=child_env(),
        capture_output=True, check=True, timeout=PROBE_TIMEOUT_S,
    )
    return float(out.stdout)


# -- main -----------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import inputs as inputs_mod

    inputs = inputs_mod.ensure(workload, seed)
    run_dir = WORK / "runs" / f"{workload}-{seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    try:
        if workload == "serve":
            import serve_bench

            out = serve_bench.run(inputs, run_dir, seed, seconds, trace)
            if trace:
                out["import_s"] = serve_import_s()
        else:
            out = run_journey(workload, inputs, run_dir, seconds, trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    out["env"] = {
        **environment(workload, seed, scale=inputs_mod.SCALE[workload]),
        **out["env"],
    }
    return out


def result_line(out: dict, trace: bool) -> dict:
    if trace:
        values = {name: 0.0 for name in PER_LAYER}
        values.update(out["layers"])
        values["setup.import_s"] = out["import_s"]
        for name in ("throughput", "latency_p50_ms"):
            values[f"traced.{name}"] = out["e2e"][name]
        units = PER_LAYER
    else:
        values, units = out["e2e"], END_TO_END
    return {
        "correct": not out["failures"],
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not have_program():
        print(
            f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from "
            "the root of a checkout",
            file=sys.stderr,
        )
        return 2
    setup_import_path()
    trace = bool(args.trace)
    out = measure(args.workload, args.seed, args.seconds, trace)
    for failure in out["failures"]:
        print(f"INCORRECT {failure}", file=sys.stderr)
    print(json.dumps({"env": out["env"]}))
    line = result_line(out, trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
