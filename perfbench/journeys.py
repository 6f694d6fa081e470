"""Worker process for the ``paper`` and ``live`` journeys.

Usage (started by ``run.py``, one fresh interpreter per probe)::

    python perfbench/journeys.py WORKLOAD INPUTS RUN_DIR SECONDS TRACE RESULT

The worker imports what the journey needs and does its set-up, prints
``READY`` and waits for one line on stdin: ``go`` runs the timed body
and writes a JSON result to ``RESULT``; anything else exits.  The
parent times spawn to ``READY`` as ``setup_s``.

Bodies repeat whole passes, as many as fill ``SECONDS`` on the
reference host (a fixed count per ``SECONDS``).  Every pass is checked
against the references in the inputs' ``ready.json``; the checks run
outside the timed spans.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time
from pathlib import Path

T_START = time.perf_counter()

#: A run does ``round(SECONDS / nominal pass time)`` passes, so each run
#: of a workload does the same work.  Nominal times are one pass on a
#: 2-core host at the inputs' scale.
PAPER_PASS_S = 10.0
LIVE_PASS_S = 7.0
#: Three live passes time ~147 batches, so the p90 batch latency has
#: ten or more batches beyond it.
LIVE_MIN_PASSES = 3


def _handshake() -> bool:
    print("READY", flush=True)
    return sys.stdin.readline().strip() == "go"


# -- paper --------------------------------------------------------------
def paper(inputs: Path, run_dir: Path, seconds: float, trace: bool) -> dict:
    from common import peak_rss_mb, sha256
    from repro.experiments import registry
    from repro.logs.campaign_io import (
        campaign_from_records,
        load_campaign_records,
    )

    import_s = time.perf_counter() - T_START
    ready = json.loads((inputs / "ready.json").read_text())
    exp_ids = [exp_id for exp_id, _title in registry.list_experiments()]
    if not _handshake():
        return {}

    camp = inputs / "camp"
    failures: list[str] = []
    passes: list[dict] = []
    for _ in range(max(1, round(seconds / PAPER_PASS_S))):
        t0 = time.perf_counter()
        records = load_campaign_records(camp)
        t1 = time.perf_counter()
        campaign = campaign_from_records(records)
        faults = campaign.faults()
        t2 = time.perf_counter()
        exp_s, renders, checks_failed = {}, {}, 0
        for exp_id in exp_ids:
            te = time.perf_counter()
            result = registry.run(exp_id, campaign)
            exp_s[exp_id] = time.perf_counter() - te
            renders[exp_id] = result.render()
            checks_failed += sum(not v for v in result.checks.values())
        t3 = time.perf_counter()

        stats = records.ingest
        lines = stats["errors"].seen + stats["het"].seen
        fast = stats["errors"].fast_lines + stats["het"].fast_lines
        wrong = paper_gate(ready, records, renders, sha256)
        passes.append({
            "wall_s": t3 - t0, "lines": lines, "ingest_s": t1 - t0,
            "coalesce_s": t2 - t1, "experiments_s": exp_s,
            "fast_lines": fast, "n_faults": int(faults.size),
            "checks_failed": checks_failed, "failed": len(wrong),
        })
        failures += wrong
        del records, campaign, faults
    return {
        "import_s": import_s, "passes": passes, "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
    }


def paper_gate(ready: dict, records, renders: dict, digest) -> list[str]:
    """Ingested records and every render must match the references."""
    out = []
    for family, key in (("errors", "errors_sha256"), ("het", "het_sha256")):
        if digest(getattr(records, family).tobytes()) != ready[key]:
            out.append(f"paper: ingested {family} differ from the generator's")
    for exp_id, want in ready["renders"].items():
        got = renders.get(exp_id)
        if got is None or digest(got.encode()) != want:
            out.append(f"paper: {exp_id} render differs from in-memory run")
    return out


# -- live ---------------------------------------------------------------
def _open_pass(inputs: Path, run_dir: Path, k: int, model):
    """Resume a pipeline in pass directory ``k``, staging it first unless
    the parent already did (pass 0, so copying stays out of set-up)."""
    from inputs import live_pipeline_args, stage_live_pass
    from repro.stream import StreamPipeline

    pass_dir = run_dir / f"pass{k}"
    if not pass_dir.exists():
        stage_live_pass(inputs, pass_dir)
    os.chdir(pass_dir)
    t0 = time.perf_counter()
    pipe = StreamPipeline(**live_pipeline_args(model))
    return pipe, time.perf_counter() - t0


def live(inputs: Path, run_dir: Path, seconds: float, trace: bool) -> dict:
    from common import peak_rss_mb, sha256
    from layers import LayerClock, wrap_live
    from repro.obs.schema import schema_dir, validate_jsonl
    from repro.predict.model import Model
    from repro.query import RollupStore
    from repro.stream import faults_snapshot

    import_s = time.perf_counter() - T_START
    ready = json.loads((inputs / "ready.json").read_text())
    model = Model.load(inputs / "model.json")
    pipe, restore_s = _open_pass(inputs, run_dir, 0, model)
    if not _handshake():
        return {}

    clock = LayerClock()
    if trace:
        wrap_live(clock)
    alerts_schema = schema_dir() / "alerts.schema.json"
    failures: list[str] = []
    passes: list[dict] = []
    for k in range(max(LIVE_MIN_PASSES, round(seconds / LIVE_PASS_S))):
        if k:
            pipe, restore_s = _open_pass(inputs, run_dir, k, model)
        seen0 = sum(t.stats.seen for t in pipe.tailers)
        alerts0 = pipe.alerts_total
        lat = []
        t0 = time.perf_counter()
        while True:
            ts = time.perf_counter()
            if not pipe.step()["progressed"]:
                break
            lat.append(time.perf_counter() - ts)
        ts = time.perf_counter()
        if pipe.step(eof_flush=True)["progressed"]:
            lat.append(time.perf_counter() - ts)
        pipe.finalize()
        wall = time.perf_counter() - t0

        ingest = pipe.final_ingest()
        lines = sum(t.stats.seen for t in pipe.tailers) - seen0
        wrong = live_gate(
            ready, sha256(faults_snapshot(pipe).tobytes()), ingest,
            validate_jsonl(alerts_schema, "alerts.jsonl"),
        )
        passes.append({
            "wall_s": wall, "lines": lines, "batch_s": lat,
            "restore_s": restore_s, "alerts": pipe.alerts_total - alerts0,
            "state_bytes": os.path.getsize("ckpt/checkpoint.json"),
            "repaired": sum(s.repaired for s in ingest.values()),
            "quarantined": sum(s.quarantined for s in ingest.values()),
            "layers": dict(clock.busy_s), "failed": bool(wrong),
            "rollups_sha256": rollup_digest(pipe.rollups),
        })
        clock.reset()
        failures += wrong
        os.chdir(run_dir)
        shutil.rmtree(run_dir / f"pass{k}")
    clock.restore()
    # The batch cubes are loaded only now, after the peak is read, so
    # neither the timed passes nor peak_rss_mb carry the reference.
    rss = peak_rss_mb()
    want = rollup_digest(RollupStore.load(inputs / "batch_rollups"))
    for p in passes:
        if p.pop("rollups_sha256") != want:
            p["failed"] = True
            failures.append("live: streamed rollup cubes differ from batch "
                            "build")
    return {
        "import_s": import_s, "passes": passes, "failures": failures,
        "peak_rss_mb": rss,
    }


def rollup_digest(store) -> str:
    """Digest of what ``RollupStore.equal`` compares (provenance such
    as ``batches`` and ``source`` left out)."""
    import hashlib

    import numpy as np

    h = hashlib.sha256(json.dumps([
        store.config.to_dict(), int(store.errors_seen), int(store.n_faults),
        store.bucket0, store.sensor_tallies(),
    ], sort_keys=True).encode())
    arrays = [getattr(store, name) for name in (
        "node_errors", "rack_slot_bucket", "bitpos", "bank",
        "fault_rack_slot_mode", "fault_mode_bucket", "mode_error_totals",
    )] + list(store.ce_window_items())
    for a in arrays:
        a = np.ascontiguousarray(a, dtype=np.int64)
        h.update(repr(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def live_gate(ready: dict, faults_digest: str, ingest: dict,
              schema_errors: list) -> list[str]:
    """Stream answer == batch answer; accounting closes; alerts valid."""
    out = []
    if faults_digest != ready["faults_sha256"]:
        out.append("live: streamed faults differ from batch coalesce")
    ce = ingest["errors"].to_dict()
    if ce != ready["ce_stats"]:
        out.append(f"live: CE ingest stats {ce} != batch {ready['ce_stats']}")
    for family, s in ingest.items():
        if s.seen != s.parsed + s.repaired + s.quarantined:
            out.append(f"live: {family} seen != parsed+repaired+quarantined")
    if schema_errors:
        out.append(f"live: alerts.jsonl invalid: {schema_errors[0]}")
    return out


JOURNEYS = {"paper": paper, "live": live}


def main(argv: list[str]) -> int:
    workload, inputs, run_dir, seconds, trace, result = argv
    run_dir = Path(run_dir).resolve()
    out = JOURNEYS[workload](
        Path(inputs).resolve(), run_dir, float(seconds), trace == "1"
    )
    if out:
        Path(result).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
