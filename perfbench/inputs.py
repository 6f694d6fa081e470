"""Seeded benchmark inputs, generated once per seed and read-only after.

Each workload gets one directory per seed under
``.perfbench/inputs/<workload>-s<seed>-v<INPUTS_VERSION>/``.  It is built
in a temporary sibling and renamed into place, so a half-written set is
never used; its files are then made read-only, and every run works on
links or copies inside its own fresh run directory.  ``ready.json``
records what was generated, the reference digests the correctness gates
compare against, and the environment.

What each workload gets (all from ``CampaignGenerator(seed, scale)``):

- ``paper``: ``camp/`` with the text logs (``ce.log``, ``het.log``),
  ``replacements.npy`` and the manifest, but no ``errors.npy`` /
  ``het.npy`` mirrors, so loading runs text ingest.  References: the
  generator's record arrays at the text format's whole-second time
  resolution, and each experiment's ``render()`` on a campaign built
  from them in memory.
- ``live``: ``logs/`` with the text logs; ``model.json``; ``resume/``
  with the checkpoint, rollup snapshots and alerts file of a pipeline
  stopped after ``RESUME_AFTER`` batches.  References: the batch
  answer, ``coalesce(ingest_ce_log(ce.log, policy="repair"))``, and
  ``batch_rollups/``, the cubes ``build_store`` makes from it.  (The
  logs are not damaged: see README.md, "Why live streams clean logs".)
- ``serve``: ``camp/`` with binary mirrors and a ``rollups/`` snapshot;
  ``model.json``; ``alerts.jsonl`` from one stream pass with the
  predictor over the campaign's clean text logs.
"""

from __future__ import annotations

import json
import os
import shutil
import stat
from pathlib import Path

import numpy as np

from common import WORK, environment, sha256

#: Bump whenever what an input directory holds changes.
INPUTS_VERSION = 2

SCALE = {"paper": 0.1, "live": 0.1, "serve": 0.1}
#: Batches the live checkpoint has consumed before the timed catch-up.
RESUME_AFTER = 4
#: Training campaigns for the predictor (offsets keep them off the
#: workload's own seed).
MODEL_SCALE = 0.02
_TRAIN_OFFSET, _EVAL_OFFSET = 1000, 2000
#: Input directories kept per workload; older ones are pruned.
KEEP_SEEDS = 12


def inputs_dir(workload: str, seed: int) -> Path:
    return WORK / "inputs" / f"{workload}-s{int(seed)}-v{INPUTS_VERSION}"


def ensure(workload: str, seed: int) -> Path:
    """The input directory for ``(workload, seed)``, built if missing."""
    final = inputs_dir(workload, seed)
    if (final / "ready.json").is_file():
        os.utime(final)
        return final
    tmp = final.with_name(f"{final.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        info = _PREPARE[workload](tmp, int(seed))
        info["env"] = environment(workload, seed, scale=SCALE[workload])
        (tmp / "ready.json").write_text(json.dumps(info, indent=1) + "\n")
        _make_read_only(tmp)
        shutil.rmtree(final, ignore_errors=True)
        os.replace(tmp, final)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    _prune(workload, keep=final)
    return final


def _make_read_only(directory: Path) -> None:
    for path in directory.rglob("*"):
        if path.is_file():
            path.chmod(stat.S_IRUSR | stat.S_IRGRP | stat.S_IROTH)


def _prune(workload: str, keep: Path) -> None:
    dirs = sorted(
        (p for p in keep.parent.glob(f"{workload}-s*") if p != keep),
        key=lambda p: p.stat().st_mtime,
    )
    for old in dirs[: max(len(dirs) - (KEEP_SEEDS - 1), 0)]:
        shutil.rmtree(old, ignore_errors=True)


def _train_model(seed: int):
    from repro.predict import train_and_evaluate

    model, _report = train_and_evaluate(
        train_seeds=(seed + _TRAIN_OFFSET,),
        eval_seeds=(seed + _EVAL_OFFSET,),
        scale=MODEL_SCALE,
    )
    return model


def _unlink_mirror(directory: Path, name: str) -> None:
    for path in (directory / name, directory / f"{name}.crc32c"):
        path.unlink(missing_ok=True)


def text_resolution(records: np.ndarray) -> np.ndarray:
    """``records`` as the text logs carry them: whole-second times."""
    out = records.copy()
    out["time"] = np.floor(out["time"])
    return out


def paper_references(generated) -> dict:
    """Digests a correct text-ingest reproduction must match."""
    from repro.experiments import registry
    from repro.logs.campaign_io import CampaignRecords, campaign_from_records

    errors = text_resolution(generated.errors)
    het = text_resolution(generated.het)
    campaign = campaign_from_records(
        CampaignRecords(
            errors=errors, replacements=generated.replacements, het=het,
            seed=generated.seed, scale=generated.scale,
        )
    )
    renders = {
        exp_id: sha256(registry.run(exp_id, campaign).render().encode())
        for exp_id, _title in registry.list_experiments()
    }
    return {
        "errors_sha256": sha256(errors.tobytes()),
        "het_sha256": sha256(het.tobytes()),
        "lines": int(errors.size + het.size),
        "renders": renders,
    }


def _prepare_paper(d: Path, seed: int) -> dict:
    from repro.logs.campaign_io import write_campaign
    from repro.synth import CampaignGenerator

    generated = CampaignGenerator(seed=seed, scale=SCALE["paper"]).generate()
    camp = write_campaign(generated, d / "camp")
    for name in ("errors.npy", "het.npy"):
        _unlink_mirror(camp, name)
    return paper_references(generated)


def _link_logs(src: Path, dst: Path) -> None:
    dst.mkdir(parents=True, exist_ok=True)
    for name in ("ce.log", "het.log"):
        os.link(src / name, dst / name)


def _prepare_live(d: Path, seed: int) -> dict:
    from repro.faults.coalesce import coalesce
    from repro.logs.campaign_io import write_campaign
    from repro.logs.syslog import ingest_ce_log
    from repro.query import build_store
    from repro.stream import StreamPipeline
    from repro.synth import CampaignGenerator

    generated = CampaignGenerator(seed=seed, scale=SCALE["live"]).generate()
    logs = write_campaign(generated, d / "logs")
    for name in ("errors.npy", "het.npy", "replacements.npy"):
        _unlink_mirror(logs, name)
    model = _train_model(seed)
    model.save(d / "model.json")

    warm = d / "_warm"
    _link_logs(logs, warm)
    cwd = os.getcwd()
    os.chdir(warm)
    try:
        pipe = StreamPipeline(**live_pipeline_args(model))
        pipe.run(max_batches=RESUME_AFTER)
    finally:
        os.chdir(cwd)
    resume = d / "resume"
    resume.mkdir()
    for name in ("ckpt", "rollups", "alerts.jsonl"):
        shutil.move(str(warm / name), str(resume / name))
    shutil.rmtree(warm)

    batch = ingest_ce_log(logs / "ce.log", policy="repair", quarantine=False)
    faults = coalesce(batch.errors)
    build_store(batch.errors, faults=faults).snapshot(d / "batch_rollups")
    return {
        "faults_sha256": sha256(faults.tobytes()),
        "n_faults": int(faults.size),
        "ce_stats": batch.stats.to_dict(),
        "resume_batches": RESUME_AFTER,
    }


def live_pipeline_args(model) -> dict:
    """``repro stream`` defaults (repair, 1 MiB batches, checkpoint every
    batch) with rollups, the alerts sink and the predictor mounted;
    paths are relative to the pass directory so a checkpoint moves with
    it."""
    return {
        "files": ["ce.log", "het.log"],
        "checkpoint_dir": "ckpt",
        "alerts_out": "alerts.jsonl",
        "rollup_dir": "rollups",
        "predict_model": model,
    }


def stage_live_pass(inputs: Path, pass_dir: Path) -> None:
    """A writable live pass directory: linked logs, copied resume state."""
    _link_logs(inputs / "logs", pass_dir)
    for name in ("ckpt", "rollups"):
        shutil.copytree(inputs / "resume" / name, pass_dir / name)
    shutil.copy(inputs / "resume" / "alerts.jsonl", pass_dir / "alerts.jsonl")
    for path in pass_dir.rglob("*"):
        if path.is_file() and not path.name.endswith(".log"):
            path.chmod(0o644)


def _prepare_serve(d: Path, seed: int) -> dict:
    from repro.logs.campaign_io import write_campaign
    from repro.query import build_store
    from repro.stream import StreamPipeline
    from repro.synth import CampaignGenerator

    generated = CampaignGenerator(seed=seed, scale=SCALE["serve"]).generate()
    camp = write_campaign(generated, d / "camp")
    build_store(generated.errors, faults=generated.faults()).snapshot(
        camp / "rollups"
    )
    model = _train_model(seed)
    model.save(d / "model.json")

    feed = d / "_feed"
    _link_logs(camp, feed)
    pipe = StreamPipeline(
        files=[feed / "ce.log", feed / "het.log"],
        alerts_out=d / "alerts.jsonl",
        predict_model=model,
        quarantine=False,
    )
    pipe.run()
    shutil.rmtree(feed)
    for name in ("ce.log", "het.log"):
        (camp / name).unlink()
    n_alerts = sum(1 for _ in open(d / "alerts.jsonl"))
    return {
        "n_errors": int(generated.errors.size),
        "n_alerts": n_alerts,
        "n_nodes": int(generated.topology.n_nodes),
    }


_PREPARE = {
    "paper": _prepare_paper,
    "live": _prepare_live,
    "serve": _prepare_serve,
}
