"""Command-line interface: ``astra-memrepro``.

Subcommands:

- ``synth``      generate a campaign and write it to a directory;
- ``analyze``    run experiments over a stored campaign directory;
- ``experiment`` generate in memory and run one (or all) experiments;
- ``stream``     tail a campaign's text logs incrementally (live faults,
  alerts, checkpoint/resume; see DESIGN.md section 10);
- ``fleet``      synthesise and analyse a fleet of Astra-sized clusters
  through the sharded campaign engine (DESIGN.md section 11);
- ``query``      answer campaign-history queries from incrementally
  maintained rollup cubes, with zero log rescan (DESIGN.md section 14);
- ``list``       list the registered experiments.

Examples::

    astra-memrepro synth --scale 0.05 --out /tmp/camp --text-logs
    astra-memrepro stream /tmp/camp --rollups-dir /tmp/camp/rollups
    astra-memrepro query /tmp/camp --select errors --group-by rack,bucket
    astra-memrepro query /tmp/camp --select errors --group-by node --top-k 8
    astra-memrepro query /tmp/camp --build --select faults --group-by mode \
        --check --json
    astra-memrepro fleet --shard-dir /tmp/fleet --clusters 4 --scale 0.02 \
        --jobs 4 --check --fleet-report fleet.json
    astra-memrepro fleet --shard-dir /tmp/fleet --exp fig04 fig05
    astra-memrepro analyze /tmp/camp --exp fig05 fig12
    astra-memrepro stream /tmp/camp --follow --checkpoint-dir /tmp/ckpt \
        --alerts-out /tmp/alerts.jsonl
    astra-memrepro stream /tmp/camp --max-batches 8 --batch-bytes 65536
    astra-memrepro experiment --exp fig04 --scale 0.1
    astra-memrepro experiment --all --scale 1.0 > report.txt
    astra-memrepro experiment --all --jobs 4 --json-report run.json
    astra-memrepro experiment --all --scale 0.05 --inject moderate \
        --ingest-policy repair --min-coverage 0.5 --json-report dirty.json
    astra-memrepro analyze /tmp/camp --ingest-policy repair --timeout 120

``--inject PROFILE`` runs the harness self-test loop: corrupt a
disposable copy of the campaign artifacts (``light``/``moderate``/
``hostile``), re-ingest them under ``--ingest-policy``, and report
per-family coverage plus per-experiment degradation status
(``pass-degraded`` / ``skipped-insufficient-data``) instead of crashing
on dirty telemetry.

Repeated ``experiment``/``analyze`` invocations reuse the campaign
cache (``--cache-dir``, default ``~/.cache/astra-memrepro`` or
``$ASTRA_MEMREPRO_CACHE_DIR``); ``--no-cache`` disables it.

Every verb shares one plumbing, in :func:`main` and :func:`_dispatch`:
output-path flags are checked before the verb runs, any
:class:`~repro.ReproError` or ``OSError`` becomes one ``error: ...``
line and exit 2, and ``--trace-out``/``--metrics-out`` are written once
the verb returns 0 or 1.
"""

from __future__ import annotations

import argparse
import sys

from repro import ReproError


def _add_common_gen_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="campaign RNG seed")
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="volume scale; 1.0 = the paper's 4.37M CEs",
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", metavar="PATH", default=None,
        help="enable tracing and write the span tree (wall/CPU time and "
        "record counts per span) as JSON to PATH",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the metrics registry (counters, gauges, latency "
        "histograms) as JSON to PATH",
    )


def _add_json_arg(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--json", action="store_true",
        help=f"emit {what} as JSON on stdout instead of the human-readable "
        "report",
    )


def _add_jobs_arg(parser: argparse.ArgumentParser, what: str) -> None:
    parser.add_argument(
        "--jobs", type=int, default=0,
        help=f"{what} in N parallel workers (0/1 = serial; byte-identical "
        "to serial)",
    )


def _add_policy_arg(parser: argparse.ArgumentParser, default: str) -> None:
    parser.add_argument(
        "--ingest-policy", choices=("strict", "repair", "skip"),
        default=default,
        help="how to treat unparseable telemetry: strict raises a typed "
        "error, repair salvages and re-sorts what it can, skip "
        f"quarantines silently (default {default})",
    )


def _add_predict_gate_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--min-auc", type=float, default=None, metavar="F",
        help="gate: exit 1 unless held-out AUC reaches F",
    )
    parser.add_argument(
        "--min-recall", type=float, default=None, metavar="F",
        help="gate: exit 1 unless held-out recall at the target FPR "
        "reaches F",
    )
    parser.add_argument(
        "--require-beats-baseline", action="store_true",
        help="gate: exit 1 unless the model beats the trivial "
        "rate-threshold baseline on held-out AUC and recall",
    )


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    _add_jobs_arg(parser, "run experiments")
    parser.add_argument(
        "--json-report",
        metavar="PATH",
        default=None,
        help="also write a machine-readable JSON run report to PATH",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="campaign cache directory (default: $ASTRA_MEMREPRO_CACHE_DIR "
        "or ~/.cache/astra-memrepro)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the campaign cache entirely",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment wall-time budget in the parallel path; a "
        "wedged worker is abandoned instead of stalling the run",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        help="re-attempts for a failing or timed-out experiment "
        "(exponential backoff; default 1)",
    )
    parser.add_argument(
        "--min-coverage",
        type=float,
        default=0.5,
        metavar="FRACTION",
        help="skip experiments whose input telemetry coverage is below "
        "this fraction (status skipped-insufficient-data; default 0.5)",
    )
    _add_policy_arg(parser, "strict")
    parser.add_argument(
        "--inject",
        choices=("light", "moderate", "hostile"),
        default=None,
        metavar="PROFILE",
        help="harness self-test: corrupt a copy of the campaign "
        "artifacts with the named fault-injection profile before "
        "ingesting them",
    )
    parser.add_argument(
        "--inject-seed",
        type=int,
        default=0,
        help="RNG seed for --inject (same seed = identical corruption)",
    )
    _add_obs_args(parser)
    parser.add_argument(
        "--profile",
        action="store_true",
        help="wrap each experiment body in cProfile and print per-"
        "experiment hotspot tables (adds overhead; off by default)",
    )


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="astra-memrepro",
        description="Reproduction of the HPDC'22 Astra memory-failure study.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate and store a campaign")
    _add_common_gen_args(p_synth)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.add_argument(
        "--text-logs", action="store_true", help="also write text logs (slower)"
    )
    p_synth.add_argument(
        "--shards", action="store_true", help="write per-rack error shards"
    )

    p_analyze = sub.add_parser("analyze", help="run experiments on a stored campaign")
    p_analyze.add_argument("directory", help="campaign directory from 'synth'")
    p_analyze.add_argument(
        "--exp", nargs="*", default=None, help="experiment ids (default: all)"
    )
    p_analyze.add_argument(
        "--rollups", metavar="DIR", default=None,
        help="attach a rollup snapshot directory; figure paths serve "
        "reads from its cubes when it matches the campaign "
        "(identity-gated, silent fallback to the rescan path otherwise)",
    )
    _add_run_args(p_analyze)

    p_exp = sub.add_parser("experiment", help="generate in memory and run experiments")
    _add_common_gen_args(p_exp)
    group = p_exp.add_mutually_exclusive_group(required=True)
    group.add_argument("--exp", nargs="*", help="experiment ids (empty = all)")
    group.add_argument("--all", action="store_true", help="run every experiment")
    _add_run_args(p_exp)

    p_stream = sub.add_parser(
        "stream",
        help="tail a campaign's text logs incrementally (live faults, "
        "alerts, checkpoint/resume)",
    )
    p_stream.add_argument(
        "directory", help="directory holding ce.log/het.log/bmc*/inventory*"
    )
    p_stream.add_argument(
        "--follow", action="store_true",
        help="keep polling for appended data instead of stopping at EOF",
    )
    p_stream.add_argument(
        "--poll-interval", type=float, default=1.0, metavar="SECONDS",
        help="idle sleep between empty polls under --follow (default 1.0)",
    )
    p_stream.add_argument(
        "--max-batches", type=int, default=None, metavar="N",
        help="stop after N consuming batches (bounded mode for tests/CI)",
    )
    p_stream.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="write crash-safe checkpoints here; an existing checkpoint "
        "is resumed from unless --no-resume",
    )
    p_stream.add_argument(
        "--no-resume", action="store_true",
        help="ignore an existing checkpoint and start from byte zero",
    )
    p_stream.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="N",
        help="checkpoint after every N consuming batches (default 1)",
    )
    p_stream.add_argument(
        "--alerts-out", default=None, metavar="PATH",
        help="append structured JSONL alert events to PATH",
    )
    p_stream.add_argument(
        "--batch-bytes", type=int, default=1 << 20, metavar="BYTES",
        help="bytes consumed per file per batch (default 1 MiB)",
    )
    p_stream.add_argument(
        "--faults-out", default=None, metavar="PATH",
        help="write the final live fault array to PATH as .npy",
    )
    _add_policy_arg(p_stream, "repair")
    p_stream.add_argument(
        "--ce-rate-threshold", type=int, default=100, metavar="N",
        help="CE count per node per window that trips the ce_rate alert",
    )
    p_stream.add_argument(
        "--ce-rate-window", type=float, default=3600.0, metavar="SECONDS",
        help="epoch-aligned window width for the ce_rate alert",
    )
    _add_obs_args(p_stream)
    p_stream.add_argument(
        "--rollups-dir", default=None, metavar="DIR",
        help="maintain rollup cubes incrementally and snapshot them here "
        "(versioned + atomic; query later with 'query --rollups DIR')",
    )
    _add_json_arg(p_stream, "one run summary")
    p_stream.add_argument(
        "--predict", action="store_true",
        help="mount the online failure predictor: re-score every CE "
        "batch's nodes and raise predicted_failure alerts through the "
        "same exactly-once sink (requires --model)",
    )
    p_stream.add_argument(
        "--model", metavar="PATH", default=None,
        help="trained predictor artifact from 'predict train' "
        "(CRC-guarded JSON)",
    )
    p_stream.add_argument(
        "--predict-rearm", type=float, default=86400.0, metavar="SECONDS",
        help="per-node re-arm window for predicted_failure alerts "
        "(event time; default 1 day)",
    )

    p_fleet = sub.add_parser(
        "fleet",
        help="synthesise and analyse a fleet of Astra-sized clusters "
        "through the sharded campaign engine",
    )
    p_fleet.add_argument(
        "--shard-dir", required=True, metavar="DIR",
        help="fleet directory (one campaign dir per cluster plus "
        "fleet.json); synthesised here when missing",
    )
    p_fleet.add_argument(
        "--clusters", type=int, default=None, metavar="N",
        help="number of Astra-sized clusters when synthesising "
        "(default 2; an existing fleet.json fixes the value)",
    )
    p_fleet.add_argument("--seed", type=int, default=7, help="fleet RNG seed")
    p_fleet.add_argument(
        "--scale", type=float, default=1.0,
        help="per-cluster volume scale; 1.0 = the paper's 4.37M CEs "
        "per cluster",
    )
    _add_jobs_arg(p_fleet, "process shards")
    p_fleet.add_argument(
        "--source", choices=("auto", "shards", "binary", "text"),
        default="auto",
        help="shard source: per-rack binary shards, whole-cluster binary "
        "mirrors, or text logs (auto prefers the finest binary form)",
    )
    p_fleet.add_argument(
        "--text-logs", action="store_true",
        help="when synthesising, also write per-cluster ce.log/het.log "
        "(required later for --source text; slower)",
    )
    p_fleet.add_argument(
        "--force-synth", action="store_true",
        help="re-synthesise every cluster even if the fleet exists",
    )
    p_fleet.add_argument(
        "--check", action="store_true",
        help="verify the sharded result byte-identical to the "
        "single-process whole-stream path (exit 1 on mismatch)",
    )
    p_fleet.add_argument(
        "--exp", nargs="*", default=None,
        help="also run experiments over the fleet-wide campaign "
        "(empty = all registered experiments)",
    )
    p_fleet.add_argument(
        "--fleet-report", metavar="PATH", default=None,
        help="write a machine-readable fleet report (schemas/"
        "fleet.schema.json) to PATH",
    )
    _add_policy_arg(p_fleet, "repair")
    p_fleet.add_argument(
        "--json-report", metavar="PATH", default=None,
        help="also write a JSON run report for --exp to PATH",
    )
    _add_obs_args(p_fleet)
    p_fleet.add_argument(
        "--cache-dir", default=None,
        help="campaign cache directory used during synthesis",
    )
    p_fleet.add_argument(
        "--no-cache", action="store_true",
        help="bypass the campaign cache during synthesis",
    )
    p_fleet.add_argument(
        "--resume", action="store_true",
        help="resume from the fleet ledger: shards committed by an "
        "interrupted run load from the shard cache instead of re-running "
        "(the re-reduction is byte-identical to an uninterrupted run)",
    )
    p_fleet.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="abandon and retry a shard whose worker exceeds this wall "
        "time (parallel mode; default: no limit)",
    )
    p_fleet.add_argument(
        "--shard-retries", type=int, default=2, metavar="N",
        help="re-attempts per shard (full-jitter backoff) before it is "
        "quarantined and the result degrades (default 2)",
    )
    p_fleet.add_argument(
        "--no-ledger", action="store_true",
        help="skip the fleet-ledger.jsonl journal and shard cache "
        "(disables --resume for this run)",
    )
    p_fleet.add_argument(
        "--chaos", choices=("light", "moderate", "hostile"), default=None,
        help="inject planned process/IO faults: light kills and wedges "
        "workers (retries absorb everything), moderate adds torn shards "
        "and ENOSPC, hostile adds bit rot -- see chaos-manifest.json",
    )
    p_fleet.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed of the chaos plan (same profile+seed = same faults)",
    )
    p_fleet.add_argument(
        "--faults-out", metavar="PATH", default=None,
        help="write the fleet-wide coalesced fault array to PATH (.npy)",
    )
    p_fleet.add_argument(
        "--rollups-out", metavar="DIR", default=None,
        help="have every shard worker maintain rollup cubes, merge them "
        "exactly during the reduction, and snapshot the fleet-wide "
        "store here (query later with 'query --rollups DIR')",
    )
    _add_json_arg(p_fleet, "one fleet summary (not with --exp)")

    p_query = sub.add_parser(
        "query",
        help="answer campaign-history queries from rollup cubes with "
        "zero log rescan",
    )
    p_query.add_argument(
        "directory",
        help="campaign directory the rollups describe (used by --build "
        "and --check to reach the raw records)",
    )
    p_query.add_argument(
        "--rollups", metavar="DIR", default=None,
        help="rollup snapshot directory (default: DIRECTORY/rollups)",
    )
    p_query.add_argument(
        "--build", action="store_true",
        help="(re)build a rollup snapshot from the campaign's records "
        "before answering",
    )
    p_query.add_argument(
        "--snapshot-version", type=int, default=None, metavar="N",
        help="load this snapshot version instead of the manifest's latest",
    )
    p_query.add_argument(
        "--select",
        choices=("errors", "faults", "mode_errors", "ce_windows", "dropout"),
        default="errors",
        help="what to count (default errors)",
    )
    p_query.add_argument(
        "--group-by", default="", metavar="DIMS",
        help="comma-separated dimensions (errors: rack,slot,bucket or "
        "node or bitpos or bank; faults: rack,slot,mode,bucket; "
        "ce_windows: node,window)",
    )
    p_query.add_argument(
        "--racks", default=None, metavar="IDS",
        help="comma-separated rack-id filter",
    )
    p_query.add_argument(
        "--slots", default=None, metavar="IDS",
        help="comma-separated DIMM-slot filter",
    )
    p_query.add_argument(
        "--nodes", default=None, metavar="IDS",
        help="comma-separated node-id filter (per-node cube only)",
    )
    p_query.add_argument(
        "--modes", default=None, metavar="NAMES",
        help="comma-separated fault-mode filter (e.g. single_bit,row)",
    )
    p_query.add_argument(
        "--since", type=float, default=None, metavar="EPOCH",
        help="time filter: include the bucket containing this time and "
        "later (bucket-granular, inclusive)",
    )
    p_query.add_argument(
        "--until", type=float, default=None, metavar="EPOCH",
        help="time filter: include buckets up to the one containing "
        "this time (inclusive)",
    )
    p_query.add_argument(
        "--top-k", type=int, default=None, metavar="K",
        help="keep only the K largest groups (ties break on key)",
    )
    p_query.add_argument(
        "--check", action="store_true",
        help="differential gate: recompute the answer by a full rescan "
        "of the raw records and assert element-for-element identity "
        "(exit 1 on any divergence)",
    )
    _add_policy_arg(p_query, "repair")
    _add_json_arg(p_query, "the answer document")
    _add_obs_args(p_query)

    p_mit = sub.add_parser(
        "mitigate", help="run the mitigation simulators on a campaign"
    )
    _add_common_gen_args(p_mit)
    p_mit.add_argument(
        "--retire-threshold", type=int, default=2, help="page retirement CE threshold"
    )
    p_mit.add_argument(
        "--exclude-budget", type=int, default=1000, help="exclude-list CE budget"
    )

    p_whatif = sub.add_parser(
        "whatif",
        help="counterfactual ECC replay: codes x scrub x retirement grids",
    )
    _add_common_gen_args(p_whatif)
    p_whatif.add_argument(
        "--codes",
        default="secded,chipkill,rs-36-32,rs-72-64",
        help="comma-separated protection codes to replay under "
        "(default: all four)",
    )
    p_whatif.add_argument(
        "--scrub",
        default="0,24",
        help="comma-separated patrol-scrub intervals in hours; 0 = no "
        "scrubbing (default: 0,24)",
    )
    p_whatif.add_argument(
        "--retire",
        default="0,2",
        help="comma-separated page-retirement CE thresholds; 0 = off "
        "(default: 0,2)",
    )
    p_whatif.add_argument(
        "--exclude-budget",
        type=int,
        default=0,
        help="exclude-list CE budget applied to every scenario; 0 = off",
    )
    _add_jobs_arg(p_whatif, "replay policy groups")
    p_whatif.add_argument(
        "--fleet",
        metavar="DIR",
        default=None,
        help="replay a stored fleet campaign directory instead of "
        "synthesising one from --seed/--scale",
    )
    p_whatif.add_argument(
        "--scenarios-out",
        metavar="PATH",
        default=None,
        help="write the per-scenario report tables as JSON to PATH "
        "(schemas/whatif.schema.json)",
    )
    p_whatif.add_argument(
        "--check",
        action="store_true",
        help="verify the vectorised engine element-for-element against "
        "the brute-force per-event reference on a downsampled replay "
        "(exit 1 on any mismatch)",
    )
    p_whatif.add_argument(
        "--check-events",
        type=int,
        default=20000,
        metavar="N",
        help="downsample size for --check (default 20000)",
    )
    _add_obs_args(p_whatif)

    p_predict = sub.add_parser(
        "predict",
        help="train, evaluate and apply the online failure predictor",
    )
    predict_sub = p_predict.add_subparsers(dest="predict_command", required=True)

    p_ptrain = predict_sub.add_parser(
        "train",
        help="train on hazard-linked campaigns, evaluate held-out, "
        "write the model artifact",
    )
    p_ptrain.add_argument(
        "--out", required=True, metavar="PATH",
        help="where to write the model artifact (CRC-guarded JSON)",
    )
    p_ptrain.add_argument(
        "--train-seeds", default=None, metavar="CSV",
        help="comma-separated training campaign seeds (default 101,102,103)",
    )
    p_ptrain.add_argument(
        "--eval-seeds", default=None, metavar="CSV",
        help="comma-separated held-out campaign seeds (default 201,202); "
        "must be disjoint from --train-seeds",
    )
    p_ptrain.add_argument(
        "--scale", type=float, default=0.02,
        help="campaign volume scale for the train/eval campaigns "
        "(default 0.02)",
    )
    p_ptrain.add_argument(
        "--target-fpr", type=float, default=0.01, metavar="F",
        help="false-positive budget the alert threshold is set at "
        "(default 0.01)",
    )

    p_peval = predict_sub.add_parser(
        "eval",
        help="re-evaluate a saved model on held-out campaigns and gate",
    )
    p_peval.add_argument(
        "--model", required=True, metavar="PATH",
        help="model artifact from 'predict train'",
    )
    p_peval.add_argument(
        "--seeds", default=None, metavar="CSV",
        help="comma-separated held-out campaign seeds (default: the "
        "eval seeds recorded in the artifact, else 201,202)",
    )
    p_peval.add_argument(
        "--scale", type=float, default=None,
        help="campaign volume scale (default: recorded in the artifact)",
    )
    p_peval.add_argument(
        "--target-fpr", type=float, default=None, metavar="F",
        help="false-positive budget (default: recorded in the artifact)",
    )
    for p in (p_ptrain, p_peval):
        _add_jobs_arg(p, "build per-seed datasets")
        p.add_argument(
            "--report", metavar="PATH", default=None,
            help="write the eval report (schemas/predict.schema.json) to PATH",
        )
        _add_predict_gate_args(p)
        _add_json_arg(p, "the eval report")

    p_pscore = predict_sub.add_parser(
        "score",
        help="score every CE-active node of a stored campaign",
    )
    p_pscore.add_argument(
        "directory", help="campaign directory from 'synth'"
    )
    p_pscore.add_argument(
        "--model", required=True, metavar="PATH",
        help="model artifact from 'predict train'",
    )
    p_pscore.add_argument(
        "--at", type=float, default=None, metavar="EPOCH",
        help="score using only records at or before this time "
        "(default: the whole campaign)",
    )
    p_pscore.add_argument(
        "--top", type=int, default=10, metavar="K",
        help="print the K highest-risk nodes (default 10)",
    )
    _add_jobs_arg(p_pscore, "extract features")
    p_pscore.add_argument(
        "--scores-out", metavar="PATH", default=None,
        help="write the full (node, score) table as JSON to PATH",
    )
    _add_policy_arg(p_pscore, "repair")
    _add_json_arg(p_pscore, "the score table")
    for p in (p_ptrain, p_peval, p_pscore):
        _add_obs_args(p)

    p_serve = sub.add_parser(
        "serve",
        help="serve warm predictions, alerts and rollup queries over "
        "HTTP (asyncio, stdlib only)",
    )
    p_serve.add_argument(
        "--model", required=True, metavar="PATH",
        help="model artifact from 'predict train' (CRC-guarded; a "
        "damaged file is refused before the port binds)",
    )
    p_serve.add_argument(
        "directory", nargs="?", default=None,
        help="campaign directory to fold into the warm risk table "
        "(omit for an empty table)",
    )
    p_serve.add_argument(
        "--rollups", metavar="DIR", default=None,
        help="rollup snapshot directory for /v1/query "
        "(default: DIRECTORY/rollups when present)",
    )
    p_serve.add_argument(
        "--alerts", metavar="PATH", default=None,
        help="alerts JSONL (e.g. from stream --alerts-out) to tail "
        "incrementally for /v1/alerts",
    )
    p_serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default loopback)"
    )
    p_serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port; 0 binds an ephemeral port (default)",
    )
    p_serve.add_argument(
        "--ready-file", metavar="PATH", default=None,
        help="write {host, port, pid, model_id} as JSON once accepting "
        "(how tests and the bench discover an ephemeral port)",
    )
    _add_policy_arg(p_serve, "repair")
    _add_jobs_arg(p_serve, "fold the campaign at startup")

    p_val = sub.add_parser(
        "validate", help="check a campaign against the calibration targets"
    )
    _add_common_gen_args(p_val)

    p_rel = sub.add_parser(
        "release", help="write the section 2.4-shaped public data release"
    )
    _add_common_gen_args(p_rel)
    p_rel.add_argument("--out", required=True, help="release directory")
    p_rel.add_argument(
        "--sensor-cadence", type=float, default=3600.0,
        help="environmental sampling cadence in seconds",
    )

    sub.add_parser("list", help="list registered experiments")
    return parser


def _resolve_exp_ids(exp_ids):
    """Normalise a CLI ``--exp`` value to a concrete id list.

    ``None`` *and* an empty list mean "run all paper experiments"
    (matching the help-text default; a bare ``--exp`` no longer silently
    runs nothing).  Unknown ids raise ``SystemExit(2)`` with a friendly
    message instead of a traceback.
    """
    from repro import experiments

    if not exp_ids:
        return [e for e, _ in experiments.list_experiments()]
    known = {e for e, _ in experiments.list_experiments(include_extensions=True)}
    unknown = [e for e in exp_ids if e not in known]
    if unknown:
        print(
            f"error: unknown experiment id(s): {', '.join(unknown)}\n"
            f"known ids: {', '.join(sorted(known))}\n"
            "hint: 'astra-memrepro list' shows every registered experiment",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return list(exp_ids)


def _make_cache(cache_dir):
    """Build a CampaignCache, rejecting a path that is not a directory."""
    from repro.run import CampaignCache

    cache = CampaignCache(cache_dir)
    if cache.directory.exists() and not cache.directory.is_dir():
        print(
            f"error: cache dir exists and is not a directory: {cache.directory}",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return cache


def _inject_campaign(source, profile: str, inject_seed: int, policy: str):
    """Corrupt a disposable copy of the campaign and re-ingest it.

    ``source`` is either an in-memory campaign (written out first, with
    text logs so the fallback path has something to chew on) or an
    existing campaign directory (copied; the original is never touched).
    Returns ``(campaign, manifest)``.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.inject import LogCorruptor
    from repro.logs.campaign_io import (
        campaign_from_records,
        load_campaign_records,
        write_campaign,
    )

    workdir = Path(tempfile.mkdtemp(prefix="astra-inject-"))
    if isinstance(source, (str, Path)):
        shutil.copytree(source, workdir, dirs_exist_ok=True)
    else:
        write_campaign(source, workdir, text_logs=True)
    manifest = LogCorruptor(profile=profile, seed=inject_seed).corrupt_campaign(
        workdir
    )
    records = load_campaign_records(workdir, policy=policy)
    campaign = campaign_from_records(records)
    print(
        f"injected profile={manifest.profile} seed={manifest.seed} "
        f"({len(manifest.events)} fault events) into {workdir}"
    )
    return campaign, manifest


def _run_experiments(
    args, campaign, exp_ids, cache_outcome=None, campaign_dir=None,
    injection=None,
) -> int:
    """Run ``exp_ids`` over ``campaign`` and print/write the run report.

    ``fleet --exp`` has no run-budget flags; it runs with the runner's
    defaults for them.
    """
    from repro import obs
    from repro.run import ExperimentRunner

    exp_ids = _resolve_exp_ids(exp_ids)
    runner = ExperimentRunner(
        jobs=args.jobs,
        campaign_dir=campaign_dir,
        timeout_s=getattr(args, "timeout", None),
        retries=getattr(args, "retries", 1),
        min_coverage=getattr(args, "min_coverage", 0.0),
    )
    results, report = runner.run(campaign, exp_ids)
    if cache_outcome is not None:
        report.cache = cache_outcome.to_dict()
    report.ingest_policy = args.ingest_policy
    if injection is not None:
        report.injection = injection.to_dict()
    # Observability section (report schema v3): the metrics snapshot is
    # always cheap to carry; the trace tree rides along when tracing was
    # enabled, with any worker-process spans already merged in.
    report.metrics = obs.get_metrics().export()
    if obs.tracing_enabled():
        report.trace = obs.get_tracer().export()
    if obs.profiles():
        report.profiles = obs.profiles()
    for exp_id in exp_ids:
        if exp_id in results:
            print(results[exp_id].render())
        else:
            metric = next(m for m in report.experiments if m.exp_id == exp_id)
            print(f"== {exp_id} ==\n  ERROR: {metric.error}")
        print()
    if obs.profiles():
        print(obs.render_profiles())
        print()
    print(report.summary())
    if args.json_report:
        report.write(args.json_report)
        print(f"wrote JSON run report to {args.json_report}")
    return 0 if report.all_pass else 1


def _run_list(args) -> int:
    from repro.experiments import list_experiments

    for exp_id, title in list_experiments(include_extensions=True):
        print(f"{exp_id:<12} {title}")
    return 0


def _run_synth(args) -> int:
    from repro.logs.campaign_io import write_campaign
    from repro.synth import CampaignGenerator

    campaign = CampaignGenerator(seed=args.seed, scale=args.scale).generate()
    directory = write_campaign(
        campaign, args.out, text_logs=args.text_logs, shards=args.shards
    )
    print(
        f"wrote campaign (seed={args.seed}, scale={args.scale}, "
        f"{campaign.n_errors} CEs) to {directory}"
    )
    return 0


def _run_analyze(args) -> int:
    from repro.logs.campaign_io import (
        campaign_from_records,
        load_campaign_records,
    )

    # Validate the ids before the expensive campaign load / coalescing.
    exp_ids = _resolve_exp_ids(args.exp)
    outcome = None
    injection = None
    campaign_dir = args.directory
    if args.inject:
        campaign, injection = _inject_campaign(
            args.directory, args.inject, args.inject_seed, args.ingest_policy
        )
        # Workers re-loading the corrupted directory under the default
        # strict policy would fail; ship the repaired campaign instead.
        campaign_dir = None
    else:
        records = load_campaign_records(args.directory, policy=args.ingest_policy)
        clean = all(s.source == "binary" for s in records.ingest.values())
        if not clean:
            campaign_dir = None
        if args.no_cache or not clean:
            # Degraded loads stay out of the campaign cache: an entry
            # keyed only by (seed, scale) must never serve partial data
            # to a later clean run.
            campaign = campaign_from_records(records)
        else:
            campaign, outcome = _make_cache(args.cache_dir).warm_from_records(
                records
            )
    if args.rollups:
        from repro.query import RollupStore

        campaign.rollups = RollupStore.load(args.rollups)
    return _run_experiments(
        args, campaign, exp_ids, outcome, campaign_dir, injection
    )


def _run_experiment(args) -> int:
    exp_ids = _resolve_exp_ids(None if args.all else args.exp)
    outcome = None
    injection = None
    campaign_dir = None
    if args.no_cache:
        from repro.synth import CampaignGenerator

        campaign = CampaignGenerator(seed=args.seed, scale=args.scale).generate()
    else:
        campaign, outcome = _make_cache(args.cache_dir).get_or_generate(
            seed=args.seed, scale=args.scale
        )
        campaign_dir = outcome.path
    if args.inject:
        # Harness self-test: write the campaign out (text logs and
        # all), corrupt the copy, and re-ingest it under the policy.
        campaign, injection = _inject_campaign(
            campaign, args.inject, args.inject_seed, args.ingest_policy
        )
        campaign_dir = None
    return _run_experiments(
        args, campaign, exp_ids, outcome, campaign_dir, injection
    )


def _run_stream(args) -> int:
    """The ``stream`` verb: drive a StreamPipeline over a directory."""
    import numpy as np

    from repro.stream import StreamPipeline
    from repro.stream.alerts import AlertRules

    model = None
    if args.predict:
        from repro.predict.model import Model

        if not args.model:
            raise ReproError(
                "--predict needs --model pointing at a trained "
                "artifact; hint: 'predict train --out model.json' "
                "produces one"
            )
        model = Model.load(args.model)
    elif args.model:
        raise ReproError(
            "--model does nothing without --predict; hint: add "
            "--predict to mount the online scorer"
        )
    pipeline = StreamPipeline(
        directory=args.directory,
        policy=args.ingest_policy,
        checkpoint_dir=args.checkpoint_dir,
        alerts_out=args.alerts_out,
        batch_bytes=args.batch_bytes,
        checkpoint_every=args.checkpoint_every,
        rules=AlertRules(
            ce_rate_threshold=args.ce_rate_threshold,
            ce_rate_window_s=args.ce_rate_window,
        ),
        resume=not args.no_resume,
        rollup_dir=args.rollups_dir,
        predict_model=model,
        predict_rearm_s=args.predict_rearm,
    )
    if pipeline.batches and not args.json:
        print(f"resumed from checkpoint at batch {pipeline.batches}")

    def progress(p, summary):
        consumed = ", ".join(
            f"{family}+{n}" for family, n in summary["consumed"].items()
        )
        line = f"batch {p.batches - 1}: {consumed or 'idle'}"
        if summary["alerts"]:
            line += f"; {len(summary['alerts'])} alert(s)"
        print(line)

    run_info = pipeline.run(
        max_batches=args.max_batches,
        follow=args.follow,
        poll_interval=args.poll_interval,
        progress=None if args.json else progress,
    )
    summary = pipeline.finalize()
    if args.json:
        import json

        doc = {
            "schema_version": 1,
            "steps": int(run_info["steps"]),
            "summary": summary,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(
            f"streamed {run_info['steps']} batch(es): "
            f"{summary['faults']} live fault(s), {summary['alerts']} alert(s)"
        )
        for family, s in sorted(summary["ingest"].items()):
            print(
                f"  {family}: seen={s['seen']} parsed={s['parsed']} "
                f"repaired={s['repaired']} quarantined={s['quarantined']} "
                f"coverage={s['coverage']:.3f}"
            )
        if summary["mode_counts"]:
            modes = ", ".join(
                f"{label}={n}"
                for label, n in sorted(summary["mode_counts"].items())
            )
            print(f"  modes: {modes}")
        if summary.get("rollups"):
            r = summary["rollups"]
            where = f" v{r['version']} at {r['dir']}" if r.get("dir") else ""
            print(
                f"  rollups: {r['errors']} CEs, {r['faults']} fault(s)"
                f"{where}"
            )
        if summary.get("predictor"):
            p = summary["predictor"]
            print(
                f"  predictor: model {p['model_id']}, "
                f"{p['scored_batches']} batch(es) scored"
            )
    if args.faults_out:
        np.save(args.faults_out, pipeline.coalescer.faults())
        if not args.json:
            print(f"wrote faults to {args.faults_out}")
    return 0


def _predict_gates(report: dict, args) -> list[str]:
    """Evaluate the CI gate flags against an eval report."""
    failures = []
    model = report["model"]
    base = report["baseline"]
    if args.min_auc is not None and model["auc"] < args.min_auc:
        failures.append(
            f"held-out AUC {model['auc']:.4f} below --min-auc {args.min_auc}"
        )
    if args.min_recall is not None and model["recall_at_fpr"] < args.min_recall:
        failures.append(
            f"recall@{report['target_fpr']:g}FPR {model['recall_at_fpr']:.4f} "
            f"below --min-recall {args.min_recall}"
        )
    if args.require_beats_baseline:
        if model["auc"] <= base["auc"]:
            failures.append(
                f"model AUC {model['auc']:.4f} does not beat the rate-"
                f"threshold baseline {base['auc']:.4f}"
            )
        if model["recall_at_fpr"] < base["recall_at_fpr"]:
            failures.append(
                f"model recall@FPR {model['recall_at_fpr']:.4f} below the "
                f"baseline's {base['recall_at_fpr']:.4f}"
            )
    return failures


def _emit_predict_report(report: dict, args, extra_lines=()) -> int:
    """Shared report rendering + gates for train/eval; returns exit code."""
    import json

    failures = _predict_gates(report, args)
    if args.report:
        from pathlib import Path

        Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        m, b = report["model"], report["baseline"]
        print(
            f"held-out: AUC {m['auc']:.4f} (baseline {b['auc']:.4f}), "
            f"recall@{report['target_fpr']:g}FPR {m['recall_at_fpr']:.4f} "
            f"(baseline {b['recall_at_fpr']:.4f})"
        )
        print(
            f"operating point: precision {m['precision_at_threshold']:.4f}, "
            f"recall {m['recall_at_threshold']:.4f}"
        )
        lead = ", ".join(
            f"{e['lead_h']}h={e['recall']:.3f}" for e in m["lead_curve"]
        )
        print(f"lead-time recall: {lead}")
        for line in extra_lines:
            print(line)
        if args.report:
            print(f"wrote eval report to {args.report}")
    for failure in failures:
        print(f"gate FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _run_predict(args) -> int:
    """The ``predict`` verb: train / eval / score."""
    return {
        "train": _predict_train,
        "eval": _predict_eval,
        "score": _predict_score,
    }[args.predict_command](args)


def _predict_train(args) -> int:
    from repro.predict import EVAL_SEEDS, TRAIN_SEEDS, train_and_evaluate

    train_seeds = (
        tuple(_parse_axis(args.train_seeds, int, "--train-seeds"))
        if args.train_seeds else TRAIN_SEEDS
    )
    eval_seeds = (
        tuple(_parse_axis(args.eval_seeds, int, "--eval-seeds"))
        if args.eval_seeds else EVAL_SEEDS
    )
    model, report = train_and_evaluate(
        train_seeds=train_seeds,
        eval_seeds=eval_seeds,
        scale=args.scale,
        jobs=args.jobs,
        target_fpr=args.target_fpr,
    )
    model_id = model.save(args.out)
    extra = [
        f"wrote model {model_id} to {args.out} "
        f"(train seeds {list(train_seeds)}, eval seeds {list(eval_seeds)})"
    ]
    return _emit_predict_report(report, args, extra)


def _predict_eval(args) -> int:
    from repro.predict import DatasetConfig, PredictError, build_seed_datasets
    from repro.predict.model import Model
    from repro.predict.train import EVAL_SEEDS, eval_report

    model = Model.load(args.model)
    trained = model.trained
    seeds = (
        tuple(_parse_axis(args.seeds, int, "--seeds"))
        if args.seeds
        else tuple(trained.get("eval_seeds", EVAL_SEEDS))
    )
    overlap = set(map(int, trained.get("train_seeds", ()))) & set(
        map(int, seeds)
    )
    if overlap:
        raise PredictError(
            f"eval seeds {sorted(overlap)} were in the model's training "
            f"set; hint: pick --seeds the model never saw"
        )
    scale = args.scale if args.scale is not None else float(
        trained.get("scale", 0.02)
    )
    target_fpr = args.target_fpr if args.target_fpr is not None else float(
        trained.get("target_fpr", 0.01)
    )
    config = (
        DatasetConfig.from_dict(trained["dataset"])
        if "dataset" in trained else DatasetConfig()
    )
    ds = build_seed_datasets(seeds, scale, config, args.jobs)
    report = eval_report(model, ds, seeds, target_fpr, scale, config)
    return _emit_predict_report(report, args)


def _predict_score(args) -> int:
    import json

    from repro.logs.campaign_io import load_campaign_records
    from repro.predict import score_records
    from repro.predict.model import Model

    model = Model.load(args.model)
    records = load_campaign_records(
        args.directory, policy=args.ingest_policy
    )
    nodes, scores = score_records(
        records.errors, records.het, model, at=args.at, jobs=args.jobs
    )
    doc = {
        "schema_version": 1,
        "kind": "predict-scores",
        "model_id": model.model_id,
        "threshold": float(model.threshold),
        "at": args.at,
        "directory": str(args.directory),
        "nodes": nodes.tolist(),
        "scores": scores.tolist(),
    }
    if args.scores_out:
        from pathlib import Path

        Path(args.scores_out).write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    import numpy as np

    order = np.lexsort((nodes, -scores))[: max(args.top, 0)]
    print(
        f"scored {nodes.size} node(s) with model {model.model_id} "
        f"(threshold {model.threshold:.4f})"
    )
    for rank, i in enumerate(order.tolist(), 1):
        flag = " AT RISK" if scores[i] >= model.threshold else ""
        print(f"  #{rank}: node {int(nodes[i])} score {scores[i]:.4f}{flag}")
    if args.scores_out:
        print(f"wrote scores to {args.scores_out}")
    return 0


def _run_serve(args) -> int:
    """The ``serve`` verb: warm state + the asyncio HTTP front door."""
    from repro.serve import ServeState, run as serve_run

    state = ServeState.build(
        args.model,
        directory=args.directory,
        rollups_dir=args.rollups,
        alerts_path=args.alerts,
        policy=args.ingest_policy,
        jobs=args.jobs,
    )
    serve_run(
        state, host=args.host, port=args.port, ready_file=args.ready_file
    )
    return 0


def _query_inputs(directory, source: str, policy: str):
    """Gather ``(errors, faults, sensor_samples)`` the way ``source`` did.

    Symmetry is the point: ``--build`` and ``--check`` both come through
    here, so the reference a check recomputes from is fed by exactly the
    ingest path that produced the snapshot under test -- ``stream``
    snapshots re-parse the text logs under the recorded policy, ``batch``
    snapshots re-load the binary mirrors, ``fleet`` snapshots re-read
    the node-offset concatenation of the cluster mirrors.
    """
    from pathlib import Path

    from repro.faults.coalesce import coalesce

    directory = Path(directory)
    if source == "stream":
        from repro.logs.syslog import ingest_ce_log

        errors = ingest_ce_log(directory / "ce.log", policy=policy).errors
    elif source == "fleet":
        from repro.fleet import Fleet, fleet_errors

        errors = fleet_errors(Fleet.load(directory))
    else:
        from repro.logs.campaign_io import load_campaign_records

        errors = load_campaign_records(directory, policy=policy).errors
    samples = None
    bmc_files = sorted(directory.glob("bmc*.csv"))
    if bmc_files:
        import numpy as np

        from repro.logs.bmc import ingest_bmc_log

        parts = [ingest_bmc_log(p, policy=policy)[0] for p in bmc_files]
        samples = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return errors, coalesce(errors), samples


def _run_query(args) -> int:
    """The ``query`` verb: rollup-served answers plus the --check gate."""
    import json
    from pathlib import Path

    from repro.query import (
        Query,
        RollupStore,
        answers_equal,
        build_store,
        execute,
        recompute,
    )

    directory = Path(args.directory)
    rollup_dir = (
        Path(args.rollups) if args.rollups else directory / "rollups"
    )

    where = {}
    for key, raw, flag in (
        ("rack", args.racks, "--racks"),
        ("slot", args.slots, "--slots"),
        ("node", args.nodes, "--nodes"),
    ):
        if raw is not None:
            where[key] = _parse_axis(raw, int, flag)
    if args.modes is not None:
        where["mode"] = [
            m.strip() for m in args.modes.split(",") if m.strip()
        ]
    if args.since is not None:
        where["since"] = args.since
    if args.until is not None:
        where["until"] = args.until
    group_by = tuple(
        d.strip() for d in (args.group_by or "").split(",") if d.strip()
    )
    query = Query(
        args.select, group_by=group_by, where=where, top_k=args.top_k
    )

    if args.build:
        errors, faults, samples = _query_inputs(
            directory, "batch", args.ingest_policy
        )
        store = build_store(
            errors,
            faults=faults,
            sensor_samples=samples,
            source="batch",
            policy=args.ingest_policy,
        )
        version = store.snapshot(rollup_dir)
        if not args.json:
            print(
                f"built rollup snapshot v{version} at {rollup_dir} "
                f"({store.errors_seen} CEs, {store.n_faults} faults)"
            )
    else:
        store = RollupStore.load(
            rollup_dir, version=args.snapshot_version
        )
        version = (
            args.snapshot_version
            if args.snapshot_version is not None
            else RollupStore.latest_version(rollup_dir)
        )
    answer = execute(store, query)

    check_doc = None
    exit_code = 0
    if args.check:
        source = store.source if store.source in ("stream", "fleet") else "batch"
        policy = store.policy or args.ingest_policy
        errors, faults, samples = _query_inputs(directory, source, policy)
        reference = build_store(
            errors,
            faults=faults,
            config=store.config,
            sensor_samples=samples,
            source=store.source,
            policy=store.policy,
        )
        ref_answer = recompute(
            query,
            store.config,
            errors=errors,
            faults=faults,
            sensor_times=None if samples is None else samples["time"],
        )
        answer_ok = answers_equal(answer, ref_answer)
        store_ok = store.equal(reference)
        check_doc = {
            "identical": bool(answer_ok and store_ok),
            "answer_identical": bool(answer_ok),
            "store_identical": bool(store_ok),
            "source": source,
            "policy": policy,
            "n_errors_reference": int(errors.size),
        }
        if not (answer_ok and store_ok):
            what = []
            if not answer_ok:
                what.append("answer differs from the full-rescan recompute")
            if not store_ok:
                what.append("cubes differ from the from-scratch rebuild")
            print(f"check FAILED: {'; '.join(what)}", file=sys.stderr)
            exit_code = 1
        elif not args.json:
            print(
                "check: cube answer element-identical to the full-rescan "
                f"recompute over {errors.size} records (source={source})"
            )

    if args.json:
        doc = {
            "schema_version": 1,
            "answer": answer,
            "rollups": {
                "dir": str(rollup_dir),
                "version": version,
                "source": store.source,
                "policy": store.policy,
                "errors_seen": int(store.errors_seen),
                "n_faults": int(store.n_faults),
            },
            "check": check_doc,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        dims = ",".join(answer["group_by"]) or "-"
        print(
            f"query: select={answer['select']} group_by={dims} "
            f"served_from={answer['served_from']} (snapshot v{version})"
        )
        shown = 0
        for key, value in zip(answer["keys"], answer["values"]):
            if shown >= 40:
                print(f"  ... ({answer['n_groups'] - shown} more group(s))")
                break
            label = " ".join(
                f"{d}={k}" for d, k in zip(answer["group_by"], key)
            )
            print(f"  {label or 'total'}: {value}")
            shown += 1
        print(f"  groups={answer['n_groups']} total={answer['total']}")
    return exit_code


def _fleet_reference_faults(fleet, result, source: str, policy: str):
    """The single-process whole-stream answer the shard engine must match.

    Binary sources compare against coalescing the concatenated binary
    mirrors; the text source compares against serially re-parsing every
    cluster's ``ce.log`` (text timestamps carry second resolution, so the
    binary mirrors are not its ground truth).

    Degraded results stay checkable: the reference excludes the records
    of quarantined shards (via :func:`repro.fleet.drop_quarantined`), so
    a ``pass-degraded`` run is verified exact *over the shards that
    survived* rather than reported as a spurious mismatch.
    """
    import numpy as np

    from repro.faults.coalesce import coalesce
    from repro.fleet import drop_quarantined, fleet_errors
    from repro.logs.syslog import ingest_ce_log

    if source != "text":
        return coalesce(drop_quarantined(fleet, result, fleet_errors(fleet)))
    parts = []
    quarantined_clusters = {
        q["cluster"] for q in getattr(result, "quarantined", ())
    }
    for i, cdir in enumerate(fleet.cluster_dirs):
        if fleet.spec.cluster_name(i) in quarantined_clusters:
            continue
        errors = ingest_ce_log(cdir / "ce.log", policy=policy).errors.copy()
        errors["node"] += fleet.spec.node_offset(i)
        parts.append(errors)
    if not parts:
        from repro.faults.types import ERROR_DTYPE

        return coalesce(np.zeros(0, dtype=ERROR_DTYPE))
    merged = np.concatenate(parts)
    return coalesce(merged[np.argsort(merged["time"], kind="stable")])


def _run_fleet(args) -> int:
    """The ``fleet`` verb: synthesise, shard-process, check, analyse."""
    import json
    import time
    from pathlib import Path

    import numpy as np

    from repro.fleet import (
        Fleet,
        FleetSpec,
        fleet_campaign,
        process_fleet,
        synth_fleet,
    )

    if args.json and args.exp is not None:
        raise ReproError(
            "--json cannot be combined with --exp; hint: use "
            "--json-report for the experiment run report"
        )

    shard_dir = Path(args.shard_dir)
    existing = Fleet.load(shard_dir) if shard_dir.exists() else None
    if existing is not None and not args.force_synth:
        if args.clusters is not None and args.clusters != existing.spec.n_clusters:
            raise ReproError(
                f"{shard_dir} already holds a "
                f"{existing.spec.n_clusters}-cluster fleet; pass "
                "--force-synth to re-synthesise it"
            )
        spec = existing.spec
    else:
        spec = FleetSpec(
            n_clusters=args.clusters if args.clusters is not None else 2,
            seed=args.seed,
            scale=args.scale,
        )
    cache = None if args.no_cache else _make_cache(args.cache_dir)
    fleet = synth_fleet(
        spec,
        shard_dir,
        text_logs=args.text_logs or args.source == "text",
        shards=True,
        cache=cache,
        force=args.force_synth,
    )
    if not args.json:
        print(
            f"fleet: {spec.n_clusters} cluster(s), seed={spec.seed}, "
            f"scale={spec.scale}, {fleet.spec.fleet_topology().n_nodes} "
            f"nodes at {shard_dir}"
        )

    result = process_fleet(
        fleet, jobs=args.jobs, source=args.source,
        policy=args.ingest_policy,
        task_timeout_s=args.task_timeout,
        shard_retries=args.shard_retries,
        resume=args.resume,
        ledger=not args.no_ledger,
        chaos=args.chaos,
        chaos_seed=args.chaos_seed,
        rollups=bool(args.rollups_out),
    )
    if not args.json:
        modes = ", ".join(
            f"{label}={n}"
            for label, n in sorted(result.mode_histogram().items())
            if n
        )
        print(
            f"processed {len(result.per_shard)} shard(s) with "
            f"jobs={args.jobs}: {result.n_errors} CEs -> "
            f"{result.n_faults} fault(s) in {result.wall_s:.2f}s"
        )
        if modes:
            print(f"  modes: {modes}")
        status_line = f"  status: {result.status}"
        if result.coverage is not None:
            status_line += f", coverage={result.coverage:.4f}"
        if result.retries:
            status_line += f", retries={result.retries}"
        if result.resumed_shards:
            status_line += f", resumed={len(result.resumed_shards)}"
        if result.integrity_failures:
            status_line += (
                f", integrity_failures={result.integrity_failures}"
            )
        print(status_line)
    for entry in result.quarantined:
        print(
            f"  quarantined {entry['cluster']}/{entry['shard']} "
            f"after {entry['attempts']} attempt(s): {entry['reason']}",
            file=sys.stderr,
        )
    if result.status == "fail":
        print(
            "error: every shard was quarantined; no fleet result survived",
            file=sys.stderr,
        )
        return 1

    rollup_info = None
    if args.rollups_out and result.rollups is not None:
        version = result.rollups.snapshot(args.rollups_out)
        rollup_info = {
            "dir": str(args.rollups_out),
            "version": int(version),
            "errors_seen": int(result.rollups.errors_seen),
            "n_faults": int(result.rollups.n_faults),
        }
        if not args.json:
            print(
                f"  rollups: snapshot v{version} at {args.rollups_out} "
                f"({result.rollups.errors_seen} CEs)"
            )

    check = None
    exit_code = 0
    if args.check:
        reference = _fleet_reference_faults(
            fleet, result, args.source, args.ingest_policy
        )
        identical = (
            result.faults.dtype == reference.dtype
            and result.faults.tobytes() == reference.tobytes()
        )
        check = {
            "identical": bool(identical),
            "reference": "text" if args.source == "text" else "binary",
            "n_faults_reference": int(reference.size),
            "degraded": bool(result.quarantined),
        }
        if not identical:
            print(
                f"check FAILED: sharded faults differ from the "
                f"whole-stream path ({result.n_faults} vs {reference.size})",
                file=sys.stderr,
            )
            exit_code = 1
        elif not args.json:
            scope = (
                "whole-stream path over surviving shards"
                if result.quarantined else "whole-stream path"
            )
            print(f"check: sharded result identical to {scope} "
                  f"({reference.size} faults)")

    if args.fleet_report:
        from repro._util import iso

        now = time.time()
        doc = {
            "schema_version": 1,
            "created": now,
            "created_iso": iso(now) + "Z",
            "fleet": fleet.to_dict(),
            "result": result.to_dict(),
            "check": check,
        }
        Path(args.fleet_report).write_text(json.dumps(doc, indent=2) + "\n")
        if not args.json:
            print(f"wrote fleet report to {args.fleet_report}")

    if args.faults_out:
        np.save(args.faults_out, result.faults)
        if not args.json:
            print(f"wrote faults to {args.faults_out}")

    if args.json:
        doc = {
            "schema_version": 1,
            "fleet": fleet.to_dict(),
            "result": result.to_dict(),
            "check": check,
            "rollups": rollup_info,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.exp is not None:
        exp_code = _run_experiments(
            args, fleet_campaign(fleet, result=result), args.exp
        )
        return exit_code or exp_code
    return exit_code


def _parse_axis(raw: str, kind, flag: str) -> list:
    """Parse a comma-separated numeric CLI axis with a friendly exit 2."""
    out = []
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(kind(part))
        except ValueError:
            print(
                f"error: invalid {flag} value {part!r} (expected "
                f"{kind.__name__}s, comma-separated)",
                file=sys.stderr,
            )
            raise SystemExit(2) from None
    if not out:
        print(f"error: {flag} must name at least one value", file=sys.stderr)
        raise SystemExit(2)
    return out


def _run_whatif(args) -> int:
    """The ``whatif`` verb: counterfactual scenario replay + self-check."""
    import json
    import time

    import numpy as np

    from repro import obs
    from repro.mitigation.codes import CODES
    from repro.mitigation.reference import reference_replay_events
    from repro.mitigation.whatif import (
        render_table,
        replay_campaign,
        replay_events,
        scenario_grid,
    )

    codes = [c.strip() for c in args.codes.split(",") if c.strip()]
    unknown = [c for c in codes if c not in CODES]
    if not codes or unknown:
        raise ReproError(
            f"unknown code(s): {', '.join(unknown) or '(none given)'}\n"
            f"known codes: {', '.join(CODES)}"
        )
    scrub_hours = _parse_axis(args.scrub, float, "--scrub")
    retire = _parse_axis(args.retire, int, "--retire")
    if min(scrub_hours) < 0 or min(retire) < 0 or args.exclude_budget < 0:
        raise ReproError(
            "--scrub/--retire/--exclude-budget values must be >= 0 "
            "(0 disables the mechanism)"
        )

    if args.fleet:
        from repro.fleet import Fleet, fleet_errors

        fleet = Fleet.load(args.fleet)
        errors = np.ascontiguousarray(fleet_errors(fleet))
        source = f"fleet:{args.fleet}"
    else:
        from repro.synth import CampaignGenerator

        campaign = CampaignGenerator(seed=args.seed, scale=args.scale).generate()
        errors = campaign.errors
        source = "synth"

    scenarios = scenario_grid(
        codes=codes,
        scrub_hours=scrub_hours,
        retire_thresholds=retire,
        exclude_budget=args.exclude_budget,
    )
    t0 = time.perf_counter()
    reports = replay_campaign(errors, scenarios, seed=args.seed, jobs=args.jobs)
    wall = time.perf_counter() - t0
    print(
        f"replayed {errors.size} CEs under {len(scenarios)} scenarios "
        f"in {wall:.2f}s (source={source}, jobs={args.jobs})"
    )
    print(render_table(reports))

    check_payload = None
    exit_code = 0
    if args.check:
        n = int(errors.size)
        take = min(max(int(args.check_events), 1), n) if n else 0
        sel = np.unique(np.linspace(0, n - 1, take).astype(np.int64)) if n else []
        sub = errors[sel]
        mismatches = 0
        with obs.span("whatif.check", transient=True) as sp:
            for sc in scenarios:
                fast = replay_events(sub, sc, seed=args.seed)
                slow = reference_replay_events(sub, sc, seed=args.seed)
                mismatches += int((fast != slow).sum())
            sp.add(events=int(sub.size), scenarios=len(scenarios))
        check_payload = {
            "identical": mismatches == 0,
            "events_compared": int(sub.size),
            "scenarios_compared": len(scenarios),
            "mismatches": mismatches,
        }
        if mismatches:
            print(
                f"check FAILED: {mismatches} per-event mismatches vs the "
                "brute-force reference",
                file=sys.stderr,
            )
            exit_code = 1
        else:
            print(
                f"check ok: engine identical to brute-force reference on "
                f"{sub.size} events x {len(scenarios)} scenarios"
            )

    if args.scenarios_out:
        now = time.time()
        payload = {
            "schema_version": 1,
            "created": now,
            "created_iso": time.strftime(
                "%Y-%m-%dT%H:%M:%SZ", time.gmtime(now)
            ),
            "campaign": {
                "seed": int(args.seed),
                "scale": float(args.scale),
                "n_errors": int(errors.size),
                "source": source,
            },
            "grid": {
                "codes": codes,
                "scrub_h": [float(s) for s in scrub_hours],
                "retire": [int(r) for r in retire],
                "exclude_budget": int(args.exclude_budget),
            },
            "jobs": int(args.jobs),
            "wall_s": wall,
            "check": check_payload,
            "scenarios": [r.to_dict() for r in reports],
        }
        from pathlib import Path

        Path(args.scenarios_out).write_text(json.dumps(payload, indent=2))
        print(f"wrote scenario report to {args.scenarios_out}")
    return exit_code


def _run_mitigate(args) -> int:
    from repro.mitigation import (
        ExcludeListPolicy,
        PageRetirementPolicy,
        simulate_exclude_list,
        simulate_page_retirement,
    )
    from repro.synth import CampaignGenerator

    campaign = CampaignGenerator(seed=args.seed, scale=args.scale).generate()
    retire = simulate_page_retirement(
        campaign.errors,
        PageRetirementPolicy(threshold=args.retire_threshold),
    )
    exclude = simulate_exclude_list(
        campaign.errors, ExcludeListPolicy(ce_budget=args.exclude_budget)
    )
    print(f"campaign: {campaign.n_errors} CEs (seed={args.seed}, scale={args.scale})")
    print(
        f"page retirement (k={args.retire_threshold}): avoided "
        f"{retire.errors_avoided} CEs ({retire.avoided_fraction:.1%}), "
        f"{retire.pages_retired} pages ({retire.retired_bytes / 1024:.0f} KiB)"
    )
    print(
        f"exclude list (B={args.exclude_budget}): avoided "
        f"{exclude.errors_avoided} CEs ({exclude.avoided_fraction:.1%}), "
        f"{exclude.nodes_excluded} nodes, "
        f"{exclude.node_seconds_lost / 86400.0:.0f} node-days lost"
    )
    return 0


def _run_release(args) -> int:
    from repro.logs.release import write_release
    from repro.synth import CampaignGenerator

    campaign = CampaignGenerator(seed=args.seed, scale=args.scale).generate()
    directory = write_release(
        campaign, args.out, sensor_cadence_s=args.sensor_cadence
    )
    print(f"wrote release ({campaign.n_errors} CE records) to {directory}")
    return 0


def _run_validate(args) -> int:
    from repro.synth import CampaignGenerator, render_validation, validate_campaign

    campaign = CampaignGenerator(seed=args.seed, scale=args.scale).generate()
    checks = validate_campaign(campaign)
    print(render_validation(checks))
    return 0 if all(c.passed for c in checks) else 1


#: Every verb and its handler, in ``--help`` order; also the vocabulary
#: of the unknown-command pre-check in :func:`main`.
_VERBS = {
    "synth": _run_synth,
    "analyze": _run_analyze,
    "experiment": _run_experiment,
    "stream": _run_stream,
    "fleet": _run_fleet,
    "query": _run_query,
    "mitigate": _run_mitigate,
    "whatif": _run_whatif,
    "predict": _run_predict,
    "serve": _run_serve,
    "validate": _run_validate,
    "release": _run_release,
    "list": _run_list,
}

#: ``args`` attributes of every output-path flag, checked before any verb.
_OUTPUT_PATHS = (
    "json_report", "trace_out", "metrics_out", "alerts_out", "faults_out",
    "report", "scores_out", "scenarios_out", "fleet_report",
)


def _check_output_paths(args) -> None:
    """Fail fast (exit 2) on an output path whose directory is missing."""
    from pathlib import Path

    for dest in _OUTPUT_PATHS:
        path = getattr(args, dest, None)
        if not path:
            continue
        parent = Path(path).resolve().parent
        if not parent.is_dir():
            flag = "--" + dest.replace("_", "-")
            print(
                f"error: {flag} directory does not exist: {parent}",
                file=sys.stderr,
            )
            raise SystemExit(2)


def _dispatch(args) -> int:
    """Run one verb between the shared prologue and epilogue.

    Tracing is configured before any campaign load so ingest/cache spans
    land in the trace.  The trace and metrics files are written whenever
    the verb gets to an answer (exit 0 or 1), never after a refusal.
    """
    from repro import obs

    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    obs.configure(
        trace=bool(trace_out),
        profile=bool(getattr(args, "profile", False)),
    )
    _check_output_paths(args)
    code = _VERBS[args.command](args)
    if code != 2:
        announce = not getattr(args, "json", False)
        if trace_out:
            obs.write_trace(trace_out)
            if announce:
                print(f"wrote trace to {trace_out}")
        if metrics_out:
            obs.write_metrics(metrics_out)
            if announce:
                print(f"wrote metrics to {metrics_out}")
    return code


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    argv = list(sys.argv[1:] if argv is None else argv)
    # Friendly unknown-subcommand handling (same convention as unknown
    # experiment ids): a clear error plus the known vocabulary, exit 2,
    # instead of argparse's bare usage dump.
    first = next((a for a in argv if not a.startswith("-")), None)
    if first is not None and first not in _VERBS:
        print(
            f"error: unknown command {first!r}\n"
            f"known commands: {', '.join(_VERBS)}\n"
            "hint: 'astra-memrepro --help' shows usage",
            file=sys.stderr,
        )
        return 2
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ReproError, OSError) as exc:
        # Every typed refusal carries its own found/expected and hint;
        # an unusable path names itself.  One line, exit 2, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
