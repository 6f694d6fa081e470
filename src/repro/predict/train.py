"""Train / evaluate orchestration and the eval report.

The protocol: train on one set of campaign seeds, evaluate on a
*disjoint* held-out set drawn from the same hazard-linked training
distribution, and always report the trivial rate-threshold baseline
(rank nodes by their 24-hour CE count) next to the model -- the
acceptance gate is the model beating that baseline on held-out AUC and
recall at the target false-positive rate.

The eval report is a JSON document validated by
``schemas/predict.schema.json``; CI's predict-smoke job regenerates it
and gates on the minimum-AUC / recall-at-fixed-FPR floors.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.machine.node import NodeConfig
from repro.machine.topology import AstraTopology
from repro.predict.dataset import (
    Dataset,
    DatasetConfig,
    build_seed_datasets,
)
from repro.predict.errors import PredictError
from repro.predict.features import FEATURE_INDEX
from repro.predict.metrics import (
    auc,
    lead_time_curve,
    precision_recall,
    recall_at_fpr,
)
from repro.predict.model import Model, fit

#: Report schema version (``schemas/predict.schema.json``).
REPORT_SCHEMA_VERSION = 1

#: Default seed split: disjoint by construction, documented in
#: EXPERIMENTS.md so the committed eval report is reproducible.
TRAIN_SEEDS = (101, 102, 103)
EVAL_SEEDS = (201, 202)


def default_geometry() -> dict:
    """The Astra fleet geometry models are stamped with."""
    topo = AstraTopology()
    node = NodeConfig()
    return {
        "n_nodes": topo.n_nodes,
        "nodes_per_rack": topo.nodes_per_rack,
        "n_slots": node.dimms_per_node,
    }


def baseline_scores(X: np.ndarray) -> np.ndarray:
    """The trivial rate-threshold competitor: 24h CE count per row."""
    return np.asarray(X, dtype=np.float64)[:, FEATURE_INDEX["ce_w24"]]


def _split_stats(ds: Dataset, seeds) -> dict:
    return {
        "seeds": [int(s) for s in seeds],
        "rows": ds.n_rows,
        "positives": ds.n_positive,
        "unseeable": int(ds.unseeable),
    }


def evaluate(model: Model, ds: Dataset, target_fpr: float) -> dict:
    """Held-out metrics for the model and the rate baseline."""
    scores = model.score(ds.X)
    base = baseline_scores(ds.X)
    precision, recall = precision_recall(ds.y, scores, model.threshold)
    return {
        "model": {
            "auc": auc(ds.y, scores),
            "recall_at_fpr": recall_at_fpr(ds.y, scores, target_fpr),
            "precision_at_threshold": precision,
            "recall_at_threshold": recall,
            "lead_curve": lead_time_curve(
                ds.y, scores, ds.lead_available, model.threshold
            ),
        },
        "baseline": {
            "auc": auc(ds.y, base),
            "recall_at_fpr": recall_at_fpr(ds.y, base, target_fpr),
        },
    }


def eval_report(
    model: Model,
    eval_ds: Dataset,
    eval_seeds,
    target_fpr: float,
    scale: float,
    config: DatasetConfig,
    train: dict | None = None,
) -> dict:
    """The ``predict-eval`` report (``schemas/predict.schema.json``).

    ``train`` describes the training split; when omitted (re-evaluating
    a saved model) it comes from the model's own provenance record.
    """
    if train is None:
        trained = model.trained
        train = {
            "seeds": sorted(set(map(int, trained.get("train_seeds", ())))),
            "rows": int(trained.get("rows", 0)),
            "positives": int(trained.get("positives", 0)),
            "unseeable": 0,
        }
    return {
        "schema": REPORT_SCHEMA_VERSION,
        "kind": "predict-eval",
        "model_id": model.model_id,
        "target_fpr": float(target_fpr),
        "scale": float(scale),
        "config": config.to_dict(),
        "train": train,
        "eval": _split_stats(eval_ds, eval_seeds),
        **evaluate(model, eval_ds, target_fpr),
    }


def train_and_evaluate(
    train_seeds=TRAIN_SEEDS,
    eval_seeds=EVAL_SEEDS,
    scale: float = 0.02,
    config: DatasetConfig | None = None,
    jobs: int = 0,
    target_fpr: float = 0.01,
) -> tuple[Model, dict]:
    """Full protocol; returns ``(model, eval report)``."""
    config = config or DatasetConfig()
    overlap = set(map(int, train_seeds)) & set(map(int, eval_seeds))
    if overlap:
        raise PredictError(
            f"train/eval seeds overlap on {sorted(overlap)}; hint: "
            f"evaluation is only honest on campaigns the model never saw"
        )
    with obs.span("predict.dataset", transient=True):
        train_ds = build_seed_datasets(train_seeds, scale, config, jobs)
        eval_ds = build_seed_datasets(eval_seeds, scale, config, jobs)
    obs.count("predict.train_rows", train_ds.n_rows)
    obs.count("predict.eval_rows", eval_ds.n_rows)

    with obs.span("predict.fit", transient=True):
        model = fit(
            train_ds.X,
            train_ds.y,
            geometry=default_geometry(),
            window_s=config.feature.window_s,
            target_fpr=target_fpr,
            trained={
                "train_seeds": [int(s) for s in train_seeds],
                "eval_seeds": [int(s) for s in eval_seeds],
                "scale": float(scale),
                "dataset": config.to_dict(),
                "target_fpr": float(target_fpr),
            },
        )
    with obs.span("predict.evaluate", transient=True):
        report = eval_report(
            model, eval_ds, eval_seeds, target_fpr, scale, config,
            train=_split_stats(train_ds, train_seeds),
        )
    return model, report
