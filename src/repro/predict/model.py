"""Zero-dependency calibrated logistic regression.

Training is deterministic full-batch gradient descent in float64 --
fixed iteration count, fixed learning rate, zero initialisation, no
randomness anywhere -- so retraining on the same dataset reproduces the
model byte-for-byte.  Raw probabilities are then passed through an
isotonic (pool-adjacent-violators) step function fitted on the training
scores, which repairs the over-confidence a mis-specified linear model
shows on heavy-tailed count features without touching the ranking.

The on-disk artifact is a single JSON file whose ``crc`` field is the
CRC-32C of the canonical payload (sorted keys, compact separators) --
the same guard the rollup snapshots use -- and whose ``model_id`` is
that checksum rendered in hex.  The loader refuses damaged files, wrong
schema versions, and foreign feature layouts with found/expected + hint
errors; scoring refuses node ids outside the recorded fleet geometry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from repro._util import atomic_write, mismatch, read_artifact
from repro.logs.integrity import crc32c
from repro.predict.errors import PredictError
from repro.predict.features import FEATURE_NAMES, FEATURE_SCHEMA_VERSION

#: Version of the artifact layout itself.
MODEL_SCHEMA_VERSION = 1

#: Gradient-descent hyperparameters (part of the determinism contract).
_LEARNING_RATE = 0.5
_ITERATIONS = 500
_L2 = 1e-3


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _pav(values: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Pool-adjacent-violators: the non-decreasing weighted fit."""
    n = values.size
    fitted = values.astype(np.float64).copy()
    w = weights.astype(np.float64).copy()
    # Blocks as (start, mean, weight); merge while decreasing.
    starts = [0]
    means = [fitted[0]] if n else []
    wsum = [w[0]] if n else []
    for i in range(1, n):
        starts.append(i)
        means.append(fitted[i])
        wsum.append(w[i])
        while len(means) > 1 and means[-2] >= means[-1]:
            total = wsum[-2] + wsum[-1]
            merged = (means[-2] * wsum[-2] + means[-1] * wsum[-1]) / total
            starts.pop()
            means.pop()
            wsum.pop()
            means[-1] = merged
            wsum[-1] = total
    out = np.empty(n, dtype=np.float64)
    bounds = starts + [n]
    for k in range(len(means)):
        out[bounds[k]:bounds[k + 1]] = means[k]
    return out


@dataclass
class Model:
    """A trained, calibrated scorer plus its provenance."""

    mu: np.ndarray          # feature means (standardisation)
    sigma: np.ndarray       # feature stds, zeros replaced by 1
    w: np.ndarray           # logistic weights
    b: float                # intercept
    cal_x: np.ndarray       # isotonic breakpoints (raw probabilities)
    cal_y: np.ndarray       # calibrated probability per breakpoint
    threshold: float        # alerting operating point
    geometry: dict          # {"n_nodes", "nodes_per_rack", "n_slots"}
    window_s: float
    feature_schema_version: int = FEATURE_SCHEMA_VERSION
    trained: dict = field(default_factory=dict)

    @cached_property
    def model_id(self) -> str:
        """Content hash of the artifact (hex CRC-32C).

        Cached: the payload never mutates after fit/load, and the serve
        hot path stamps this id on every response.
        """
        return f"{crc32c(self._canonical()):08x}"

    # ------------------------------------------------------------------
    def score(self, X: np.ndarray) -> np.ndarray:
        """Calibrated failure probability per row."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.w.size:
            raise mismatch(
                PredictError, "feature width",
                X.shape[1] if X.ndim == 2 else X.shape, self.w.size,
                "extract features with the same FEATURE_NAMES layout the "
                "model was trained on",
            )
        z = (X - self.mu) / self.sigma
        raw = _sigmoid(z @ self.w + self.b)
        idx = np.searchsorted(self.cal_x, raw, side="right") - 1
        return self.cal_y[np.clip(idx, 0, self.cal_y.size - 1)]

    def check_nodes(self, nodes) -> None:
        """Refuse node ids outside the fleet the model was trained on."""
        nodes = np.asarray(nodes, dtype=np.int64)
        if nodes.size and (
            int(nodes.max()) >= self.geometry["n_nodes"] or int(nodes.min()) < 0
        ):
            raise mismatch(
                PredictError, "fleet geometry",
                f"node id {int(nodes.max())}",
                f"< {self.geometry['n_nodes']} nodes",
                "the model was trained on a different fleet; retrain "
                "with `repro predict train` on this topology",
            )

    # ------------------------------------------------------------------
    def _payload(self) -> dict:
        return {
            "schema": MODEL_SCHEMA_VERSION,
            "kind": "predict-model",
            "feature_schema_version": self.feature_schema_version,
            "feature_names": list(FEATURE_NAMES),
            "window_s": self.window_s,
            "geometry": self.geometry,
            "mu": self.mu.tolist(),
            "sigma": self.sigma.tolist(),
            "w": self.w.tolist(),
            "b": self.b,
            "cal_x": self.cal_x.tolist(),
            "cal_y": self.cal_y.tolist(),
            "threshold": self.threshold,
            "trained": self.trained,
        }

    def _canonical(self) -> bytes:
        return json.dumps(
            self._payload(), sort_keys=True, separators=(",", ":")
        ).encode()

    def save(self, path) -> str:
        """Write the artifact durably; returns the model_id."""
        payload = self._payload()
        payload["crc"] = crc32c(self._canonical())
        doc = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        atomic_write(path, doc.encode())
        return f"{payload['crc']:08x}"

    @classmethod
    def load(cls, path) -> "Model":
        return read_artifact(
            path, PredictError, partial(cls._decode, path), what="model",
            hint=f"retrain with `repro predict train` or restore {path} "
            "from a good copy",
            kind=("kind", "predict-model"),
            version=("schema", MODEL_SCHEMA_VERSION),
        )

    @classmethod
    def _decode(cls, path, payload: dict) -> "Model":
        crc = payload.pop("crc", None)
        model = cls(
            mu=np.asarray(payload["mu"], dtype=np.float64),
            sigma=np.asarray(payload["sigma"], dtype=np.float64),
            w=np.asarray(payload["w"], dtype=np.float64),
            b=float(payload["b"]),
            cal_x=np.asarray(payload["cal_x"], dtype=np.float64),
            cal_y=np.asarray(payload["cal_y"], dtype=np.float64),
            threshold=float(payload["threshold"]),
            geometry=dict(payload["geometry"]),
            window_s=float(payload["window_s"]),
            feature_schema_version=int(payload["feature_schema_version"]),
            trained=dict(payload["trained"]),
        )
        found = crc32c(model._canonical())
        if crc != found:
            raise mismatch(
                PredictError, f"model {path} integrity check (CRC)", crc,
                found, "the artifact is damaged -- retrain with `repro "
                "predict train` or restore it from a good copy",
            )
        if model.feature_schema_version != FEATURE_SCHEMA_VERSION:
            raise mismatch(
                PredictError, "feature schema version",
                model.feature_schema_version, FEATURE_SCHEMA_VERSION,
                "the model predates this feature layout; retrain with "
                "`repro predict train`",
            )
        if payload["feature_names"] != list(FEATURE_NAMES):
            raise mismatch(
                PredictError, "feature names", payload["feature_names"],
                list(FEATURE_NAMES),
                "the model predates this feature layout; retrain with "
                "`repro predict train`",
            )
        return model


def fit(
    X: np.ndarray,
    y: np.ndarray,
    geometry: dict,
    window_s: float,
    target_fpr: float = 0.01,
    trained: dict | None = None,
) -> Model:
    """Train + calibrate on ``(X, y)``; fully deterministic."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=bool)
    if X.ndim != 2 or X.shape[0] != y.size:
        raise PredictError(
            f"shape mismatch: X {X.shape} vs y {y.shape}; hint: build "
            f"the dataset with repro.predict.dataset"
        )
    if y.all() or not y.any():
        raise PredictError(
            f"cannot fit on a single-class dataset ({int(y.sum())} of "
            f"{y.size} positive); hint: add campaigns or widen the "
            f"label horizon"
        )
    mu = X.mean(axis=0)
    sigma = X.std(axis=0)
    sigma = np.where(sigma == 0.0, 1.0, sigma)
    Z = (X - mu) / sigma
    yf = y.astype(np.float64)

    w = np.zeros(X.shape[1], dtype=np.float64)
    b = 0.0
    n = float(y.size)
    for _ in range(_ITERATIONS):
        p = _sigmoid(Z @ w + b)
        err = p - yf
        w -= _LEARNING_RATE * ((Z.T @ err) / n + _L2 * w)
        b -= _LEARNING_RATE * float(err.mean())

    raw = _sigmoid(Z @ w + b)
    order = np.argsort(raw, kind="stable")
    cal_fit = _pav(yf[order], np.ones(y.size))
    # Collapse to breakpoints: one (raw score, calibrated value) pair
    # per distinct raw score, keeping the last fitted value of each tie
    # run -- the step function stays monotone because the full PAV fit
    # is non-decreasing.
    raw_sorted = raw[order]
    keep = np.ones(raw_sorted.size, dtype=bool)
    keep[:-1] = raw_sorted[1:] != raw_sorted[:-1]
    cal_x = raw_sorted[keep]
    cal_y = cal_fit[keep]

    model = Model(
        mu=mu, sigma=sigma, w=w, b=float(b),
        cal_x=cal_x, cal_y=cal_y,
        threshold=0.5, geometry=dict(geometry), window_s=float(window_s),
        trained=dict(trained or {}),
    )
    # Operating point: calibrated-score threshold at the target FPR on
    # the training rows (the eval report re-measures it held-out).
    from repro.predict.metrics import threshold_at_fpr

    model.threshold = float(
        threshold_at_fpr(y, model.score(X), target_fpr)
    )
    return model
