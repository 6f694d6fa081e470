"""Warm request-serving state behind ``repro serve``.

Everything a request can ask for is computed *once* -- at startup or on
the first append to a watched file -- and then served from memory:

- the model artifact is loaded through the CRC-guarded
  :meth:`repro.predict.model.Model.load` (a damaged file is refused
  before the server ever binds its port);
- the campaign's CE/HET records are folded into per-node risk scores a
  single time, producing a sorted score table that answers both
  point lookups (``/v1/risk``) and top-k (``/v1/risk/top``) without
  ever touching the logs again;
- the alerts JSONL is tailed incrementally -- a cached byte offset
  means each refresh parses only the bytes appended since the last
  request, never the whole file;
- rollup queries pass straight through to the read-optimized
  :func:`repro.query.execute` over an in-memory
  :class:`~repro.query.rollup.RollupStore`.

The state object itself is synchronous and cheap per-request; the
asyncio front door in :mod:`repro.serve.server` calls into it directly
on the event loop.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro import ReproError
from repro._util import read_artifact
from repro.predict.errors import PredictError
from repro.predict.model import Model
from repro.predict.score import score_records

#: Version of every serve response envelope
#: (``schemas/serve.schema.json``).
SERVE_SCHEMA_VERSION = 1


class ServeError(ReproError, RuntimeError):
    """A request asked for something this server cannot answer."""


class NotFound(ServeError):
    """The requested entity does not exist."""


class _AlertTail:
    """Incremental JSONL alert reader with a cached byte offset.

    ``refresh`` reads only the bytes appended since the previous call
    and keeps any trailing partial line buffered for the next round, so
    a live ``repro stream --alerts-out`` file can be tailed while it is
    still being written.
    """

    def __init__(self, path: Path):
        self.path = Path(path)
        self.offset = 0
        self._partial = b""
        self.alerts: list[dict] = []

    def refresh(self) -> None:
        try:
            size = self.path.stat().st_size
        except OSError:
            return
        if size < self.offset:
            # Truncated (exactly-once resume rewound it): start over.
            self.offset = 0
            self._partial = b""
            self.alerts = []
        if size == self.offset:
            return
        with open(self.path, "rb") as fh:
            fh.seek(self.offset)
            chunk = fh.read(size - self.offset)
        lines = (self._partial + chunk).split(b"\n")
        # Parse before any state moves: a damaged line is refused on
        # every refresh, not skipped after the first.
        parsed = [
            read_artifact(
                self.path, ServeError, _alert, data=line,
                what=f"alert line in {self.path}", hint="restore the alerts "
                "file the stream wrote, or serve without --alerts",
            )
            for line in lines[:-1] if line.strip()
        ]
        self.offset, self._partial = size, lines[-1]
        self.alerts.extend(parsed)


def _alert(doc: dict) -> dict:
    """One alert line; ``/v1/alerts`` pages by its integer ``seq``."""
    if not isinstance(doc["seq"], int):
        raise TypeError("seq is not an integer")
    return doc


class ServeState:
    """All warm state behind the HTTP front door."""

    def __init__(
        self,
        model: Model,
        nodes: np.ndarray,
        scores: np.ndarray,
        *,
        rollups=None,
        alerts: _AlertTail | None = None,
        source: dict | None = None,
    ):
        self.model = model
        self.nodes = nodes
        self.scores = scores
        self.rollups = rollups
        self._alerts = alerts
        self.source = dict(source or {})
        self.requests = 0
        #: raw query params -> answer envelope.  The rollup store never
        #: mutates while serving, so repeated queries are pure lookups.
        self._query_cache: dict[tuple, dict] = {}
        #: node id -> row in the score table.
        self._row = {int(n): i for i, n in enumerate(nodes.tolist())}
        #: rows sorted by (-score, node): the top-k order, precomputed.
        self._top_order = np.lexsort((nodes, -scores))

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        model_path,
        directory=None,
        *,
        rollups_dir=None,
        alerts_path=None,
        policy: str | None = None,
        jobs: int = 0,
    ) -> "ServeState":
        """Load the model, fold the campaign once, attach side feeds.

        ``directory`` is a campaign log directory; omitting it serves an
        empty risk table (health/alerts/query endpoints still work).
        """
        from repro import obs

        with obs.span("serve.load_model", transient=True):
            model = Model.load(model_path)

        nodes = np.zeros(0, dtype=np.int64)
        scores = np.zeros(0, dtype=np.float64)
        source: dict = {"model": str(model_path)}
        if directory is not None:
            from repro.logs.campaign_io import load_campaign_records

            with obs.span("serve.fold", transient=True):
                records = load_campaign_records(directory, policy=policy)
                nodes, scores = score_records(
                    records.errors, records.het, model, jobs=jobs
                )
            source.update(
                {
                    "directory": str(directory),
                    "seed": records.seed,
                    "scale": records.scale,
                    "n_errors": int(records.errors.size),
                    "n_het": int(records.het.size),
                }
            )
            obs.count("serve.nodes_scored", nodes.size)

        rollups = None
        if rollups_dir is None and directory is not None:
            candidate = Path(directory) / "rollups"
            if candidate.is_dir():
                rollups_dir = candidate
        if rollups_dir is not None:
            from repro.query import RollupStore

            with obs.span("serve.load_rollups", transient=True):
                rollups = RollupStore.load(rollups_dir)
            source["rollups"] = str(rollups_dir)

        tail = None
        if alerts_path is not None:
            tail = _AlertTail(Path(alerts_path))
            tail.refresh()
            source["alerts"] = str(alerts_path)

        return cls(
            model, nodes, scores, rollups=rollups, alerts=tail, source=source
        )

    # -- endpoints -----------------------------------------------------
    def envelope(self, **body) -> dict:
        return {"schema_version": SERVE_SCHEMA_VERSION, **body}

    def health(self) -> dict:
        return self.envelope(
            status="ok",
            model_id=self.model.model_id,
            nodes_scored=int(self.nodes.size),
            pid=os.getpid(),
        )

    def risk(self, node: int) -> dict:
        """Point lookup: the warm score of one node."""
        row = self._row.get(int(node))
        if row is None:
            # A node the campaign never saw errors from still has a
            # geometry-checked answer: no CE history means the model's
            # floor score, reported as not-at-risk.
            self.model.check_nodes([int(node)])
            return self.envelope(
                node=int(node), score=0.0, at_risk=False, observed=False,
                threshold=float(self.model.threshold),
                model_id=self.model.model_id,
            )
        score = float(self.scores[row])
        return self.envelope(
            node=int(node),
            score=score,
            at_risk=score >= self.model.threshold,
            observed=True,
            threshold=float(self.model.threshold),
            model_id=self.model.model_id,
        )

    def top(self, k: int) -> dict:
        """The k highest-risk nodes, ties broken by node id."""
        if k <= 0:
            raise ServeError("k must be positive")
        rows = self._top_order[:k]
        t = float(self.model.threshold)
        return self.envelope(
            k=int(k),
            threshold=t,
            model_id=self.model.model_id,
            nodes=[
                {
                    "node": int(self.nodes[r]),
                    "score": float(self.scores[r]),
                    "at_risk": bool(self.scores[r] >= t),
                }
                for r in rows.tolist()
            ],
        )

    def alerts_since(self, since: int = -1, limit: int = 100) -> dict:
        """Alerts with ``seq > since``, oldest first, capped at limit."""
        if self._alerts is None:
            raise NotFound(
                "no alert feed attached; hint: start the server with "
                "--alerts pointing at a stream --alerts-out file"
            )
        if limit <= 0:
            raise ServeError("limit must be positive")
        self._alerts.refresh()
        alerts = self._alerts.alerts
        # seq is dense and ascending, so the first match is at most
        # since+1 rows in; start from that guess and nudge, instead of
        # scanning the whole cache.
        lo = 0
        if since >= 0:
            lo = min(since + 1, len(alerts))
            while lo > 0 and alerts[lo - 1]["seq"] > since:
                lo -= 1
            while lo < len(alerts) and alerts[lo]["seq"] <= since:
                lo += 1
        window = alerts[lo : lo + limit]
        return self.envelope(
            since=int(since),
            limit=int(limit),
            total=len(alerts),
            alerts=window,
        )

    def query(self, params: dict) -> dict:
        """Rollup passthrough: cube-served, zero rescan."""
        from repro.query import Query, QueryError, execute

        if self.rollups is None:
            raise NotFound(
                "no rollups attached; hint: start the server with "
                "--rollups (or serve a campaign directory that has a "
                "rollups/ snapshot)"
            )
        cache_key = tuple(sorted(params.items()))
        cached = self._query_cache.get(cache_key)
        if cached is not None:
            return cached
        params = dict(params)
        select = params.pop("select", None)
        if select is None:
            raise ServeError("query needs select=; hint: one of errors, "
                             "faults, mode_errors, ce_windows, dropout")
        group_by = tuple(
            d for d in params.pop("group_by", "").split(",") if d
        )
        top_k = params.pop("top_k", None)
        where: dict = {}
        for key in ("rack", "slot", "node"):
            if key in params:
                where[key] = [int(v) for v in params.pop(key).split(",")]
        if "mode" in params:
            where["mode"] = params.pop("mode").split(",")
        for key in ("since", "until"):
            if key in params:
                where[key] = float(params.pop(key))
        if params:
            raise ServeError(
                f"unknown query params {sorted(params)}; hint: select, "
                f"group_by, top_k, rack, slot, node, mode, since, until"
            )
        try:
            q = Query(
                select,
                group_by=group_by,
                where=where,
                top_k=None if top_k is None else int(top_k),
            )
            answer = execute(self.rollups, q)
        except QueryError as exc:
            raise ServeError(str(exc)) from exc
        doc = self.envelope(answer=answer)
        if len(self._query_cache) < 4096:
            self._query_cache[cache_key] = doc
        return doc

    def stats(self) -> dict:
        return self.envelope(
            model_id=self.model.model_id,
            threshold=float(self.model.threshold),
            nodes_scored=int(self.nodes.size),
            nodes_at_risk=int((self.scores >= self.model.threshold).sum()),
            alerts_cached=(
                None if self._alerts is None else len(self._alerts.alerts)
            ),
            rollups=self.rollups is not None,
            requests=self.requests,
            source=self.source,
        )


__all__ = [
    "SERVE_SCHEMA_VERSION",
    "NotFound",
    "ServeError",
    "ServeState",
]
