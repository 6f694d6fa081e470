"""Per-layer timing: wrappers around the public calls of each layer.

Nothing in the program is edited.  :class:`LayerClock` swaps a class or
module attribute for a wrapper that adds the call's wall time (and a
call count) under a layer metric name, and puts the original back on
``restore``.  Times are inclusive: a wrapped call's time contains
whatever it calls.  Only traced runs install wrappers; end-to-end
metrics always come from untraced runs.
"""

from __future__ import annotations

import time
from collections import defaultdict


class LayerClock:
    def __init__(self):
        self.busy_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self._undo: list = []

    def wrap(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        # Undo restores the raw attribute (a classmethod stays one).
        raw = vars(owner).get(attr, original)
        busy, calls = self.busy_s, self.calls

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                busy[name] += time.perf_counter() - t0
                calls[name] += 1

        timed.__wrapped__ = original
        setattr(owner, attr, timed)
        self._undo.append((owner, attr, raw))

    def restore(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def reset(self) -> None:
        self.busy_s.clear()
        self.calls.clear()


def wrap_live(clock: LayerClock) -> None:
    """The layers one ``StreamPipeline.step`` calls into."""
    from repro.predict.score import OnlineScorer
    from repro.query.rollup import RollupStore
    from repro.stream.alerts import AlertEngine, AlertSink
    from repro.stream.online_coalesce import OnlineCoalescer
    from repro.stream.pipeline import StreamPipeline
    from repro.stream.tailer import LogTailer

    clock.wrap(LogTailer, "poll", "stream.poll_s")
    clock.wrap(OnlineCoalescer, "add", "stream.coalesce_s")
    clock.wrap(RollupStore, "update", "query.rollup_update_s")
    for attr in ("observe_errors", "observe_het", "observe_sensors"):
        clock.wrap(AlertEngine, attr, "stream.rules_s")
        clock.wrap(OnlineScorer, attr, "predict.score_s")
    clock.wrap(AlertSink, "emit", "stream.sink_s")
    clock.wrap(StreamPipeline, "checkpoint", "stream.checkpoint_s")


def wrap_serve_build(clock: LayerClock) -> None:
    """The loads ``ServeState.build`` performs at server start."""
    import repro.logs.campaign_io as campaign_io
    import repro.serve.state as serve_state
    from repro.predict.model import Model
    from repro.query.rollup import RollupStore

    clock.wrap(Model, "load", "predict.model_load_s")
    # build() imports load_campaign_records from its module at call time
    # and calls the score_records name bound in serve.state.
    clock.wrap(campaign_io, "load_campaign_records", "serve.fold_s")
    clock.wrap(serve_state, "score_records", "serve.fold_s")
    clock.wrap(RollupStore, "load", "query.rollups_load_s")


def wrap_query_execute(clock: LayerClock) -> None:
    """``query.execute`` as the serve memo reaches it (memo misses)."""
    import repro.query as query

    clock.wrap(query, "execute", "query.execute_s")
