"""Every holder of per-(node, window) counts tells the same story.

The ``ce_rate`` rule, the predictor's features and the rollup cubes
each keep a :class:`~repro.window_counts.WindowCounts`.  After one
stream pass with rollups and the predictor mounted, their CE columns
must equal each other and the query engine's full-rescan oracle; and
their sensor-dropout counts must agree when BMC samples arrive out of
order across files.
"""

import numpy as np
import pytest

from repro._util import epoch, iso
from repro.logs.syslog import ingest_ce_log
from repro.machine.sensors import NodeSensorComplement
from repro.machine.topology import AstraTopology
from repro.predict.features import FEATURE_NAMES
from repro.predict.model import Model
from repro.query.engine import Query, recompute
from repro.query.rollup import RollupConfig
from repro.stream.alerts import read_alerts
from repro.stream.pipeline import StreamPipeline


def _null_model() -> Model:
    """A model that scores every node 0: mounts the feature state
    without raising predicted_failure alerts."""
    k = len(FEATURE_NAMES)
    return Model(
        mu=np.zeros(k), sigma=np.ones(k), w=np.zeros(k), b=0.0,
        cal_x=np.zeros(1), cal_y=np.zeros(1), threshold=1.0,
        geometry={
            "n_nodes": AstraTopology().n_nodes,
            "nodes_per_rack": 72,
            "n_slots": 16,
        },
        window_s=3600.0,
    )


def _pipeline(directory, **kw) -> StreamPipeline:
    return StreamPipeline(
        directory=directory, resume=False, rollup_config=RollupConfig(),
        predict_model=_null_model(), **kw,
    )


@pytest.mark.parametrize("batch_bytes", [1 << 14, 1 << 20])
def test_ce_columns_equal_across_holders_and_rescan(
    stream_campaign_dir, batch_bytes
):
    pipe = _pipeline(stream_campaign_dir, batch_bytes=batch_bytes)
    pipe.run()

    engine = pipe.engine.to_state()["ce_counts"]
    features = [
        [n, w, c]
        for n, wins in pipe.scorer.state.to_state()["ce"]
        for w, c in wins
    ]
    rollups = [
        list(row) for row in zip(*(a.tolist() for a in (
            pipe.rollups.ce_window_items()
        )))
    ]
    assert engine
    assert engine == features == rollups

    errors = ingest_ce_log(
        stream_campaign_dir / "ce.log", policy="repair"
    ).errors
    answer = recompute(
        Query("ce_windows", group_by=["node", "window"]),
        pipe.rollups.config, errors=errors,
    )
    assert [k + [v] for k, v in zip(answer["keys"], answer["values"])] \
        == rollups


def _write_bmc(path, times):
    name = NodeSensorComplement().names[0]
    lines = ["timestamp,node,sensor,value"]
    lines += [f"{iso(t)},0001,{name},40.00" for t in times]
    path.write_text("\n".join(lines) + "\n")


def test_dropouts_agree_when_a_second_bmc_file_replays_the_past(tmp_path):
    t0 = epoch("2019-06-01")
    span = np.arange(0.0, 1080.0, 60.0)
    camp = tmp_path / "camp"
    camp.mkdir()
    # File a: a real 980 s gap.  File b: the same span again, late,
    # with a 600 s hole inside it -- beyond every holder's gap limit,
    # but behind the watermark file a already set.
    _write_bmc(camp / "bmc-a.csv",
               t0 + np.concatenate([span, np.arange(2000.0, 2660.0, 60.0)]))
    _write_bmc(camp / "bmc-b.csv",
               t0 + span[(span <= 300.0) | (span >= 900.0)])

    pipe = _pipeline(camp, alerts_out=tmp_path / "alerts.jsonl")
    pipe.run()
    dropouts = [
        a for a in read_alerts(tmp_path / "alerts.jsonl")
        if a["rule"] == "sensor_dropout"
    ]
    assert [a["detail"]["gap_s"] for a in dropouts] == [980.0]
    assert pipe.scorer.state.dropout_total == len(dropouts)
    assert pipe.rollups.dropout_count == len(dropouts)


def test_one_gap_limit_for_alerts_features_and_rollups(tmp_path):
    # A 240 s hole: beyond the 180 s limit, inside the 300 s one the
    # predictor's features used to apply on their own.
    t0 = epoch("2019-06-01")
    camp = tmp_path / "camp"
    camp.mkdir()
    _write_bmc(camp / "bmc.csv", t0 + np.concatenate([
        np.arange(0.0, 600.0, 60.0), np.arange(780.0, 1200.0, 60.0),
    ]))

    pipe = _pipeline(camp, alerts_out=tmp_path / "alerts.jsonl")
    pipe.run()
    dropouts = [
        a for a in read_alerts(tmp_path / "alerts.jsonl")
        if a["rule"] == "sensor_dropout"
    ]
    assert [a["detail"]["gap_s"] for a in dropouts] == [240.0]
    assert pipe.scorer.state.dropout_total == 1
    assert pipe.rollups.dropout_count == 1
