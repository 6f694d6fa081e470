"""One refusal path for every verb: ``error: ...`` on stderr, exit 2.

Covers the shared CLI plumbing: every typed refusal is a
:class:`repro.ReproError`, ``main`` turns each into one line and exit 2
(never a traceback), and the output-path check names the flag that is
wrong.
"""

import pytest

from repro import ReproError
from repro.cli import main
from repro.fleet import FleetFormatError
from repro.fleet.ledger import LedgerError
from repro.logs.ingest import CampaignFormatError, IngestError, MalformedRecordError
from repro.logs.integrity import ShardIntegrityError
from repro.predict import PredictError
from repro.query import QueryError, RollupError
from repro.serve.state import NotFound, ServeError
from repro.stream.checkpoint import CheckpointError
from repro.stream.tailer import TailError


@pytest.mark.parametrize(
    "error_cls, builtin",
    [
        (IngestError, ValueError),
        (MalformedRecordError, ValueError),
        (CampaignFormatError, ValueError),
        (ShardIntegrityError, ValueError),
        (FleetFormatError, ValueError),
        (LedgerError, RuntimeError),
        (CheckpointError, RuntimeError),
        (TailError, RuntimeError),
        (RollupError, RuntimeError),
        (QueryError, ValueError),
        (PredictError, RuntimeError),
        (ServeError, RuntimeError),
        (NotFound, RuntimeError),
    ],
    ids=lambda v: v.__name__,
)
def test_typed_errors_share_the_refusal_root(error_cls, builtin):
    assert issubclass(error_cls, ReproError)
    assert issubclass(error_cls, builtin)


def test_chaos_faults_stay_outside_the_refusal_root():
    from repro.inject.chaos import ChaosKill, ChaosWedge

    assert not issubclass(ChaosKill, ReproError)
    assert not issubclass(ChaosWedge, ReproError)


def test_whatif_on_a_non_fleet_dir_is_a_clean_refusal(tmp_path, capsys):
    code = main(
        ["whatif", "--fleet", str(tmp_path), "--codes", "secded",
         "--scrub", "0", "--retire", "0"]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ")
    assert "fleet.json" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def text_campaign(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("cli-refusals") / "camp"
    assert main(
        ["synth", "--seed", "3", "--scale", "0.005", "--out", str(out_dir),
         "--text-logs"]
    ) == 0
    return out_dir


def test_stream_resume_over_corrupt_rollups_is_refused(
    text_campaign, tmp_path, capsys
):
    rollups = tmp_path / "rollups"
    argv = [
        "stream", str(text_campaign),
        "--checkpoint-dir", str(tmp_path / "ckpt"),
        "--rollups-dir", str(rollups),
        "--batch-bytes", str(1 << 18),
        "--max-batches", "1",
    ]
    assert main(argv) == 0
    (rollups / "rollup.json").write_text("{not json")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "hint" in err
    assert "Traceback" not in err


def test_output_path_refusal_names_the_flag(text_campaign, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            ["stream", str(text_campaign),
             "--alerts-out", str(tmp_path / "nodir" / "a.jsonl")]
        )
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--alerts-out directory does not exist" in err
    assert "--json-report" not in err


def test_refused_verb_writes_no_trace(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    code = main(
        ["whatif", "--fleet", str(tmp_path), "--trace-out", str(trace)]
    )
    assert code == 2
    assert not trace.exists()
    assert "wrote trace" not in capsys.readouterr().out
