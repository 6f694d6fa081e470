"""Tests of the benchmark itself (not of the program it measures).

Run from the checkout root::

    python3 -m pytest perfbench/tests -q

Inputs are built at a small scale in a temporary work directory, so the
suite takes about a minute.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.setup_import_path()

import inputs  # noqa: E402
import journeys  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import serve_bench  # noqa: E402

SMALL = 0.01


@pytest.fixture
def small_inputs(tmp_path, monkeypatch):
    """``inputs.ensure`` building tiny campaigns under ``tmp_path``."""
    monkeypatch.setattr(inputs, "SCALE", {w: SMALL for w in inputs.SCALE})

    def build(workload: str, seed: int, work: Path) -> Path:
        monkeypatch.setattr(inputs, "WORK", work)
        return inputs.ensure(workload, seed)

    return build


def _tree_bytes(directory: Path) -> dict:
    """Every file's bytes, except the wall-clock ``created`` stamp that
    rollup snapshot manifests (``rollup.json``) record per version."""
    out = {}
    for p in sorted(directory.rglob("*")):
        if not p.is_file():
            continue
        data = p.read_bytes()
        if p.name == "rollup.json":
            doc = json.loads(data)
            for entry in doc["versions"].values():
                entry.pop("created")
            data = json.dumps(doc, sort_keys=True).encode()
        out[str(p.relative_to(directory))] = data
    return out


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(small_inputs, tmp_path,
                                               workload):
    a = _tree_bytes(small_inputs(workload, 5, tmp_path / "a"))
    b = _tree_bytes(small_inputs(workload, 5, tmp_path / "b"))
    assert a.keys() == b.keys()
    assert [k for k in a if a[k] != b[k]] == []
    other = _tree_bytes(small_inputs(workload, 6, tmp_path / "c"))
    assert any(a[k] != other.get(k) for k in a)


def test_metric_names_match_benchmark_json():
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

    out = {
        "e2e": {name: 1.5 for name in run.END_TO_END},
        "layers": {}, "import_s": 1.0, "failures": [],
        "attempted": 3, "failed": 0,
    }
    for trace, names in ((False, e2e), (True, layers)):
        line = run.result_line(out, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == names


# -- open-loop schedule against a stalling server -------------------------
class _StallingServer:
    """Answers each GET with a tiny JSON 200; stalls once, mid-run."""

    def __init__(self, stall_at: int, stall_s: float):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen()
        self.port = self.sock.getsockname()[1]
        self.stall_at, self.stall_s = stall_at, stall_s
        self.served = 0
        self._lock = threading.Lock()
        self.threads = []

    def start(self, connections: int) -> None:
        def accept():
            for _ in range(connections):
                conn, _ = self.sock.accept()
                t = threading.Thread(target=self._serve, args=(conn,))
                t.start()
                self.threads.append(t)

        self._acceptor = threading.Thread(target=accept)
        self._acceptor.start()

    def _serve(self, conn) -> None:
        buf = b""
        body = b'{"schema_version":1}\n'
        with conn:
            while True:
                data = conn.recv(65536)
                if not data:
                    return
                buf += data
                while b"\r\n\r\n" in buf:
                    _, buf = buf.split(b"\r\n\r\n", 1)
                    with self._lock:
                        self.served += 1
                        stall = self.served == self.stall_at
                    if stall:
                        time.sleep(self.stall_s)
                    conn.sendall(
                        b"HTTP/1.1 200 OK\r\nContent-Length: "
                        + str(len(body)).encode() + b"\r\n\r\n" + body
                    )

    def close(self) -> None:
        self._acceptor.join()
        for t in self.threads:
            t.join()
        self.sock.close()


def test_schedule_keeps_pace_when_the_server_stalls():
    rate, n, stall_s = 500.0, 500, 0.3
    server = _StallingServer(stall_at=100, stall_s=stall_s)
    server.start(connections=1)
    res = loadgen.run_schedule("127.0.0.1", server.port, ["/x"] * n, rate,
                               connections=1)
    server.close()
    assert res.completed == n and set(res.status) == {200}
    # Sends never slipped behind the schedule while the server stalled.
    assert max(res.late_s) < 0.05
    # Requests due during the stall wait for it: timed from due time.
    stalled = [res.latency_s[i] for i in range(100, 100 + int(rate * 0.2))]
    assert min(stalled) > 0.05
    assert max(res.latency_s) >= stall_s * 0.9
    # Requests due well after it are fast again.
    assert sorted(res.latency_s[400:])[len(res.latency_s[400:]) // 2] < 0.05


# -- correctness gates reject wrong outputs -------------------------------
class _Records:
    def __init__(self, errors, het):
        self.errors, self.het = errors, het


def test_paper_gate_rejects_a_wrong_render_or_record():
    import numpy as np

    errors = np.arange(4, dtype=np.int64)
    het = np.arange(2, dtype=np.int64)
    renders = {"table1": "ok", "fig02": "ok"}
    ready = {
        "errors_sha256": common.sha256(errors.tobytes()),
        "het_sha256": common.sha256(het.tobytes()),
        "renders": {k: common.sha256(v.encode()) for k, v in renders.items()},
    }
    good = _Records(errors, het)
    assert journeys.paper_gate(ready, good, renders, common.sha256) == []
    wrong = dict(renders, fig02="off by one")
    assert journeys.paper_gate(ready, good, wrong, common.sha256)
    bad = _Records(errors[::-1].copy(), het)
    assert journeys.paper_gate(ready, bad, renders, common.sha256)


def test_live_gate_rejects_wrong_faults_stats_or_alerts():
    from repro.logs.ingest import IngestStats

    stats = IngestStats(family="errors", seen=10, parsed=7, repaired=2,
                        quarantined=1)
    ready = {"faults_sha256": "abc", "ce_stats": stats.to_dict()}
    ingest = {"errors": stats}
    assert journeys.live_gate(ready, "abc", ingest, []) == []
    assert journeys.live_gate(ready, "abd", ingest, [])
    assert journeys.live_gate(ready, "abc", ingest, ["line 1: bad"])
    leaky = IngestStats(family="errors", seen=11, parsed=7, repaired=2,
                        quarantined=1)
    assert journeys.live_gate(ready, "abc", {"errors": leaky}, [])


def test_rollup_digest_tells_cubes_apart():
    """The live cube check compares digests: equal stores (whatever
    their provenance) share one, and one more error changes it."""
    import numpy as np

    from repro.query import build_store
    from repro.synth import CampaignGenerator

    errors = CampaignGenerator(seed=3, scale=SMALL).generate().errors
    a = build_store(errors)
    b = build_store(errors)
    b.batches += 5
    assert a.equal(b)
    assert journeys.rollup_digest(a) == journeys.rollup_digest(b)
    c = build_store(np.concatenate([errors, errors[:1]]))
    assert not a.equal(c)
    assert journeys.rollup_digest(a) != journeys.rollup_digest(c)


def test_serve_gate_rejects_wrong_answers_statuses_and_bodies():
    good = b'{"schema_version":1,"answer":{"total":3}}\n'
    paths = ["/v1/query?select=errors", "/v1/stats"]
    res = loadgen.LoadResult(rate=1.0, duration_s=2.0)
    res.status = [200, 200]
    res.body = [good, b'{"schema_version":1}\n']
    expected = {paths[0]: {"total": 3}}
    any_doc = {}  # a schema every document satisfies
    failures, ok = serve_bench.serve_gate(paths, res, expected, any_doc)
    assert failures == [] and ok == [True, True]

    failures, ok = serve_bench.serve_gate(
        paths, res, {paths[0]: {"total": 4}}, any_doc
    )
    assert failures and ok == [False, True]
    res.status = [200, 500]
    failures, ok = serve_bench.serve_gate(paths, res, expected, any_doc)
    assert failures and ok == [True, False]
    res.status = [200, 200]
    res.body = [good, b'{"schema_version":1, "bogus"']
    failures, ok = serve_bench.serve_gate(paths, res, expected, any_doc)
    assert failures and ok == [True, False]

    serve_schema = json.loads(
        (common.ROOT / "schemas" / "serve.schema.json").read_text()
    )
    res.body = [good, b'{"schema_version":1,"bogus":1}\n']
    failures, _ = serve_bench.serve_gate(paths[1:], _one(res, 1), {},
                                         serve_schema)
    assert failures and "schema" in failures[0]


def test_serve_gate_checks_every_query_answer():
    """A body that is right for one query path is wrong for another: a
    server answering node 7 with node 5's cached document must fail,
    even though the gate has already seen (and passed) those bytes."""
    paths = ["/v1/query?select=errors&node=5",
             "/v1/query?select=errors&node=7",
             "/v1/query?select=errors&node=5"]
    five = b'{"schema_version":1,"answer":{"total":5}}\n'
    seven = b'{"schema_version":1,"answer":{"total":7}}\n'
    expected = {paths[0]: {"total": 5}, paths[1]: {"total": 7}}
    res = loadgen.LoadResult(rate=1.0, duration_s=3.0)
    res.status = [200, 200, 200]
    res.body = [five, seven, five]
    failures, ok = serve_bench.serve_gate(paths, res, expected, {})
    assert failures == [] and ok == [True, True, True]
    res.body = [five, five, five]
    failures, ok = serve_bench.serve_gate(paths, res, expected, {})
    assert ok == [True, False, True]
    assert failures == [f"serve: {paths[1]} answer != query.execute"]


def _one(res, i):
    out = loadgen.LoadResult(rate=res.rate, duration_s=res.duration_s)
    out.status, out.body = [res.status[i]], [res.body[i]]
    return out


def test_wrong_program_output_fails_the_run(small_inputs, tmp_path,
                                             monkeypatch):
    """A reference the program's output cannot match makes the whole
    run incorrect (exit 1), while its metrics are still printed; the
    run leaves its inputs as it found them."""
    d = small_inputs("paper", 5, tmp_path / "w")
    ready_path = d / "ready.json"
    ready = json.loads(ready_path.read_text())
    ready["renders"]["fig05"] = common.sha256(b"not what fig05 renders")
    ready_path.chmod(0o644)
    ready_path.write_text(json.dumps(ready))
    before = _tree_bytes(d)
    monkeypatch.setattr(common, "WORK", tmp_path / "w")
    monkeypatch.setattr(run, "WORK", tmp_path / "w")
    out = run.measure("paper", 5, 1.0, trace=False)
    assert _tree_bytes(d) == before
    assert list((tmp_path / "w" / "runs").iterdir()) == []
    line = run.result_line(out, trace=False)
    assert line["correct"] is False
    assert any("fig05" in f for f in out["failures"])
    assert set(line["metrics"]) == set(run.END_TO_END)
