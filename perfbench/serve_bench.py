"""The ``serve`` journey: ``repro serve`` under an open-loop schedule.

The server runs as its own process (``python -m repro serve`` over the
seed's campaign, rollup snapshot, model and alerts feed).  It is
started ``SETUP_PROBES`` times; each start is timed from spawn to its
ready file, and the last one takes the load.  This process is the one
load generator: after an untimed warm-up it sends the seeded request
mix at ``RATE`` per second over at most ``nproc`` connections (see
``loadgen.py``).  Afterwards every response is checked, and with
``--trace 1`` the same request sequence is replayed in-process through
``Server.handle`` to time each route.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np

from common import ROOT, SETUP_PROBES, child_env, peak_rss_mb
from loadgen import run_schedule

#: Offered load, requests per second.  Two pipelined connections
#: saturate a warm server near 15k/s on a 2-core host; at 7.5k/s a
#: fresh server's first seconds already pushed p99 past 50 ms, so the
#: rate sits at about a quarter of capacity, near what two closed-loop
#: connections sustain.
RATE = 4000.0
#: Untimed requests (a different draw of the same mix) sent to the
#: fresh server first, so lazy set-up is not charged to the schedule.
WARMUP_S = 2.0
#: Only responses within this time of their due time count toward
#: ``throughput``.  It sits above the p75 (0.20-0.25 ms on a 2-core
#: host) and near the p90, so the figure falls when the server slows
#: or stalls, not only when it falls behind the offered rate.
SLO_S = 0.001
#: A response slower than this (from its due time) is a failed
#: request.  A fresh server pauses for 50-140 ms a few times in some
#: runs, and once in 20 runs a pause passed 250 ms; the limit sits
#: above those, so it trips only when a backlog builds.
FAIL_AFTER_S = 1.0
#: Route mix (fractions of requests) and the Zipf exponent over the
#: query working set.  Both are assumptions, not measured traffic: see
#: README.md, "Serve traffic is assumed".
MIX = {"risk": 0.70, "top": 0.04, "stats": 0.04, "alerts": 0.04,
       "query": 0.18}
ZIPF_S = 0.9
READY_TIMEOUT_S = 60.0


# -- request mix ----------------------------------------------------------
def query_working_set(n_nodes: int, bucket0: int, n_buckets: int,
                      bucket_s: float, n_racks: int) -> list:
    """Distinct valid ``/v1/query`` requests as ``(path, Query kwargs)``.

    About 5,000 entries: larger than the server's 4,096-entry query
    memo, so both hits and misses occur.
    """
    out = []
    for n in range(n_nodes):
        out.append((f"select=errors&node={n}",
                    {"select": "errors", "where": {"node": [n]}}))
    for n in range(min(n_nodes, 1000)):
        out.append((f"select=ce_windows&node={n}",
                    {"select": "ce_windows", "where": {"node": [n]}}))
    for select, dim in (("errors", "rack"), ("faults", "mode")):
        for b in range(n_buckets):
            for span in (0, 6, 29):
                lo = (bucket0 + b) * bucket_s
                hi = (bucket0 + min(b + span, n_buckets - 1)) * bucket_s
                out.append((
                    f"select={select}&group_by={dim}&since={lo:.0f}"
                    f"&until={hi:.0f}",
                    {"select": select, "group_by": (dim,),
                     "where": {"since": lo, "until": hi}},
                ))
    for r in range(n_racks):
        out.append((f"select=errors&group_by=slot&rack={r}",
                    {"select": "errors", "group_by": ("slot",),
                     "where": {"rack": [r]}}))
    return [(f"/v1/query?{q}", kw) for q, kw in out]


def request_mix(seed: int, n: int, n_nodes: int, n_alerts: int,
                queries: list, stream: int = 0) -> list:
    """``n`` request paths, drawn from ``(seed, stream)``."""
    rng = np.random.default_rng([int(seed), 0x5E7E, int(stream)])
    routes = list(MIX)
    kind = rng.choice(len(routes), size=n, p=list(MIX.values()))
    nodes = rng.integers(0, n_nodes, size=n)
    order = rng.permutation(len(queries))
    w = 1.0 / np.arange(1, len(queries) + 1) ** ZIPF_S
    qpick = order[rng.choice(len(queries), size=n, p=w / w.sum())]
    since = rng.integers(-1, max(n_alerts, 1), size=n)
    topk = rng.choice([5, 10, 25], size=n)
    paths = []
    for i in range(n):
        route = routes[kind[i]]
        if route == "risk":
            paths.append(f"/v1/risk?node={nodes[i]}")
        elif route == "top":
            paths.append(f"/v1/risk/top?k={topk[i]}")
        elif route == "stats":
            paths.append("/v1/stats")
        elif route == "alerts":
            paths.append(f"/v1/alerts?since={since[i]}&limit=20")
        else:
            paths.append(queries[qpick[i]][0])
    return paths


def route_of(path: str) -> str:
    return {
        "/v1/risk": "risk", "/v1/risk/top": "top", "/v1/stats": "stats",
        "/v1/alerts": "alerts", "/v1/query": "query",
    }[path.split("?", 1)[0]]


# -- server process -------------------------------------------------------
def spawn_server(inputs: Path, run_dir: Path, k: int):
    """Start ``repro serve``; returns ``(proc, ready doc, seconds)``."""
    ready = run_dir / f"ready{k}.json"
    log = open(run_dir / f"server{k}.log", "wb")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--model", str(inputs / "model.json"), str(inputs / "camp"),
         "--alerts", str(inputs / "alerts.jsonl"),
         "--ready-file", str(ready)],
        cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
        stdout=log, stderr=subprocess.STDOUT,
    )
    log.close()
    while not ready.exists():
        late = time.perf_counter() - t0 > READY_TIMEOUT_S
        if proc.poll() is not None or late:
            stop(proc)
            log = (run_dir / f"server{k}.log").read_text()[-2000:]
            raise RuntimeError(f"serve: server never became ready:\n{log}")
        time.sleep(0.001)
    setup_s = time.perf_counter() - t0
    return proc, json.loads(ready.read_text()), setup_s


def stop(proc) -> None:
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


# -- correctness gate -----------------------------------------------------
def serve_gate(paths: list, load, expected_queries: dict,
               schema: dict) -> tuple[list, list]:
    """Check every response; returns ``(failures, per-request ok flags)``.

    Every response must be a 200 whose body parses; one body per route
    and up to 200 others validate against the serve schema; every
    ``/v1/query`` answer must equal ``expected_queries[path]``
    (``query.execute`` in this process).  Bodies are parsed once and
    answers compared once per distinct ``(path, body)``: a body that is
    right for one path is still checked when it answers another.
    """
    from repro.obs.schema import validate

    failures: list[str] = []
    ok = [False] * len(paths)
    docs: dict = {}
    verdicts: dict = {}
    validated = 0
    seen_routes: set = set()
    for i, path in enumerate(paths):
        status, body = load.status[i], load.body[i]
        if status is None:
            failures.append(f"serve: no response to {path}")
            continue
        if status != 200:
            failures.append(f"serve: {path} answered {status}")
            continue
        route = route_of(path)
        doc = docs.get(body)
        if doc is None:
            try:
                doc = json.loads(body)
            except ValueError:
                failures.append(f"serve: {path} body does not parse")
                continue
            docs[body] = doc
            if route not in seen_routes or validated < 200:
                seen_routes.add(route)
                validated += 1
                errs = validate(doc, schema)
                if errs:
                    failures.append(f"serve: {path} fails schema: {errs[0]}")
        if route == "query":
            right = verdicts.get((path, body))
            if right is None:
                right = doc.get("answer") == expected_queries[path]
                verdicts[(path, body)] = right
            if not right:
                failures.append(f"serve: {path} answer != query.execute")
                continue
        ok[i] = True
    return failures[:20], ok


def expected_answers(store, queries: list, wanted: set) -> dict:
    from repro.query import Query, execute

    out = {}
    for path, kw in queries:
        if path in wanted:
            answer = execute(store, Query(**kw))
            out[path] = json.loads(json.dumps(answer))
    return out


# -- traced replay --------------------------------------------------------
def replay(inputs: Path, warm: list, paths: list) -> dict:
    """Build ``ServeState`` in-process, push ``warm`` (untimed) and then
    ``paths`` through ``Server.handle``; returns per-layer metrics."""
    from layers import LayerClock, wrap_query_execute, wrap_serve_build
    from repro.serve import ServeState
    from repro.serve.server import Server

    clock = LayerClock()
    wrap_serve_build(clock)
    try:
        state = ServeState.build(
            inputs / "model.json", inputs / "camp",
            alerts_path=inputs / "alerts.jsonl", policy="repair",
        )
    finally:
        clock.restore()
    build = dict(clock.busy_s)
    clock.reset()
    server = Server(state)
    for path in warm:
        server.handle("GET", path)
    per_route: dict = {r: [] for r in MIX}
    wrap_query_execute(clock)
    try:
        for path in paths:
            t0 = time.perf_counter()
            server.handle("GET", path)
            per_route[route_of(path)].append(time.perf_counter() - t0)
    finally:
        clock.restore()
    n_query = len(per_route["query"])
    misses = clock.calls.get("query.execute_s", 0)
    out = {
        "predict.model_load_s": build.get("predict.model_load_s", 0.0),
        "serve.fold_s": build.get("serve.fold_s", 0.0),
        "query.rollups_load_s": build.get("query.rollups_load_s", 0.0),
        "query.execute_us": (
            clock.busy_s.get("query.execute_s", 0.0) / max(misses, 1) * 1e6
        ),
        "serve.memo_hit_ratio": 1.0 - misses / max(n_query, 1),
    }
    for route, samples in per_route.items():
        out[f"serve.handle_us.{route}"] = median(samples) * 1e6
    return out


# -- the journey ----------------------------------------------------------
def run(inputs: Path, run_dir: Path, seed: int, seconds: float,
        trace: bool) -> dict:
    from repro.obs.schema import schema_dir
    from repro.query import RollupStore

    ready_doc = json.loads((inputs / "ready.json").read_text())
    store = RollupStore.load(inputs / "camp" / "rollups")
    queries = query_working_set(
        ready_doc["n_nodes"], store.bucket0, store.n_buckets,
        store.config.bucket_s, store.n_racks,
    )
    n = int(round(RATE * seconds))
    paths = request_mix(seed, n, ready_doc["n_nodes"],
                        ready_doc["n_alerts"], queries)
    schema = json.loads((schema_dir() / "serve.schema.json").read_text())
    connections = min(os.cpu_count() or 1, 2)

    setups, proc = [], None
    try:
        for k in range(SETUP_PROBES):
            if proc is not None:
                stop(proc)
            proc, ready, setup_s = spawn_server(inputs, run_dir, k)
            setups.append(setup_s)
        warm = request_mix(seed, int(RATE * WARMUP_S), ready_doc["n_nodes"],
                           ready_doc["n_alerts"], queries, stream=1)
        run_schedule(ready["host"], ready["port"], warm, RATE,
                     connections=connections)
        load = run_schedule(ready["host"], ready["port"], paths, RATE,
                            connections=connections)
        rss = peak_rss_mb(proc.pid)
    finally:
        if proc is not None:
            stop(proc)

    expected = expected_answers(store, queries, set(paths))
    failures, ok = serve_gate(paths, load, expected, schema)
    lat = np.array([x if x is not None else np.inf for x in load.latency_s])
    ok = np.array(ok) & (lat <= FAIL_AFTER_S)
    late = [x for x in load.late_s if x is not None]
    e2e = {
        "setup_s": median(setups),
        "throughput": (
            int(np.count_nonzero(ok & (lat <= SLO_S)))
            / (load.elapsed_s or load.duration_s)
        ),
        "latency_p50_ms": float(np.median(lat)) * 1e3,
        "peak_rss_mb": rss,
    }
    layers = {}
    if trace:
        layers = replay(inputs, warm, paths)
        layers["journey.latency_tail_ms"] = (
            float(np.percentile(lat, 99)) * 1e3
        )
        layers["serve.gen_late_p50_ms"] = median(late) * 1e3
        layers["serve.gen_late_max_ms"] = max(late) * 1e3
    return {
        "e2e": e2e, "layers": layers, "failures": failures,
        "attempted": n, "failed": n - int(np.count_nonzero(ok)),
        "env": {"offered_rate": RATE, "connections": connections,
                "slo_ms": SLO_S * 1e3, "fail_after_ms": FAIL_AFTER_S * 1e3,
                "setup_runs_s": setups, "max_ms": float(lat.max()) * 1e3},
    }
