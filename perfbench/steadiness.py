"""Steadiness evidence: repeat the benchmark over seeds and tabulate.

Usage, from the root of a checkout::

    python3 perfbench/steadiness.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --out perfbench/STEADINESS.md

Runs ``run.py`` once per (seed, workload), interleaving the workloads,
then one traced run per workload on the first seed.  For every
end-to-end metric of every workload it reports the median, the first
and third quartile (``statistics.quantiles(values, n=4)``) and the
spread, ``(Q3 - Q1) / median``, against the metric's bound from
``BENCHMARK.json``; and each workload's tracing overhead, the traced
run's value over the untraced median, minus one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from common import ROOT


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    # 1 is a run whose correctness gate failed: still a result.
    if out.returncode not in (0, 1):
        raise RuntimeError(f"{workload} seed {seed}: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[-2])["env"]
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    workloads = [w["name"] for w in spec["workloads"]]

    runs = {w: [] for w in workloads}
    t0 = time.time()
    for seed in args.seeds:
        for w in workloads:
            res = run_once(w, seed, args.seconds, 0)
            runs[w].append(res)
            print(f"{w} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", flush=True)
    traced = {
        w: run_once(w, args.seeds[0], args.seconds, 1) for w in workloads
    }

    rows = [
        "| workload | metric | unit | median | Q1 | Q3 | spread | bound |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for w in workloads:
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs[w]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            rows.append(
                f"| {w} | {m['name']} | {m['unit']} | {med:.5g} | "
                f"{q1:.5g} | {q3:.5g} | {(q3 - q1) / med:.3f} | "
                f"{m['bound']} |"
            )
    over = [
        "| workload | metric | untraced median | traced | overhead |",
        "|---|---|---|---|---|",
    ]
    for w in workloads:
        for name in ("throughput", "latency_p50_ms"):
            med = statistics.median(
                r["metrics"][name]["value"] for r in runs[w]
            )
            t = traced[w]["metrics"][f"traced.{name}"]["value"]
            over.append(f"| {w} | {name} | {med:.5g} | {t:.5g} | "
                        f"{t / med - 1:+.3f} |")
    incorrect = [
        f"{w} seed {s}" for w in workloads
        for s, r in zip(args.seeds, runs[w]) if not r["correct"]
    ]
    env = runs[workloads[0]][0]["env"]
    doc = [
        "# Steadiness evidence",
        "",
        f"{len(args.seeds)} runs per workload, seeds {args.seeds}, "
        f"{args.seconds} s each, workloads interleaved; "
        f"{(time.time() - t0) / 60:.0f} min in all.  Host: "
        f"cpu_count={env['cpu_count']}, Python {env['python']}, "
        f"NumPy {env['numpy']}.  Incorrect runs: "
        f"{', '.join(incorrect) or 'none'}.",
        "",
        "Spread is (Q3 - Q1) / median, quartiles from "
        "`statistics.quantiles(values, n=4)`.",
        "",
        *rows,
        "",
        "## Tracing overhead",
        "",
        f"One traced run per workload (seed {args.seeds[0]}) against the "
        "untraced median above; positive means the traced value is "
        "higher.",
        "",
        *over,
        "",
        "## Raw values",
        "",
        "```json",
        json.dumps({
            w: [{k: v["value"] for k, v in r["metrics"].items()}
                for r in runs[w]]
            for w in workloads
        }, indent=None),
        "```",
        "",
    ]
    args.out.write_text("\n".join(doc))
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
