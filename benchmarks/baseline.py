#!/usr/bin/env python3
"""Repeat runs of every workload and summarize them into ``baseline.json``.

    python3 benchmarks/baseline.py --runs 10 --traced-runs 3 [--first-seed 101]

Run from the repository root.  Runs go round-robin over the workloads, one
seed per round, so a slow phase of the machine touches every workload alike.
For each metric it records the median, the quartiles (``statistics.quantiles``
with n=4), the spread (interquartile distance over the median) and the run
count, next to the speed probe and the environment of the first run.  Prints
the spreads; writes the file only with ``--write``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "runs": len(values), "values": values}


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--traced-runs", type=int, default=3)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    ap.add_argument("--write", action="store_true", help="write baseline.json")
    args = ap.parse_args(argv)
    workloads = args.workload or WORKLOADS
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: {0: [], 1: []} for w in workloads}
    for k in range(max(args.runs, args.traced_runs)):
        for trace, count in ((0, args.runs), (1, args.traced_runs)):
            if k >= count:
                continue
            for w in workloads:
                runs[w][trace].append(one_run(w, args.first_seed + k, args.seconds, trace))

    doc = {"seconds": args.seconds, "seeds_from": args.first_seed, "workloads": {}}
    ok = True
    for w in workloads:
        entry = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            results = runs[w][trace]
            if not results:
                continue
            entry[key] = {
                name: dict(summarize([r["metrics"][name]["value"] for _, r in results]), unit=m["unit"])
                for name, m in results[0][1]["metrics"].items()
            }
            entry[f"{key}_attempted"] = sum(r["attempted"] for _, r in results)
            entry[f"{key}_failed"] = sum(r["failed"] for _, r in results)
        infos = [i for i, _ in runs[w][0]]
        if infos:
            entry["probe_python_s"] = summarize([i["speed_probe"]["python_s"] for i in infos])
            entry["samples_per_run"] = {
                cls: statistics.median(i["classes"][cls]["n"] for i in infos) for cls in infos[0]["classes"]
            }
            entry["env"] = infos[0]["env"]
        doc["workloads"][w] = entry
        for name, s in entry.get("end_to_end", {}).items():
            flag = ""
            if name != "setup_s" and s["spread"] > bounds[name]:
                flag, ok = "  ABOVE BOUND", False
            elif s["spread"] > bounds[name] / 3:
                flag = "  above a third of the bound"
            print(f"{w:12s} {name:14s} median {s['median']:.6g} {s['unit']:3s} spread {s['spread']:.4f} "
                  f"(bound {bounds[name]}, runs {s['runs']}){flag}")
        print(f"{w:12s} failed {entry.get('end_to_end_failed', 0)}/{entry.get('end_to_end_attempted', 0)} untraced, "
              f"{entry.get('per_layer_failed', 0)}/{entry.get('per_layer_attempted', 0)} traced")
    if args.write:
        (HERE / "baseline.json").write_text(json.dumps(doc, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
