#!/usr/bin/env python3
"""Paired benchmark series of two checkouts, summarized into one BENCH file.

``run`` runs the command that ``BENCHMARK.json`` declares, for its
``run_seconds``, in a parent and a change checkout: `PAIRS` pairs, alternating
which side goes first, one JSON line per run.  ``tier1`` times the Tier-1
suite `TIER1_RUNS` times in both, alternating likewise.  ``summarize`` turns
the lines into medians, quartiles and pair wins per workload and end-to-end
metric, the failures, the ``src/`` line counts, the Tier-1 wall times and
the machine and BLAS details that the runs report.

    python3 scripts/bench_pairs.py run --parent P --change C --workload xval \\
        --seed 1701 --out runs.jsonl
    python3 scripts/bench_pairs.py tier1 --parent P --change C --out runs.jsonl
    python3 scripts/bench_pairs.py summarize runs.jsonl --parent P --change C > BENCH.json

A pair is one run of each side on the same seed; the change wins it when
its value is better, and ties count for neither.  The gain rule: at least
`PAIRS` pairs, no more failed operations than the parent, wins in at least
nine tenths of the pairs, and medians further apart than the parent's
interquartile spread.  The bound rule: the change's median is no
worse than the parent's by more than the benchmark's relative bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
#: Pairs per workload, the fewest the gain rule accepts; Tier-1 runs per side.
PAIRS = 10
TIER1_RUNS = 5
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def _sides(args: argparse.Namespace, k: int) -> list[tuple[str, Path]]:
    sides = [("parent", Path(args.parent).resolve()), ("change", Path(args.change).resolve())]
    return sides if k % 2 == 0 else sides[::-1]


def cmd_run(args: argparse.Namespace) -> None:
    bench = json.loads(BENCHMARK.read_text())
    with open(args.out, "a") as fh:
        for k in range(PAIRS):
            seed = args.seed + k
            order = _sides(args, k)
            for side, root in order:
                start = time.time()
                proc = subprocess.run(
                    [*bench["command"], "--workload", args.workload,
                     "--seed", str(seed), "--seconds", str(bench["run_seconds"])],
                    cwd=root, capture_output=True, text=True,
                )
                lines = proc.stdout.strip().splitlines()
                record = {
                    "workload": args.workload, "pair": k, "seed": seed, "side": side,
                    "first": order[0][0], "start": start, "wall_s": time.time() - start,
                    "rc": proc.returncode,
                    "result": json.loads(lines[-1]) if lines else None,
                    "info": json.loads(lines[-2])["info"] if len(lines) > 1 else None,
                }
                fh.write(json.dumps(record) + "\n")
                fh.flush()


def cmd_tier1(args: argparse.Namespace) -> None:
    with open(args.out, "a") as fh:
        for k in range(TIER1_RUNS):
            for side, root in _sides(args, k):
                start = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, *TIER1], cwd=root, capture_output=True, text=True,
                    env={**os.environ, "PYTHONPATH": str(root / "src")},
                )
                wall = time.perf_counter() - start
                summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
                fh.write(json.dumps({"tier1": side, "wall_s": wall, "summary": summary}) + "\n")
                fh.flush()


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(records: list[dict], bench: dict) -> dict:
    """Per workload and end-to-end metric: each side's quartiles, the pair
    wins and the verdicts of the gain and bound rules."""
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    out: dict = {"workloads": {}}
    runs = [r for r in records if "workload" in r]
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["pair"], r["side"]): r for r in mine}
        row: dict = {
            "pairs": len(pairs),
            "seeds": [by[(k, "parent")]["seed"] for k in pairs],
            "failed": {s: sum(r["result"]["failed"] for r in mine if r["side"] == s) for s in ("parent", "change")},
            "attempted": {s: sum(r["result"]["attempted"] for r in mine if r["side"] == s) for s in ("parent", "change")},
            "metrics": {},
        }
        for name, spec in metrics.items():
            sign = 1.0 if spec["better"] == "lower" else -1.0
            parent = [by[(k, "parent")]["result"]["metrics"][name]["value"] for k in pairs]
            change = [by[(k, "change")]["result"]["metrics"][name]["value"] for k in pairs]
            wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            p, c = _quartiles(parent), _quartiles(change)
            row["metrics"][name] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                "parent": {**p, "runs": parent}, "change": {**c, "runs": change},
                "change_wins": wins,
                "median_ratio": c["median"] / p["median"],
                "gain_rule_met": (
                    len(pairs) >= PAIRS and row["failed"]["change"] <= row["failed"]["parent"]
                    and wins >= 0.9 * len(pairs) and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"]
                ),
                "within_bound": sign * (c["median"] - p["median"]) <= spec["bound"] * p["median"],
            }
        out["workloads"][workload] = row
    tier1 = [r for r in records if "tier1" in r]
    if tier1:
        out["tier1"] = {
            s: {"median_wall_s": statistics.median(r["wall_s"] for r in tier1 if r["tier1"] == s),
                "summaries": sorted({r["summary"] for r in tier1 if r["tier1"] == s})}
            for s in ("parent", "change")
        }
    envs = [r["info"]["env"] for r in runs if r.get("info")]
    out["machine"] = {"platform": platform.platform(), **(envs[0] if envs else {})}
    out["machine"].pop("src_sha256", None)
    out["src_sha256"] = {s: sorted({r["info"]["env"]["src_sha256"] for r in runs if r["side"] == s})
                         for s in ("parent", "change")}
    return out


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="alternating benchmark runs of both checkouts")
    tier = sub.add_parser("tier1", help="alternating Tier-1 suite runs of both checkouts")
    for p in (run, tier):
        p.add_argument("--parent", required=True, help="parent checkout")
        p.add_argument("--change", required=True, help="change checkout")
        p.add_argument("--out", required=True, help="JSON lines file to append to")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True, help="seed of the first pair; +1 per pair")
    summ = sub.add_parser("summarize", help="BENCH JSON from the lines, on stdout")
    summ.add_argument("lines")
    summ.add_argument("--parent", help="parent checkout, for its src/ line count")
    summ.add_argument("--change", help="change checkout, for its src/ line count")
    args = ap.parse_args(argv)
    if args.command == "run":
        cmd_run(args)
    elif args.command == "tier1":
        cmd_tier1(args)
    else:
        records = [json.loads(line) for line in Path(args.lines).read_text().splitlines() if line.strip()]
        doc = summarize(records, json.loads(BENCHMARK.read_text()))
        doc["src_lines"] = {s: _src_lines(Path(getattr(args, s))) for s in ("parent", "change") if getattr(args, s)}
        json.dump(doc, sys.stdout, indent=1)
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
