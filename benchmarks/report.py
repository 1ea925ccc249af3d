#!/usr/bin/env python3
"""Run every workload untraced and traced and print all metrics by name.

    python3 benchmarks/report.py [--seed 1] [--seconds 60] [--workload xval]

Run from the repository root.  For each workload this makes one untraced
run (end-to-end metrics, output checks) and one traced run (per-layer
metrics), both through the ``BENCHMARK.json`` command ``run.py``,
then prints the tracing overhead as traced minus untraced.  Exits 1 if any
operation failed its output check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from baseline import one_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Operation class -> the end-to-end name it is reported under.
CLASS_METRIC = {
    "isola": "isola_s",
    "measure_isola": "measure_isola_s",
    "verify": "verify_s",
    "coeffs": "coeffs_s",
}


def row(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:40s} {value:>14.6g} {unit:6s} {note}")


def report(workload: str, seed: int, seconds: float) -> bool:
    info, res = one_run(workload, seed, seconds, 0)
    tinfo, tres = one_run(workload, seed, seconds, 1)
    status = "outputs correct" if res["correct"] else "OUTPUT CHECKS FAILED"
    print(f"== {workload}  seed {seed}, {seconds:g} s: {res['attempted']} operations, {res['failed']} failed, {status}")
    print("end-to-end (untraced)")
    row("setup_s", res["metrics"]["setup_s"]["value"], "s", f"n={info['setup']['n']} fresh interpreters")
    for slot in ("heavy", "light"):
        cls = info["slots"][slot]
        st = info["classes"][cls]
        tails = " ".join(f"{k[:-2]}={v:.6g}" for k, v in st.items() if k.startswith("p"))
        row(CLASS_METRIC[cls], st["q1_s"], "s", f"[{slot}_op_s, lower quartile] n={st['n']} median={st['median_s']:.6g} {tails}")
    row("peak_rss_mb", res["metrics"]["peak_rss_mb"]["value"], "MB", "median over workers")
    row("failed_frac", info["failed_frac"], "ratio", f"{res['failed']}/{res['attempted']}")
    for failure in info["failures"]:
        print(f"    failed: {failure}")
    print("per-layer (traced), per operation unless a ratio")
    for name, m in tres["metrics"].items():
        row(name, m["value"], m["unit"])
    if "defect_probe" in tinfo:
        d = tinfo["defect_probe"]
        print(f"  defect probe: isola at eps in [0.2, 0.25] failed {d['failed_frac']:.3g} of {d['n']}")
    print("tracing overhead (traced - untraced)")
    traced = {
        "setup_s": tinfo["setup"]["median_s"],
        "peak_rss_mb": tinfo["peak_rss_mb"],
        "heavy_op_s": tres["metrics"]["trace.heavy_op_s"]["value"],
        "light_op_s": tres["metrics"]["trace.light_op_s"]["value"],
    }
    for name, value in traced.items():
        base = res["metrics"][name]["value"]
        row(name, value - base, res["metrics"][name]["unit"], f"{100 * (value - base) / base:+.1f}%")
    probe = info["speed_probe"]
    print(f"speed probe: python {probe['python_s']:.4g} s, lapack {probe['lapack_s']:.4g} s (n={probe['n']})")
    env = info["env"]
    print(
        f"environment: {env['nproc']} x {env['cpu']}; Python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, {env['blas']}; threads {env['threads']}; "
        f"commit {env['git_commit']}, src {env['src_sha256']}"
    )
    print()
    return res["correct"] and tres["correct"]


def main(argv=None) -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", choices=WORKLOADS, action="append")
    args = ap.parse_args(argv)
    ok = True
    for workload in args.workload or WORKLOADS:
        ok &= report(workload, args.seed, args.seconds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
