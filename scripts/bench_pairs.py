#!/usr/bin/env python3
"""Paired benchmark series of two checkouts, summarized into one BENCH file.

``run`` runs the command that ``BENCHMARK.json`` declares, for its
``run_seconds``, in a parent and a change checkout: `PAIRS` pairs, alternating
which side goes first, one JSON line per run.  ``tier1`` times the Tier-1
suite `TIER1_RUNS` times in both, alternating likewise.  ``cold`` times
`PAIRS` fresh interpreters of each `COLD` command in both, alternating
likewise, with nothing preloaded: the import of the package and the CLI,
each subcommand and ``scripts/isola_sweep.py``.  ``counts`` counts, in one
interpreter of each checkout, the solves (``floquet.spectrum`` calls) and
the ``dgbtrs`` and ``dgbtrf`` calls per ``measure_isola(E)`` and per
``isola --eps E --format json`` over the `COUNT_AMPLITUDES` seeded
amplitudes E (`COUNT_SEED`), at the seam every LAPACK call goes through,
``floquet._lapack()``, and the calls of the closed-form kernel's
``ent_coeff`` and ``chain_apply`` in one fresh ``verify`` and one fresh
``coeffs`` (`KERNEL_COMMANDS`).
``summarize`` turns the lines into medians, quartiles and pair wins per
workload and end-to-end metric and per cold command, the failures, the
counts, the ``src/`` line and statement counts (`_src_statements`), the
Tier-1 wall times and the machine and BLAS details that the runs report.

    python3 scripts/bench_pairs.py run --parent P --change C --workload xval \\
        --seed 1701 --out runs.jsonl
    python3 scripts/bench_pairs.py tier1 --parent P --change C --out runs.jsonl
    python3 scripts/bench_pairs.py cold --parent P --change C --out runs.jsonl
    python3 scripts/bench_pairs.py counts --parent P --change C --out runs.jsonl
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
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tokenize
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
#: Pairs per workload, the fewest the gain rule accepts; Tier-1 runs per side.
PAIRS = 10
TIER1_RUNS = 5
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
#: The cold commands: name -> interpreter arguments, run in the checkout.
CLI = ["-m", "stokes_isola.cli"]
COLD = {
    "import": ["-c", "import stokes_isola, stokes_isola.cli"],
    "verify": [*CLI, "verify"],
    "coeffs": [*CLI, "coeffs"],
    "isola": [*CLI, "isola", "--eps", "0.06"],
    "spectrum": [*CLI, "spectrum"],
    "convergence": [*CLI, "convergence"],
    "isola_sweep": ["scripts/isola_sweep.py", "--eps", "0.06"],
}
#: The counted amplitudes: draws of ``random.Random(COUNT_SEED).uniform(0.02, 0.19)``.
COUNT_SEED = 7
COUNT_AMPLITUDES = 40
#: Run as ``python -c COUNT_SCRIPT SEED N`` in a checkout; prints the mean
#: counts per call of each operation over the first N amplitudes as one JSON object.
COUNT_SCRIPT = """
import contextlib, io, json, os, random, sys
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
from stokes_isola import cli, floquet

lapack = floquet._lapack()
counts = dict.fromkeys(("solves", "dgbtrs", "dgbtrf"), 0)

def counted(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper

floquet.spectrum = counted("solves", floquet.spectrum)
lapack.dgbtrs, lapack.dgbtrf = counted("dgbtrs", lapack.dgbtrs), counted("dgbtrf", lapack.dgbtrf)

def isola(eps):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(["isola", "--eps", repr(eps), "--format", "json"]) != 0:
            raise SystemExit(f"isola --eps {eps!r} failed")

seed, n = map(int, sys.argv[1:])
rng = random.Random(seed)
amplitudes = [rng.uniform(0.02, 0.19) for _ in range(n)]
out = {}
for name, op in (("measure_isola", floquet.measure_isola), ("isola", isola)):
    counts.update(dict.fromkeys(counts, 0))
    for eps in amplitudes:
        op(eps)
    out[name] = {k: v / n for k, v in counts.items()}
print(json.dumps(out))
"""
#: The closed-form commands whose kernel calls ``counts`` records, each in a fresh interpreter.
KERNEL_COMMANDS = ("verify", "coeffs")
#: Run as ``python -c KERNEL_SCRIPT COMMAND`` in a checkout; prints the calls of
#: ``entanglement.ent_coeff`` and ``entanglement.chain_apply``, wherever the
#: package bound them, in one fresh ``COMMAND`` as one JSON object, with the
#: couplings evaluated behind ``ent_coeff``'s cache ``_coeff``.
KERNEL_SCRIPT = """
import contextlib, io, json, sys
from stokes_isola import cli, entanglement

counts = dict.fromkeys(("ent_coeff", "chain_apply"), 0)

def counted(name, fn):
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper

for name in counts:
    fn = getattr(entanglement, name)
    wrapper = counted(name, fn)
    for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "stokes_isola"]:
        if vars(module).get(name) is fn:
            setattr(module, name, wrapper)
with contextlib.redirect_stdout(io.StringIO()):
    if cli.main([sys.argv[1]]) != 0:
        raise SystemExit(f"{sys.argv[1]} failed")
counts["coeff_cache_misses"] = entanglement._coeff.cache_info().misses
print(json.dumps(counts))
"""


def _sides(args: argparse.Namespace, k: int) -> list[tuple[str, Path]]:
    sides = [("parent", Path(args.parent).resolve()), ("change", Path(args.change).resolve())]
    return sides if k % 2 == 0 else sides[::-1]


def _run_python(root: Path, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Wall time and result of a fresh interpreter in ``root`` on its ``src/``."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *argv], cwd=root, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    return time.perf_counter() - start, proc


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
                wall, proc = _run_python(root, TIER1)
                summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
                fh.write(json.dumps({"tier1": side, "wall_s": wall, "summary": summary}) + "\n")
                fh.flush()


def cmd_cold(args: argparse.Namespace) -> None:
    """`PAIRS` timed pairs of every `COLD` command, after one untimed run
    per side that leaves its bytecode cached, as an installed package has."""
    with open(args.out, "a") as fh:
        for name, argv in COLD.items():
            for _, root in _sides(args, 0):
                _run_python(root, argv)
            for k in range(PAIRS):
                for side, root in _sides(args, k):
                    wall, proc = _run_python(root, argv)
                    fh.write(json.dumps({"cold": name, "pair": k, "side": side,
                                         "wall_s": wall, "rc": proc.returncode}) + "\n")
                    fh.flush()


def cmd_counts(args: argparse.Namespace) -> None:
    with open(args.out, "a") as fh:
        for side, root in _sides(args, 0):
            _, proc = _run_python(root, ["-c", COUNT_SCRIPT, str(COUNT_SEED), str(COUNT_AMPLITUDES)])
            if proc.returncode != 0:
                raise SystemExit(f"counts failed in {root}: {proc.stderr.strip()}")
            record = {"counts": side, "amplitudes": COUNT_AMPLITUDES, **json.loads(proc.stdout)}
            for command in KERNEL_COMMANDS:
                _, proc = _run_python(root, ["-c", KERNEL_SCRIPT, command])
                if proc.returncode != 0:
                    raise SystemExit(f"counts of {command} failed in {root}: {proc.stderr.strip()}")
                record[command] = json.loads(proc.stdout)
            fh.write(json.dumps(record) + "\n")
            fh.flush()


def _quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def _compare(parent: list[float], change: list[float], sign: float) -> dict:
    """Each side's quartiles and runs, pair by pair; the change's wins and
    median ratio; whether the gain rule holds, failures aside.  ``sign`` is
    1 where lower is better, -1 where higher is."""
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    p, c = _quartiles(parent), _quartiles(change)
    return {
        "parent": {**p, "runs": parent}, "change": {**c, "runs": change},
        "change_wins": wins,
        "median_ratio": c["median"] / p["median"],
        "gain_rule_met": (
            len(parent) >= PAIRS and wins >= 0.9 * len(parent)
            and sign * (p["median"] - c["median"]) > p["q3"] - p["q1"]
        ),
    }


def summarize(records: list[dict], bench: dict) -> dict:
    """Per workload and end-to-end metric, and per cold command: each side's
    quartiles, the pair wins and the verdicts of the gain rule, and of the
    bound rule where the benchmark sets a bound."""
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
            verdict = _compare(parent, change, sign)
            p, c = verdict["parent"], verdict["change"]
            row["metrics"][name] = {
                "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
                **verdict,
                "gain_rule_met": verdict["gain_rule_met"] and row["failed"]["change"] <= row["failed"]["parent"],
                "within_bound": sign * (c["median"] - p["median"]) <= spec["bound"] * p["median"],
            }
        out["workloads"][workload] = row
    cold = [r for r in records if "cold" in r]
    if cold:
        out["cold"] = {}
        for name in dict.fromkeys(r["cold"] for r in cold):
            by = {(r["pair"], r["side"]): r for r in cold if r["cold"] == name}
            pairs = sorted({k for k, _ in by})
            failed = {s: sum(by[(k, s)]["rc"] != 0 for k in pairs) for s in ("parent", "change")}
            parent, change = ([by[(k, s)]["wall_s"] for k in pairs] for s in ("parent", "change"))
            verdict = _compare(parent, change, 1.0)
            out["cold"][name] = {
                "unit": "s", "better": "lower", "pairs": len(pairs), "failed": failed,
                **verdict,
                "gain_rule_met": verdict["gain_rule_met"] and failed["change"] <= failed["parent"],
            }
    tier1 = [r for r in records if "tier1" in r]
    if tier1:
        out["tier1"] = {
            s: {"median_wall_s": statistics.median(r["wall_s"] for r in tier1 if r["tier1"] == s),
                "summaries": sorted({r["summary"] for r in tier1 if r["tier1"] == s})}
            for s in ("parent", "change")
        }
    counts = [r for r in records if "counts" in r]
    if counts:
        out["counts"] = {r.pop("counts"): r for r in map(dict, counts)}
    envs = [r["info"]["env"] for r in runs if r.get("info")]
    out["machine"] = {"platform": platform.platform(), **(envs[0] if envs else {})}
    out["machine"].pop("src_sha256", None)
    out["src_sha256"] = {s: sorted({r["info"]["env"]["src_sha256"] for r in runs if r["side"] == s})
                         for s in ("parent", "change")}
    return out


def _src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def _src_statements(root: Path) -> int:
    """The logical lines of ``src/`` outside docstrings: tokenize's NEWLINE
    tokens, less those ending a statement of string literals alone.  Line
    breaks, comments and blank lines do not move the count."""
    count = 0
    for path in sorted((root / "src").rglob("*.py")):
        strings_only = True
        for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
            if tok.type == tokenize.NEWLINE:
                count += not strings_only
                strings_only = True
            elif tok.type not in (tokenize.STRING, tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT):
                strings_only = False
    return count


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="alternating benchmark runs of both checkouts")
    tier = sub.add_parser("tier1", help="alternating Tier-1 suite runs of both checkouts")
    cold = sub.add_parser("cold", help="alternating fresh-process runs of each cold command in both checkouts")
    counts = sub.add_parser("counts", help="solves and banded LAPACK calls per isola, kernel calls per "
                            "verify and coeffs, in each checkout")
    for p in (run, tier, cold, counts):
        p.add_argument("--parent", required=True, help="parent checkout")
        p.add_argument("--change", required=True, help="change checkout")
        p.add_argument("--out", required=True, help="JSON lines file to append to")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True, help="seed of the first pair; +1 per pair")
    summ = sub.add_parser("summarize", help="BENCH JSON from the lines, on stdout")
    summ.add_argument("lines")
    summ.add_argument("--parent", help="parent checkout, for its src/ line and statement counts")
    summ.add_argument("--change", help="change checkout, for its src/ line and statement counts")
    args = ap.parse_args(argv)
    if args.command == "run":
        cmd_run(args)
    elif args.command == "tier1":
        cmd_tier1(args)
    elif args.command == "cold":
        cmd_cold(args)
    elif args.command == "counts":
        cmd_counts(args)
    else:
        records = [json.loads(line) for line in Path(args.lines).read_text().splitlines() if line.strip()]
        doc = summarize(records, json.loads(BENCHMARK.read_text()))
        for key, count in (("src_lines", _src_lines), ("src_statements", _src_statements)):
            doc[key] = {s: count(Path(getattr(args, s))) for s in ("parent", "change") if getattr(args, s)}
        json.dump(doc, sys.stdout, indent=1)
        sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
