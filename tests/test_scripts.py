"""The scripts under ``scripts/`` still run against the library."""

import importlib.util
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from stokes_isola import cli

ROOT = Path(__file__).resolve().parents[1]


def _isola_sweep(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "isola_sweep.py"), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_isola_sweep_runs():
    proc = _isola_sweep("--eps", "0.06", "--eps", "0.08")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    rows = [line.split() for line in lines[1:] if line.strip() and not line.startswith("growth fit:")]
    assert [float(r[0]) for r in rows] == [0.06, 0.08]
    assert sum(line.startswith("growth fit:") for line in lines) == 1


def test_isola_sweep_diagnoses_a_numerical_failure():
    # at eps = 0.5 the tracking disk holds one eigenvalue, not the pair
    proc = _isola_sweep("--eps", "0.5")
    assert proc.returncode == 3, proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("numerical failure: ")
    assert "Traceback" not in proc.stderr


def test_isola_sweep_names_a_negative_amplitude():
    # an argument the library rejects before any solve is a usage error
    proc = _isola_sweep("--eps", "-0.06")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: eps must be nonnegative, got -0.06\n"


def test_isola_sweep_names_a_zero_amplitude():
    # flat water has no isola; the library says so before any solve
    proc = _isola_sweep("--eps", "0")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: eps must be positive, got 0.0: flat water has no isola\n"


def test_isola_sweep_names_an_overflowing_amplitude():
    proc = _isola_sweep("--eps", "1e300")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: eps must be small enough that eps**4 is finite, got 1e+300\n"


def test_isola_sweep_names_a_truncation_below_8():
    proc = _isola_sweep("--eps", "0.06", "--trunc", "4")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: N must be at least 8, got 4\n"


def test_isola_sweep_refuses_a_zero_truncation_before_any_solve():
    # no LAPACK routine sees N = 0, so none writes its own complaint to stdout
    proc = _isola_sweep("--eps", "0.06", "--trunc", "0")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: N must be at least 8, got 0\n"
    assert [line.split()[0] for line in proc.stdout.splitlines()] == ["eps"]


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    bench_pairs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_pairs)
    return bench_pairs


def test_bench_pairs_summary_applies_the_gain_and_bound_rules():
    bench_pairs = _bench_pairs()
    bench = {"end_to_end": [
        {"name": "light_op_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "heavy_op_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]}
    records = []
    for k in range(10):
        # light: the change wins 9 of 10 pairs by 30%; heavy: 40% worse in every pair
        light = {"parent": 1.0 + 0.01 * k, "change": 0.7 + 0.01 * k if k else 1.0}
        heavy = {"parent": 1.0, "change": 1.4}
        for side in ("parent", "change"):
            metrics = {"light_op_s": {"value": light[side]}, "heavy_op_s": {"value": heavy[side]}}
            records.append({
                "workload": "w", "pair": k, "seed": 100 + k, "side": side,
                "result": {"failed": 0, "attempted": 2, "metrics": metrics},
                "info": {"env": {"python": "3", "src_sha256": side}},
            })
    row = bench_pairs.summarize(records, bench)["workloads"]["w"]
    light, heavy = row["metrics"]["light_op_s"], row["metrics"]["heavy_op_s"]
    assert row["pairs"] == 10 and row["attempted"] == {"parent": 20, "change": 20}
    assert light["change_wins"] == 9 and light["gain_rule_met"] and light["within_bound"]
    assert heavy["change_wins"] == 0 and not heavy["gain_rule_met"] and not heavy["within_bound"]

    # the same light series falls short of the rule with fewer than ten pairs,
    # or when the change fails more operations than the parent
    short = [r for r in records if r["pair"] < 9]
    assert not bench_pairs.summarize(short, bench)["workloads"]["w"]["metrics"]["light_op_s"]["gain_rule_met"]
    records[1]["result"] = {**records[1]["result"], "failed": 1}
    assert records[1]["side"] == "change"
    assert not bench_pairs.summarize(records, bench)["workloads"]["w"]["metrics"]["light_op_s"]["gain_rule_met"]


def test_bench_pairs_summary_reports_each_cold_command():
    bench_pairs = _bench_pairs()
    # the cold series starts a fresh interpreter for every subcommand
    assert {argv[2] for argv in bench_pairs.COLD.values() if argv[:2] == bench_pairs.CLI} == set(cli._COMMANDS)
    records = []
    for k in range(10):
        # coeffs: the change wins 9 of 10 pairs by 40%; verify: a tie in every pair
        coeffs = {"parent": 0.10 + 0.001 * k, "change": 0.06 + 0.001 * k if k else 0.10}
        for side in ("parent", "change"):
            records.append({"cold": "coeffs", "pair": k, "side": side, "wall_s": coeffs[side], "rc": 0})
            records.append({"cold": "verify", "pair": k, "side": side, "wall_s": 0.2, "rc": 0})
    doc = bench_pairs.summarize(records, {"end_to_end": []})
    coeffs, verify = doc["cold"]["coeffs"], doc["cold"]["verify"]
    assert coeffs["pairs"] == 10 and coeffs["failed"] == {"parent": 0, "change": 0}
    assert coeffs["parent"]["median"] == statistics.median(0.10 + 0.001 * k for k in range(10))
    assert coeffs["parent"]["q1"] < coeffs["parent"]["median"] < coeffs["parent"]["q3"]
    assert coeffs["change_wins"] == 9 and coeffs["gain_rule_met"]
    assert verify["change_wins"] == 0 and verify["median_ratio"] == 1.0 and not verify["gain_rule_met"]
    assert doc["workloads"] == {}

    # a change that fails a run more than the parent does not meet the rule
    records[2]["rc"] = 1
    assert (records[2]["cold"], records[2]["side"]) == ("coeffs", "change")
    coeffs = bench_pairs.summarize(records, {"end_to_end": []})["cold"]["coeffs"]
    assert coeffs["failed"] == {"parent": 0, "change": 1} and not coeffs["gain_rule_met"]


def test_bench_pairs_counts_solves_and_banded_calls(tmp_path, monkeypatch):
    """``counts`` on the first 2 seeded amplitudes, the current checkout on both
    sides: 4 solves per `measure_isola` and per ``isola`` command, whose
    trace reads the search's series, so it makes the search's LAPACK calls
    and no others; and the kernel calls of a fresh ``verify`` and ``coeffs``."""
    bench_pairs = _bench_pairs()
    monkeypatch.setattr(bench_pairs, "COUNT_AMPLITUDES", 2)
    out = tmp_path / "runs.jsonl"
    bench_pairs.main(["counts", "--parent", str(ROOT), "--change", str(ROOT), "--out", str(out)])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert [r["counts"] for r in records] == ["parent", "change"]
    counts = bench_pairs.summarize(records, {"end_to_end": []})["counts"]
    assert counts["parent"] == counts["change"]
    change = counts["change"]
    assert change["amplitudes"] == 2
    assert change["measure_isola"]["solves"] == change["isola"]["solves"] == 4.0
    assert change["isola"] == change["measure_isola"]
    assert change["measure_isola"]["dgbtrs"] > change["measure_isola"]["dgbtrf"] >= 4.0
    # the ledger's bare couplings and verify's spot checks call ent_coeff;
    # every catalog row of more than one operator calls chain_apply
    assert change["verify"]["ent_coeff"] > change["coeffs"]["ent_coeff"] > 0
    assert change["verify"]["chain_apply"] > change["coeffs"]["chain_apply"] > 0


def test_bench_pairs_counts_statements_not_lines(tmp_path):
    """A statement is a logical line outside docstrings: the comment, the
    docstrings and the line breaks of the three-line expression do not
    count, and ``a = 1; b = 2`` is one logical line."""
    bench_pairs = _bench_pairs()
    (tmp_path / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "mod.py").write_text(
        '"""A module docstring."""\n'
        "\n"
        "# a comment\n"
        "total = (\n"
        "    1 + 2\n"
        ")\n"
        "a = 1; b = 2\n"
        "\n"
        "\n"
        "def f():\n"
        '    """A function docstring."""\n'
        "    return a\n"
    )
    assert bench_pairs._src_lines(tmp_path) == 12
    assert bench_pairs._src_statements(tmp_path) == 4
