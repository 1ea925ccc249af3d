"""Self-tests of the benchmark: inputs, metric names, output checks.

    PYTHONPATH=src python3 -m pytest -q benchmarks

Not part of the package's test suite (``testpaths`` is ``tests``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from workloads import (  # noqa: E402
    DEFECT_EPS,
    SLOTS,
    WORKLOADS,
    XVAL_EPS,
    defect_probe_ops,
    input_key,
    make_ops,
)

BAND = checks.load_band()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert make_ops(workload, 7) == make_ops(workload, 7)
    assert defect_probe_ops(7) == defect_probe_ops(7)


def test_seed_changes_inputs():
    assert make_ops("xval", 7) != make_ops("xval", 8)


@pytest.mark.parametrize("seed", [0, 1, 12345])
def test_no_input_repeats_within_a_run(seed):
    keys = [input_key(op) for op in make_ops("xval", seed)]
    assert len(keys) == len(set(keys))


def test_closed_form_forks_each_operation(monkeypatch):
    """closed-form repeats its two commands, so each runs in its own freshly imported process."""
    specs = []

    def fake_worker(spec, env):
        specs.append(spec)
        # out of budget: one forked operation, then the worker's own last one
        ops = [dict(op, ok=True, t=0.01) for op in spec["ops"][:2]]
        return {"setup_s": 0.5, "ops": ops, "peak_rss_mb": 80.0}

    monkeypatch.setattr(run, "call_worker", fake_worker)
    workers = run.run_workers("closed-form", 3, 0.0, False, {}, None)
    assert len(workers) == len(specs) == run.FORK_SEGMENTS
    assert all(spec["fork"] for spec in specs)
    assert {op["cls"] for op in workers[0]["ops"]} == {"verify", "coeffs"}


def test_forked_operation_leaves_the_worker_untouched(monkeypatch):
    seen = []

    def fake_run_op(op, band):
        seen.append(op)  # in the child only
        return {"cls": op["cls"], "ok": True, "t": 0.01, "error": None, "bytes_out": 0}

    monkeypatch.setattr(worker, "run_op", fake_run_op)
    res = worker.run_forked({"cls": "coeffs"}, BAND, None, 0, None)
    assert res["ok"] and res["t"] == 0.01
    assert seen == []


def test_inputs_stay_in_their_windows():
    xval = make_ops("xval", 5)
    assert all(XVAL_EPS[0] <= op["eps"] < XVAL_EPS[1] for op in xval)
    assert {op["cls"] for op in xval[::2]} == {SLOTS["xval"]["heavy"]}
    assert all(DEFECT_EPS[0] <= op["eps"] < DEFECT_EPS[1] for op in defect_probe_ops(5))


def test_lower_quartile_ignores_the_slow_operations():
    assert run.lower_quartile([4.0, 1.0, 3.0, 2.0, 100.0]) == 1.5
    assert run.lower_quartile([7.0]) == 7.0


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(name.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in bench["workloads"]) == WORKLOADS
    assert bench["paths"] == ["benchmarks"]


def _cli(argv):
    from stokes_isola import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_verify_negative_control_counts_as_failed():
    assert worker.run_op({"cls": "verify", "argv": ["verify"]}, BAND)["ok"]
    perturbed = worker.run_op({"cls": "verify", "argv": ["verify", "--perturb", "beta3_eff"]}, BAND)
    assert not perturbed["ok"]
    assert "exited 1" in perturbed["error"]


def test_xval_one_percent_off_counts_as_failed():
    from stokes_isola import measure_isola

    meas = measure_isola(0.04)
    checks.check_measurement(meas, 0.04, BAND)
    for factor in (1.01, 0.99):
        with pytest.raises(checks.CheckFailed, match="re error"):
            checks.check_measurement(dataclasses.replace(meas, re_max=meas.re_max * factor), 0.04, BAND)


def test_isola_json_one_percent_off_counts_as_failed():
    rc, stdout = _cli(["isola", "--eps", "0.04", "--format", "json"])
    assert rc == 0
    checks.check_isola_json(stdout, 0.04, BAND)
    doc = json.loads(stdout)
    summary = next(r for r in doc["curves"] if r["source"] == "summary-oracle")
    summary["re_plus"] *= 1.01
    with pytest.raises(checks.CheckFailed, match="re error"):
        checks.check_isola_json(json.dumps(doc), 0.04, BAND)


def test_coeffs_corruption_counts_as_failed():
    rc, stdout = _cli(["coeffs", "--format", "json"])
    assert rc == 0
    checks.check_coeffs_json(stdout)
    doc = json.loads(stdout)
    doc["coefficients"][-1]["im"] += 1e-9
    with pytest.raises(checks.CheckFailed, match="closed form"):
        checks.check_coeffs_json(json.dumps(doc))


def test_run_refuses_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__", ".out"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "xval", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
