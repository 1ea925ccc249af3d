"""Command-line interface: exit codes, formats, config precedence, warnings."""

import argparse
import csv
import io
import json
import math
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import stokes_isola
from stokes_isola import cli, entanglement, floquet, instability, jets, stokes


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestVerify:
    def test_all_checks_pass(self, capsys):
        code, out, err = run(capsys, "verify")
        assert code == 0
        assert "checks passed" in out
        # every reported line carries an ok marker
        summary = out.strip().splitlines()[-1]
        passed, total = summary.split()[0].split("/")
        assert passed == total

    def test_perturbation_is_caught(self, capsys):
        code, out, err = run(capsys, "verify", "--perturb", "beta3_eff")
        assert code == 1

    def test_unmatched_perturbation_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--perturb", "no-such-check")
        assert code == 2
        assert "matches no check" in err

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "verify.csv"
        code, out, err = run(capsys, "verify", "--out", str(dest))
        assert code == 0
        header, rows = parse_csv(dest.read_text())
        assert header[0] == "name"
        assert len(rows) >= 70

    def test_closed_form_lines_match_reference(self, capsys):
        # the two oracle.* lines carry LAPACK round-off and are left out
        reference = Path(__file__).with_name("data") / "verify.txt"
        code, out, err = run(capsys, "verify")
        assert code == 0
        lines = out.splitlines(keepends=True)
        assert "".join(ln for ln in lines if "  oracle." not in ln) == reference.read_text()


class TestIsola:
    def test_csv_shape(self, capsys):
        code, out, err = run(
            capsys, "isola", "--eps", "0.06", "--samples", "5", "--trunc", "24"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "eps", "mu", "re_plus", "im_plus", "re_minus", "im_minus",
            "source", "status",
        ]
        sources = {r[6] for r in rows}
        assert {"theory", "oracle", "summary-theory", "summary-oracle"} <= sources
        for r in rows:
            float(r[0]), float(r[1])

    def test_seventeen_digit_cells(self, capsys):
        code, out, err = run(
            capsys, "isola", "--eps", "0.06", "--samples", "3", "--trunc", "24"
        )
        header, rows = parse_csv(out)
        assert rows[0][0] == "%.17g" % 0.06

    def test_json_roundtrip_and_echo(self, capsys):
        code, out, err = run(
            capsys, "isola", "--eps", "0.05", "--samples", "3", "--trunc", "24",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["samples"] == 3
        assert doc["config"]["eps"] == [0.05]
        assert len(doc["curves"]) >= 3

    def test_theory_rows_match_reference(self, capsys):
        reference = Path(__file__).with_name("data") / "isola_theory.json"
        code, out, err = run(capsys, "isola", "--eps", "0.06", "--format", "json")
        assert code == 0
        rows = json.loads(out)["curves"]
        theory = [r for r in rows if r["source"] in ("theory", "summary-theory")]
        assert theory == json.loads(reference.read_text())

    def test_oracle_rows_match_reference(self, capsys):
        """The oracle rows against their reference: mu to 1e-12 relative,
        each eigenvalue's parts to 1e-12 of its modulus (outside the isola
        the real parts print exactly 0, where the reference, written by a
        complex solver, holds noise of about 1e-17 with no relative digits),
        every trace row's status exactly, and the summary's width to 1e-12
        of mu and its deviations at their printed precision."""
        reference = Path(__file__).with_name("data") / "isola_oracle.json"
        code, out, err = run(capsys, "isola", "--eps", "0.06", "--format", "json")
        assert code == 0
        rows = [r for r in json.loads(out)["curves"] if r["source"] in ("oracle", "summary-oracle")]
        expected = json.loads(reference.read_text())
        assert [r["source"] for r in rows] == [r["source"] for r in expected]
        for got, want in zip(rows, expected):
            assert got["eps"] == want["eps"]
            assert got["mu"] == pytest.approx(want["mu"], rel=1e-12, abs=0)
            for sign in ("plus", "minus"):
                scale = abs(complex(want[f"re_{sign}"], want[f"im_{sign}"]))
                for part in ("re", "im"):
                    cell = f"{part}_{sign}"
                    assert got[cell] == pytest.approx(want[cell], rel=0, abs=1e-12 * scale)
            if want["source"] == "oracle":
                assert got["status"] == want["status"]
                continue
            got_fields = dict(f.split("=") for f in got["status"].split(";"))
            want_fields = dict(f.split("=") for f in want["status"].split(";"))
            assert got_fields.keys() == want_fields.keys()
            width = float(want_fields.pop("width"))
            assert float(got_fields.pop("width")) == pytest.approx(width, rel=0, abs=1e-12 * want["mu"])
            for name, printed in want_fields.items():
                unit = 10.0 ** (int(printed.split("e")[1]) - 3)
                assert abs(float(got_fields[name]) - float(printed)) <= unit

    @pytest.mark.parametrize("eps", ["0.02", "0.06", "0.12", "0.19", "0.25"])
    def test_theory_curve_ends_on_the_collision(self, capsys, eps):
        # the end samples are the roots of the modelled D, not its
        # leading-order edges, which miss D = 0 by the eps^6 cross term
        code, out, err = run(capsys, "isola", "--eps", eps, "--samples", "3")
        assert code == 0
        _, rows = parse_csv(out)
        theory = [r for r in rows if r[6] == "theory"]
        assert len(theory) == 3
        for r in (theory[0], theory[-1]):
            assert r[7] == "collision"
            assert float(r[2]) == float(r[4]) == 0.0

    def test_deterministic_output(self, capsys):
        args = ("isola", "--eps", "0.05", "--samples", "3", "--trunc", "24")
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_rejects_single_sample(self, capsys):
        code, out, err = run(capsys, "isola", "--samples", "1")
        assert code == 2
        assert "samples" in err

    def test_rejects_negative_eps(self, capsys):
        code, out, err = run(capsys, "isola", "--eps", "-0.1")
        assert code == 2

    @pytest.mark.parametrize("eps", ["0.02", "0.06", "0.12", "0.19"])
    def test_trace_takes_no_solve_of_its_own(self, capsys, monkeypatch, eps):
        """The trace starts from the search's series, so an amplitude takes
        the search's 4 solves and no more (a trace with a series of its
        own took a fifth)."""
        solves = []
        solve = floquet.spectrum

        def counted(*args, **kwargs):
            solves.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(floquet, "spectrum", counted)
        code, out, err = run(capsys, "isola", "--eps", eps, "--format", "json")
        assert code == 0
        assert len(solves) == 4

    def test_zero_eps_is_diagnosed_before_any_solve(self, capsys, monkeypatch):
        monkeypatch.setattr(floquet, "spectrum", None)        # no solve is attempted
        code, out, err = run(capsys, "isola", "--eps", "0")
        assert (code, out) == (3, "")
        assert err == "numerical failure: eps must be positive, got 0.0: flat water has no isola\n"

    def test_split_oracle_rows_put_the_growth_in_lambda_plus(self, capsys):
        """At eps 0.001 and 0.005 the isola's real parts are 1e-13 to 1e-10,
        below any noise threshold; every split `oracle` row still holds the
        positive real part in lambda+, as the theory rows do."""
        code, out, err = run(capsys, "isola", "--eps", "0.001", "--eps", "0.005")
        assert code == 0
        _, rows = parse_csv(out)
        split = [r for r in rows if r[6] == "oracle" and float(r[2]) != 0.0]
        assert len(split) >= 10
        for r in split:
            assert float(r[2]) > 0 and float(r[4]) == -float(r[2])

    def test_tiny_amplitude_is_diagnosed(self, capsys):
        code, out, err = run(capsys, "isola", "--eps", "1e-20")
        assert (code, out) == (3, "")
        assert err.startswith("numerical failure: no isola resolved for eps=1e-20")

    @pytest.mark.parametrize("order", [("0.06", "2e-4"), ("2e-4", "0.06")])
    def test_failed_amplitude_keeps_the_others_rows(self, capsys, order):
        """eps 2e-4 is refused (an isola at most 128 ulp of mu wide); the
        0.06 rows are written as if it had been asked for alone."""
        code, alone, err = run(capsys, "isola", "--eps", "0.06")
        assert (code, err) == (0, "")
        code, out, err = run(capsys, "isola", "--eps", order[0], "--eps", order[1])
        assert code == 3
        assert out == alone
        assert err.startswith("numerical failure: no isola resolved for eps=0.0002")
        assert err.count("\n") == 1

    def test_every_failed_amplitude_gets_a_line(self, capsys):
        code, out, err = run(capsys, "isola", "--eps", "0", "--eps", "1e-20")
        assert (code, out) == (3, "")
        first, second = err.splitlines()
        assert first == "numerical failure: eps must be positive, got 0.0: flat water has no isola"
        assert second.startswith("numerical failure: no isola resolved for eps=1e-20")

    def test_large_amplitude(self, capsys):
        code, out, err = run(capsys, "isola", "--eps", "0.2", "--samples", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert "summary-oracle" in {r[6] for r in rows}

    def test_no_row_loses_the_pair_at_eps_029(self, capsys):
        """The tracking disk follows the pair; one fixed at 0.75j held only
        one eigenvalue of it on 8 of these 25 oracle rows."""
        code, out, err = run(capsys, "isola", "--eps", "0.29")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [r[7] for r in rows if r[6] == "oracle"] == ["ok"] * 25

    def test_tracking_failed_rows_keep_empty_cells(self, capsys):
        code, out, err = run(
            capsys, "isola", "--eps", "0.06", "--mu-center", "0.55", "--mu-width", "0.01",
            "--samples", "3",
        )
        assert code == 0
        _, rows = parse_csv(out)
        oracle = [r for r in rows if r[6] == "oracle"]
        assert len(oracle) == 3
        for r in oracle:
            assert r[2:6] == ["", "", "", ""]
            assert r[7].startswith("tracking-failed: ")
            assert r[7].endswith(f"eigenvalue(s) within 0.2 of {floquet._disk_center(0.06)}; need 2")

    def test_search_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(floquet, "_SERIES_ORDERS", 1)
        code, out, err = run(capsys, "isola", "--eps", "0.06")
        assert code == 3
        assert "numerical failure: pair series" in err
        assert "did not converge by order 1" in err


class TestNonFiniteInput:
    """A NaN or infinite amplitude or exponent is diagnosed by name, with
    exit 3, before any solve; a NaN or infinite tolerance or window option
    is a usage error, not 73 failed or passed checks or a failed trace."""

    @pytest.mark.parametrize("argv,name,value", [
        (("isola", "--eps", "nan"), "eps", "nan"),
        (("isola", "--eps", "inf"), "eps", "inf"),
        (("spectrum", "--eps", "inf"), "eps", "inf"),
        (("spectrum", "--mu", "nan"), "mu", "nan"),
        (("convergence", "--eps", "nan"), "eps", "nan"),
        (("convergence", "--mu=-inf"), "mu", "-inf"),
    ])
    def test_exit_code_and_message(self, capsys, argv, name, value):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert err == f"numerical failure: {name} must be finite, got {value}\n"
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--eps", "1e300"),
        ("spectrum", "--eps", "1e100"),
        ("isola", "--eps", "1e300"),
        ("convergence", "--eps", "1e300"),
    ])
    def test_overflowing_amplitude_is_named(self, capsys, argv):
        """An eps whose eps**4 overflows is refused by name before any
        solve, not reported as a bare range error."""
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == f"numerical failure: eps must be small enough that eps**4 is finite, got {float(argv[2])}\n"

    @pytest.mark.parametrize("argv,name", [
        (("verify", "--tol", "nan"), "tol"),
        (("isola", "--mu-width", "nan"), "mu-width"),
    ])
    def test_nan_option_is_usage_error(self, capsys, argv, name):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err == f"error: {name} must be positive, got nan\n"

    @pytest.mark.parametrize("argv,message", [
        (("verify", "--tol", "inf", "--perturb", "beta3_eff"), "tol must be finite, got inf"),
        (("isola", "--eps", "0.06", "--mu-width", "inf"), "mu-width must be finite, got inf"),
        (("isola", "--mu-center", "nan"), "mu-center must be finite, got nan"),
        (("isola", "--mu-center=-inf"), "mu-center must be finite, got -inf"),
    ])
    def test_non_finite_option_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("command,config,message", [
        ("verify", {"tol": math.inf}, "tol must be finite, got inf"),
        ("isola", {"mu_width": "inf"}, "mu-width must be finite, got inf"),
        ("isola", {"mu_center": math.nan}, "mu-center must be finite, got nan"),
    ])
    def test_non_finite_file_value_is_usage_error(self, capsys, tmp_path, command, config, message):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(config))
        code, out, err = run(capsys, command, "--config", str(cfgfile))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestStartUp:
    """What a fresh interpreter has loaded after each step.  Importing the
    package and the CLI loads neither numpy, scipy, fractions nor decimal,
    and `coeffs` runs without them.  `verify` (its contour and oracle rows)
    and the dense `spectrum` load numpy but not scipy or numpy.polynomial.
    The first shift-invert solve loads scipy and its LAPACK extension, never
    the `scipy.linalg` package, whose import loaded numpy.polynomial."""

    MODULES = ("numpy", "scipy", "scipy.linalg", "numpy.polynomial", "fractions", "decimal")

    @pytest.fixture(scope="class")
    def loaded(self):
        """Step -> (exit code or None, then whether each of `MODULES` is loaded);
        and whether `floquet._lapack()`, loaded before `scipy.linalg`, holds
        `scipy.linalg.lapack`'s own routines."""
        code = textwrap.dedent(
            """
            import io, json, sys
            sys.path.insert(0, sys.argv[1])
            out, sys.stdout = sys.stdout, io.StringIO()
            steps = {}

            def after(step, rc=None):
                steps[step] = [rc, *(m in sys.modules for m in sys.argv[2:])]

            import stokes_isola, stokes_isola.cli as cli
            after("import")
            after("coeffs", cli.main(["coeffs"]))
            after("coeffs-json", cli.main(["coeffs", "--format", "json"]))
            after("verify", cli.main(["verify"]))
            after("spectrum", cli.main(["spectrum", "--mu", "0.25", "--eps", "0.06", "--trunc", "16"]))
            stokes_isola.measure_isola(0.06)
            after("measure_isola")
            after("isola", cli.main(["isola", "--eps", "0.06"]))
            import scipy.linalg.lapack
            names = ("dgbtrf", "dgbtrs", "dgeev", "dgeqrf", "dorgqr")
            own = [getattr(stokes_isola.floquet._lapack(), n) is getattr(scipy.linalg.lapack, n) for n in names]
            print(json.dumps({"steps": steps, "own": own}), file=out)
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code, str(src), *self.MODULES], capture_output=True, text=True, check=True
        )
        return json.loads(proc.stdout)

    def _flags(self, loaded, module):
        return {step: flags[1 + self.MODULES.index(module)] for step, flags in loaded["steps"].items()}

    def test_scipy_loads_only_for_the_oracle(self, loaded):
        assert [flags[0] for flags in loaded["steps"].values()] == [None, 0, 0, 0, 0, None, 0]
        steps = ["import", "coeffs", "coeffs-json", "verify", "spectrum", "measure_isola", "isola"]
        oracle = {"measure_isola", "isola"}
        assert self._flags(loaded, "scipy") == {step: step in oracle for step in steps}
        assert self._flags(loaded, "scipy.linalg") == dict.fromkeys(steps, False)
        assert self._flags(loaded, "numpy.polynomial") == dict.fromkeys(steps, False)

    def test_numpy_loads_only_for_numerical_work(self, loaded):
        assert self._flags(loaded, "numpy") == {
            "import": False,
            "coeffs": False,
            "coeffs-json": False,
            "verify": True,
            "spectrum": True,
            "measure_isola": True,
            "isola": True,
        }

    def test_import_loads_no_exact_arithmetic(self, loaded):
        assert not any(self._flags(loaded, "fractions").values())
        assert not any(self._flags(loaded, "decimal").values())

    def test_lapack_routines_are_scipys_own(self, loaded):
        """Loaded before `scipy.linalg` (in the fresh interpreter) or after
        it (here), the seam holds the routines `scipy.linalg.lapack` exposes."""
        import scipy.linalg.lapack

        assert loaded["own"] == [True] * 5
        for name in ("dgbtrf", "dgbtrs", "dgeev", "dgeqrf", "dorgqr"):
            assert getattr(floquet._lapack(), name) is getattr(scipy.linalg.lapack, name)

    def test_only_the_measurement_is_a_dataclass(self):
        import dataclasses

        records = [
            name for module in (entanglement, floquet, instability, jets, stokes)
            for name, obj in vars(module).items() if isinstance(obj, type) and dataclasses.is_dataclass(obj)
        ]
        assert records == ["IsolaMeasurement"]


class TestPublicApi:
    def test_star_import_resolves_every_name(self):
        namespace = {}
        exec("from stokes_isola import *", namespace)
        assert set(stokes_isola.__all__) <= set(namespace)

    def test_package_exports_exactly_the_modules_lists(self):
        modules = [entanglement, floquet, instability, jets, stokes]
        names = [name for module in modules for name in module.__all__]
        assert stokes_isola.__all__ == names + ["__version__"]
        assert len(set(stokes_isola.__all__)) == len(stokes_isola.__all__)
        for module in modules:
            for name in module.__all__:
                obj = getattr(module, name)
                assert obj.__module__ == module.__name__, name    # defined there, not re-exported
                assert getattr(stokes_isola, name) is obj


class TestConfigFile:
    def test_flags_override_file(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"samples": 4, "eps": [0.05], "trunc": [24]}))
        code, out, err = run(
            capsys, "isola", "--config", str(cfgfile), "--samples", "6",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["samples"] == 6        # flag wins
        assert doc["config"]["eps"] == [0.05]       # file survives
        assert doc["config"]["trunc"] == [24]

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps({"sample": 4}))
        code, out, err = run(capsys, "isola", "--config", str(cfgfile))
        assert code == 2
        assert "sample" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, out, err = run(capsys, "isola", "--config", str(tmp_path / "nope.json"))
        assert code == 2

    @pytest.mark.parametrize("argv,config,flags", [
        (("isola", "--eps", "0.06", "--trunc", "24"), {"samples": "3"}, ("--samples", "3")),
        (("spectrum", "--trunc", "8"), {"stokes_order": "4"}, ("--stokes-order", "4")),
        (("spectrum", "--trunc", "8"), {"mu": "0.3"}, ("--mu", "0.3")),
    ])
    def test_value_converted_as_its_flag(self, capsys, tmp_path, argv, config, flags):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(config))
        code, from_file, err = run(capsys, *argv, "--format", "json", "--config", str(cfgfile))
        assert (code, err) == (0, "")
        assert from_file == run(capsys, *argv, "--format", "json", *flags)[1]

    @pytest.mark.parametrize("command,config", [
        ("verify", {"tol": "x"}),
        ("isola", {"eps": None}),
        ("isola", {"eps": []}),
        ("spectrum", {"trunc": [8.5]}),
        ("spectrum", {"stokes_order": True}),
        ("coeffs", {"out": {"path": "x.csv"}}),
    ])
    def test_invalid_value_is_usage_error(self, capsys, tmp_path, command, config):
        cfgfile = tmp_path / "bad.json"
        cfgfile.write_text(json.dumps(config))
        code, out, err = run(capsys, command, "--config", str(cfgfile))
        assert code == 2
        assert f"config key {next(iter(config))!r}" in err
        assert out == ""

    @pytest.mark.parametrize("command,config", [
        ("coeffs", {"eps": 0.1}),
        ("verify", {"trunc": 16}),
        ("verify", {"perturb": "beta3"}),
        ("isola", {"tol": 1e-3}),
        ("spectrum", {"samples": 3}),
    ])
    def test_key_the_command_does_not_read_rejected(self, capsys, tmp_path, command, config):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(config))
        code, out, err = run(capsys, command, "--config", str(cfgfile))
        assert code == 2
        assert f"{next(iter(config))!r} is not an option of {command}" in err

    @pytest.mark.parametrize("argv", [
        ("isola", "--eps", "0.06", "--samples", "3", "--trunc", "24", "--mu-width", "1e-5"),
        ("spectrum",),
        ("convergence", "--mu", "0.246778", "--eps", "0.06", "--trunc", "12", "--trunc", "16"),
        ("coeffs",),
        ("verify", "--out", "OUT"),
    ], ids=lambda argv: argv[0])
    def test_json_echo_reads_back_as_config(self, capsys, tmp_path, argv):
        """The JSON ``config`` of a run, passed back with --config to the same
        subcommand, reproduces its output byte for byte."""
        out = tmp_path / "out.json"
        argv = [str(out) if a == "OUT" else a for a in argv]
        code, first, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (0, "")
        written = out.read_text() if out.exists() else None
        cfgfile = tmp_path / "echo.json"
        cfgfile.write_text(json.dumps(json.loads(written or first)["config"]))
        out.unlink(missing_ok=True)
        code, again, err = run(capsys, argv[0], "--config", str(cfgfile))
        assert (code, err, again) == (0, "", first)
        assert (out.read_text() if out.exists() else None) == written


class TestUsageErrors:
    @pytest.mark.parametrize("argv,message", [
        (("spectrum", "--trunc", "4"), "trunc must be >= 8"),
        (("spectrum", "--stokes-order", "5"), "stokes-order must be in 0..4, got 5"),
    ])
    def test_out_of_range_option(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert message in err
        assert out == ""

    @pytest.mark.parametrize("config,message", [
        ({"format": "xml"}, "format must be csv or json, got 'xml'"),
        (["format", "json"], "must hold a JSON object"),
    ])
    def test_bad_config_file(self, capsys, tmp_path, config, message):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(config))
        code, out, err = run(capsys, "coeffs", "--config", str(cfgfile))
        assert code == 2
        assert message in err
        assert out == ""


class TestOptionsPerCommand:
    @pytest.mark.parametrize("argv", [
        ("coeffs", "--eps", "0.1"),
        ("verify", "--trunc", "16"),
        ("isola", "--tol", "1e-3"),
        ("spectrum", "--samples", "3"),
        ("convergence", "--mu-width", "1e-6"),
    ])
    def test_option_the_command_does_not_read_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,option", [
        (("spectrum", "--trunc", "16", "--trunc", "24"), "--trunc"),
        (("isola", "--eps", "0.06", "--trunc", "16", "--trunc", "24"), "--trunc"),
        (("spectrum", "--eps", "0.05", "--eps", "0.06"), "--eps"),
        (("convergence", "--eps", "0.05", "--eps", "0.06"), "--eps"),
        (("isola", "--eps", "0.06", "--samples", "3", "--samples", "4"), "--samples"),
        (("spectrum", "--mu", "0.25", "--mu", "0.3"), "--mu"),
        (("coeffs", "--format", "csv", "--format", "json"), "--format"),
        (("verify", "--perturb", "beta3", "--perturb", "beta2"), "--perturb"),
        (("coeffs", "--config", "a.json", "--config", "b.json"), "--config"),
    ])
    def test_second_value_of_a_single_option_rejected(self, capsys, argv, option):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert f"{option} takes one value for {argv[0]}" in err
        assert out == ""

    def test_second_value_from_the_file_rejected(self, capsys, tmp_path):
        cfgfile = tmp_path / "run.json"
        for command, config in [
            ("spectrum", {"trunc": [16, 24]}),
            ("isola", {"samples": [3, 4]}),
            ("spectrum", {"mu": [0.25, 0.3]}),
        ]:
            cfgfile.write_text(json.dumps(config))
            code, out, err = run(capsys, command, "--config", str(cfgfile))
            assert code == 2
            option = next(iter(config)).replace("_", "-")
            assert f"--{option} takes one value for {command}" in err


class TestSpectrum:
    def test_tracked_pair_column(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "--mu", "0.25", "--eps", "0.05", "--trunc", "16"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["re", "im", "tracked"]
        assert sum(int(r[2]) for r in rows) == 2
        assert len(rows) == 2 * (2 * 16 + 1)

    def test_brillouin_warning(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "--mu", "0.55", "--eps", "0.05", "--trunc", "16"
        )
        assert code == 0
        assert "Floquet window" in err

    @pytest.mark.parametrize("mu,warns", [("-0.1", True), ("0", False), ("0.25", False)])
    def test_window_warning_only_outside(self, capsys, mu, warns):
        code, out, err = run(capsys, "spectrum", "--mu", mu, "--eps", "0.05", "--trunc", "16")
        assert code == 0
        assert ("Floquet window" in err) == warns

    def test_rows_sorted_by_imaginary_part(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "--mu", "0.25", "--eps", "0.05", "--trunc", "16"
        )
        _, rows = parse_csv(out)
        ims = [float(r[1]) for r in rows]
        assert ims == sorted(ims)


class TestConvergence:
    def test_ladder(self, capsys):
        code, out, err = run(
            capsys, "convergence", "--mu", "0.2475", "--eps", "0.06",
            "--trunc", "12", "--trunc", "16",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["N", "re_plus", "im_plus", "re_minus", "im_minus", "delta_prev"]
        assert [r[0] for r in rows] == ["12", "16"]
        assert rows[0][5] == ""
        assert float(rows[1][5]) < 1e-8

    def test_single_trunc_gives_one_row(self, capsys):
        code, out, err = run(
            capsys, "convergence", "--mu", "0.246778", "--eps", "0.06", "--trunc", "24"
        )
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["24"]
        assert float(rows[0][1]) == pytest.approx(1.5725e-6, rel=1e-4)

    def test_default_ladder(self, capsys):
        code, out, err = run(capsys, "convergence", "--mu", "0.246778", "--eps", "0.06")
        assert (code, err) == (0, "")
        _, rows = parse_csv(out)
        assert [r[0] for r in rows] == ["16", "24", "32", "48"]
        # inside the isola: the pair is split at every N
        assert all(float(r[1]) == pytest.approx(1.5725e-6, rel=1e-4) for r in rows)

    @pytest.mark.parametrize("ladder", [("16", "16"), ("24", "16"), ("12", "24", "16")])
    def test_ladder_must_refine(self, capsys, ladder):
        trunc = [arg for n in ladder for arg in ("--trunc", n)]
        code, out, err = run(capsys, "convergence", "--mu", "0.246778", "--eps", "0.06", *trunc)
        assert code == 2
        assert f"--trunc ladder {[int(n) for n in ladder]} does not refine" in err
        assert out == ""

    def test_shift_on_the_collision(self, capsys):
        # eps = 0, mu = 1/4: the flat double eigenvalue sits exactly on 0.75i
        code, out, err = run(
            capsys, "convergence", "--mu", "0.25", "--eps", "0",
            "--trunc", "8", "--trunc", "12",
        )
        assert code == 0, err
        _, rows = parse_csv(out)
        for row in rows:
            assert abs(complex(float(row[1]), float(row[2]) - 0.75)) <= 1e-12
            assert abs(complex(float(row[3]), float(row[4]) - 0.75)) <= 1e-12

    def test_numerical_failure_exit_code(self, capsys):
        code, out, err = run(
            capsys, "convergence", "--mu", "0.55", "--eps", "0.0",
            "--trunc", "8", "--trunc", "12",
        )
        assert code == 3
        assert "numerical failure" in err


class TestCoeffs:
    def test_table(self, capsys):
        code, out, err = run(capsys, "coeffs")
        assert code == 0
        header, rows = parse_csv(out)
        assert header[0] == "name"
        names = {r[0] for r in rows}
        assert "beta3_eff" in names or any("beta3" in n for n in names)

    def test_json_is_byte_identical_to_reference(self, capsys):
        # pure float arithmetic, so the output is deterministic to the last
        # byte, including the sign of zeros such as the real part of term.beta2.theta
        reference = Path(__file__).with_name("data") / "coeffs.json"
        code, out, err = run(capsys, "coeffs", "--format", "json")
        assert code == 0
        assert out == reference.read_text()

    def test_beta3_projector_route_is_bit_identical(self):
        # the one closed-form value `verify` prints that coeffs.json does not pin
        assert jets.beta3_projector_route().hex() == "-0x1.0e332e595ceeep-3"


class TestOutFile:
    def test_unwritable_path_is_io_error(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "coeffs", "--out", str(tmp_path / "missing" / "x.csv")
        )
        assert code == 2


class TestJsonWriter:
    """Every byte `_emit` writes as JSON is what
    ``json.dumps(doc, indent=2, allow_nan=True)`` writes, on stdout and in
    --out."""

    @staticmethod
    def _reference(text):
        # every value here round-trips through json exactly, -0.0 and NaN included
        return json.dumps(json.loads(text), indent=2, allow_nan=True) + "\n"

    @pytest.mark.parametrize("argv", [
        ["coeffs"],
        ["isola", "--eps", "0.06", "--samples", "5"],
        ["isola", "--eps", "0.06", "--eps", "2e-4", "--samples", "3"],
        ["spectrum", "--trunc", "8"],
        ["convergence", "--trunc", "8", "--trunc", "12"],
    ], ids=["coeffs", "isola", "isola-failed-amplitude", "spectrum", "convergence"])
    def test_every_command_writes_json_dumps_bytes(self, capsys, tmp_path, argv):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code in (0, 3) and out == self._reference(out)
        path = tmp_path / "out.json"
        assert run(capsys, *argv, "--format", "json", "--out", str(path))[0] == code
        assert path.read_text() == self._reference(path.read_text())

    def test_verify_out_writes_json_dumps_bytes(self, capsys, tmp_path):
        path = tmp_path / "checks.json"
        assert run(capsys, "verify", "--format", "json", "--out", str(path))[0] == 0
        text = path.read_text()
        assert text == self._reference(text) and json.loads(text)["checks"]

    @pytest.mark.parametrize("rows", [
        [],
        [
            [math.nan, math.inf, -math.inf, None, 0, -3, "ok"],
            [-0.0, 1e-300, 2.5e17, 7, None, True, 'q"uote \\ back, "comma\n μ-é ✓ \U0001d70e'],
        ],
    ], ids=["no-rows", "scalars"])
    def test_synthetic_rows(self, capsys, tmp_path, rows):
        header = ["a", "b", "c", "d", "e", "f", "status"]
        path = tmp_path / "rows.json"
        for out in (None, str(path)):
            config = {"eps": (0.06, 1e-5), "samples": 25, "format": "json", "label": 'x"\\y', "out": out}
            echo = {k: v for k, v in config.items() if v is not None}
            expected = json.dumps(
                {"config": echo, "rows": [dict(zip(header, row)) for row in rows]}, indent=2, allow_nan=True
            ) + "\n"
            cli._emit(argparse.Namespace(**config, perturb="p"), header, rows, "rows")
            written = capsys.readouterr().out if out is None else path.read_text()
            assert written == expected
