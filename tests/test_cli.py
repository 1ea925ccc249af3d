"""Command-line interface: exit codes, formats, config precedence, warnings."""

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
from stokes_isola import cli, floquet, jets


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

    def test_large_amplitude(self, capsys):
        code, out, err = run(capsys, "isola", "--eps", "0.2", "--samples", "3")
        assert code == 0
        _, rows = parse_csv(out)
        assert "summary-oracle" in {r[6] for r in rows}

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
            assert r[7].endswith("eigenvalue(s) within 0.2 of 0.75j; need 2")

    def test_search_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(floquet, "_MAX_STEPS", 1)
        code, out, err = run(capsys, "isola", "--eps", "0.06")
        assert code == 3
        assert "numerical failure: vertex search" in err


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
    def test_scipy_loads_only_for_the_oracle(self):
        """``verify`` and ``coeffs`` run without scipy or numpy.polynomial in
        a fresh interpreter; the first solve loads scipy (which itself loads
        numpy.polynomial)."""
        code = textwrap.dedent(
            """
            import io, sys
            sys.path.insert(0, sys.argv[1])
            import stokes_isola, stokes_isola.cli as cli
            out, sys.stdout = sys.stdout, io.StringIO()
            codes = cli.main(["verify"]), cli.main(["coeffs", "--format", "json"])
            closed_form = "scipy" in sys.modules, "numpy.polynomial" in sys.modules
            stokes_isola.measure_isola(0.06)
            print(*codes, *closed_form, "scipy" in sys.modules, file=out)
            """
        )
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", code, str(src)], capture_output=True, text=True, check=True
        )
        assert proc.stdout.split() == ["0", "0", "False", "False", "True"]


class TestPublicApi:
    def test_star_import_resolves_every_name(self):
        namespace = {}
        exec("from stokes_isola import *", namespace)
        assert set(stokes_isola.__all__) <= set(namespace)


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
