"""Command-line front end.

Subcommands
-----------
verify       hermetic self-check: recompute every named coefficient and
             derived constant against its closed form, print a pass/fail
             table (exit 1 on any failure).  --perturb NAME injects a small
             offset into matching rows as a negative control.
coeffs       emit the jet coefficients, derived constants and the full
             intermediate-term ledger.
isola        for each --eps: closed-form eigenvalue curve across the
             unstable band, the truncated-eigenproblem trace over a mu
             window, and summary rows comparing the two; an amplitude that
             fails leaves out its rows, not the others', and exits 3.
spectrum     full truncated spectrum at one (mu, eps), tracked pair marked.
convergence  tracked pair under truncation refinement, one row per --trunc
             (default 16, 24, 32, 48).

Each subcommand takes only the options it reads (`_COMMANDS`, or --help)
and --config FILE, a JSON object keyed by those options' snake_case names
(--perturb is flag-only).  A file value is converted as its flag's text
would be: {"samples": "3"} is --samples 3, {"trunc": [8.5]} is an error.
--eps repeats only for isola and --trunc only for convergence, where the
ladder must increase strictly; a second value of any other option, from
flags or the file, is a usage error.
Options are resolved as flags > --config file > built-in defaults.

Exit codes: 0 success, 1 verification mismatch, 2 usage/config error,
3 numerical failure (tracking loss, unresolved isola).

Output is CSV (default) or JSON via --format, to stdout or --out; floats are
printed with 17 significant digits so files round-trip exactly.  The JSON
"config" object echoes the subcommand's own options that hold a value
(--perturb excepted), so it reads back as that subcommand's --config file.
"""

from __future__ import annotations

import argparse
import csv
import json
import locale  # noqa: F401  argparse's gettext imports it on every parse
import math
import sys
from typing import Optional, Sequence, TextIO

from . import closed_forms as cf
from . import floquet, instability, jets
from .entanglement import Mode, bracket, chain_apply, ent_coeff, residue, residue_contour
from .stokes import MAX_ORDER, MU_STAR, OMEGA_STAR, omega


# ----------------------------------------------------------- configuration


_POSITIVE = (("positive", lambda v: v > 0), ("finite", math.isfinite))

#: Every option once: name -> (default, argparse keywords of ``--name-with-dashes``,
#: checks).  A check (requirement, test) rejects each value failing ``test``
#: with "<name> must be <requirement>, got <value>".  Every option collects
#: its values, from flags or the file, and only a subcommand's repeated
#: options (`_COMMANDS`) may hold more than one; an option with a tuple
#: default keeps its values as a tuple, any other is resolved to its one value.
_OPTIONS: dict[str, tuple] = {
    # a NaN or infinite eps passes here: `floquet` names it with exit 3
    "eps": ((0.06,), dict(type=float, help="wave amplitude (isola: repeatable)"),
            (("nonnegative", lambda v: not v < 0),)),
    "mu": (MU_STAR, dict(type=float, help="Floquet exponent"), ()),
    "mu_center": (None, dict(type=float, help="center of the mu window"), (("finite", math.isfinite),)),
    "mu_width": (None, dict(type=float, help="full width of the mu window"), _POSITIVE),
    "samples": (25, dict(type=int, help="points per curve (>= 2)"), ((">= 2", lambda v: v >= 2),)),
    "trunc": ((floquet.DEFAULT_N,),
              dict(type=int, help="harmonic truncation N (convergence: repeatable)"),
              ((">= 8", lambda v: v >= 8),)),
    "stokes_order": (MAX_ORDER, dict(type=int, help=f"profile expansion order (0..{MAX_ORDER})"),
                     ((f"in 0..{MAX_ORDER}", lambda v: 0 <= v <= MAX_ORDER),)),
    "format": ("csv", dict(choices=("csv", "json"), help="output format"),
               (("csv or json", lambda v: v in ("csv", "json")),)),
    "out": (None, dict(help="output path (default: stdout)"), ()),
    "tol": (1e-12, dict(type=float, help="comparison tolerance for verify"), _POSITIVE),
    "perturb": (None, dict(help="offset the checks whose name contains this string (negative control)"), ()),
}


def _from_file(key: str, raw, path: str) -> tuple:
    """The values of a --config entry, each converted as its flag's text
    would be; a list holds as many values as that many flags."""
    items = raw if isinstance(raw, list) else [raw]
    try:
        if not items or any(type(v) not in (str, int, float) for v in items):
            raise ValueError  # null, true, {} or [] is no flag's text
        return tuple(_OPTIONS[key][1].get("type", str)(str(v)) for v in items)
    except ValueError:
        raise ValueError(f"config key {key!r} in {path}: invalid value {raw!r}") from None


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """Exactly the options of ``args.command``: defaults, overlaid by the
    --config file (any option but the flag-only ``perturb``), overlaid by
    explicit flags.  Only the options the command repeats hold more than one
    value, starting from its own default."""
    _, _, names, repeats = _COMMANDS[args.command]
    values = {name: repeats.get(name, _OPTIONS[name][0]) for name in names}
    values = {name: v if isinstance(v, tuple) else (v,) for name, v in values.items()}
    if args.config is not None:
        if len(args.config) > 1:
            raise ValueError(f"--config takes one value for {args.command}, got {args.config}")
        path = args.config[0]
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        for key, val in raw.items():
            if key not in values or key == "perturb":
                raise ValueError(f"config key {key!r} is not an option of {args.command}")
            values[key] = _from_file(key, val, path)
    for name in names:
        if getattr(args, name) is not None:
            values[name] = tuple(getattr(args, name))
        dashed = name.replace("_", "-")
        value = values[name]
        if len(value) > 1 and name not in repeats:
            raise ValueError(f"--{dashed} takes one value for {args.command}, got {list(value)}")
        for requirement, test in _OPTIONS[name][2]:
            for v in value:
                if v is not None and not test(v):
                    raise ValueError(f"{dashed} must be {requirement}, got {v!r}")
        if not isinstance(_OPTIONS[name][0], tuple):
            values[name] = value[0]
    return argparse.Namespace(**values)


# ----------------------------------------------------------------- writers


def _g17(x: float) -> str:
    return "%.17g" % x


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _g17(value)
    return str(value)


def _emit(cfg: argparse.Namespace, header: Sequence[str], rows: Sequence[Sequence], payload_key: str) -> None:
    """Write rows as CSV (header + data) or JSON (config echo + row dicts).

    The echo holds the command's set options, so it reads back as --config."""

    def write(stream: TextIO) -> None:
        if cfg.format == "csv":
            writer = csv.writer(stream, lineterminator="\n")
            writer.writerow(header)
            for row in rows:
                writer.writerow([_cell(v) for v in row])
        else:
            doc = {
                "config": {k: v for k, v in vars(cfg).items() if v is not None and k != "perturb"},
                payload_key: [dict(zip(header, row)) for row in rows],
            }
            stream.write(json.dumps(doc, indent=2, allow_nan=True) + "\n")    # one write, not one per token

    if cfg.out:
        with open(cfg.out, "w") as fh:
            write(fh)
    else:
        write(sys.stdout)


# ------------------------------------------------------------------ verify


def _fmt_complex(z: complex) -> str:
    if z.imag == 0:
        return _g17(z.real)
    return f"{_g17(z.real)}{'+' if z.imag >= 0 else '-'}{_g17(abs(z.imag))}j"


def _verify_rows() -> list[tuple[str, complex, complex]]:
    """(name, expected, computed) for every check in the self-test table."""
    import numpy as np

    ledger = jets.term_ledger()
    jet = jets.assemble_reduced_jet()

    rows: list[tuple[str, complex, complex]] = [
        (f"term.{name}", cf.TERMS[name], value) for name, value in ledger.items()
    ]
    rows += [
        ("coeff.alpha2=9/8", cf.ALPHA2, jet.alpha2),
        ("coeff.beta1=0", cf.BETA1, jet.beta1),
        ("coeff.gamma2=1/16", cf.GAMMA2, jet.gamma2),
        ("coeff.beta2=-sqrt(3)/6", cf.BETA2, jet.beta2),
        ("coeff.beta3=-39*sqrt(3)/512", cf.BETA3, jet.beta3),
        ("coeff.beta3.projector-route", cf.BETA3, jets.beta3_projector_route()),
        ("const.T1=4/3", cf.T1, jet.T1),
        ("const.T2=19/16", cf.T2, jet.T2),
        ("beta3_eff=beta3-beta2*T2/T1=37*sqrt(3)/512", cf.BETA3_EFF, jet.beta3_eff),
    ]

    unit = instability.isola(jet, 1.0)
    flat = instability.isola(jet, 0.0)
    disc_eps8 = unit.discriminant(0.0)
    disc_nu2 = flat.discriminant(1.0) - flat.discriminant(0.0)
    disc_cross = unit.discriminant(1.0) - disc_eps8 - disc_nu2
    rows += [
        ("const.mu0-eps2-coeff=-57/64", cf.MU0_EPS2, unit.mu0 - MU_STAR),
        ("const.nu_plus-eps4-coeff=-111*sqrt(3)/1024", -cf.NU_EPS4, unit.nu_plus),
        ("const.nu_minus-eps4-coeff=111*sqrt(3)/1024", cf.NU_EPS4, unit.nu_minus),
        ("const.D-eps8-coeff=4107/65536", cf.D_EPS8, disc_eps8),
        ("const.D-nu2-coeff=-16/9", cf.D_NU2, disc_nu2),
        ("const.D-nu-eps6-coeff=-37/128", cf.D_NU_EPS6, disc_cross),
        ("const.im-center-eps2-coeff=-55/32", cf.IM_CENTER_EPS2, unit.im_center - OMEGA_STAR),
        ("const.re-max-coeff=37*sqrt(3)/512", cf.BETA3_EFF, unit.re_max),
        ("const.nu_re-coeff=-333/4096", cf.NU_RE_EPS6, unit.nu_re),
        ("const.axis-ratio=2", cf.AXIS_RATIO, unit.axis_ratio),
    ]

    # structural spot-checks, all with closed expected values or exact zeros
    path, short = [jets.LOW, Mode(1, +1), jets.HIGH], [jets.LOW, Mode(1, -1)]
    rows += [
        ("ent[(0,1),+1]((0,-)->(1,+))=i*5^(1/4)*(sqrt(5)-3)/8", cf.ENT_01_PLUS, ent_coeff(jets.B01, +1, jets.LOW, +1)),
        (
            "conjugation[(0,2),+2]((0,-)->(2,+))",
            0.0,
            ent_coeff(jets.B02, +2, jets.LOW, +1).conjugate() - ent_coeff(jets.B02, -2, jets.HIGH, -1),
        ),
        ("residue.permutation[(0,-),(1,+),(2,+)]", 0.0, residue(path) - residue(list(reversed(path)))),
        ("residue.contour[(0,-),(1,-)]", 0.0, residue(short) - residue_contour(short)),
        (
            "dual-bracket[(0,1)+1;(0,1)+1]",
            0.0,
            bracket((jets.B01, +1), chain_apply([(jets.B01, +1)], jets.LOW), jets.HIGH)
            - bracket((jets.B01, +1), jets.LOW, chain_apply([(jets.B01, -1)], jets.HIGH)),
        ),
    ]

    op = floquet.build(0.3, 0.0, N=16)
    eigs = np.linalg.eigvals(op.matrix)
    targets = np.array([1j * omega(j, sg, 0.3) for j in range(-16, 17) for sg in (+1, -1)])
    dev = float(np.abs(eigs[:, None] - targets).min(0).max())
    rows.append(("oracle.flat-exactness[N=16,mu=0.3]", 0.0, dev))

    op = floquet.build(0.27, 0.08, N=16)
    dim = op.matrix.shape[0] // 2
    s = np.concatenate([np.ones(dim), -np.ones(dim)])
    resid = s[:, None] * op.matrix * s[None, :] + np.conj(op.matrix)
    rows.append(("oracle.reversibility[N=16,eps=0.08]", 0.0, float(np.max(np.abs(resid)))))
    return rows


def cmd_verify(cfg: argparse.Namespace) -> int:
    rows = _verify_rows()
    if cfg.perturb is not None:
        if not any(cfg.perturb in name for name, _, _ in rows):
            print(f"error: --perturb {cfg.perturb!r} matches no check name", file=sys.stderr)
            return 2
        rows = [(n, e, g + (1e-6 + 1e-6 * abs(e)) if cfg.perturb in n else g) for n, e, g in rows]
    table = []
    for name, exp, got in rows:
        exp, got = complex(exp), complex(got)
        err = abs(got - exp)
        status = "pass" if err <= cfg.tol else "FAIL"
        table.append([name, exp.real, exp.imag, got.real, got.imag, err, status])
        print(
            f"{status}  {name:<52s} expected={_fmt_complex(exp):<26s} "
            f"computed={_fmt_complex(got):<26s} |err|={err:.3e}"
        )
    failures = sum(row[-1] == "FAIL" for row in table)
    print(
        f"{len(rows) - failures}/{len(rows)} checks passed"
        + (f", {failures} FAILED" if failures else "")
    )
    if cfg.out:
        header = ["name", "expected_re", "expected_im", "computed_re", "computed_im", "abs_err", "status"]
        _emit(cfg, header, table, "checks")
    return 1 if failures else 0


# ------------------------------------------------------------------ coeffs


def cmd_coeffs(cfg: argparse.Namespace) -> int:
    jet = jets.assemble_reduced_jet()
    unit = instability.isola(jet, 1.0)
    rows: list[list] = []
    for name, value in [
        *jet._asdict().items(),
        ("T1", jet.T1),
        ("T2", jet.T2),
        ("beta3_eff", jet.beta3_eff),
        ("mu_star", MU_STAR),
        ("omega_star", OMEGA_STAR),
        ("mu0_eps2_coeff", unit.mu0 - MU_STAR),
        ("nu_plus_eps4_coeff", unit.nu_plus),
        ("nu_minus_eps4_coeff", unit.nu_minus),
    ]:
        rows.append([name, value, 0.0])
    for name, value in jets.term_ledger().items():
        rows.append([f"term.{name}", value.real, value.imag])
    _emit(cfg, ["name", "re", "im"], rows, "coefficients")
    return 0


# ------------------------------------------------------------------- isola


#: The failures reported as "numerical failure: ..." with exit code 3.
_NUMERICAL = (floquet.TrackingFailure, ValueError, ArithmeticError)


def _pair_cells(lp, lm) -> list:
    """The four cells of a tracked pair; a pair of None (tracking failed) leaves them empty."""
    return [None] * 4 if lp is None else [lp.real, lp.imag, lm.real, lm.imag]


def _pair_row(eps: float, mu: float, lp, lm, source: str, status: str) -> list:
    """One isola row."""
    return [eps, mu, *_pair_cells(lp, lm), source, status]


def cmd_isola(cfg: argparse.Namespace) -> int:
    import numpy as np

    jet = jets.assemble_reduced_jet()
    header = ["eps", "mu", "re_plus", "im_plus", "re_minus", "im_minus", "source", "status"]
    rows: list[list] = []
    failed = False
    for eps in cfg.eps:
        try:
            meas = floquet.measure_isola(eps, N=cfg.trunc[-1], stokes_order=cfg.stokes_order)
        except _NUMERICAL as exc:    # the amplitudes that measured still get their rows
            print(f"numerical failure: {exc}", file=sys.stderr)
            failed = True
            continue
        th = instability.isola(jet, eps)
        # from root to root of the modelled D, about its vertex nu_re
        half = math.sqrt(th.discriminant(th.nu_re) / th.t1_sq)
        for nu in np.linspace(th.nu_re - half, th.nu_re + half, cfg.samples).tolist():
            mu = th.mu0 + nu
            pair = th.eigenvalues(nu)
            rows.append(_pair_row(eps, mu, pair.lambda_plus, pair.lambda_minus, "theory", pair.regime))

        # default window: centered on the *measured* isola — the closed-form
        # center is itself only accurate to the isola's own width
        center = cfg.mu_center if cfg.mu_center is not None else meas.mu_at_max
        width = cfg.mu_width if cfg.mu_width is not None else 3.0 * meas.mu_width
        grid = np.linspace(center - width / 2, center + width / 2, cfg.samples).tolist()
        for pt in floquet.trace_isola(eps, grid, N=cfg.trunc[-1], stokes_order=cfg.stokes_order, start=meas):
            status = "ok" if pt.error is None else f"tracking-failed: {pt.error}"
            rows.append(_pair_row(eps, pt.mu, pt.lambda_plus, pt.lambda_minus, "oracle", status))

        peak = complex(th.re_max, th.im_center)
        status = f"width={_g17(th.width)}"
        rows.append(_pair_row(eps, th.mu_at_max, peak, -peak.conjugate(), "summary-theory", status))
        re_dev = abs(meas.re_max - th.re_max) / abs(th.re_max)
        im_dev = abs(meas.im_center - th.im_center)
        width_dev = abs(meas.mu_width - th.width) / abs(th.width)
        status = (
            f"width={_g17(meas.mu_width)};re_dev={re_dev:.3e};"
            f"im_dev={im_dev:.3e};width_dev={width_dev:.3e}"
        )
        oracle = complex(meas.re_max, meas.im_center)
        rows.append(_pair_row(eps, meas.mu_at_max, oracle, -oracle.conjugate(), "summary-oracle", status))
    if rows:
        _emit(cfg, header, rows, "curves")
    return 3 if failed else 0


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(cfg: argparse.Namespace) -> int:
    import numpy as np

    op = floquet.build(cfg.mu, cfg.eps[-1], N=cfg.trunc[-1], stokes_order=cfg.stokes_order)
    if not 0 <= cfg.mu < 0.5:  # `build` has rejected a NaN
        print(
            f"warning: mu={cfg.mu} lies outside the fundamental Floquet window "
            "[0, 0.5); computing anyway",
            file=sys.stderr,
        )
    # the full spectrum is the output here, so this one solve stays dense
    eigs = np.linalg.eigvals(op.matrix)
    try:
        tracked = set(floquet._pick_pair(eigs, cfg.eps[-1]))
    except floquet.TrackingFailure as exc:
        print(f"warning: {exc}", file=sys.stderr)
        tracked = set()
    order = np.lexsort((eigs.real, eigs.imag))
    rows = [
        [float(z.real), float(z.imag), 1 if complex(z) in tracked else 0]
        for z in eigs[order]
    ]
    _emit(cfg, ["re", "im", "tracked"], rows, "eigenvalues")
    return 0


# ------------------------------------------------------------- convergence


def cmd_convergence(cfg: argparse.Namespace) -> int:
    if any(a >= b for a, b in zip(cfg.trunc, cfg.trunc[1:])):
        print(f"error: --trunc ladder {list(cfg.trunc)} does not refine: each N must "
              "exceed the one before", file=sys.stderr)
        return 2
    rows = [
        [row.N, *_pair_cells(row.lambda_plus, row.lambda_minus), row.delta]
        for row in floquet.convergence_check(cfg.mu, cfg.eps[-1], cfg.trunc, cfg.stokes_order)
    ]
    _emit(cfg, ["N", "re_plus", "im_plus", "re_minus", "im_minus", "delta_prev"], rows, "refinement")
    return 0


# -------------------------------------------------------------------- main


_OUTPUT = ("format", "out")
_SOLVE = ("mu", "eps", "trunc", "stokes_order", *_OUTPUT)

#: Subcommand -> (handler, help, the options it reads, the options it repeats
#: with their defaults).  The handler takes the resolved options.
_COMMANDS = {
    "verify": (cmd_verify, "run the hermetic self-check table", ("tol", *_OUTPUT, "perturb"), {}),
    "coeffs": (cmd_coeffs, "emit jet coefficients and the intermediate-term ledger", _OUTPUT, {}),
    "isola": (
        cmd_isola,
        "closed-form curve vs truncated-eigenproblem trace",
        ("eps", "mu_center", "mu_width", "samples", "trunc", "stokes_order", *_OUTPUT),
        {"eps": _OPTIONS["eps"][0]},
    ),
    "spectrum": (cmd_spectrum, "full truncated spectrum at one (mu, eps)", _SOLVE, {}),
    "convergence": (
        cmd_convergence, "tracked pair under truncation refinement", _SOLVE, {"trunc": (16, 24, 32, 48)},
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stokes-isola",
        description="High-frequency instability isola of small-amplitude deep-water waves",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, options, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", action="append", help="JSON file with option defaults")
        for name in options:
            flag = "--" + name.replace("_", "-")
            p.add_argument(flag, dest=name, action="append", **_OPTIONS[name][1])
    return parser


#: Built once, on import: each `main` call only parses.
_PARSER = build_parser()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command][0](cfg)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _NUMERICAL as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
