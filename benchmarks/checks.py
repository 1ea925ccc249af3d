"""Output checks: an operation whose output fails one of these counts as failed.

The expected values are closed forms written down here, independently of the
package under test, so a change that breaks the closed-form route is caught
as well as one that breaks the eigenvalue oracle.

Each check raises `CheckFailed` with a one-line reason, or returns None.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

S3 = math.sqrt(3.0)
S5 = math.sqrt(5.0)


class CheckFailed(Exception):
    """The program's output disagrees with what the benchmark expects."""


# --------------------------------------------------------- closed forms

#: Every named intermediate bracket of the coefficient catalog.
TERMS: dict[str, complex] = {
    "alpha2.a": -15 / 8,
    "alpha2.b": -15 / 8,
    "alpha2.c": 39 / 8,
    "beta1.a": 0.0,
    "beta1.b": 0.0,
    "gamma2.a": 7 / 8,
    "gamma2.b": -3 / 16,
    "gamma2.c": -5 / 8,
    "beta2.theta": -1j * S3 / 3,
    "beta2.i": 1j * S3 / 12,
    "beta2.ii": 1j * S3 / 4,
    "beta2.iiia": 1j * S3 / 4,
    "beta2.iiib": 1j * S3 / 2,
    "beta2.iiic": -5j * S3 / 16,
    "beta2.iiid": -15j * S3 / 16,
    "beta2.iva": -1j * S3 / 12,
    "beta2.ivb": -5j * S3 / 48,
    "beta2.ivc": -5j * S3 / 16,
    "beta3.theta": 0.0,
    "beta3.i": 5j * S3 / 32,
    "beta3.ii": -9j * S3 / 32,
    "beta3.iiia": 3j * S3 / 8,
    "beta3.iiib": 15j * S3 / 32,
    "beta3.iiib_dual": -15j * S3 / 128,
    "beta3.iva": -1j * S3 / 8,
    "beta3.ivb": 3j * S3 / 64,
    "beta3.ivb_dual": 3j * S3 / 64,
    "beta3.ivc": 5j * S3 / 64,
    "beta3.ivc_dual": 5j * S3 / 64,
    "beta3.va": -5j * S3 / 32,
    "beta3.vb": -25j * S3 / 128,
    "beta3.vc": 5j * S3 / 32,
    "beta3.vc_dual": -15j * S3 / 128,
    "beta3.vd": 15j * S3 / 64,
    "beta3.ve": 15j * S3 / 64,
    "beta3.ve_dual": 15j * S3 / 64,
    "beta3.vf": -75j * S3 / 256,
    "beta3.vg": 25j * S3 / 256,
    "beta3.vh": 0.0,
    "beta3.via": 0.0,
    "beta3.vib": 0.0,
    "beta3.vic": -39j * S3 / 64,
    "beta3.vic_dual": -39j * S3 / 64,
    "beta3.vid": 195j * S3 / 256,
    "beta3.loop_up": 5j * S3 / 16,
    "beta3.loop_down": 5j * S3 / 16,
    "beta3.loopback": -305j * S3 / 512,
}

#: Real rows of ``coeffs`` ahead of the term ledger.
COEFFS: dict[str, float] = {
    "alpha1": -2 / 3,
    "gamma1": 2.0,
    "alpha2": 9 / 8,
    "gamma2": 1 / 16,
    "beta1": 0.0,
    "beta2": -S3 / 6,
    "beta3": -39 * S3 / 512,
    "T1": 4 / 3,
    "T2": 19 / 16,
    "beta3_eff": 37 * S3 / 512,
    "mu_star": 0.25,
    "omega_star": 0.75,
    "mu0_eps2_coeff": -57 / 64,
    "nu_plus_eps4_coeff": -111 * S3 / 1024,
    "nu_minus_eps4_coeff": 111 * S3 / 1024,
}

COEFF_TOL = 1e-12
#: ``verify`` had this many checks at the commit that defined the benchmark.
VERIFY_MIN_CHECKS = 73


def isola_theory(eps: float) -> dict[str, float]:
    """Closed-form isola at amplitude ``eps`` (peak growth, centers, width)."""
    return {
        "re_max": 37 * S3 / 512 * eps**4,
        "im_center": 0.75 - 55 / 32 * eps**2,
        "mu_at_max": 0.25 - 57 / 64 * eps**2 - 333 / 4096 * eps**6,
        "width": 111 * S3 / 512 * eps**4,
    }


# ----------------------------------------------------- cross-validation band

BAND_PATH = Path(__file__).with_name("xval_band.json")


def load_band() -> dict:
    with open(BAND_PATH) as fh:
        return json.load(fh)


def normalized_errors(eps: float, re_max: float, im_center: float, width: float) -> dict[str, float]:
    """Oracle minus closed form, scaled by its asymptotic order.

    Relative peak-growth and width errors are O(eps^2), the imaginary-center
    error is O(eps^4), so each scaled error is an O(1) smooth function of eps.
    """
    th = isola_theory(eps)
    return {
        "re": (re_max - th["re_max"]) / th["re_max"] / eps**2,
        "width": (width - th["width"]) / th["width"] / eps**2,
        "im": (im_center - th["im_center"]) / eps**4,
    }


def check_band(eps: float, re_max: float, im_center: float, width: float, band: dict) -> None:
    """The oracle's deviation from the closed form must follow the curve
    fitted at the commit that defined the benchmark, within ``band['tol']``
    scaled units: a 1% error in the peak growth at eps = 0.04 is 6 units."""
    lo, hi = band["eps_range"]
    if not lo <= eps <= hi:
        raise CheckFailed(f"eps={eps} outside the fitted band [{lo}, {hi}]")
    errs = normalized_errors(eps, re_max, im_center, width)
    for key, value in errs.items():
        expected = float(np.polyval(band["fit"][key], eps))
        if not abs(value - expected) <= band["tol"][key]:
            raise CheckFailed(
                f"{key} error at eps={eps}: {value:.6g} scaled units, band {expected:.6g} +- {band['tol'][key]}"
            )


def _rel_close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * abs(want)


def check_isola_json(stdout: str, eps: float, band: dict) -> None:
    """``isola --eps E --format json``: 25 theory and 25 oracle rows, the
    theory summary equal to the closed form, the oracle summary in the band."""
    rows = json.loads(stdout)["curves"]
    by_source: dict[str, list[dict]] = {}
    for row in rows:
        by_source.setdefault(row["source"], []).append(row)
    for source, count in (("theory", 25), ("oracle", 25), ("summary-theory", 1), ("summary-oracle", 1)):
        got = len(by_source.get(source, []))
        if got != count:
            raise CheckFailed(f"{got} {source} rows, expected {count}")
    bad = [r["status"] for r in by_source["oracle"] if r["status"] != "ok"]
    if bad:
        raise CheckFailed(f"{len(bad)} oracle trace rows failed: {bad[0]}")
    th_row, orc_row = by_source["summary-theory"][0], by_source["summary-oracle"][0]
    th = isola_theory(eps)
    th_width = float(th_row["status"].split(";")[0].removeprefix("width="))
    for got, want, what in (
        (th_row["re_plus"], th["re_max"], "re_max"),
        (th_row["im_plus"], th["im_center"], "im_center"),
        (th_row["mu"], th["mu_at_max"], "mu_at_max"),
        (th_width, th["width"], "width"),
    ):
        if not _rel_close(got, want, 1e-8):
            raise CheckFailed(f"summary-theory {what} = {got!r}, closed form {want!r}")
    width = float(orc_row["status"].split(";")[0].removeprefix("width="))
    check_band(eps, orc_row["re_plus"], orc_row["im_plus"], width, band)


def check_measurement(meas, eps: float, band: dict) -> None:
    """`measure_isola(eps)` result in the fitted band."""
    check_band(eps, meas.re_max, meas.im_center, meas.mu_right - meas.mu_left, band)


# -------------------------------------------------------------- closed form


def check_verify(stdout: str, rc: int) -> None:
    """``verify`` exits 0 and passes every one of at least 73 checks."""
    lines = stdout.splitlines()
    if rc != 0:
        raise CheckFailed(f"verify exited {rc}: {lines[-1] if lines else ''}")
    failed = [ln for ln in lines if ln.startswith("FAIL")]
    passed = [ln for ln in lines if ln.startswith("pass")]
    if failed:
        raise CheckFailed(f"{len(failed)} verify checks failed: {failed[0][:80]}")
    summary = f"{len(passed)}/{len(passed)} checks passed"
    if not lines or lines[-1] != summary or len(passed) < VERIFY_MIN_CHECKS:
        raise CheckFailed(f"verify summary {lines[-1] if lines else ''!r}, expected {summary!r}")


def check_coeffs_json(stdout: str) -> None:
    """``coeffs --format json``: exactly the catalog, each value to 1e-12."""
    rows = json.loads(stdout)["coefficients"]
    expected: dict[str, complex] = dict(COEFFS)
    expected.update({f"term.{k}": v for k, v in TERMS.items()})
    names = [r["name"] for r in rows]
    if sorted(names) != sorted(expected):
        missing = set(expected) - set(names)
        extra = set(names) - set(expected)
        raise CheckFailed(f"coefficient names differ: missing {sorted(missing)[:3]}, extra {sorted(extra)[:3]}")
    for r in rows:
        err = abs(complex(r["re"], r["im"]) - complex(expected[r["name"]]))
        if not err <= COEFF_TOL:
            raise CheckFailed(f"{r['name']} off its closed form by {err:.3e}")
