#!/usr/bin/env python3
"""Fit the cross-validation band that the xval output check compares against.

Measures the isola with `measure_isola` (N=32) on a grid over [0.02, 0.25],
scales the oracle-minus-closed-form errors by their asymptotic order (see
`checks.normalized_errors`) and fits each scaled error with a polynomial in
eps.  Above the eps where the default search window loses the tracked pair,
the window is narrowed to 2*eps^3 so the fit also covers the defect-probe
range.  Writes ``xval_band.json`` next to this file.  Run from the
repository root:

    PYTHONPATH=src python3 benchmarks/fit_xval_band.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import BAND_PATH, normalized_errors  # noqa: E402
from stokes_isola import TrackingFailure, measure_isola  # noqa: E402

EPS_RANGE = (0.02, 0.25)
GRID = 47
DEGREE = 8
#: Allowed distance from the fitted curve, in scaled units.  At eps = 0.04 a
#: 1% peak-growth error is 6.25 units, at eps = 0.19 it is 0.28 units.  The
#: scaled peak-growth error scatters by about 0.02 units below eps = 0.04
#: (eigensolver noise on a pair split by only 1e-7), hence its wider band.
TOL = {"re": 0.15, "width": 0.1, "im": 0.1}


def main() -> int:
    eps_grid = np.linspace(*EPS_RANGE, GRID)
    samples: dict[str, list[float]] = {"re": [], "width": [], "im": []}
    for eps in eps_grid:
        try:
            meas = measure_isola(float(eps))
        except TrackingFailure:
            meas = measure_isola(float(eps), window_scale=2.0)
        errs = normalized_errors(float(eps), meas.re_max, meas.im_center, meas.mu_width)
        for key, value in errs.items():
            samples[key].append(value)
    fit, resid = {}, {}
    for key, values in samples.items():
        coef = np.polyfit(eps_grid, values, DEGREE)
        fit[key] = coef.tolist()
        resid[key] = float(np.max(np.abs(np.polyval(coef, eps_grid) - values)))
        if resid[key] > TOL[key] / 3:
            print(f"fit residual for {key} is {resid[key]:.3g}, above a third of the band", file=sys.stderr)
            return 1
    doc = {
        "eps_range": list(EPS_RANGE),
        "N": 32,
        "grid_points": GRID,
        "fit_variable": "eps",
        "fit": fit,
        "tol": TOL,
        "max_fit_residual": resid,
    }
    BAND_PATH.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(resid))
    return 0


if __name__ == "__main__":
    sys.exit(main())
