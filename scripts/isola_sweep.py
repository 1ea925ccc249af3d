#!/usr/bin/env python3
"""Amplitude sweep: closed-form isola prediction against the eigenvalue oracle.

For each amplitude the truncated Fourier spectrum is scanned for the unstable
band near mu = 1/4, and the measured peak growth rate, imaginary center and
band width are tabulated against the fourth-order predictions.  Finishes with
the log-log growth fit, which should sit near slope 4.

    python3 scripts/isola_sweep.py --eps 0.04 --eps 0.06 --eps 0.08

Exits 2 with one ``error: ...`` line on stderr when the library rejects an
argument before any solve (``--eps -0.06``, ``--trunc 4``), and 3 with one
``numerical failure: ...`` line when a solve or search fails.
"""

import argparse
import math
import sys

import numpy as np

from stokes_isola.floquet import DEFAULT_N, TrackingFailure, _ArgumentError, measure_isola
from stokes_isola.instability import isola
from stokes_isola.jets import assemble_reduced_jet


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--eps", action="append", type=float, default=None,
                    help="amplitudes to sweep (repeatable; default 0.04 0.06 0.08 0.10)")
    ap.add_argument("--trunc", type=int, default=DEFAULT_N, help=f"Fourier truncation (default {DEFAULT_N})")
    args = ap.parse_args(argv)
    eps_grid = args.eps or [0.04, 0.06, 0.08, 0.10]

    jet = assemble_reduced_jet()

    print(f"{'eps':>6} {'re_max oracle':>14} {'re_max theory':>14} {'rel.err':>8} "
          f"{'im dev':>9} {'width ratio':>11}")
    measured = []
    try:
        for eps in eps_grid:
            meas = measure_isola(eps, N=args.trunc)
            th = isola(jet, eps)
            rel = abs(meas.re_max - th.re_max) / th.re_max
            im_dev = meas.im_center - th.im_center
            width_ratio = meas.mu_width / th.width
            measured.append((eps, meas.re_max))
            print(f"{eps:6.3f} {meas.re_max:14.6e} {th.re_max:14.6e} {rel:8.4f} "
                  f"{im_dev:9.2e} {width_ratio:11.4f}")
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrackingFailure, ValueError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    if len(measured) >= 2:
        logs = np.log([e for e, _ in measured])
        vals = np.log([r for _, r in measured])
        slope, intercept = np.polyfit(logs, vals, 1)
        print(f"\ngrowth fit: re_max ~ exp({intercept:+.4f}) * eps^{slope:.4f}"
              f"   (prefactor theory {math.log(jet.beta3_eff):+.4f}, exponent 4)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
