"""Asymptotic order of the oracle-minus-theory discrepancy.

The closed form is the leading term of an expansion in eps, so its error
against the truncated eigenvalue problem must shrink at the order of the
first neglected term: O(eps^2) relative for the peak growth rate and the
isola width, O(eps^4) absolute for the imaginary center (whose leading
correction is itself O(eps^2)).  Slopes are fitted on a log-log scale; the
percentage bands of the acceptance gate are separate and unchanged.
"""

import numpy as np
import pytest

from stokes_isola.floquet import measure_isola
from stokes_isola.instability import isola
from stokes_isola.jets import assemble_reduced_jet

EPS = (0.005, 0.01, 0.02, 0.04)
JET = assemble_reduced_jet()


@pytest.fixture(scope="module")
def errors():
    out = {"re_max": [], "width": [], "im_center": []}
    for eps in EPS:
        meas = measure_isola(eps, N=32)
        th = isola(JET, eps)
        out["re_max"].append(meas.re_max / th.re_max - 1.0)
        out["width"].append(meas.mu_width / th.width - 1.0)
        out["im_center"].append(meas.im_center - th.im_center)
    return out


def _slope(values) -> float:
    return float(np.polyfit(np.log(EPS), np.log(np.abs(values)), 1)[0])


@pytest.mark.parametrize(
    "name,order,band",
    [("re_max", 2.0, 0.2), ("width", 2.0, 0.2), ("im_center", 4.0, 0.3)],
)
def test_discrepancy_order(errors, name, order, band):
    assert abs(_slope(errors[name]) - order) <= band


def test_discrepancy_has_one_sign(errors):
    # a sign change would make |error| dip and the fitted slope meaningless
    for values in errors.values():
        assert len({np.sign(v) for v in values}) == 1
