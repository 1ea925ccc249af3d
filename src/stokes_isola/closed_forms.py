"""Closed forms of every ledger term and derived constant.

Every entry is an exact value (rationals, sqrt(3), sqrt(5)) written down by
hand, independently of the code that computes it: ``stokes-isola verify``
and the test suite compare the computed ledger, jet and isola constants
against this table and never the other way around.  Nothing here may be
derived from the package's own computations.
"""

import math

S3 = math.sqrt(3.0)
S5 = math.sqrt(5.0)

#: name -> exact expected value of each intermediate bracket
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

#: assembled jet coefficients
ALPHA1 = -2 / 3
GAMMA1 = 2.0
ALPHA2 = 9 / 8
GAMMA2 = 1 / 16
BETA1 = 0.0
BETA2 = -S3 / 6
BETA3 = -39 * S3 / 512

#: derived constants of the closed-form isola
T1 = 4 / 3
T2 = 19 / 16
BETA3_EFF = 37 * S3 / 512          # beta3 - beta2*T2/T1
MU0_EPS2 = -57 / 64                # eps^2 coefficient of the center curve
NU_EPS4 = 111 * S3 / 1024          # |eps^4 coefficient| of the band edges
D_EPS8 = 4107 / 65536              # eps^8 coefficient of the discriminant
D_NU2 = -16 / 9                    # nu^2 coefficient
D_NU_EPS6 = -37 / 128              # nu*eps^6 coefficient
IM_CENTER_EPS2 = -55 / 32          # eps^2 coefficient of the imaginary center
NU_RE_EPS6 = -333 / 4096           # eps^6 coefficient of the peak-growth offset
AXIS_RATIO = 2.0

#: frozen single coupling coefficient
ENT_01_PLUS = 1j * S5**0.5 * (S5 - 3) / 8
