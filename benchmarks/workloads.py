"""Inputs of the benchmark workloads, generated from the workload seed.

Standard library only: the generator process never imports numpy, so its own
start-up and memory stay out of the measured worker processes.

Every workload fills two latency slots, ``heavy`` and ``light``:

============  ================================  ==================================
workload      heavy                             light
============  ================================  ==================================
xval          ``isola --eps E --format json``   ``measure_isola(E)`` (library API)
closed-form   ``verify`` (freshly imported)     ``coeffs --format json`` (same)
============  ================================  ==================================

Amplitudes are stratified: the window is cut into eight equal strata,
visited in a fixed bit-reversed order, and the seed draws the point inside
each stratum, so every run, whatever its length, spreads evenly over the
window while the seed changes every input.  No input repeats within a run.
"""

from __future__ import annotations

import random

WORKLOADS = ("xval", "closed-form")

#: Operation class filling each latency slot, per workload.
SLOTS = {
    "xval": {"heavy": "isola", "light": "measure_isola"},
    "closed-form": {"heavy": "verify", "light": "coeffs"},
}

#: Amplitude window of the xval workload.  At the default N=32,
#: `measure_isola` raises TrackingFailure from eps = 0.19669 upward (the
#: tracking disk misses the pair at the left edge of the search window);
#: that range is measured by the defect probe below instead, so that the
#: gated operations all succeed while the defect stays visible.
XVAL_EPS = (0.02, 0.19)

#: Amplitude window of the defect probe run with every traced xval run.
DEFECT_EPS = (0.2, 0.25)
DEFECT_DRAWS = 4

#: Operations generated per slot; a run consumes a prefix.  Far more than a
#: 60-second run can reach at the seed commit's speed.
XVAL_COUNT = 240
CLOSED_FORM_PAIRS = 2000

#: Strata per input window, and their order: every run of 8 consecutive
#: operations of a slot visits each stratum once, and shorter runs spread
#: over the window.
STRATA = (0, 4, 2, 6, 1, 5, 3, 7)


def _stratified(rng: random.Random, count: int) -> list[float]:
    """``count`` points of [0, 1): the k-th is drawn inside stratum STRATA[k % 8]."""
    n = len(STRATA)
    return [(STRATA[k % n] + rng.random()) / n for k in range(count)]


def _interleave(heavy: list[dict], light: list[dict]) -> list[dict]:
    out = []
    for h, l in zip(heavy, light):
        out += [h, l]
    return out


def _isola_op(eps: float) -> dict:
    return {"cls": "isola", "eps": eps, "argv": ["isola", "--eps", repr(eps), "--format", "json"]}


def _xval(rng: random.Random) -> list[dict]:
    lo, hi = XVAL_EPS
    heavy = [_isola_op(lo + (hi - lo) * x) for x in _stratified(rng, XVAL_COUNT)]
    light = [{"cls": "measure_isola", "eps": lo + (hi - lo) * x} for x in _stratified(rng, XVAL_COUNT)]
    return _interleave(heavy, light)


def _closed_form(rng: random.Random) -> list[dict]:
    ops = []
    for _ in range(CLOSED_FORM_PAIRS):
        pair = [
            {"cls": "verify", "argv": ["verify"]},
            {"cls": "coeffs", "argv": ["coeffs", "--format", "json"]},
        ]
        rng.shuffle(pair)
        ops += pair
    return ops


def make_ops(workload: str, seed: int) -> list[dict]:
    """The run's operations, in the order the closed loop sends them."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    return {"xval": _xval, "closed-form": _closed_form}[workload](rng)


def defect_probe_ops(seed: int) -> list[dict]:
    """Amplitudes in DEFECT_EPS, where `isola` fails at the seed commit."""
    lo, hi = DEFECT_EPS
    rng = random.Random(f"defect:{seed}")
    return [_isola_op(lo + (hi - lo) * x) for x in _stratified(rng, DEFECT_DRAWS)]


def input_key(op: dict) -> tuple:
    """What the program receives for ``op``; used to check that no input repeats."""
    if "argv" in op:
        return tuple(op["argv"])
    return (op["cls"], repr(op["eps"]))
