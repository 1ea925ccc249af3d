"""Spans around calls into the package's modules, recorded from outside it.

`Tracer.install` wraps selected public functions of each layer and puts the
wrapper in every namespace that bound the original: ``jets``, ``floquet``,
``cli`` and the package ``__init__`` import functions such as ``ent_coeff``
or ``assemble_reduced_jet`` by name, so patching only the defining module
would miss their calls.  The eigensolver is wrapped at ``scipy.linalg`` and
``numpy.linalg`` and recorded only when a ``floquet`` or ``cli`` span calls it.

Spans stay in memory as ``[name, parent, start, end, request, extra]`` lists
and are written out when the worker ends.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict

NAME, PARENT, START, END, REQUEST, EXTRA = range(6)

#: (module, function, group).  A group is the per-layer metric prefix; calls
#: and time of a group count only its outermost spans, so nested calls within
#: one group (``ellipse`` calling ``max_growth_rate``) are not counted twice.
TRACED = [
    ("stokes", "p_coeff", "stokes.table"),
    ("stokes", "a_coeff", "stokes.table"),
    ("entanglement", "ent_coeff", "entanglement.ent_coeff"),
    ("entanglement", "residue", "entanglement.residue"),
    ("entanglement", "chain_apply", "entanglement.chain_apply"),
    ("entanglement", "residue_contour", "entanglement.residue_contour"),
    ("jets", "term_ledger", "jets.term_ledger"),
    ("jets", "assemble_reduced_jet", "jets.assemble_reduced_jet"),
    ("jets", "beta3_projector_route", "jets.beta3_projector_route"),
    ("instability", "critical_curves", "instability"),
    ("instability", "discriminant", "instability"),
    ("instability", "trace_shift", "instability"),
    ("instability", "eigenvalues", "instability"),
    ("instability", "max_growth_rate", "instability"),
    ("instability", "ellipse", "instability"),
    ("instability", "instability_criterion", "instability"),
    ("instability", "stokes_beta_sequence", "instability"),
    ("floquet", "build", "floquet.build"),
    ("floquet", "spectrum", "floquet.spectrum"),
    ("floquet", "measure_isola", "floquet.measure_isola"),
    ("floquet", "trace_isola", "floquet.trace_isola"),
    ("floquet", "convergence_check", "floquet.convergence_check"),
    ("cli", "main", "cli.main"),
]
EIGENSOLVE = "floquet.eigensolve"
_SOLVER_CALLERS = ("floquet.", "cli.")

PACKAGE = "stokes_isola"


def _noise_floor(sample) -> float:
    lp, lm = sample.tracked_pair
    return abs(lp.real + lm.real)


def _nonzero(value) -> bool:
    return value != 0


#: Function name -> what to keep from its return value in the span's extra slot.
_INSPECT = {"floquet.spectrum": _noise_floor, "entanglement.residue": _nonzero}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.groups: dict[str, str] = {}
        self.request = -1

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        inspect = _INSPECT.get(name)
        solver = name == EIGENSOLVE

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if solver and (parent < 0 or not spans[parent][NAME].startswith(_SOLVER_CALLERS)):
                return fn(*args, **kwargs)
            span = [name, parent, 0.0, 0.0, self.request, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[EXTRA] = type(exc).__name__
                raise
            finally:
                stack.pop()
            span[END] = clock()
            if inspect is not None:
                span[EXTRA] = inspect(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every function in TRACED and the eigensolvers, everywhere they are bound."""
        import numpy.linalg
        import scipy.linalg

        replace: dict[int, object] = {}
        for module, func, group in TRACED:
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            fn = getattr(mod, func, None)
            if fn is None:
                continue  # removed by a later change: its metrics read 0
            name = f"{module}.{func}"
            self.groups[name] = group
            replace[id(fn)] = self._wrap(name, fn)
        self.groups[EIGENSOLVE] = EIGENSOLVE
        for lib in (scipy.linalg, numpy.linalg):
            replace[id(lib.eigvals)] = self._wrap(EIGENSOLVE, lib.eigvals)
            lib.eigvals = replace[id(lib.eigvals)]
        namespaces = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None:
                    setattr(ns, attr, wrapper)

    def begin_request(self, request: int) -> int:
        """Tag the spans that follow with ``request``; returns the first span's index."""
        self.request = request
        return len(self.spans)

    def summarize(self, first: int) -> dict[str, float]:
        """Per-layer counters of the spans from index ``first`` on (one request)."""
        spans = self.spans
        out: dict[str, float] = defaultdict(float)
        child = defaultdict(float)
        for i in range(first, len(spans)):
            s = spans[i]
            if s[PARENT] >= first:
                child[s[PARENT]] += s[END] - s[START]
        for i in range(first, len(spans)):
            s = spans[i]
            name, dur = s[NAME], s[END] - s[START]
            group = self.groups[name]
            out[f"self.{name}"] += dur - child[i]
            if not self._inside_group(i, group, first):
                out[f"{group}.calls"] += 1
                out[f"{group}.s"] += dur
            if name == "floquet.spectrum":
                out["spectrum_calls"] += 1
                if s[EXTRA] == "TrackingFailure":
                    out["tracking_failures"] += 1
                elif isinstance(s[EXTRA], float):
                    out["noise_floor_max"] = max(out["noise_floor_max"], s[EXTRA])
                if self._has_ancestor(i, "floquet.measure_isola", first):
                    out["spectrum_in_measure"] += 1
            elif name == "entanglement.residue" and s[EXTRA] is True:
                out["residue_nonzero"] += 1
        return dict(out)

    def _has_ancestor(self, i: int, name: str, first: int) -> bool:
        p = self.spans[i][PARENT]
        while p >= first:
            if self.spans[p][NAME] == name:
                return True
            p = self.spans[p][PARENT]
        return False

    def _inside_group(self, i: int, group: str, first: int) -> bool:
        p = self.spans[i][PARENT]
        while p >= first:
            if self.groups[self.spans[p][NAME]] == group:
                return True
            p = self.spans[p][PARENT]
        return False

    def dump(self, path: str) -> None:
        """Append the spans, one JSON list per line, to a gzip file."""
        with gzip.open(path, "at") as fh:
            for s in self.spans:
                fh.write(json.dumps(s) + "\n")
