"""One fresh interpreter of the benchmark: import the package, run operations.

Reads a JSON spec on stdin, writes one JSON result on stdout.  The import of
``stokes_isola`` is timed before anything else loads numpy, so it is the
set-up a command-line user pays.  Each operation's output is captured in
memory and checked after its timer stops.  Started by ``run.py`` with the
BLAS and OpenMP thread counts pinned to 1 in its environment.

With ``"fork": true`` in the spec every operation but the last runs in a
child forked from this interpreter, which exits when the operation is done,
and the last runs in this interpreter itself: each operation starts from
the state a fresh interpreter has after ``import stokes_isola``, so a
module-level cache filled by one operation never serves the next, while
the import is paid once per worker.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time

clock = time.perf_counter


def _import_package() -> float:
    t0 = clock()
    import stokes_isola  # noqa: F401
    import stokes_isola.cli  # noqa: F401

    return clock() - t0


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def speed_probe() -> dict:
    """Fixed calibration work: a pure-Python loop and one small LAPACK call.

    Shows whether the run met the shared vCPU in a slow phase; it never
    rescales or gates a metric.
    """
    import numpy as np
    import scipy.linalg

    rng = np.random.default_rng(20240125)
    a = rng.standard_normal((96, 96)) + 1j * rng.standard_normal((96, 96))
    py, la = [], []
    for _ in range(3):
        t0 = clock()
        acc = 0
        for i in range(200_000):
            acc += i * i
        py.append(clock() - t0)
        t0 = clock()
        scipy.linalg.eigvals(a)
        la.append(clock() - t0)
    return {"python_s": sorted(py)[1], "lapack_s": sorted(la)[1]}


def _run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = clock()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return clock() - t0, rc, out.getvalue(), err.getvalue()


def run_op(op: dict, band: dict) -> dict:
    """Run one operation, time it, check its output."""
    # already loaded by the timed import in main()
    import stokes_isola
    from stokes_isola import cli

    import checks

    cls = op["cls"]
    result = {"cls": cls, "ok": False, "error": None, "bytes_out": 0}
    try:
        if cls == "measure_isola":
            t0 = clock()
            meas = stokes_isola.measure_isola(op["eps"])
            result["t"] = clock() - t0
            checks.check_measurement(meas, op["eps"], band)
        else:
            result["t"], rc, stdout, stderr = _run_cli(cli, op["argv"])
            result["bytes_out"] = len(stdout.encode())
            if cls == "verify":
                checks.check_verify(stdout, rc)
            elif rc != 0:
                raise checks.CheckFailed(f"exit {rc}: {stderr.strip()[:200]}")
            elif cls == "isola":
                checks.check_isola_json(stdout, op["eps"], band)
            else:
                checks.check_coeffs_json(stdout)
        result["ok"] = True
    except Exception as exc:  # any failure of the program counts against it
        result.setdefault("t", None)
        result["error"] = f"{type(exc).__name__}: {exc}"[:300]
    return result


def run_traced(op: dict, band: dict, tracer, k: int) -> dict:
    first = tracer.begin_request(k) if tracer else 0
    res = run_op(op, band)
    if tracer:
        res["layers"] = tracer.summarize(first)
    return res


def run_forked(op: dict, band: dict, tracer, k: int, spans_path) -> dict:
    """``run_traced`` in a child process that exits when the operation is done."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(rfd)
            res = run_traced(op, band, tracer, k)
            if tracer and spans_path:
                tracer.dump(spans_path)
            with os.fdopen(wfd, "w") as fh:
                json.dump(res, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        return {"cls": op["cls"], "ok": False, "t": None, "bytes_out": 0,
                "error": f"forked child ended with wait status {status}", "layers": {}}
    return json.loads(data)


def main() -> int:
    spec = json.load(sys.stdin)
    setup_s = _import_package()
    import stokes_isola

    src = os.path.join(spec["root"], "src")
    if not os.path.abspath(stokes_isola.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"stokes_isola imported from {stokes_isola.__file__}, not from {src}", file=sys.stderr)
        return 3

    import checks
    from tracing import Tracer

    band = checks.load_band()
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()
    results = []
    budget = spec.get("budget_s")
    fork = spec.get("fork", False)
    ops = spec["ops"]
    k = 0
    start = clock()
    while k < len(ops) and not (results and budget is not None and clock() - start >= budget):
        if fork:
            results.append(run_forked(ops[k], band, tracer, k, spec.get("spans_path")))
        else:
            results.append(run_traced(ops[k], band, tracer, k))
        k += 1
    if fork and k < len(ops):
        # the last operation runs in this interpreter itself, so the worker's
        # peak memory is that of a fresh interpreter that ran one operation
        results.append(run_traced(ops[k], band, tracer, k))
    out = {"setup_s": setup_s, "ops": results}
    if spec.get("probe"):
        out["probe"] = speed_probe()
    if spec.get("env"):
        out["env"] = _environment()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer and spec.get("spans_path"):
        tracer.dump(spec["spans_path"])
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
