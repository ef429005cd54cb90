"""One pass of a workload in a fresh process.

Usage: ``python3 bench/child.py SPEC.json``. The spec names the source
tree, the set-up inputs, the ``swarmcover.cli.main`` argument lists of the
pass, whether to trace, and where to write the report. With no argument
lists the process only sets up: a set-up probe. The parent sets the BLAS
thread variables in this process's environment, so they are in effect
before numpy loads.

The machine is shared, and its speed swings by tens of percent within
seconds. So every process times a fixed reference chunk of work right
after set-up, and an untraced pass times one more chunk every
``REF_PERIOD_S`` seconds while it runs, from a timer signal. The chunks'
time is taken out of the pass's wall time; their mean is the machine's
speed during the pass.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: ``setup_s`` is given in seconds at the machine speed where one reference
#: chunk takes this long (about its time on the 2-vCPU Xeon the benchmark
#: was tuned on).
REF_NOMINAL_S = 0.005
#: Reference chunks timed right after set-up.
SETUP_REF_CHUNKS = 80
#: While an untraced pass runs, one reference chunk runs this often.
REF_PERIOD_S = 0.1


def _blas_name(numpy) -> str | None:
    try:
        return numpy.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (TypeError, KeyError):  # numpy < 1.26 prints its config instead
        return None


def reference_chunk(numpy) -> float:
    """Seconds a fixed mix of interpreter and small-matrix work takes now."""
    t0 = time.perf_counter()
    table = {}
    acc = 0.0
    for i in range(7_500):
        key = (i % 97, i % 89)
        acc += table.get(key, 0.5) * 0.999
        table[key] = acc % 7.0
    x = numpy.full((64, 64), 0.01)
    for _ in range(38):
        x = numpy.tanh(x @ x + 0.01)
    return time.perf_counter() - t0


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

    import numpy

    import swarmcover
    import swarmcover.cli
    import swarmcover.config
    import swarmcover.harness
    import swarmcover.oracle
    import workloads

    import_s = time.perf_counter() - _T0
    workloads.setup(*spec["setup"])
    setup_s = time.perf_counter() - _T0

    main_fn = swarmcover.cli.main
    tracer = None
    if spec["trace"]:
        import tracing

        tracer = tracing.Tracer(pass_id=spec["pass_id"])
        main_fn = tracing.install(tracer)

    setup_ref_s = statistics.mean(reference_chunk(numpy) for _ in range(SETUP_REF_CHUNKS))
    report = {"setup_wall_s": setup_s, "setup_ref_s": setup_ref_s,
              "setup_s": setup_s / setup_ref_s * REF_NOMINAL_S}
    if spec["argv"]:
        chunks: list[float] = []
        codes = []
        t1 = time.perf_counter()
        if tracer is None:
            signal.signal(signal.SIGALRM, lambda *_: chunks.append(reference_chunk(numpy)))
            signal.setitimer(signal.ITIMER_REAL, 1e-6, REF_PERIOD_S)
        try:
            for argv in spec["argv"]:
                codes.append(main_fn(argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        run_s = time.perf_counter() - t1 - sum(chunks)
        sys.stdout.flush()
        report.update(run_s=run_s, exit_codes=codes)
        if chunks:
            report.update(ref_s=statistics.mean(chunks), ref_chunks=len(chunks))

    report.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "swarmcover": swarmcover.__version__,
            "numpy": numpy.__version__,
            "python": sys.version.split()[0],
        },
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas": _blas_name(numpy),
    })
    if tracer is not None:
        report["layers"] = tracing.layer_metrics(tracer, import_ms=import_s * 1e3)
        tracer.save(spec["spans"])
    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
