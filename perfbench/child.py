"""One scenario run in a fresh interpreter: the timed unit of a scenario workload.

Usage (from the repository root)::

    python3 perfbench/child.py SCENARIO CONFIG_JSON TRACE
    python3 perfbench/child.py --warmup

Prints one JSON line: monotonic timestamps (comparable with the
launching process's ``time.monotonic()``), the validator verdict, the
fitted models, peak memory and, with ``TRACE`` = 1, the per-layer
ledger.  Nothing else is written to standard output.  ``--warmup``
only imports, to compile bytecode and fill the page cache.
"""

import json
import os
import resource
import sys
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)


def _fits(analyses) -> list:
    fits = []
    for analysis in analyses:
        model = getattr(analysis, "model", None)
        if model is None:
            continue
        trainer = getattr(analysis, "trainer", None)
        fits.append(
            {
                "trained": bool(model.is_trained),
                "coefficients": (
                    [float(c) for c in model.coefficients] if model.is_trained else []
                ),
                "intercept": float(model.intercept) if model.is_trained else 0.0,
                "updates": None if trainer is None else int(trainer.updates),
            }
        )
    return fits


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers reaped ranks.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ranks = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, ranks) / 1024.0


def main(argv) -> int:
    import_start = time.perf_counter()
    from repro import scenarios

    import_s = time.perf_counter() - import_start
    import tracer as tracing

    if argv == ["--warmup"]:
        return 0
    scenario, config_json, trace = argv[0], argv[1], argv[2] == "1"

    tracer = tracing.Tracer()
    if trace:
        tracing.install_all(tracer)
    else:
        tracing.install_loop(tracer)
    config = scenarios.RunConfig.from_json(json.loads(config_json))
    run_called = time.perf_counter()
    try:
        run = scenarios.run_scenario(scenario, config=config)
    finally:
        tracer.restore()
    run_returned = time.perf_counter()
    ok = bool(run.accuracy_ok)
    fits = _fits(run.analyses)
    validated = time.monotonic()

    loop = tracer.first(tracing.LOOP)
    # perf_counter and monotonic share CLOCK_MONOTONIC on Linux; the
    # offset below converts anyway so the parent can subtract.
    offset = time.monotonic() - time.perf_counter()
    report = {
        "loop_start": loop[1] + offset,
        "validated": validated,
        "run_s": float(run.result.seconds),
        "ok": ok,
        "error": float(run.error),
        "tolerance": float(run.tolerance),
        "kernels": run.kernels,
        "iterations": int(run.result.iterations),
        "stopped_at": dict(run.result.stopped_at),
        "fits": fits,
        "divergence_tol": scenarios.DIVERGENCE_TOL,
        "transport_stats": run.result.transport_stats,
        "peak_rss_mb": _peak_rss_mb(),
    }
    if trace:
        layers = tracing.ledger(tracer, run_called, run_returned)
        layers["scenarios.import_s"] = import_s
        report["layers"] = layers
    sys.stdout.write(json.dumps(report) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
