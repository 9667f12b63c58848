"""Scenario workloads: fresh processes, run back to back for a fixed time.

Each timed unit is one ``child.py`` process, so set-up is paid the way a
batch job pays it: interpreter start, ``import repro``, scenario
construction (for LULESH this includes the reference simulation).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT_S = 120.0

LULESH = ("lulesh-sedov", {})
WORKLOADS = {
    # The spec defaults: size 30, thresholds 0.05/0.1/0.2, window (1, 10).
    "lulesh-sedov": LULESH,
    "wdmerger-grid": (
        "wdmerger-detonation",
        {"params": {"resolution": 64, "maintain_grid": True}},
    ),
    # Default transport (shared memory) and pipeline (on).  The serial
    # cross-check leg is switched off here and run once, untimed, by the
    # benchmark instead.
    "lulesh-sedov-mp2": (
        "lulesh-sedov",
        {"n_ranks": 2, "backend": "mp", "crosscheck": False},
    ),
}


def processes(workload: str) -> int:
    """Busy processes of one unit (the ranks)."""
    return int(WORKLOADS[workload][1].get("n_ranks", 1))


def warm_up() -> None:
    """Untimed import in a throwaway process: bytecode and page cache."""
    subprocess.run([sys.executable, CHILD, "--warmup"], cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S)


def launch(scenario: str, config: dict, trace: bool) -> Optional[dict]:
    """Run one child; its report plus the parent-side launch time."""
    command = [sys.executable, CHILD, scenario, json.dumps(config), "1" if trace else "0"]
    launched = time.monotonic()
    try:
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"child timed out after {CHILD_TIMEOUT_S} s: {scenario}", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        print(f"child exited with {done.returncode}: {scenario}", file=sys.stderr)
        return None
    report = json.loads(done.stdout.strip().splitlines()[-1])
    report["launched"] = launched
    return report


def fits_diverge(reference: dict, report: dict) -> Optional[str]:
    """Why an mp run's fits differ from the serial leg's, or None.

    The same rule as the program's own cross-check: every model pair
    compared, coefficients and intercepts within ``DIVERGENCE_TOL``,
    identical update counts, stop iterations and iteration count.
    """
    tol = report["divergence_tol"]
    if report["iterations"] != reference["iterations"]:
        return "iteration count differs"
    if report["stopped_at"] != reference["stopped_at"]:
        return "stop iterations differ"
    if len(report["fits"]) != len(reference["fits"]) or not report["fits"]:
        return "models missing"
    for mine, theirs in zip(report["fits"], reference["fits"]):
        if mine["trained"] != theirs["trained"] or mine["updates"] != theirs["updates"]:
            return "training state differs"
        deltas = [abs(a - b) for a, b in zip(mine["coefficients"], theirs["coefficients"])]
        deltas.append(abs(mine["intercept"] - theirs["intercept"]))
        if max(deltas) > tol:
            return f"coefficient delta {max(deltas):.3e} > {tol:g}"
    return None


def run(workload: str, seconds: float, trace: bool) -> Dict[str, object]:
    scenario, config = WORKLOADS[workload]
    reference = None
    failures: List[str] = []
    attempted = 0
    if config.get("n_ranks", 1) > 1:
        # The serial leg the mp fits are checked against, outside the
        # timed region.
        attempted += 1
        reference = launch(LULESH[0], LULESH[1], False)
        if reference is None or not reference["ok"]:
            failures.append("serial reference leg failed")
    else:
        warm_up()

    plain: List[dict] = []
    traced: List[dict] = []
    deadline = time.monotonic() + seconds
    # Traced runs alternate with untraced ones so both see the same drift.
    while time.monotonic() < deadline or (
        not failures and (len(plain) < 3 or (trace and len(traced) < 3))
    ):
        tracing = trace and len(traced) < len(plain)
        attempted += 1
        report = launch(scenario, config, tracing)
        if report is None:
            failures.append("run crashed")
            continue
        if not report["ok"]:
            failures.append(f"validator FAIL: error {report['error']} > {report['tolerance']}")
        elif reference is not None:
            why = fits_diverge(reference, report)
            if why:
                failures.append(f"mp fit diverged from serial: {why}")
        (traced if tracing else plain).append(report)

    timed = plain + traced
    result: Dict[str, object] = {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "samples": len(plain),
        "kernels": timed[0]["kernels"] if timed else None,
    }
    if not plain:
        return result
    runs = [r["run_s"] for r in plain]
    totals = [r["validated"] - r["launched"] for r in plain]
    # The host switches between a fast and a slow state, and the share of
    # slow time drifts over minutes.  Every run has some slow units, but
    # not always fast ones, so the 90th percentile holds steady where the
    # median follows the drift (README.md, "Measured drift").  The medians
    # go on the info line.
    result["end_to_end"] = {
        "setup_s": stats.median([r["loop_start"] - r["launched"] for r in plain]),
        "run_s": stats.percentile(runs, 90),
        "total_s": stats.percentile(totals, 90),
        "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in plain]),
    }
    result["medians"] = {"run_s": stats.median(runs), "total_s": stats.median(totals)}
    if trace and traced:
        layers = stats.median_of_dicts([r["layers"] for r in traced])
        layers.update(_transport_layers(traced))
        untraced_run = stats.percentile(runs, 90)
        traced_run = stats.percentile([r["run_s"] for r in traced], 90)
        layers["trace.overhead_pct"] = 100.0 * (traced_run - untraced_run) / untraced_run
        result["layers"] = layers
        result["traced_samples"] = len(traced)
    return result


def _transport_layers(reports: List[dict]) -> Dict[str, float]:
    """engine.transport / engine.distributed metrics from transport_stats."""
    rows = []
    for report in reports:
        ts = report.get("transport_stats")
        if not ts:
            continue
        per_rank = ts["per_rank"]
        workers = per_rank[1:]
        pipeline = ts["pipeline"]
        speculated = pipeline["chunks_speculated"]
        rows.append(
            {
                "engine.transport.bytes": ts["total_bytes_moved"],
                "engine.transport.transfer_s": sum(
                    r["serialize_seconds"] + r["transfer_seconds"] for r in per_rank
                ),
                "engine.distributed.rank0_idle_s": per_rank[0]["idle_seconds"],
                "engine.distributed.worker_idle_frac": (
                    stats.mean([r["idle_seconds"] for r in workers]) / report["run_s"]
                    if workers
                    else 0.0
                ),
                "engine.distributed.speculated": speculated,
                "engine.distributed.discard_ratio": (
                    pipeline["chunks_discarded"] / speculated if speculated else 0.0
                ),
                "engine.distributed.backfilled_rows": pipeline["backfilled_rows"],
            }
        )
    return stats.median_of_dicts(rows) if rows else {}
