"""The repository benchmark: one workload per run, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload lulesh-sedov --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run (see README.md in this directory).
The last line of standard output is the result object; the line before
it records the host and the run's sample counts.  The exit status is 1
when any operation failed its correctness check, and 2 when the
program's sources are not there.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SCENARIO_WORKLOADS = ("lulesh-sedov", "wdmerger-grid", "lulesh-sedov-mp2")
SERVE_WORKLOAD = "serve-mixed"


def load_declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def source_digest() -> str:
    """SHA-256 over the program's Python sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(SRC)):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def host_speed_seconds() -> float:
    """Best of three timings of a fixed pure-Python loop.

    The host's speed drifts by about 20% over minutes and the program's
    times follow it, so the info line carries this probe from the start
    and the end of the run to tell a slow host from a slow program.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def fingerprint(kernels: str, processes: int) -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "kernels": kernels,
        "numba": importlib.util.find_spec("numba") is not None,
        "commit": commit(),
        "source_sha256": source_digest(),
        "processes": processes,
        "cpu_limited": processes > nproc,
    }


def _terminated(signum, frame) -> None:
    # Unwind through the workloads' cleanup, which stops the servers and
    # child processes they started.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=SCENARIO_WORKLOADS + (SERVE_WORKLOAD,))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminated)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no program sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    declaration = load_declaration()
    trace = bool(args.trace)
    host_speed = [host_speed_seconds()]

    if args.workload == SERVE_WORKLOAD:
        import serve_mix

        result = serve_mix.run(args.seed, args.seconds, trace)
        processes = serve_mix.processes()
    else:
        # The scenario workloads are the specs' own fixed inputs; the
        # seed only selects serve-mixed's request sequence.
        import scenario

        result = scenario.run(args.workload, args.seconds, trace)
        processes = scenario.processes(args.workload)

    host_speed.append(host_speed_seconds())
    for failure in result["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "host": fingerprint(result.get("kernels") or "unknown", processes),
        "samples": result["samples"],
        "host_speed_s": host_speed,
    }
    for key in ("medians", "rounds", "traced_samples"):
        if key in result:
            info[key] = result[key]
    print(json.dumps(info))

    if trace:
        declared = declaration["per_layer"]
        measured = dict(result.get("layers", {}))
        measured["failed_frac"] = result["failed"] / result["attempted"]
    else:
        declared = declaration["end_to_end"]
        measured = result.get("end_to_end", {})
    unknown = sorted(set(measured) - {m["name"] for m in declared})
    if unknown:
        raise KeyError(f"measured metrics missing from BENCHMARK.json: {unknown}")
    # A layer that a workload does not go through did no work there.
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
