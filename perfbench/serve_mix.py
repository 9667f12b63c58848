"""The ``serve-mixed`` workload: a ``repro serve`` process under a closed loop.

One round launches ``repro serve --workers 2``, waits until ``/healthz``
answers (the pool is warm before the server listens), drives the round's
request sequence over two connections, each sending its next request only
when the previous response has fully arrived, and shuts the server down.
Rounds repeat until the run's time is used up; each round has a fresh
server, so a fresh cache, and its own sequence drawn from the seed.

The server receives only the generated requests.  Every response is
checked: status 200, a result line whose report is ok, and every cache
hit byte-identical to a miss of the same key.
"""

from __future__ import annotations

import http.client
import itertools
import json
import os
import queue
import random
import resource
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

import stats
from repro.errors import ServeError
from repro.serve.protocol import split_result_line

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HOST = "127.0.0.1"
WORKERS = 2
CONNECTIONS = 2
START_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 60.0

# Each round sends FRESH_PER_SCENARIO fresh requests per scenario, drawn
# without replacement from that scenario's variants, so every round has
# the same number of distinct keys and the same scenario mix.  The other
# requests repeat an earlier one.  The values below were checked to pass
# each scenario's validator in quick mode, with and without adaptive
# cadence where the spec declares it.
FRESH_PER_SCENARIO = 8
PARAMETER_GRID = {
    "heat-diffusion": {"r": [0.2, 0.25, 0.3, 0.35, 0.4], "n_iterations": [130, 150, 170]},
    "oscillator-ringdown": {
        "omega": [0.3, 0.35, 0.4, 0.45, 0.5],
        "gamma": [0.005, 0.01, 0.015],
    },
    "advection-front": {
        "speed": [0.45, 0.5],
        "width": [1.5, 1.8],
        "front0": [5.0, 6.0, 7.0],
    },
    "lulesh-sedov": {"lag": [8, 10, 12], "train_fraction": [0.35, 0.4, 0.45, 0.5]},
    "wdmerger-detonation": {
        "initial_separation": [2.6, 2.65, 2.7, 2.8],
        "learning_rate": [0.02, 0.03, 0.04],
    },
}
# Scenarios whose spec declares adaptive cadence.
ADAPTIVE = ("heat-diffusion", "oscillator-ringdown")


def processes() -> int:
    """Busy processes: the server, its workers and the client."""
    return 1 + WORKERS + 1


def variants(scenario: str) -> List[dict]:
    """Every request body the grid allows for ``scenario``."""
    grid = PARAMETER_GRID[scenario]
    names = sorted(grid)
    bodies = []
    for values in itertools.product(*(grid[name] for name in names)):
        for adaptive in (False, True) if scenario in ADAPTIVE else (False,):
            config = {"quick": True, "adaptive": adaptive, "params": dict(zip(names, values))}
            bodies.append({"scenario": scenario, "config": config})
    return bodies


def make_sequence(rng: random.Random) -> List[dict]:
    """One round's requests: fresh ones, and twice as many repeats."""
    fresh = [
        body
        for scenario in sorted(PARAMETER_GRID)
        for body in rng.sample(variants(scenario), FRESH_PER_SCENARIO)
    ]
    rng.shuffle(fresh)
    count = 3 * len(fresh)
    repeats = set(rng.sample(range(1, count), count - len(fresh)))
    sequence: List[dict] = []
    for position in range(count):
        if position in repeats:
            sequence.append(sequence[rng.randrange(len(sequence))])
        else:
            sequence.append(fresh.pop())
    return sequence


class Server:
    """One ``repro serve`` process; a context manager that always stops it."""

    def __init__(self) -> None:
        self.launched = time.monotonic()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", HOST, "--port", "0",
             "--workers", str(WORKERS)],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.output: List[str] = []
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            self.port = self._wait_for_port()
            self.ready = self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _drain(self) -> None:
        for line in self.process.stdout:
            self.output.append(line)
            self._lines.put(line)
        self._lines.put(None)

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("repro serve did not start listening in time") from None
            if line is None:
                raise RuntimeError("repro serve exited:\n" + "".join(self.output))
            if "listening on http://" in line:
                return int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])

    def _wait_healthy(self) -> float:
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                connection = http.client.HTTPConnection(HOST, self.port, timeout=5)
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                body = json.loads(response.read())
                connection.close()
                if response.status == 200 and body["ok"] and body["workers"] == WORKERS:
                    return time.monotonic()
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError("repro serve never answered /healthz")

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)


def _send(port: int, body: bytes) -> dict:
    """POST one request; the record of its response."""
    sent = time.monotonic()
    connection = http.client.HTTPConnection(HOST, port, timeout=REQUEST_TIMEOUT_S)
    try:
        connection.request("POST", "/run", body, {"Content-Type": "application/json"})
        response = connection.getresponse()
        payload = response.read()
    finally:
        connection.close()
    done = time.monotonic()
    record = {"latency_s": done - sent, "status": response.status, "ok": False}
    lines = payload.splitlines()
    if response.status != 200 or len(lines) < 2:
        return record
    accepted = json.loads(lines[0])
    envelope, raw = split_result_line(lines[-1])
    report = envelope["report"]
    record.update(
        ok=bool(report.get("ok")) and envelope.get("event") == "result",
        key=accepted["cache_key"],
        cached=bool(envelope["cached"]),
        raw=raw,
        report_s=float(report["seconds"]),
        kernels=report.get("kernels"),
        cadence=(report.get("cadence") or {}).get("totals"),
    )
    return record


def drive(port: int, sequence: List[dict]) -> List[dict]:
    """The closed loop: each connection sends its next request on completion."""
    bodies = [json.dumps(request).encode("utf-8") for request in sequence]
    records: List[Optional[dict]] = [None] * len(bodies)
    cursor = iter(range(len(bodies)))
    lock = threading.Lock()
    errors: List[BaseException] = []

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            try:
                records[index] = _send(port, bodies[index])
            except (OSError, ValueError, KeyError, ServeError) as exc:
                errors.append(exc)
                records[index] = {"latency_s": 0.0, "status": 0, "ok": False}

    threads = [threading.Thread(target=client) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for exc in errors:
        print(f"request failed: {exc!r}", file=sys.stderr)
    return records


def check_hits(records: List[dict]) -> int:
    """Cache hits whose bytes match no miss of their key (a failure each)."""
    filled: Dict[str, set] = {}
    for record in records:
        if record["ok"] and not record["cached"]:
            filled.setdefault(record["key"], set()).add(record["raw"])
    return sum(
        1
        for record in records
        if record["ok"] and record["cached"] and record["raw"] not in filled.get(record["key"], ())
    )


def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    import scenario as scenario_workloads

    scenario_workloads.warm_up()
    deadline = time.monotonic() + seconds
    rounds: List[dict] = []
    records: List[dict] = []
    failures: List[str] = []
    while time.monotonic() < deadline or len(rounds) < 2:
        sequence = make_sequence(random.Random(seed * 1000 + len(rounds)))
        with Server() as server:
            began = time.monotonic()
            batch = drive(server.port, sequence)
            finished = time.monotonic()
        failures += ["response not ok"] * sum(1 for r in batch if not r["ok"])
        failures += ["cache hit differs from its miss"] * check_hits(batch)
        rounds.append(
            {
                "setup_s": server.ready - server.launched,
                "total_s": finished - server.launched,
                "drive_s": finished - began,
                "requests": len(batch),
                "distinct_keys": len({r["key"] for r in batch if r["ok"]}),
                "hits": sum(1 for r in batch if r["ok"] and r["cached"]),
                "misses": sum(1 for r in batch if r["ok"] and not r["cached"]),
            }
        )
        records += batch

    good = [r for r in records if r["ok"]]
    hits = [r for r in good if r["cached"]]
    misses = [r for r in good if not r["cached"]]
    result: Dict[str, object] = {
        "attempted": len(records),
        "failed": len(failures),
        "failures": sorted(set(failures)),
        "samples": len(records),
        "rounds": rounds,
        "kernels": good[0]["kernels"] if good else None,
    }
    if not misses:
        return result
    # ru_maxrss of reaped children: the servers and, through them, their
    # workers.  KiB on Linux.
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result["end_to_end"] = {
        "setup_s": stats.median([r["setup_s"] for r in rounds]),
        "run_s": stats.median([r["report_s"] for r in misses]),
        "total_s": stats.median([r["total_s"] for r in rounds]),
        "peak_rss_mb": rss_mb,
    }
    if trace:
        result["layers"] = _layers(seed, rounds, records, hits, misses)
    return result


def _layers(
    seed: int, rounds: List[dict], records: List[dict], hits: List[dict], misses: List[dict]
) -> Dict[str, float]:
    adaptive = [r["cadence"] for r in misses if r["cadence"]]
    distinct = sum(r["distinct_keys"] for r in rounds)
    latencies = [r["latency_s"] for r in records]
    return {
        "throughput_rps": len(records) / sum(r["drive_s"] for r in rounds),
        "latency_p50_ms": 1000.0 * stats.median(latencies),
        "latency_p90_ms": 1000.0 * stats.percentile(latencies, 90),
        "serve.cache.hit_ratio": len(hits) / (len(hits) + len(misses)),
        "serve.cache.duplicate_misses": len(misses) - distinct,
        "serve.hit_p50_ms": 1000.0 * stats.median([r["latency_s"] for r in hits]) if hits else 0.0,
        "serve.miss_p50_ms": 1000.0 * stats.median([r["latency_s"] for r in misses]),
        "serve.miss_overhead_ms": 1000.0
        * stats.median([r["latency_s"] - r["report_s"] for r in misses]),
        "engine.cadence.sampling_reduction": (
            stats.median([c["sampling_reduction"] for c in adaptive]) if adaptive else 0.0
        ),
        "engine.cadence.snapbacks": (
            stats.mean([c["snapbacks"] for c in adaptive]) if adaptive else 0.0
        ),
        "engine.cadence.probe_s": _probe_seconds(seed),
    }


def _probe_seconds(seed: int) -> float:
    """Median probe time of the first round's distinct adaptive requests.

    The server's workers are not traced, so these requests are replayed
    in this process under the tracer, after the timed rounds.
    """
    from repro import scenarios

    import tracer as tracing

    sequence = make_sequence(random.Random(seed * 1000))
    seen = set()
    probes = []
    for request in sequence:
        body = json.dumps(request, sort_keys=True)
        if not request["config"]["adaptive"] or body in seen:
            continue
        seen.add(body)
        tracer = tracing.Tracer()
        tracing.install_all(tracer)
        try:
            scenarios.run_scenario(
                request["scenario"], config=scenarios.RunConfig.from_json(request["config"])
            )
        finally:
            tracer.restore()
        probes.append(
            sum(end - start for name, start, end, _ in tracer.spans if name == tracing.PROBES)
        )
    return stats.median(probes) if probes else 0.0
