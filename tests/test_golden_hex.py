"""Exact golden for everything the analyses learn and detect.

``tests/data/golden_analysis_hex.json`` pins, as ``float.hex``
strings, every trained analysis's coefficients, intercept and
per-update training losses, its threshold events, and each run's stop
iterations.  The runs are ``lulesh-sedov`` at spec defaults (the
perfbench workload) plus every registered scenario on its quick
parameters.  Equality is exact: ``golden_scenarios.json`` allows 1e-12
on quick runs only, so a restructured kernel that moves one bit of one
loss passes there but fails here.

The file was captured once, before the lean analysis path
(``_np_ar_batch_update`` with hoisted invariants, the single-compare
threshold check, the per-step peak speed and the spatial gather
index), and must not be regenerated to make a change pass.
"""

import json
import os

import pytest

from repro import scenarios

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "data",
    "golden_analysis_hex.json",
)

with open(GOLDEN_PATH) as _fh:
    GOLDEN = json.load(_fh)


def run_configs():
    """``{key: (scenario, RunConfig)}`` for every pinned run."""
    configs = {"lulesh-sedov@defaults": ("lulesh-sedov", scenarios.RunConfig())}
    for name in scenarios.names():
        configs[f"{name}@quick"] = (name, scenarios.RunConfig(quick=True))
    return configs


def fingerprint(run) -> dict:
    """Bit-exact JSON-able record of one scenario run's analyses."""
    analyses = []
    for analysis in run.analyses:
        entry = {"name": analysis.name}
        if analysis.model.is_trained:
            entry["coefficients"] = [
                float(c).hex() for c in analysis.model.coefficients
            ]
            entry["intercept"] = float(analysis.model.intercept).hex()
            entry["losses"] = [float(v).hex() for v in analysis.trainer.losses]
        entry["threshold_events"] = [
            [
                int(e.iteration),
                int(e.location),
                float(e.value).hex(),
                float(e.threshold_value).hex(),
                int(e.rank),
            ]
            for e in getattr(analysis, "threshold_events", [])
        ]
        analyses.append(entry)
    return {
        "iterations": int(run.result.iterations),
        "stopped_at": {k: int(v) for k, v in run.result.stopped_at.items()},
        "analyses": analyses,
    }


def test_golden_covers_every_pinned_run():
    assert set(GOLDEN) == set(run_configs())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_run_matches_hex_golden(key):
    name, config = run_configs()[key]
    run = scenarios.run_scenario(name, config=config)
    assert fingerprint(run) == GOLDEN[key]
