"""Span tracing from outside the program, and the per-layer ledger.

The benchmark never edits ``src/``: it measures a layer by replacing
that layer's public entry point with a wrapper that records a span
(name, start, end, parent span) around the original call, and puts the
original back afterwards.  Self time of a span is its duration minus
the time its child spans cover, so the ledger adds up: the driver
loop's time is the sum of its children's self times plus its own.

Only the thread that installed the wrappers records spans.  In a
multiprocessing run that is rank 0; worker ranks are described by the
engine's own ``transport_stats`` instead.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List

_MISSING = object()

# Span names.  Each is one public entry point; GATHER covers every site
# where a provider window is swept.
STEP_LULESH = "lulesh.step"
STEP_WDMERGER = "wdmerger.step"
REFERENCE = "scenarios.reference"
DISPATCH = "engine.scheduler.dispatch"
OBSERVE = "core.collector.observe"
PUSH = "core.minibatch.push_block"
PARTIAL_FIT = "core.ar_model.partial_fit"
FIT_EXACT = "core.ar_model.fit_exact"
GATHER = "core.providers.gather"
PROBES = "engine.cadence.run_probes"
LOOP = "engine.driver.run"


class Tracer:
    """Records spans around wrapped callables; :meth:`restore` undoes it."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent_index] (-1: no parent).
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []
        self._thread = threading.get_ident()

    def wrap(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper."""
        raw = vars(owner).get(attr, _MISSING)
        original = getattr(owner, attr)
        spans, stack, thread = self.spans, self._stack, self._thread
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if threading.get_ident() != thread:
                return original(*args, **kwargs)
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back as it was."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def first(self, name: str) -> list:
        """The first recorded span called ``name``."""
        for span in self.spans:
            if span[0] == name:
                return span
        raise LookupError(f"no {name!r} span was recorded")


def install_loop(tracer: Tracer) -> None:
    """Wrap only the driver loop: the untraced run's single timestamp pair."""
    from repro.engine.driver import ExecutionDriver

    tracer.wrap(ExecutionDriver, "run", LOOP)


def install_all(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer ledger is built from."""
    import repro.core.collector as collector
    import repro.engine.cadence as cadence
    import repro.engine.driver as driver
    import repro.experiments.common as common
    from repro.core.ar_model import ARModel
    from repro.core.minibatch import MiniBatchTrainer
    from repro.core.providers import ShardView
    from repro.engine.scheduler import AnalysisScheduler
    from repro.lulesh import LuleshSimulation
    from repro.wdmerger import WdMergerSimulation

    install_loop(tracer)
    tracer.wrap(LuleshSimulation, "step", STEP_LULESH)
    tracer.wrap(WdMergerSimulation, "step", STEP_WDMERGER)
    # The scenario modules import lulesh_reference at call time, so the
    # module attribute is where they find it.
    tracer.wrap(common, "lulesh_reference", REFERENCE)
    tracer.wrap(AnalysisScheduler, "dispatch", DISPATCH)
    tracer.wrap(collector.DataCollector, "observe", OBSERVE)
    tracer.wrap(MiniBatchTrainer, "push_block", PUSH)
    tracer.wrap(ARModel, "partial_fit", PARTIAL_FIT)
    tracer.wrap(ARModel, "fit_exact", FIT_EXACT)
    # batch_sample is bound by name in each module that calls it, so it
    # is wrapped at each of those lookups.  Rank 0 of a multiprocessing
    # run sweeps its shard through ShardView.sample instead.
    for module in (driver, collector, cadence):
        tracer.wrap(module, "batch_sample", GATHER)
    tracer.wrap(ShardView, "sample", GATHER)
    tracer.wrap(cadence.CadenceController, "run_probes", PROBES)


def ledger(tracer: Tracer, run_called: float, run_returned: float) -> Dict[str, float]:
    """Per-layer metrics of one traced scenario run.

    ``run_called``/``run_returned`` bracket the ``run_scenario`` call.
    Construction is the time from that call to the driver loop's start,
    without the reference simulation; validation is the time from the
    loop's end to the call's return.  Simulation steps taken inside the
    reference run count under ``scenarios.reference_s`` only.
    """
    spans = tracer.spans
    covered = [0.0] * len(spans)
    in_reference = [False] * len(spans)
    for index, (name, start, end, parent) in enumerate(spans):
        if parent >= 0:
            covered[parent] += end - start
            in_reference[index] = in_reference[parent]
        if name == REFERENCE:
            in_reference[index] = True
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    reference_s = 0.0
    construct_reference_s = 0.0
    loop = tracer.first(LOOP)
    for index, (name, start, end, parent) in enumerate(spans):
        if name == REFERENCE and (parent < 0 or not in_reference[parent]):
            reference_s += end - start
            if end <= loop[1]:
                construct_reference_s += end - start
            continue
        if in_reference[index]:
            continue
        total[name] = total.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + (end - start - covered[index])
        calls[name] = calls.get(name, 0) + 1

    loop_s = loop[2] - loop[1]
    step_s = total.get(STEP_LULESH, 0.0) + total.get(STEP_WDMERGER, 0.0)
    other_s = own.get(LOOP, 0.0)
    return {
        "scenarios.construct_s": loop[1] - run_called - construct_reference_s,
        "scenarios.reference_s": reference_s,
        "scenarios.validate_s": run_returned - loop[2],
        "lulesh.step_s": total.get(STEP_LULESH, 0.0),
        "lulesh.steps": calls.get(STEP_LULESH, 0),
        "wdmerger.step_s": total.get(STEP_WDMERGER, 0.0),
        "wdmerger.steps": calls.get(STEP_WDMERGER, 0),
        "core.providers.gather_s": total.get(GATHER, 0.0),
        "core.providers.rows": calls.get(GATHER, 0),
        "core.collector.observe_s": own.get(OBSERVE, 0.0),
        "core.minibatch.push_s": own.get(PUSH, 0.0),
        "core.ar_model.partial_fit_s": total.get(PARTIAL_FIT, 0.0),
        "core.ar_model.updates": calls.get(PARTIAL_FIT, 0),
        "core.ar_model.fit_exact_s": total.get(FIT_EXACT, 0.0),
        "engine.driver.loop_s": loop_s,
        "engine.scheduler.dispatch_self_s": own.get(DISPATCH, 0.0),
        "engine.driver.other_s": other_s,
        "engine.insitu_overhead_pct": (
            100.0 * (loop_s - step_s) / step_s if step_s > 0 else 0.0
        ),
        "engine.cadence.probe_s": total.get(PROBES, 0.0),
        "trace.unaccounted_pct": 100.0 * other_s / loop_s if loop_s > 0 else 0.0,
    }
