"""LULESH performance experiments: Table III and Table IV.

Both tables run the mini-app with the O(size^3) 3-D field maintenance
on (the realistic cost profile).  Table III compares plain runs against
runs instrumented with the feature-extraction engine; Table IV measures
early termination.  Since the engine refactor, the Table IV threshold
sweep is ONE instrumented run: all thresholds attach to a single
simulation through shared collection (one provider sweep per collected
iteration), the engine records per-iteration simulation time and
per-analysis dispatch time, and each threshold's cost is reconstructed
at its analysis's early-stop point (simulation time to the stop plus
that analysis's own cost).  MPI x OpenMP configurations are modeled on top of the measured
serial times (see README.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.core.params import IterParam
from repro.engine import InSituEngine, LuleshApp
from repro.experiments.common import Table, best_of_rounds
from repro.experiments.scaling import ScalingModel
from repro.instrument.overhead import overhead_percent, share_percent
from repro.lulesh import LuleshSimulation
from repro.lulesh.insitu import BreakPointAnalysis
from repro.parallel.comm import SimComm


@dataclass(frozen=True)
class MeasuredRun:
    """One measured LULESH execution."""

    size: int
    iterations: int
    seconds: float
    comm_seconds: float = 0.0
    broadcasts: int = 0
    terminated_early: bool = False
    radius: Optional[int] = None

    @property
    def total_seconds(self) -> float:
        return self.seconds + self.comm_seconds


def _provider(domain, loc):
    return domain.xd(loc)


def _provider_batch(domain, locations):
    return domain.xd_batch(locations)


_provider.batch = _provider_batch


def _windows(total_iterations: int, fraction: float):
    """The paper's collection windows: first 10 radial nodes, 40% of run."""
    spatial = IterParam(1, 10, 1)
    temporal = IterParam(50, max(60, int(fraction * total_iterations)), 1)
    return spatial, temporal


def _analysis(
    size: int,
    spatial: IterParam,
    temporal: IterParam,
    *,
    threshold: float,
    early_stop: bool,
    name: str = "break_point",
) -> BreakPointAnalysis:
    return BreakPointAnalysis(
        _provider,
        spatial,
        temporal,
        threshold=threshold,
        max_location=size,
        lag=10,
        order=3,
        # Perf-tuned training settings: larger batches and fewer epochs
        # quarter the per-update cost for ~0.5% extra fit error.
        batch_size=32,
        epochs_per_batch=8,
        terminate_when_trained=early_stop,
        name=name,
    )


def measure_original(size: int) -> MeasuredRun:
    """Plain run, no instrumentation (the "origin" column)."""
    sim = LuleshSimulation(size)
    start = time.perf_counter()
    result = sim.run()
    elapsed = time.perf_counter() - start
    return MeasuredRun(size=size, iterations=result.iterations, seconds=elapsed)


def measure_instrumented(
    size: int,
    total_iterations: int,
    *,
    ranks: int = 1,
    threshold: float = 0.02,
    early_stop: bool = False,
    fraction: float = 0.4,
) -> MeasuredRun:
    """Run with one feature-extraction analysis attached via the engine.

    ``early_stop=False`` is the paper's "non-stop" mode (analysis runs,
    simulation completes); ``early_stop=True`` terminates when the
    analysis confirms its feature or exhausts its window.
    """
    sim = LuleshSimulation(size)
    comm = SimComm(ranks) if ranks > 1 else None
    engine = InSituEngine(LuleshApp(sim), comm=comm, name="lulesh")
    spatial, temporal = _windows(total_iterations, fraction)
    analysis = engine.add_analysis(
        _analysis(
            size, spatial, temporal, threshold=threshold, early_stop=early_stop
        )
    )
    start = time.perf_counter()
    result = engine.run()
    elapsed = time.perf_counter() - start
    return MeasuredRun(
        size=size,
        iterations=result.iterations,
        seconds=elapsed,
        comm_seconds=comm.charged_seconds if comm else 0.0,
        broadcasts=(
            comm.broadcast_count if comm else len(engine.broadcaster.history)
        ),
        terminated_early=result.terminated_early,
        radius=analysis.final_feature().radius,
    )


def measure_pair(size: int, *, ranks: int) -> Tuple[MeasuredRun, MeasuredRun]:
    """Best-of-``REPEATS`` (origin, non-stop) runs, interleaved.

    One of each leg per round (see
    :func:`~repro.experiments.common.best_of_rounds`); each non-stop run
    collects over the iteration count of the origin run before it.
    """

    def measure_round() -> Tuple[MeasuredRun, MeasuredRun]:
        origin = measure_original(size)
        return origin, measure_instrumented(
            size, origin.iterations, ranks=ranks, early_stop=False
        )

    return best_of_rounds(measure_round)


def measure_sweep(
    size: int,
    total_iterations: int,
    thresholds: Sequence[float],
    *,
    fraction: float = 0.4,
) -> Dict[float, MeasuredRun]:
    """All thresholds in ONE instrumented run through shared collection.

    Every threshold's analysis subscribes to the same (provider,
    spatial, temporal) window, so the velocity field is sampled once
    per collected iteration regardless of how many thresholds ride
    along.  The engine runs under the ``all`` policy; each threshold's
    row reports the iteration at which *its* analysis requested
    termination and the reconstructed solo cost up to that point
    (simulation-step time plus that analysis's own dispatch time) —
    what the run would have cost with only that analysis attached.
    """
    sim = LuleshSimulation(size)
    engine = InSituEngine(
        LuleshApp(sim), policy="all", record_timings=True, name="lulesh-sweep"
    )
    spatial, temporal = _windows(total_iterations, fraction)
    analyses = {}
    for threshold in thresholds:
        analyses[threshold] = engine.add_analysis(
            _analysis(
                size,
                spatial,
                temporal,
                threshold=threshold,
                early_stop=True,
                name=f"threshold_{threshold:g}",
            )
        )
    result = engine.run()
    out = {}
    for threshold, analysis in analyses.items():
        stop = result.stopped_at.get(analysis.name, result.iterations)
        out[threshold] = MeasuredRun(
            size=size,
            iterations=stop,
            seconds=result.solo_seconds(analysis.name),
            terminated_early=stop < total_iterations,
            radius=analysis.final_feature().radius,
        )
    return out


def table3(
    sizes: Sequence[int] = (30, 60, 90),
    ranks: Sequence[int] = (1, 8, 27),
) -> Table:
    """Table III: original vs with-FE execution time and overhead (%).

    One serial pair (origin, non-stop) is measured per size, best of
    :data:`~repro.experiments.common.REPEATS` interleaved rounds; each
    MPI configuration's row applies the scaling model to both, with the
    broadcast charges added to the instrumented side only.
    """
    table = Table(
        title="Table III — LULESH execution time and FE overhead",
        headers=["MPIxOMP", "Size", "origin(s)", "non-stop(s)", "overhead(%)"],
        notes=(
            "Paper shape: overhead stays low single-digit percent across "
            "all rank counts and sizes."
        ),
    )
    measured = {size: measure_pair(size, ranks=max(ranks)) for size in sizes}
    for n_ranks in ranks:
        for size in sizes:
            origin, instrumented = measured[size]
            model = ScalingModel(
                elements=size**3, iterations=origin.iterations
            )
            origin_t = model.configured_time(origin.seconds, n_ranks, 1)
            # Re-price the observed broadcasts for this rank count (a
            # single-rank run pays nothing; wider trees pay more stages).
            bcast = instrumented.broadcasts * model.comm.broadcast(128, n_ranks)
            instr_t = (
                model.configured_time(instrumented.seconds, n_ranks, 1) + bcast
            )
            table.add_row(
                f"{n_ranks}x1",
                f"{size}^3",
                round(origin_t, 4),
                round(instr_t, 4),
                round(overhead_percent(origin_t, instr_t), 2),
            )
    return table


#: Table IV's threshold list.
TABLE4_THRESHOLDS = (0.001, 0.002, 0.005, 0.0075, 0.01, 0.02, 0.05, 0.1, 0.2)


def table4(
    sizes: Sequence[int] = (30, 60, 90),
    thresholds: Sequence[float] = TABLE4_THRESHOLDS,
) -> Table:
    """Table IV: early-termination radius, iterations and time shares.

    Per size: one plain run for the baseline, then one shared-collection
    sweep serving every threshold (previously one early-stop run per
    threshold).
    """
    table = Table(
        title="Table IV — early termination by threshold",
        headers=[
            "Size",
            "Threshold(%)",
            "Radius",
            "Iterations(stop)",
            "% of iterations",
            "Time(s)",
            "% of total time",
        ],
        notes=(
            "Paper shape: low thresholds stop at the training-window "
            "end (~40% of iterations); on larger domains high "
            "thresholds confirm earlier (~20%).  All thresholds of a "
            "size share one instrumented run; each row's time is the "
            "cumulative wall time at its analysis's stop iteration."
        ),
    )
    for size in sizes:
        origin = measure_original(size)
        sweep = measure_sweep(size, origin.iterations, thresholds)
        for threshold in thresholds:
            run = sweep[threshold]
            table.add_row(
                f"{size}^3",
                round(100 * threshold, 2),
                run.radius,
                run.iterations,
                round(share_percent(run.iterations, origin.iterations), 1),
                round(run.total_seconds, 4),
                round(share_percent(run.total_seconds, origin.total_seconds), 1),
            )
    return table
