"""Tests for the in-situ engine: workloads, shared collection, scheduling.

The heart of this module is the equivalence regression: an N-threshold
sweep through one shared-collection engine run must produce bit-identical
fit coefficients and break points to N independent single-analysis runs,
while invoking the variable provider at most once per
(location, iteration).
"""

import time

import numpy as np
import pytest

from repro.core.ar_model import ARModel
from repro.core.curve_fitting import Analysis, CurveFitting
from repro.core.features import ExtractionSummary
from repro.core.params import IterParam
from repro.core.region import Region
from repro.engine import (
    AnalysisScheduler,
    InSituEngine,
    LuleshApp,
    ReplayApp,
    SharedCollector,
    WdMergerApp,
    as_simulation_app,
)
from repro.errors import ConfigurationError
from repro.lulesh import LuleshSimulation
from repro.lulesh.insitu import BreakPointAnalysis
from repro.wdmerger import WdMergerSimulation

SIZE = 16
THRESHOLDS = (0.001, 0.002, 0.005, 0.0075, 0.01, 0.02, 0.05, 0.1, 0.2)


@pytest.fixture(scope="module")
def lulesh_total_iterations():
    sim = LuleshSimulation(SIZE, maintain_field=False)
    sim.run()
    return sim.iteration


def _provider(domain, loc):
    return domain.xd(loc)


def _break_point_analysis(total, threshold, provider, name):
    return BreakPointAnalysis(
        provider,
        IterParam(1, 8, 1),
        IterParam(30, int(0.4 * total), 1),
        threshold=threshold,
        max_location=SIZE,
        lag=10,
        order=3,
        terminate_when_trained=True,
        name=name,
    )


# ----------------------------------------------------------------------
# workload layer
# ----------------------------------------------------------------------


class _TickApp:
    """Minimal custom workload: counts iterations, no physics."""

    def __init__(self, n, max_iterations=10_000):
        self.n = n
        self.t = 0
        self._max = max_iterations

    def step(self):
        self.t += 1

    @property
    def domain(self):
        return self

    @property
    def done(self):
        return self.t >= self.n

    @property
    def max_iterations(self):
        return self._max


class _StubAnalysis(Analysis):
    """Analysis that requests termination at a scripted iteration."""

    def __init__(self, name, stop_at=None):
        super().__init__(name)
        self.stop_at = stop_at
        self.seen = []

    def on_iteration(self, domain, iteration):
        self.seen.append(iteration)
        if self.stop_at is not None and iteration >= self.stop_at:
            self.wants_stop = True
        return None

    def summary(self):
        return ExtractionSummary(samples_collected=len(self.seen))


class TestWorkloads:
    def test_adapters_satisfy_protocol(self):
        lulesh = as_simulation_app(LuleshSimulation(8, maintain_field=False))
        wd = as_simulation_app(WdMergerSimulation(8, maintain_grid=False))
        assert isinstance(lulesh, LuleshApp)
        assert isinstance(wd, WdMergerApp)
        assert not lulesh.done and not wd.done

    def test_custom_duck_typed_app_passes_through(self):
        app = _TickApp(3)
        assert as_simulation_app(app) is app

    def test_non_app_rejected(self):
        with pytest.raises(ConfigurationError):
            as_simulation_app(object())

    def test_replay_app_feeds_rows_one_based(self):
        history = np.arange(12.0).reshape(4, 3)
        app = ReplayApp(history)
        seen = []
        engine = InSituEngine(app)

        class _Recorder(Analysis):
            def on_iteration(self, domain, iteration):
                seen.append((iteration, domain.value(1)))
                return None

            def summary(self):
                return ExtractionSummary()

        engine.add_analysis(_Recorder("recorder"))
        result = engine.run()
        assert result.iterations == 4
        assert seen == [(1, 1.0), (2, 4.0), (3, 7.0), (4, 10.0)]

    def test_replay_app_rejects_3d(self):
        with pytest.raises(ConfigurationError):
            ReplayApp(np.zeros((2, 2, 2)))


# ----------------------------------------------------------------------
# collection layer
# ----------------------------------------------------------------------


class TestSharedCollector:
    def _analysis(self, provider, spatial=(0, 5, 1), temporal=(1, 40, 1), **kw):
        kw.setdefault("order", 2)
        kw.setdefault("lag", 1)
        kw.setdefault("batch_size", 4)
        return CurveFitting(provider, spatial, temporal, **kw)

    def test_same_window_shares_one_store(self):
        shared = SharedCollector()
        a = self._analysis(ReplayApp.provider)
        b = self._analysis(ReplayApp.provider, batch_size=8)
        assert shared.subscribe(a) and shared.subscribe(b)
        assert a.collector.store is b.collector.store
        assert shared.n_groups == 1
        assert shared.shared_sweeps_saved == 1
        # Different batch sizes: one sweep, but two trainers.
        assert a.trainer is not b.trainer
        assert shared.n_trainers == 2
        assert shared.shared_trainings_saved == 0

    def test_distinct_windows_do_not_share(self):
        shared = SharedCollector()
        a = self._analysis(ReplayApp.provider, temporal=(1, 40, 1))
        b = self._analysis(ReplayApp.provider, temporal=(1, 50, 1))
        shared.subscribe(a)
        shared.subscribe(b)
        assert a.collector.store is not b.collector.store
        assert shared.n_groups == 2

    def test_distinct_providers_do_not_share(self):
        shared = SharedCollector()
        a = self._analysis(lambda d, loc: 0.0)
        b = self._analysis(lambda d, loc: 0.0)
        shared.subscribe(a)
        shared.subscribe(b)
        assert shared.n_groups == 2

    def test_non_collector_analysis_ignored(self):
        shared = SharedCollector()
        assert not shared.subscribe(_StubAnalysis("stub"))
        assert shared.n_groups == 0

    def test_rebind_after_collection_rejected(self):
        shared = SharedCollector()
        a = self._analysis(ReplayApp.provider)
        shared.subscribe(a)
        app = ReplayApp(np.ones((3, 6)))
        app.step()
        a.on_iteration(app.domain, 1)
        late = self._analysis(ReplayApp.provider)
        app.step()
        late.on_iteration(app.domain, 2)
        with pytest.raises(ConfigurationError):
            shared.subscribe(late)

    def test_late_empty_subscriber_joins_existing_history(self):
        shared = SharedCollector()
        a = self._analysis(ReplayApp.provider)
        shared.subscribe(a)
        app = ReplayApp(np.ones((3, 6)))
        app.step()
        a.on_iteration(app.domain, 1)
        late = self._analysis(ReplayApp.provider)
        shared.subscribe(late)
        assert late.collector.store is a.collector.store
        assert len(late.collector.store) == 1


# ----------------------------------------------------------------------
# scheduling layer: termination policies
# ----------------------------------------------------------------------


class TestTerminationPolicy:
    def _run(self, policy, stops, n_iters=20, **kwargs):
        engine = InSituEngine(_TickApp(n_iters), policy=policy, **kwargs)
        analyses = [
            engine.add_analysis(_StubAnalysis(f"a{i}", stop_at=stop))
            for i, stop in enumerate(stops)
        ]
        result = engine.run()
        return engine, analyses, result

    def test_any_stops_at_first(self):
        _, _, result = self._run("any", [5, 9, 3])
        assert result.terminated_early
        assert result.iterations == 3

    def test_all_waits_for_every_analysis(self):
        _, analyses, result = self._run("all", [5, 9, 3])
        assert result.terminated_early
        assert result.iterations == 9
        assert result.stopped_at == {"a0": 5, "a1": 9, "a2": 3}
        # Completed analyses are never dispatched again.
        assert analyses[2].seen == [1, 2, 3]
        assert analyses[0].seen == [1, 2, 3, 4, 5]

    def test_quorum_count(self):
        _, _, result = self._run("quorum", [5, 9, 3], quorum=2)
        assert result.iterations == 5

    def test_quorum_fraction(self):
        _, _, result = self._run("quorum", [5, 9, 3, 7], quorum=0.5)
        assert result.iterations == 5

    def test_no_stop_runs_to_completion(self):
        _, _, result = self._run("all", [None, None], n_iters=6)
        assert not result.terminated_early
        assert result.iterations == 6
        assert result.stopped_at == {}

    def test_invalid_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            AnalysisScheduler(policy="most")

    def test_quorum_validation(self):
        with pytest.raises(ConfigurationError):
            AnalysisScheduler(policy="quorum")
        with pytest.raises(ConfigurationError):
            AnalysisScheduler(policy="quorum", quorum=0)
        with pytest.raises(ConfigurationError):
            AnalysisScheduler(policy="quorum", quorum=1.5)
        with pytest.raises(ConfigurationError):
            AnalysisScheduler(policy="any", quorum=2)

    def test_analyses_property_is_read_only_snapshot(self):
        engine = InSituEngine(_TickApp(4))
        engine.add_analysis(_StubAnalysis("a"))
        with pytest.raises(AttributeError):
            engine.analyses.append(_StubAnalysis("b"))
        assert len(engine.analyses) == 1

    def test_duplicate_analysis_name_rejected(self):
        engine = InSituEngine(_TickApp(4))
        engine.add_analysis(_StubAnalysis("twin"))
        with pytest.raises(ConfigurationError):
            engine.add_analysis(_StubAnalysis("twin"))

    def test_scheduler_with_no_analyses_never_stops(self):
        engine = InSituEngine(_TickApp(4), policy="all")
        result = engine.run()
        assert result.iterations == 4
        assert not result.terminated_early

    def test_max_iterations_cap(self):
        engine = InSituEngine(_TickApp(100))
        result = engine.run(max_iterations=7)
        assert result.iterations == 7
        assert not result.terminated_early

    def test_rerun_after_termination_does_not_step_app(self):
        app = _TickApp(100)
        engine = InSituEngine(app, policy="any")
        engine.add_analysis(_StubAnalysis("a", stop_at=4))
        first = engine.run()
        assert first.terminated_early and app.t == 4
        again = engine.run()
        assert again.terminated_early
        assert again.iterations == 4
        assert app.t == 4


# ----------------------------------------------------------------------
# acceptance: one provider sweep per (location, iteration)
# ----------------------------------------------------------------------


class TestSharedSweepSampling:
    def test_nine_threshold_sweep_samples_once(self, lulesh_total_iterations):
        total = lulesh_total_iterations
        sim = LuleshSimulation(SIZE, maintain_field=False)
        calls = {}

        def counting_provider(domain, loc):
            key = (sim.iteration, loc)
            calls[key] = calls.get(key, 0) + 1
            return domain.xd(loc)

        engine = InSituEngine(sim, policy="all")
        for i, threshold in enumerate(THRESHOLDS):
            engine.add_analysis(
                _break_point_analysis(
                    total, threshold, counting_provider, f"t{i}"
                )
            )
        assert engine.scheduler.shared.n_groups == 1
        assert engine.scheduler.shared.shared_sweeps_saved == len(THRESHOLDS) - 1
        result = engine.run()
        assert result.iterations > 0
        assert calls, "provider was never invoked"
        assert max(calls.values()) == 1
        # Every collected (iteration, location) pair was sampled exactly
        # once: 8 spatial locations per matching iteration.
        iterations_sampled = {it for it, _ in calls}
        assert all(
            sum(1 for k in calls if k[0] == it) == 8
            for it in iterations_sampled
        )


# ----------------------------------------------------------------------
# equivalence: shared sweep == independent runs, bit for bit
# ----------------------------------------------------------------------


class TestSweepEquivalence:
    @pytest.fixture(scope="class")
    def sweep_and_solo(self, lulesh_total_iterations):
        total = lulesh_total_iterations
        thresholds = (0.002, 0.02, 0.2)

        solo = {}
        for threshold in thresholds:
            sim = LuleshSimulation(SIZE, maintain_field=False)
            region = Region("solo", sim.domain)
            analysis = region.add_analysis(
                _break_point_analysis(
                    total, threshold, _provider, f"solo_{threshold:g}"
                )
            )
            run = sim.run(region)
            solo[threshold] = (analysis, run)

        sim = LuleshSimulation(SIZE, maintain_field=False)
        engine = InSituEngine(sim, policy="all")
        shared = {
            threshold: engine.add_analysis(
                _break_point_analysis(
                    total, threshold, _provider, f"shared_{threshold:g}"
                )
            )
            for threshold in thresholds
        }
        fits = []
        original = ARModel.partial_fit

        def counting_partial_fit(model, x, y):
            fits.append(model)
            return original(model, x, y)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ARModel, "partial_fit", counting_partial_fit)
            result = engine.run()
        result.partial_fits = len(fits)
        result.collection = engine.scheduler.shared
        return thresholds, solo, shared, result

    def test_one_trainer_trains_for_the_whole_sweep(self, sweep_and_solo):
        thresholds, _, shared, result = sweep_and_solo
        assert result.collection.n_trainers == 1
        assert result.collection.shared_trainings_saved == len(thresholds) - 1
        # Every update ran once: the run's partial_fit calls are the
        # updates of the analysis that trained longest, not the sum.
        updates = [shared[t].trainer.updates for t in thresholds]
        assert result.partial_fits == max(updates)

    def test_coefficients_bit_identical(self, sweep_and_solo):
        thresholds, solo, shared, _ = sweep_and_solo
        for threshold in thresholds:
            solo_analysis, _ = solo[threshold]
            shared_analysis = shared[threshold]
            np.testing.assert_array_equal(
                solo_analysis.model.coefficients,
                shared_analysis.model.coefficients,
            )
            assert (
                solo_analysis.model.intercept == shared_analysis.model.intercept
            )
            assert (
                solo_analysis.trainer.updates == shared_analysis.trainer.updates
            )
            assert (
                solo_analysis.collector.samples_emitted
                == shared_analysis.collector.samples_emitted
            )

    def test_break_points_identical(self, sweep_and_solo):
        thresholds, solo, shared, _ = sweep_and_solo
        for threshold in thresholds:
            solo_analysis, _ = solo[threshold]
            assert (
                solo_analysis.final_feature().radius
                == shared[threshold].final_feature().radius
            )

    def test_stop_iterations_identical(self, sweep_and_solo):
        thresholds, solo, shared, result = sweep_and_solo
        for threshold in thresholds:
            _, solo_run = solo[threshold]
            name = shared[threshold].name
            assert result.stopped_at[name] == solo_run.iterations


# ----------------------------------------------------------------------
# shared training: one trainer per distinct update stream
# ----------------------------------------------------------------------


def _wave_history(n_iterations=90, n_locations=12):
    """A travelling wave: deterministic, learnable, never constant."""
    t = np.arange(n_iterations, dtype=np.float64)[:, None]
    loc = np.arange(n_locations, dtype=np.float64)[None, :]
    return 2.0 + np.sin(0.21 * t - 0.55 * loc) * np.exp(-0.01 * t)


class _StopAtFit(CurveFitting):
    """Curve fitting that requests termination at a scripted iteration."""

    def __init__(self, stop_at=None, **kwargs):
        super().__init__(
            ReplayApp.provider, (0, 11, 1), (1, 80, 1), **kwargs
        )
        self.stop_at = stop_at

    def on_iteration(self, domain, iteration):
        event = super().on_iteration(domain, iteration)
        if self.stop_at is not None and iteration >= self.stop_at:
            self.wants_stop = True
        return event


def _fit(stop_at=None, **kwargs):
    kwargs.setdefault("order", 3)
    kwargs.setdefault("batch_size", 8)
    kwargs.setdefault("min_updates", 3)
    kwargs.setdefault("name", f"stop_{stop_at}")
    return _StopAtFit(stop_at, **kwargs)


def _assert_same_fit(left, right):
    np.testing.assert_array_equal(
        left.model.coefficients, right.model.coefficients
    )
    assert left.model.intercept == right.model.intercept
    assert left.trainer.updates == right.trainer.updates
    assert left.trainer.losses == right.trainer.losses
    assert (
        left.summary().converged_at_iteration
        == right.summary().converged_at_iteration
    )
    assert left.summary() == right.summary()


class TestSharedTraining:
    STOPS = (20, 37, 62, None)

    def _solo(self, stop_at, **kwargs):
        engine = InSituEngine(ReplayApp(_wave_history()))
        analysis = engine.add_analysis(_fit(stop_at, **kwargs))
        result = engine.run()
        return analysis, result

    def test_staggered_stops_match_solo_runs(self):
        engine = InSituEngine(ReplayApp(_wave_history()), policy="all")
        shared = [engine.add_analysis(_fit(stop)) for stop in self.STOPS]
        assert engine.scheduler.shared.n_trainers == 1
        assert len({id(a.trainer) for a in shared}) == 1
        result = engine.run()
        for stop, analysis in zip(self.STOPS, shared):
            solo, solo_result = self._solo(stop)
            _assert_same_fit(analysis, solo)
            assert result.stopped_at.get(analysis.name) == (
                solo_result.stopped_at.get(solo.name)
            )
        # Copy-on-freeze: each analysis that stopped while others kept
        # training holds a private trainer; the last one keeps the
        # shared trainer.
        assert len({id(a.trainer) for a in shared}) == len(self.STOPS)
        for analysis in shared:
            assert analysis.collector.trainer is analysis.trainer
            assert analysis.trainer.model is analysis.model

    @pytest.mark.parametrize(
        "knob", [{"seed": 1}, {"learning_rate": 0.2}, {"lag": 2}]
    )
    def test_differing_model_keeps_its_own_trainer(self, knob):
        collection = SharedCollector()
        base, other = _fit(name="base"), _fit(name="other", **knob)
        collection.subscribe(base)
        collection.subscribe(other)
        assert collection.n_groups == 1
        assert collection.n_trainers == 2
        assert collection.shared_trainings_saved == 0
        assert base.trainer is not other.trainer

    def test_ringdown_lags_keep_separate_trainers(self):
        from repro.scenarios.ringdown import make_analyses

        collection = SharedCollector()
        analyses = make_analyses()
        for analysis in analyses:
            collection.subscribe(analysis)
        assert collection.n_groups == 1
        assert collection.n_trainers == len(analyses)
        assert len({id(a.model) for a in analyses}) == len(analyses)

    def test_subclassed_model_keeps_its_own_trainer(self):
        class _Model(ARModel):
            pass

        collection = SharedCollector()
        base, custom = _fit(name="base"), _fit(name="custom")
        custom.model.__class__ = _Model
        collection.subscribe(base)
        collection.subscribe(custom)
        assert collection.n_trainers == 2
        assert isinstance(custom.model, _Model)

    def test_late_joiner_gets_a_fresh_trainer(self):
        def run(first_seed):
            engine = InSituEngine(ReplayApp(_wave_history()), policy="all")
            first = engine.add_analysis(_fit(name="first", seed=first_seed))
            engine.run(max_iterations=30)
            assert first.trainer.updates > 0
            late = engine.add_analysis(_fit(name="late"))
            engine.run()
            return engine, first, late

        engine, first, late = run(first_seed=0)
        assert late.trainer is not first.trainer
        assert late.collector.store is first.collector.store
        assert engine.scheduler.shared.n_trainers == 2
        # The late joiner's fit equals one that never could have shared
        # (the first analysis has a different seed there).
        _, _, control = run(first_seed=1)
        _assert_same_fit(late, control)

    def test_every_subscriber_is_charged_the_shared_training(
        self, monkeypatch
    ):
        pause = 0.01
        original = ARModel.partial_fit

        def slow_partial_fit(model, x, y):
            time.sleep(pause)
            return original(model, x, y)

        monkeypatch.setattr(ARModel, "partial_fit", slow_partial_fit)
        engine = InSituEngine(
            ReplayApp(_wave_history(40)), policy="all", record_timings=True
        )
        analyses = [engine.add_analysis(_fit(name=f"a{i}")) for i in range(3)]
        result = engine.run()
        updates = analyses[0].trainer.updates
        assert updates > 0
        assert engine.scheduler.shared.n_trainers == 1
        for analysis in analyses:
            assert result.analysis_seconds[analysis.name] >= updates * pause


# ----------------------------------------------------------------------
# timings
# ----------------------------------------------------------------------


class TestTimings:
    def test_solo_seconds_requires_recording(self):
        engine = InSituEngine(_TickApp(5))
        engine.add_analysis(_StubAnalysis("a", stop_at=3))
        result = engine.run()
        with pytest.raises(ConfigurationError):
            result.seconds_at(2)

    def test_recorded_timings_are_per_iteration_durations(self):
        engine = InSituEngine(_TickApp(10), record_timings=True)
        engine.add_analysis(_StubAnalysis("a", stop_at=None))
        result = engine.run()
        assert result.step_seconds is not None
        assert result.step_seconds.size == 10
        # Regression: step_seconds used to accumulate a running sum, so
        # seconds_at(n) returned the last cumulative entry while the
        # array itself summed to far more.  Entries are now per-iteration
        # durations whose prefix sums back seconds_at.
        assert np.all(result.step_seconds >= 0)
        assert result.seconds_at(10) == pytest.approx(
            float(result.step_seconds.sum())
        )
        assert result.seconds_at(4) == pytest.approx(
            float(result.step_seconds[:4].sum())
        )
        assert result.seconds_at(0) == 0.0
        assert result.solo_seconds("a") >= result.seconds_at(10)

    def test_unknown_analysis_name_rejected(self):
        engine = InSituEngine(_TickApp(3), record_timings=True)
        engine.add_analysis(_StubAnalysis("a"))
        result = engine.run()
        with pytest.raises(ConfigurationError):
            result.solo_seconds("nope")

    def test_timings_accumulate_across_resumed_runs(self):
        engine = InSituEngine(_TickApp(30), record_timings=True)
        engine.add_analysis(_StubAnalysis("a", stop_at=25))
        engine.run(max_iterations=20)
        result = engine.run(max_iterations=100)
        # stopped_at is an absolute iteration; step_seconds must index
        # absolute iterations too, covering both run() calls.
        assert result.stopped_at == {"a": 25}
        assert result.step_seconds.size == 25
        assert result.seconds_at(25) == pytest.approx(
            float(result.step_seconds.sum())
        )


class TestDoubleObserve:
    def test_duplicate_iteration_still_raises(self):
        from repro.errors import CollectionError

        analysis = CurveFitting(
            ReplayApp.provider, (0, 5, 1), (1, 40, 1),
            order=2, lag=1, batch_size=4,
        )
        app = ReplayApp(np.ones((4, 6)))
        app.step()
        analysis.on_iteration(app.domain, 1)
        emitted = analysis.collector.samples_emitted
        with pytest.raises(CollectionError):
            analysis.on_iteration(app.domain, 1)
        assert analysis.collector.samples_emitted == emitted
