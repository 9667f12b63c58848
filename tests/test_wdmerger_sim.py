"""Tests for the wdmerger simulation driver, diagnostics and in-situ analysis."""

import numpy as np
import pytest

from repro.core.params import IterParam
from repro.core.region import Region
from repro.errors import CollectionError, ConfigurationError
from repro.wdmerger import (
    DIAGNOSTIC_NAMES,
    DiagnosticHistory,
    DiagnosticSample,
    PHASE_DETONATED,
    WdMergerSimulation,
    delay_time_from_series,
    diagnostic_provider,
)
from repro.wdmerger.insitu import DetonationAnalysis


@pytest.fixture(scope="module")
def fast_run():
    """One shared analytic-mode run (no grid) for cheap assertions."""
    sim = WdMergerSimulation(16, maintain_grid=False)
    sim.run()
    return sim


@pytest.fixture(scope="module")
def grid_run():
    """One shared low-resolution grid run."""
    sim = WdMergerSimulation(12)
    sim.run()
    return sim


class TestDiagnosticHistory:
    def test_samples_must_advance_in_time(self):
        history = DiagnosticHistory()
        history.append(DiagnosticSample(1.0, 1, 2, 3, 4))
        with pytest.raises(CollectionError):
            history.append(DiagnosticSample(1.0, 1, 2, 3, 4))

    def test_series_and_names(self):
        history = DiagnosticHistory()
        history.append(DiagnosticSample(1.0, 10, 20, 30, 40))
        history.append(DiagnosticSample(2.0, 11, 21, 31, 41))
        np.testing.assert_array_equal(history.series("mass"), [30, 31])
        assert set(history.all_series()) == set(DIAGNOSTIC_NAMES)

    def test_unknown_series_rejected(self):
        with pytest.raises(ConfigurationError):
            DiagnosticHistory().series("entropy")

    def test_normalized_zero_mean(self):
        history = DiagnosticHistory()
        for t, v in enumerate((1.0, 2.0, 3.0)):
            history.append(DiagnosticSample(float(t), v, v, v, v))
        normal = history.normalized("temperature")
        assert np.mean(normal) == pytest.approx(0.0, abs=1e-12)
        assert np.std(normal) == pytest.approx(1.0, rel=1e-6)

    def test_provider_reads_simulation_attribute(self, fast_run):
        provider = diagnostic_provider("mass")
        assert provider(fast_run, 0) == fast_run.mass

    def test_provider_unknown_name(self):
        with pytest.raises(ConfigurationError):
            diagnostic_provider("entropy")


class TestSimulationPhysics:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WdMergerSimulation(16, end_time=0)
        with pytest.raises(ConfigurationError):
            WdMergerSimulation(16, ejecta_fraction=1.5)
        with pytest.raises(ConfigurationError):
            WdMergerSimulation(16, disruption_duration=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"resolution": 0},
            {"resolution": -8},
            {"resolution": 16.5},
            {"resolution": True},
            {"base_dt": float("nan")},
            {"base_dt": float("inf")},
            {"base_dt": 0.0},
        ],
    )
    def test_rejects_bad_resolution_and_timestep(self, kwargs):
        args = {"resolution": 16, "maintain_grid": False, **kwargs}
        with pytest.raises(ConfigurationError):
            WdMergerSimulation(**args)

    def test_accepts_numpy_integer_resolution(self):
        sim = WdMergerSimulation(np.int64(16), maintain_grid=False)
        assert sim.resolution == 16 and type(sim.resolution) is int
        assert sim.dt == WdMergerSimulation(16, maintain_grid=False).dt

    def test_event_ordering(self, fast_run):
        events = fast_run.events
        assert events.rlof_time is not None
        assert events.merger_time is not None
        assert events.detonation_time is not None
        assert events.rlof_time < events.merger_time < events.detonation_time

    def test_detonation_in_expected_band(self, fast_run):
        # The calibration places the delay time in the paper's ~30 range.
        assert 20 <= fast_run.events.detonation_time <= 45

    def test_ends_detonated(self, fast_run):
        assert fast_run.phase == PHASE_DETONATED

    def test_timestep_scales_inverse_resolution(self):
        assert WdMergerSimulation(16, maintain_grid=False).dt == pytest.approx(
            2.0 * WdMergerSimulation(32, maintain_grid=False).dt
        )

    def test_history_length_matches_iterations(self, fast_run):
        assert len(fast_run.history) == fast_run.iteration

    def test_mass_conserved_before_merger(self, grid_run):
        times = grid_run.history.times
        mass = grid_run.history.series("mass")
        pre = mass[times < grid_run.events.merger_time]
        assert np.ptp(pre) < 0.05 * pre[0]

    def test_mass_declines_after_detonation(self, grid_run):
        times = grid_run.history.times
        mass = grid_run.history.series("mass")
        det = grid_run.events.detonation_time
        late = mass[times > det + 20]
        early = mass[(times > det) & (times < det + 5)]
        assert late[-1] < early[0]

    def test_angular_momentum_decreases_overall(self, grid_run):
        j = grid_run.history.series("angular_momentum")
        assert j[-1] < j[0]

    def test_temperature_rises_through_merger(self, grid_run):
        t = grid_run.history.series("temperature")
        assert t[-1] > 5 * t[0]

    def test_energy_increases_through_detonation(self, grid_run):
        times = grid_run.history.times
        energy = grid_run.history.series("energy")
        det = grid_run.events.detonation_time
        post = energy[times > det][0]
        pre = energy[times < grid_run.events.merger_time][-1]
        assert post > pre

    def test_grid_and_analytic_modes_agree_on_events(self, fast_run, grid_run):
        # Events come from the same ODE core; diagnostics mode must not
        # shift them by more than a few timesteps.
        assert fast_run.events.merger_time == pytest.approx(
            grid_run.events.merger_time, abs=6.0
        )

    def test_region_instrumentation_runs(self):
        sim = WdMergerSimulation(8, maintain_grid=False, end_time=20.0)
        region = Region("wd", sim)
        sim.run(region)
        assert region.iteration == sim.iteration


class TestDelayTime:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            delay_time_from_series([1, 2], [1, 2])
        with pytest.raises(ConfigurationError):
            delay_time_from_series([3, 2, 1, 0, -1, -2], np.zeros(6))

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            delay_time_from_series([1, 2, 3], [1, 2])

    def test_recovers_known_break(self):
        times = np.arange(0.0, 100.0)
        series = np.concatenate([np.zeros(40), np.arange(0, 30, 3), np.full(50, 30.0)])
        delay = delay_time_from_series(times, series[:100])
        assert 38 <= delay <= 52

    def test_near_detonation_on_simulation(self, grid_run):
        delay = delay_time_from_series(
            grid_run.history.times, grid_run.history.series("temperature")
        )
        assert delay == pytest.approx(grid_run.events.detonation_time, abs=8.0)


class TestDetonationAnalysis:
    def test_confirm_samples_validation(self):
        with pytest.raises(ConfigurationError):
            DetonationAnalysis(
                IterParam(0, 0, 1), IterParam(1, 10, 1),
                variable="temperature", confirm_samples=0,
            )

    def test_detects_and_terminates(self):
        sim = WdMergerSimulation(16, maintain_grid=False)
        total = int(sim.end_time / sim.dt)
        region = Region("wd", sim)
        analysis = DetonationAnalysis(
            IterParam(0, 0, 1),
            IterParam(1, total, 1),
            variable="temperature",
            dt=sim.dt,
            order=3,
            batch_size=4,
            learning_rate=0.03,
            min_updates=3,
            monitor_window=3,
            monitor_patience=1,
            terminate_when_trained=True,
        )
        region.add_analysis(analysis)
        sim.run(region)
        assert analysis.delay_feature is not None
        assert sim.time < sim.end_time  # early termination happened
        assert analysis.delay_feature.delay_time == pytest.approx(
            sim.events.detonation_time, abs=10.0
        )

    def test_non_stop_mode_runs_to_end(self):
        sim = WdMergerSimulation(16, maintain_grid=False)
        total = int(sim.end_time / sim.dt)
        region = Region("wd", sim)
        analysis = DetonationAnalysis(
            IterParam(0, 0, 1), IterParam(1, total, 1),
            variable="mass", dt=sim.dt, order=3, batch_size=4,
            terminate_when_trained=False,
        )
        region.add_analysis(analysis)
        sim.run(region)
        assert sim.time >= sim.end_time
