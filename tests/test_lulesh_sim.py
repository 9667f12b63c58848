"""Tests for the LULESH domain view, simulation driver and in-situ analysis."""

import numpy as np
import pytest

from repro.core.params import IterParam
from repro.core.region import Region
from repro.errors import ConfigurationError
from repro.lulesh import LuleshDomain, LuleshSimulation, RadialMesh
from repro.lulesh.insitu import BreakPointAnalysis


class TestDomain:
    def test_size_must_match_mesh(self):
        with pytest.raises(ConfigurationError):
            LuleshDomain(RadialMesh(10), 20)

    def test_xd_bounds_checked(self):
        domain = LuleshDomain(RadialMesh(10), 10)
        with pytest.raises(ConfigurationError):
            domain.xd(11)
        with pytest.raises(ConfigurationError):
            domain.xd(-1)

    def test_xd_reads_node_velocity(self):
        mesh = RadialMesh(10)
        mesh.u[4] = 2.5
        domain = LuleshDomain(mesh, 10)
        assert domain.xd(4) == 2.5

    def test_update_field_idempotent_per_cycle(self):
        mesh = RadialMesh(8)
        mesh.u[:] = 1.0
        domain = LuleshDomain(mesh, 8)
        domain.update_field(1)
        first = domain.velocity.copy()
        mesh.u[:] = 5.0
        domain.update_field(1)  # same cycle: no refresh
        np.testing.assert_array_equal(domain.velocity, first)
        domain.update_field(2)
        assert domain.velocity.max() > first.max()

    def test_velocity_cube_shape(self):
        domain = LuleshDomain(RadialMesh(6), 6)
        domain.update_field(1)
        assert domain.velocity_cube().shape == (6, 6, 6)

    def test_field_matches_radial_profile_by_symmetry(self):
        mesh = RadialMesh(10)
        mesh.u[:] = np.linspace(0, 1, 11)
        domain = LuleshDomain(mesh, 10)
        domain.update_field(1)
        cube = domain.velocity_cube()
        # The element nearest the origin has the smallest radius and
        # should carry the smallest speed of the on-axis run.
        assert cube[0, 0, 0] <= cube[5, 0, 0]

    def test_maintain_field_off_skips_work(self):
        domain = LuleshDomain(RadialMesh(8), 8, maintain_field=False)
        domain.update_field(1)
        assert domain.velocity.max() == 0.0


class TestSimulation:
    def test_stop_time_validation(self):
        with pytest.raises(ConfigurationError):
            LuleshSimulation(10, stop_time=0.0)

    def test_runs_to_stop_time(self):
        sim = LuleshSimulation(10, maintain_field=False, stop_time=0.1)
        result = sim.run()
        assert result.time >= 0.1
        assert result.iterations > 10
        assert not result.terminated_early

    def test_iterations_grow_with_size(self):
        runs = {}
        for size in (10, 20):
            sim = LuleshSimulation(size, maintain_field=False, stop_time=0.2)
            runs[size] = sim.run().iterations
        assert runs[20] > runs[10]

    def test_recorded_history_shape(self):
        sim = LuleshSimulation(
            10, maintain_field=False, stop_time=0.1,
            record_locations=[1, 2, 3],
        )
        result = sim.run()
        assert result.velocity_history.shape == (result.iterations, 3)
        np.testing.assert_array_equal(result.history_locations, [1, 2, 3])

    def test_blast_velocity_is_running_peak(self):
        sim = LuleshSimulation(10, maintain_field=False, stop_time=0.2)
        sim.run()
        assert sim.blast_velocity >= float(np.max(np.abs(sim.hydro.mesh.u)))
        assert sim.blast_velocity > 0

    def test_step_publishes_peak_speed_on_domain(self):
        sim = LuleshSimulation(10, maintain_field=False, stop_time=0.2)
        assert sim.domain.peak_speed == 0.0
        running = 0.0
        for _ in range(20):
            sim.step()
            peak = float(np.max(np.abs(sim.hydro.mesh.u)))
            assert sim.domain.peak_speed == peak
            running = max(running, peak)
            assert sim.blast_velocity == running

    def test_peak_profile_requires_recording(self):
        sim = LuleshSimulation(10, maintain_field=False, stop_time=0.05)
        sim.run()
        with pytest.raises(ConfigurationError):
            sim.peak_velocity_profile()

    def test_peak_velocity_attenuates_with_radius(self):
        sim = LuleshSimulation(
            20, maintain_field=False,
            record_locations=list(range(21)),
        )
        sim.run()
        peaks = sim.peak_velocity_profile()
        # Beyond the first node the peak decays outward (Fig. 5).
        assert peaks[1] > peaks[5] > peaks[9]

    def test_max_iterations_cap(self):
        sim = LuleshSimulation(10, maintain_field=False)
        result = sim.run(max_iterations=25)
        assert result.iterations == 25


class TestBreakPointAnalysis:
    def _run(self, threshold, terminate=True, size=20):
        sim = LuleshSimulation(size, maintain_field=False)
        probe = LuleshSimulation(size, maintain_field=False)
        total = probe.run().iterations
        region = Region("lulesh", sim.domain)
        analysis = BreakPointAnalysis(
            lambda d, loc: d.xd(loc),
            IterParam(1, 8, 1),
            IterParam(30, int(0.4 * total), 1),
            threshold=threshold,
            max_location=size,
            lag=10,
            order=3,
            terminate_when_trained=terminate,
        )
        region.add_analysis(analysis)
        result = sim.run(region)
        return analysis, result, total

    def test_check_every_validation(self):
        with pytest.raises(ConfigurationError):
            BreakPointAnalysis(
                lambda d, loc: 0.0,
                IterParam(1, 8, 1),
                IterParam(1, 100, 1),
                threshold=0.1,
                max_location=20,
                check_every=0,
            )

    def test_explicit_zero_reference_rejected(self):
        # ``None`` tracks the blast; an explicit 0.0 used to be turned
        # into 1.0 silently.
        with pytest.raises(ConfigurationError, match="reference_value"):
            BreakPointAnalysis(
                lambda d, loc: 0.0,
                IterParam(1, 8, 1),
                IterParam(1, 100, 1),
                threshold=0.1,
                reference_value=0.0,
                max_location=20,
            )

    def test_terminates_no_later_than_window_end(self):
        analysis, result, total = self._run(0.05)
        assert result.terminated_early
        assert result.iterations <= int(0.4 * total) + 1

    def test_final_feature_radius_in_domain(self):
        analysis, result, _ = self._run(0.1)
        feature = analysis.final_feature()
        assert 1 <= feature.radius <= 20
        assert feature.threshold == 0.1

    def test_high_threshold_radius_smaller_than_low(self):
        high, _, _ = self._run(0.2)
        low, _, _ = self._run(0.005)
        assert high.final_feature().radius <= low.final_feature().radius

    def test_without_termination_runs_full(self):
        analysis, result, total = self._run(0.05, terminate=False)
        assert not result.terminated_early
        assert result.iterations == total
