"""Tests for wdmerger physics components: WD structure, binary, GW,
mass transfer, burning, diagnostic grid."""

import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.wdmerger import (
    DIAGNOSTIC_NAMES,
    Binary,
    BurningModel,
    DiagnosticGrid,
    M_CHANDRASEKHAR,
    Q_CRITICAL,
    T_IGNITION,
    WhiteDwarf,
    angular_momentum_loss_rate,
    apply_transfer,
    is_unstable,
    merge_timescale,
    roche_lobe_radius,
    separation_decay_rate,
    transfer_rate,
    wd_radius,
)


class TestWdStructure:
    def test_mass_validation(self):
        with pytest.raises(ConfigurationError):
            wd_radius(0.0)
        with pytest.raises(ConfigurationError):
            wd_radius(M_CHANDRASEKHAR)

    @given(st.floats(0.2, 1.3), st.floats(0.2, 1.3))
    @settings(max_examples=50)
    def test_radius_decreases_with_mass(self, m1, m2):
        lo, hi = sorted((m1, m2))
        if hi - lo > 1e-6:
            assert wd_radius(hi) < wd_radius(lo)

    def test_radius_vanishes_toward_chandrasekhar(self):
        assert wd_radius(1.43) < 0.2 * wd_radius(0.6)

    def test_accrete_clamps_below_limit(self):
        wd = WhiteDwarf(1.3)
        wd.accrete(1.0)
        assert wd.mass < M_CHANDRASEKHAR

    def test_accrete_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            WhiteDwarf(0.6).accrete(-0.1)

    def test_mean_density_rises_with_mass(self):
        assert WhiteDwarf(1.2).mean_density > WhiteDwarf(0.4).mean_density


class TestBinary:
    def _binary(self, m1=0.9, m2=0.6, a=2.5):
        return Binary(WhiteDwarf(m1), WhiteDwarf(m2), a)

    def test_primary_must_dominate(self):
        with pytest.raises(ConfigurationError):
            Binary(WhiteDwarf(0.5), WhiteDwarf(0.9), 2.0)

    def test_kepler_relation(self):
        binary = self._binary()
        omega = binary.angular_velocity
        assert omega**2 * binary.separation**3 == pytest.approx(
            binary.total_mass
        )

    def test_roche_lobe_eggleton_limits(self):
        # Equal masses: r_L/a ~ 0.38.
        assert roche_lobe_radius(1.0, 0.7, 0.7) == pytest.approx(0.38, abs=0.01)

    def test_roche_validation(self):
        with pytest.raises(ConfigurationError):
            roche_lobe_radius(0.0, 0.5, 0.5)
        with pytest.raises(ConfigurationError):
            roche_lobe_radius(1.0, -0.5, 0.5)

    def test_overflow_sign_flips_as_separation_shrinks(self):
        wide = self._binary(a=5.0)
        tight = self._binary(a=1.8)
        assert wide.roche_overflow() < 0
        assert tight.roche_overflow() > 0

    def test_angular_momentum_positive_and_growing_with_a(self):
        assert self._binary(a=3.0).orbital_angular_momentum > self._binary(
            a=2.0
        ).orbital_angular_momentum > 0

    def test_orbital_energy_negative(self):
        assert self._binary().orbital_energy < 0

    def test_positions_respect_centre_of_mass(self):
        binary = self._binary()
        p1, p2 = binary.positions()
        com = binary.primary.mass * p1 + binary.secondary.mass * p2
        np.testing.assert_allclose(com, 0.0, atol=1e-12)

    def test_velocities_orthogonal_to_radius(self):
        binary = self._binary()
        binary.phase = 0.7
        p1, _ = binary.positions()
        v1, _ = binary.velocities()
        assert abs(np.dot(p1, v1)) < 1e-12

    def test_advance_phase_wraps(self):
        binary = self._binary()
        binary.advance_phase(1e6)
        assert 0 <= binary.phase < 2 * np.pi


class TestGravWave:
    def test_decay_rate_negative(self):
        assert separation_decay_rate(2.0, 0.9, 0.6) < 0

    def test_rate_steepens_at_small_separation(self):
        assert abs(separation_decay_rate(1.0, 0.9, 0.6)) > abs(
            separation_decay_rate(2.0, 0.9, 0.6)
        )

    def test_merge_timescale_quartic(self):
        t1 = merge_timescale(1.0, 0.9, 0.6)
        t2 = merge_timescale(2.0, 0.9, 0.6)
        assert t2 / t1 == pytest.approx(16.0, rel=1e-9)

    def test_j_loss_consistent_with_decay(self):
        # dJ/dt = J/(2a) da/dt for circular orbits.
        j_rate = angular_momentum_loss_rate(2.0, 0.9, 0.6)
        assert j_rate < 0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            separation_decay_rate(0.0, 0.9, 0.6)
        with pytest.raises(ConfigurationError):
            merge_timescale(-1.0, 0.9, 0.6)


class TestMassTransfer:
    def test_detached_binary_transfers_nothing(self):
        binary = Binary(WhiteDwarf(0.9), WhiteDwarf(0.6), 5.0)
        assert transfer_rate(binary) == 0.0

    def test_overflowing_binary_transfers(self):
        binary = Binary(WhiteDwarf(0.9), WhiteDwarf(0.6), 1.8)
        assert transfer_rate(binary) > 0.0

    def test_rate_grows_with_overflow_depth(self):
        shallow = Binary(WhiteDwarf(0.9), WhiteDwarf(0.6), 2.4)
        deep = Binary(WhiteDwarf(0.9), WhiteDwarf(0.6), 1.8)
        assert transfer_rate(deep) > transfer_rate(shallow)

    def test_instability_criterion(self):
        assert is_unstable(Binary(WhiteDwarf(0.9), WhiteDwarf(0.6), 2.0))
        assert not is_unstable(Binary(WhiteDwarf(1.0), WhiteDwarf(0.3), 2.0))
        assert Q_CRITICAL < 1.0

    def test_transfer_conserves_total_mass(self):
        binary = Binary(WhiteDwarf(0.9), WhiteDwarf(0.6), 2.0)
        total = binary.total_mass
        moved = apply_transfer(binary, 0.1)
        assert moved == pytest.approx(0.1)
        assert binary.total_mass == pytest.approx(total)

    def test_donor_floor_respected(self):
        binary = Binary(WhiteDwarf(0.9), WhiteDwarf(0.06), 2.0)
        apply_transfer(binary, 1.0)
        assert binary.secondary.mass >= 0.05 - 1e-9

    def test_negative_dm_rejected(self):
        binary = Binary(WhiteDwarf(0.9), WhiteDwarf(0.6), 2.0)
        with pytest.raises(ConfigurationError):
            apply_transfer(binary, -0.1)


class TestBurning:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BurningModel(accretion_efficiency=-1)
        with pytest.raises(ConfigurationError):
            BurningModel(ignition_temperature=0)

    def test_no_burning_when_cold(self):
        model = BurningModel()
        state = model.rates(
            0.1, accretion_luminosity=0.0, cold_temperature=0.05
        )
        assert state.burning == 0.0

    def test_burning_steepens_with_temperature(self):
        model = BurningModel()
        low = model.rates(0.8, accretion_luminosity=0, cold_temperature=0.05)
        high = model.rates(1.05, accretion_luminosity=0, cold_temperature=0.05)
        assert high.burning > 3 * low.burning

    def test_advance_heats_under_luminosity(self):
        model = BurningModel()
        after = model.advance(
            0.1, 1.0, accretion_luminosity=1.0, cold_temperature=0.05
        )
        assert after > 0.1

    def test_advance_respects_ceiling(self):
        model = BurningModel()
        t = 2.4 * T_IGNITION
        after = model.advance(
            t, 100.0, accretion_luminosity=10.0, cold_temperature=0.05
        )
        assert after <= 2.5 * T_IGNITION

    def test_burning_can_be_disabled(self):
        model = BurningModel()
        hot = 1.05
        with_burn = model.advance(
            hot, 1.0, accretion_luminosity=0.0, cold_temperature=0.05
        )
        without = model.advance(
            hot, 1.0, accretion_luminosity=0.0, cold_temperature=0.05,
            burning_active=False,
        )
        assert with_burn > without

    def test_detonated_threshold(self):
        model = BurningModel()
        assert model.detonated(T_IGNITION)
        assert not model.detonated(0.9 * T_IGNITION)

    def test_cooling_relaxes_to_cold(self):
        model = BurningModel(cooling_rate=0.5, burning_prefactor=0.0)
        after = model.advance(
            0.5, 1.0, accretion_luminosity=0.0, cold_temperature=0.05
        )
        assert after < 0.5


class TestDiagnosticGrid:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DiagnosticGrid(2)
        with pytest.raises(ConfigurationError):
            DiagnosticGrid(16, half_width=0)

    @pytest.mark.parametrize("resolution", [16.5, 16.0, True, "16", None])
    def test_rejects_non_integer_resolution(self, resolution):
        with pytest.raises(ConfigurationError):
            DiagnosticGrid(resolution)

    @pytest.mark.parametrize("half_width", [float("nan"), float("inf")])
    def test_rejects_non_finite_half_width(self, half_width):
        with pytest.raises(ConfigurationError):
            DiagnosticGrid(16, half_width=half_width)

    @pytest.mark.parametrize("resolution", [np.int64(16), np.int32(16)])
    def test_accepts_numpy_integer_resolution(self, resolution):
        grid = DiagnosticGrid(resolution)
        assert grid.resolution == 16 and type(grid.resolution) is int
        assert grid.solve_gravity().shape == (16, 16, 16)

    def test_solve_gravity_returns_an_unaliased_array(self):
        grid = DiagnosticGrid(16, half_width=3.5)
        _orbiting_pair(grid)
        phi = grid.solve_gravity()
        snapshot = phi.copy()
        grid.gravitational_energy()
        grid.clear()
        _shell(grid)
        grid.kinetic_energy()
        assert np.array_equal(phi, snapshot)
        assert not np.array_equal(grid.solve_gravity(), snapshot)
        assert grid.solve_gravity() is not grid.solve_gravity()

    def test_warm_step_allocates_no_full_grid_array(self):
        """A step (clear, deposits, four integrals) runs in owned buffers."""
        resolution = 64
        grid = DiagnosticGrid(resolution, half_width=3.5)

        def step():
            grid.clear()
            grid.deposit_blob(
                np.array([1.0, 0.2, 0.0]), 0.9, 0.55, np.array([-0.1, 0.4, 0.0])
            )
            grid.deposit_blob(
                np.array([-1.3, -0.4, 0.0]), 0.6, 0.8,
                np.array([0.2, -0.6, 0.0]), spin=0.7,
            )
            grid.deposit_shell(np.zeros(3), 0.3, 1.9, 0.6, 0.15)
            grid.total_mass()
            grid.angular_momentum_z()
            grid.kinetic_energy()
            grid.gravitational_energy()

        step()
        tracemalloc.start()
        try:
            step()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < resolution**3 * 8 / 4

    def test_blob_mass_conserved_on_grid(self):
        grid = DiagnosticGrid(24, half_width=3.0)
        grid.deposit_blob(np.zeros(3), 1.5, 0.8, np.zeros(3))
        assert grid.total_mass() == pytest.approx(1.5, rel=1e-6)

    def test_offgrid_blob_loses_mass(self):
        grid = DiagnosticGrid(16, half_width=2.0)
        grid.deposit_blob(np.array([1.9, 0, 0]), 1.0, 0.8, np.zeros(3))
        # Normalised against the on-grid sum, so the deposit itself is
        # conserved; a blob centred off the grid entirely is dropped.
        grid.clear()
        grid.deposit_blob(np.array([50.0, 0, 0]), 1.0, 0.3, np.zeros(3))
        assert grid.total_mass() == 0.0

    def test_bulk_velocity_gives_linear_momentum_energy(self):
        grid = DiagnosticGrid(24, half_width=3.0)
        grid.deposit_blob(np.zeros(3), 2.0, 0.8, np.array([0.5, 0, 0]))
        assert grid.kinetic_energy() == pytest.approx(
            0.5 * 2.0 * 0.25, rel=0.05
        )

    def test_spinning_blob_carries_angular_momentum(self):
        grid = DiagnosticGrid(32, half_width=3.0)
        mass, radius, spin = 1.2, 0.9, 1.1
        grid.deposit_blob(np.zeros(3), mass, radius, np.zeros(3), spin=spin)
        # Gaussian blob planar inertia: M * 2 sigma^2 with sigma = R/2.
        expected = spin * mass * 2 * (0.5 * radius) ** 2
        assert grid.angular_momentum_z() == pytest.approx(expected, rel=0.1)

    def test_orbiting_pair_angular_momentum_sign(self):
        grid = DiagnosticGrid(32, half_width=3.0)
        grid.deposit_blob(
            np.array([1.0, 0, 0]), 1.0, 0.5, np.array([0, 0.4, 0])
        )
        grid.deposit_blob(
            np.array([-1.0, 0, 0]), 1.0, 0.5, np.array([0, -0.4, 0])
        )
        assert grid.angular_momentum_z() > 0

    def test_shell_mass_leaks_off_grid_as_it_expands(self):
        grid = DiagnosticGrid(24, half_width=3.0)
        grid.deposit_shell(np.zeros(3), 1.0, 1.0, 0.4, 0.1)
        inner = grid.total_mass()
        grid.clear()
        grid.deposit_shell(np.zeros(3), 1.0, 3.4, 0.4, 0.1)
        outer = grid.total_mass()
        assert inner > 0.9
        assert outer < 0.6 * inner

    def test_shell_validation(self):
        grid = DiagnosticGrid(16)
        with pytest.raises(ConfigurationError):
            grid.deposit_shell(np.zeros(3), -1.0, 1.0, 0.4, 0.1)
        with pytest.raises(ConfigurationError):
            grid.deposit_shell(np.zeros(3), 1.0, 1.0, 0.0, 0.1)

    def test_gravity_potential_negative_well(self):
        grid = DiagnosticGrid(24, half_width=3.0)
        grid.deposit_blob(np.zeros(3), 1.0, 0.6, np.zeros(3))
        energy = grid.gravitational_energy()
        assert energy < 0.0

    def test_mass_within_radius(self):
        grid = DiagnosticGrid(24, half_width=3.0)
        grid.deposit_blob(np.zeros(3), 1.0, 0.4, np.zeros(3))
        assert grid.mass_within(2.0) == pytest.approx(1.0, rel=0.05)
        assert grid.mass_within(0.2) < 1.0
        with pytest.raises(ConfigurationError):
            grid.mass_within(-1.0)

    def test_clear_zeroes_fields(self):
        grid = DiagnosticGrid(16)
        grid.deposit_blob(np.zeros(3), 1.0, 0.5, np.array([1.0, 0, 0]))
        grid.clear()
        assert grid.total_mass() == 0.0
        assert grid.kinetic_energy() == 0.0

    def test_zero_mass_still_validates_geometry(self):
        grid = DiagnosticGrid(16)
        with pytest.raises(ConfigurationError):
            grid.deposit_blob(np.zeros(3), 0.0, 0.0, np.zeros(3))
        with pytest.raises(ConfigurationError):
            grid.deposit_blob(np.zeros(3), 0.0, float("nan"), np.zeros(3))
        with pytest.raises(ConfigurationError):
            grid.deposit_shell(np.zeros(3), 0.0, -1.0, 0.4, 0.1)
        with pytest.raises(ConfigurationError):
            grid.deposit_shell(np.zeros(3), 0.0, 1.0, 0.0, 0.1)
        with pytest.raises(ConfigurationError):
            grid.deposit_shell(np.zeros(3), 0.0, 1.0, float("inf"), 0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mass": float("nan")},
            {"mass": float("inf")},
            {"center": np.array([0.0, float("nan"), 0.0])},
            {"velocity": np.array([float("inf"), 0.0, 0.0])},
            {"spin": float("nan")},
        ],
    )
    def test_blob_rejects_non_finite_inputs(self, kwargs):
        grid = DiagnosticGrid(16)
        args = {
            "center": np.zeros(3),
            "mass": 1.0,
            "radius": 0.5,
            "velocity": np.zeros(3),
            **kwargs,
        }
        with pytest.raises(ConfigurationError):
            grid.deposit_blob(**args)
        assert grid.total_mass() == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mass": float("nan")},
            {"center": np.array([float("inf"), 0.0, 0.0])},
            {"expansion_speed": float("nan")},
        ],
    )
    def test_shell_rejects_non_finite_inputs(self, kwargs):
        grid = DiagnosticGrid(16)
        args = {
            "center": np.zeros(3),
            "mass": 1.0,
            "radius": 1.0,
            "width": 0.4,
            "expansion_speed": 0.1,
            **kwargs,
        }
        with pytest.raises(ConfigurationError):
            grid.deposit_shell(**args)
        assert grid.total_mass() == 0.0


class _ReferenceGrid:
    """The diagnostic grid's formulas over full ``meshgrid`` coordinates.

    A plain elementwise statement of every deposit and integral, with
    no broadcasting or buffer reuse; :class:`DiagnosticGrid` must
    reproduce it bit for bit.
    """

    def __init__(self, resolution, half_width):
        self.resolution = resolution
        self.dx = 2.0 * half_width / resolution
        self.cell_volume = self.dx**3
        centers = (np.arange(resolution) + 0.5) * self.dx - half_width
        self.x, self.y, self.z = np.meshgrid(
            centers, centers, centers, indexing="ij"
        )
        shape = (resolution,) * 3
        self.density = np.zeros(shape)
        self.momentum_x = np.zeros(shape)
        self.momentum_y = np.zeros(shape)
        self.momentum_z = np.zeros(shape)

    def deposit_blob(self, center, mass, radius, velocity, *, spin=0.0):
        cx, cy, cz = (float(c) for c in center)
        r2 = (self.x - cx) ** 2 + (self.y - cy) ** 2 + (self.z - cz) ** 2
        width2 = (0.5 * radius) ** 2
        profile = np.exp(-0.5 * r2 / width2)
        norm = profile.sum() * self.cell_volume
        if norm <= 0.0:
            return
        rho = profile * (mass / norm)
        self.density += rho
        vx, vy, vz = (float(v) for v in velocity)
        if spin != 0.0:
            self.momentum_x += rho * (vx - spin * (self.y - cy))
            self.momentum_y += rho * (vy + spin * (self.x - cx))
        else:
            self.momentum_x += rho * vx
            self.momentum_y += rho * vy
        self.momentum_z += rho * vz

    def deposit_shell(self, center, mass, radius, width, expansion_speed):
        cx, cy, cz = (float(c) for c in center)
        dxp = self.x - cx
        dyp = self.y - cy
        dzp = self.z - cz
        r = np.sqrt(dxp**2 + dyp**2 + dzp**2)
        profile = np.exp(-0.5 * ((r - radius) / width) ** 2)
        r_samples = np.linspace(
            max(1e-6, radius - 6 * width), radius + 6 * width, 512
        )
        shell_profile = np.exp(-0.5 * ((r_samples - radius) / width) ** 2)
        analytic_norm = 4.0 * np.pi * np.trapezoid(
            shell_profile * r_samples**2, r_samples
        )
        rho = profile * (mass / analytic_norm)
        self.density += rho
        with np.errstate(invalid="ignore", divide="ignore"):
            inv_r = np.where(r > 1e-9, 1.0 / r, 0.0)
        self.momentum_x += rho * expansion_speed * dxp * inv_r
        self.momentum_y += rho * expansion_speed * dyp * inv_r
        self.momentum_z += rho * expansion_speed * dzp * inv_r

    def total_mass(self):
        return float(self.density.sum() * self.cell_volume)

    def angular_momentum_z(self):
        lz = self.x * self.momentum_y - self.y * self.momentum_x
        return float(lz.sum() * self.cell_volume)

    def kinetic_energy(self):
        p2 = self.momentum_x**2 + self.momentum_y**2 + self.momentum_z**2
        ke = np.zeros_like(p2)
        significant = self.density > 1e-12
        np.divide(p2, self.density, out=ke, where=significant)
        return float(0.5 * ke.sum() * self.cell_volume)

    def mass_within(self, radius):
        inside = (self.x**2 + self.y**2 + self.z**2) <= radius**2
        return float(self.density[inside].sum() * self.cell_volume)

    def gravitational_energy(self):
        phi = self.potential()
        return float(0.5 * (self.density * phi).sum() * self.cell_volume)

    def potential(self):
        rho_hat = np.fft.rfftn(self.density)
        n = self.resolution
        k1 = 2.0 * np.pi * np.fft.fftfreq(n, d=self.dx)
        k3 = 2.0 * np.pi * np.fft.rfftfreq(n, d=self.dx)
        kx, ky, kz = np.meshgrid(k1, k1, k3, indexing="ij")
        k2 = kx**2 + ky**2 + kz**2
        k2[0, 0, 0] = 1.0
        phi_hat = -4.0 * np.pi * rho_hat / k2
        phi_hat[0, 0, 0] = 0.0
        return np.fft.irfftn(phi_hat, s=(n, n, n), axes=(0, 1, 2))


def _orbiting_pair(grid):
    grid.deposit_blob(
        np.array([1.05, 0.3, 0.0]), 0.9, 0.55, np.array([-0.12, 0.41, 0.0])
    )
    grid.deposit_blob(
        np.array([-1.4, -0.45, 0.0]), 0.6, 0.8, np.array([0.17, -0.6, 0.0])
    )


def _spinning_blob(grid):
    grid.deposit_blob(
        np.array([0.1, -0.2, 0.05]), 1.3, 0.9, np.array([0.02, 0.0, -0.01]),
        spin=0.73,
    )


def _partly_off_grid_blob(grid):
    grid.deposit_blob(
        np.array([2.6, -0.3, 1.1]), 1.0, 1.2, np.array([0.3, 0.1, 0.0])
    )


def _shell(grid):
    grid.deposit_shell(np.zeros(3), 0.45, 1.7, 0.62, 0.15)


def _blob_then_shell(grid):
    grid.deposit_blob(np.zeros(3), 1.1, 0.5, np.zeros(3), spin=0.4)
    grid.deposit_shell(np.array([0.05, 0.0, -0.1]), 0.4, 2.3, 0.7, 0.15)


class TestDiagnosticGridBitIdentity:
    """Broadcast/in-place kernels equal the full-meshgrid formulas exactly."""

    @pytest.mark.parametrize("resolution", [16, 24])
    @pytest.mark.parametrize(
        "deposit",
        [
            _orbiting_pair,
            _spinning_blob,
            _partly_off_grid_blob,
            _shell,
            _blob_then_shell,
        ],
    )
    def test_matches_meshgrid_reference(self, resolution, deposit):
        grid = DiagnosticGrid(resolution, half_width=3.5)
        reference = _ReferenceGrid(resolution, half_width=3.5)
        deposit(grid)
        deposit(reference)
        for field in ("density", "momentum_x", "momentum_y", "momentum_z"):
            assert np.array_equal(
                getattr(grid, field), getattr(reference, field)
            ), field
        for integral in (
            "total_mass",
            "angular_momentum_z",
            "kinetic_energy",
            "gravitational_energy",
        ):
            assert (
                getattr(grid, integral)() == getattr(reference, integral)()
            ), integral
        assert np.array_equal(grid.solve_gravity(), reference.potential())
        for radius in (0.0, 0.9, 2.0, 10.0):
            assert grid.mass_within(radius) == reference.mass_within(radius)
        # The integrals do not disturb the fields: a second pass agrees.
        assert grid.kinetic_energy() == reference.kinetic_energy()
        assert grid.total_mass() == reference.total_mass()


GRID_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "data",
    "golden_wdmerger_grid.json",
)


def test_grid_scenario_matches_golden(monkeypatch):
    """``wdmerger-detonation`` on the 3-D grid reproduces pinned values.

    The golden holds every per-step diagnostic and the final fit of a
    ``maintain_grid=True`` run at resolution 16; equality is exact.
    """
    import repro.wdmerger
    from repro import scenarios

    with open(GRID_GOLDEN_PATH) as fh:
        golden = json.load(fh)
    built = []

    class _Recording(repro.wdmerger.WdMergerSimulation):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(repro.wdmerger, "WdMergerSimulation", _Recording)
    run = scenarios.run_scenario(
        "wdmerger-detonation",
        config=scenarios.RunConfig(params=golden["params"]),
    )
    (sim,) = built
    assert sim.grid is not None
    history = golden["history"]
    assert sim.history.times.tolist() == history["time"]
    for name in DIAGNOSTIC_NAMES:
        assert sim.history.series(name).tolist() == history[name], name
    assert run.result.iterations == golden["iterations"]
    assert dict(run.result.stopped_at) == golden["stopped_at"]
    assert run.result.terminated_early == golden["terminated_early"]
    assert run.error == golden["error"]
    assert run.metrics["delay_time"] == golden["delay_time"]
    (analysis,) = run.analyses
    expected = golden["analysis"]
    assert analysis.name == expected["name"]
    assert analysis.model.coefficients.tolist() == expected["coefficients"]
    assert float(analysis.model.intercept) == expected["intercept"]
    assert analysis.trainer.updates == expected["updates"]
    assert analysis.collector.samples_emitted == expected["samples_emitted"]
