"""The wdmerger mini-application: binary inspiral through detonation.

The simulation advances a 0.9 + 0.6 solar-mass white dwarf binary
through four phases:

1. **Inspiral** — gravitational-wave driven orbital decay (Peters).
2. **Mass transfer** — once the donor overflows its Roche lobe the
   (dynamically unstable, q > q_crit) transfer accelerates the decay.
3. **Disruption/merger** — at contact the donor is torn apart over a
   dynamical time; its mass lands on the primary and a hot envelope
   forms.  Temperature and energy rise steeply; orbital angular
   momentum converts to remnant spin with losses.
4. **Remnant & detonation** — accretion/compression heating ignites
   carbon; once the envelope passes the ignition temperature the
   detonation fires (the delay-time feature) and drives an expanding
   ejecta shell whose mass progressively leaves the grid.

Every step deposits the current configuration on the
:class:`~repro.wdmerger.grid.DiagnosticGrid` and records the four
paper diagnostics from grid integrals, giving them honest
resolution-dependent error and an O(resolution^3) per-step cost.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.wdmerger.binary import Binary
from repro.wdmerger.burning import BurningModel
from repro.wdmerger.constants import G, T_CORE_COLD
from repro.wdmerger.diagnostics import DiagnosticHistory, DiagnosticSample
from repro.wdmerger.gravwave import separation_decay_rate
from repro.wdmerger.grid import DiagnosticGrid, check_resolution
from repro.wdmerger import mass_transfer
from repro.wdmerger.wd import WhiteDwarf

#: Phase labels, in order.
PHASE_INSPIRAL = "inspiral"
PHASE_DISRUPTION = "disruption"
PHASE_REMNANT = "remnant"
PHASE_DETONATED = "detonated"


@dataclass
class MergerEvents:
    """Times of the run's milestones (None until they happen)."""

    rlof_time: Optional[float] = None
    merger_time: Optional[float] = None
    detonation_time: Optional[float] = None


class WdMergerSimulation:
    """Castro-wdmerger-like driver with per-step grid diagnostics.

    Parameters
    ----------
    resolution:
        Diagnostic grid cells per edge (paper: 16/32/48).  The timestep
        shrinks as 1/resolution (CFL-like), so finer grids take
        proportionally more steps to the same end time.
    m_primary, m_secondary:
        Component masses in solar masses (default paper-like 0.9+0.6).
    initial_separation:
        Starting orbital separation in code units; the default reaches
        Roche-lobe overflow after roughly a quarter of the run so the
        detonation lands near the paper's ~30 time-unit delay.
    end_time:
        Simulated end time (code units); Fig. 7/8 span ~100.
    base_dt:
        Timestep at resolution 32; must be positive and finite.
    maintain_grid:
        Deposit/integrate on the 3-D grid every step (realistic cost).
        When False, diagnostics come from the analytic state directly
        (fast mode for algorithm-only tests).
    seed:
        Seed for the small stochastic convection jitter in the heating.
    """

    def __init__(
        self,
        resolution: int = 32,
        *,
        m_primary: float = 0.9,
        m_secondary: float = 0.6,
        initial_separation: float = 2.65,
        end_time: float = 100.0,
        base_dt: float = 1.0,
        maintain_grid: bool = True,
        disruption_duration: float = 3.0,
        ejecta_fraction: float = 0.35,
        ejecta_speed: float = 0.15,
        seed: int = 7,
    ) -> None:
        resolution = check_resolution(resolution, 1)
        if not 0 < base_dt < math.inf:
            raise ConfigurationError(
                f"base_dt must be positive and finite, got {base_dt}"
            )
        if end_time <= 0:
            raise ConfigurationError(
                f"end_time must be positive, got {end_time}"
            )
        if not 0.0 <= ejecta_fraction < 1.0:
            raise ConfigurationError(
                f"ejecta_fraction must be in [0, 1), got {ejecta_fraction}"
            )
        if disruption_duration <= 0:
            raise ConfigurationError(
                "disruption_duration must be positive, got "
                f"{disruption_duration}"
            )
        self.resolution = resolution
        self.end_time = end_time
        self.disruption_duration = disruption_duration
        self.ejecta_fraction = ejecta_fraction
        self.ejecta_speed = ejecta_speed
        # CFL-like: timestep shrinks with resolution (32 is the reference).
        self.dt = base_dt * 32.0 / resolution
        self.binary = Binary(
            WhiteDwarf(m_primary, temperature=T_CORE_COLD),
            WhiteDwarf(m_secondary, temperature=T_CORE_COLD),
            initial_separation,
        )
        self.burning = BurningModel()
        self.grid = (
            DiagnosticGrid(resolution, half_width=3.5) if maintain_grid else None
        )
        self.maintain_grid = maintain_grid
        self.history = DiagnosticHistory()
        self.events = MergerEvents()
        self.phase = PHASE_INSPIRAL
        self.time = 0.0
        self.iteration = 0
        self._rng = np.random.default_rng(seed)

        # Thermal & remnant state.
        self.temperature_state = T_CORE_COLD
        self.energy_released = 0.0
        self.remnant_mass = 0.0
        self.remnant_spin_j = 0.0
        self.remnant_radius = 0.5
        self.disk_mass = 0.0
        self.ejecta_mass = 0.0
        self.ejecta_radius = 0.0
        self._disruption_elapsed = 0.0
        self._j_analytic = self.binary.orbital_angular_momentum
        self._accretion_rate = 0.0

        # Last grid-measured diagnostics (provider-visible attributes).
        self.temperature = self.temperature_state
        self.angular_momentum = self._j_analytic
        self.mass = self.binary.total_mass
        self.energy = 0.0
        self._measure()

    # ------------------------------------------------------------------
    # physics step
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Advance one timestep and refresh the diagnostics."""
        dt = self.dt
        if self.phase == PHASE_INSPIRAL:
            self._step_inspiral(dt)
        elif self.phase == PHASE_DISRUPTION:
            self._step_disruption(dt)
        else:
            self._step_remnant(dt)
        self.time += dt
        self.iteration += 1
        self._measure()
        self.history.append(
            DiagnosticSample(
                time=self.time,
                temperature=self.temperature,
                angular_momentum=self.angular_momentum,
                mass=self.mass,
                energy=self.energy,
            )
        )

    def run(self, region=None, *, max_iterations: int = 10_000_000):
        """Run to ``end_time`` with optional region instrumentation.

        Returns the events record.  Mirrors the paper's instrumented
        main loop: each iteration wrapped by region begin/end, stopping
        early when the region requests it.
        """
        while self.time < self.end_time and self.iteration < max_iterations:
            if region is not None:
                region.begin()
            self.step()
            if region is not None and not region.end(self):
                break
        return self.events

    # -- phase implementations -----------------------------------------

    def _step_inspiral(self, dt: float) -> None:
        binary = self.binary
        da = separation_decay_rate(
            binary.separation, binary.primary.mass, binary.secondary.mass
        )
        mdot = mass_transfer.transfer_rate(binary)
        if mdot > 0.0 and self.events.rlof_time is None:
            self.events.rlof_time = self.time
        if mdot > 0.0:
            moved = mass_transfer.apply_transfer(binary, mdot * dt)
            self._accretion_rate = moved / dt
            if mass_transfer.is_unstable(binary):
                # Runaway: transfer deepens the overflow, which feeds
                # back into faster decay.  Model as an extra sink term
                # proportional to the fractional overflow depth.
                depth = max(0.0, binary.roche_overflow()) / binary.secondary.radius
                da += -8.0 * depth * binary.separation * mdot / binary.reduced_mass
        else:
            self._accretion_rate = 0.0
        binary.separation = max(0.05, binary.separation + da * dt)
        binary.advance_phase(dt)
        self._j_analytic = binary.orbital_angular_momentum
        self._advance_temperature(dt)
        # Disruption triggers when the overflow becomes dynamical (the
        # donor is deeply through its Roche lobe) or at geometric contact.
        depth = max(0.0, binary.roche_overflow()) / binary.secondary.radius
        contact = binary.primary.radius + 0.5 * binary.secondary.radius
        if depth >= 0.15 or binary.separation <= contact:
            self.events.merger_time = self.time
            self.phase = PHASE_DISRUPTION
            self._disruption_elapsed = 0.0

    def _step_disruption(self, dt: float) -> None:
        """Tear the donor apart over ``disruption_duration`` time units."""
        binary = self.binary
        duration = self.disruption_duration
        if self._disruption_elapsed == 0.0:
            # Remnant spin inherits ~75% of the orbital angular momentum
            # *at disruption onset* (the rest leaves with tidal tails).
            self.remnant_spin_j = 0.75 * binary.orbital_angular_momentum
        self._disruption_elapsed += dt
        frac = min(1.0, self._disruption_elapsed / duration)
        donor_initial = binary.secondary.mass
        # Move an accelerating slice of the remaining donor each step.
        # The `frac` ramp keeps the transition from inspiral smooth, so
        # the sharpest feature on the diagnostic curves stays the
        # detonation rather than the disruption onset.
        dm = donor_initial * min(1.0, 3.5 * frac * dt / duration)
        moved = mass_transfer.apply_transfer(binary, dm)
        self._accretion_rate = moved / dt if dt > 0 else 0.0
        # Measured J interpolates from orbital toward the remnant spin
        # as the donor smears into the disc — the fast J drop of Fig. 8.
        j_orb_now = binary.orbital_angular_momentum
        self._j_analytic = (1.0 - frac) * j_orb_now + frac * self.remnant_spin_j
        binary.separation = max(
            0.3 * binary.primary.radius,
            binary.separation * (1.0 - 1.8 * frac * dt),
        )
        binary.advance_phase(dt)
        self._advance_temperature(dt, extra_heating=0.45 * frac)
        if frac >= 1.0 or binary.secondary.mass <= 0.051:
            self.phase = PHASE_REMNANT
            self.remnant_mass = binary.primary.mass + binary.secondary.mass
            self.disk_mass = 0.25 * binary.secondary.mass
            self.remnant_mass -= self.disk_mass
            # The merger remnant is a *hot, puffed-up* envelope, not a
            # cold degenerate dwarf: its radius is of order the donor's
            # original size, far above the Nauenberg radius of its mass.
            self.remnant_radius = 0.9
            self._accretion_rate = 0.08

    def _step_remnant(self, dt: float) -> None:
        # Disk drains onto the remnant, keeping a gentle heating term.
        drained = min(self.disk_mass, 0.02 * dt)
        self.disk_mass -= drained
        self.remnant_mass += drained
        self._accretion_rate = 0.6 * self._accretion_rate + drained / max(dt, 1e-12)
        # Spin-down through disk torques — slow post-merger J decline.
        self.remnant_spin_j *= 1.0 - 0.002 * dt
        self._j_analytic = self.remnant_spin_j
        if self.phase == PHASE_DETONATED:
            # Burning is over; residual viscous heating fades and the
            # envelope relaxes toward a warm equilibrium — the gentle
            # post-inflection slope of Fig. 8.
            elapsed = self.time - (self.events.detonation_time or self.time)
            extra = 0.05 + 0.1 * float(np.exp(-0.03 * elapsed))
        else:
            extra = 0.25
        self._advance_temperature(dt, extra_heating=extra)
        if self.phase == PHASE_DETONATED:
            self.ejecta_radius += self.ejecta_speed * dt
            # Post-detonation mass loss: a fast, promptly unbound tail
            # (decaying exponential) on top of a steady wind — together
            # they turn the bound-mass plateau down *at* the detonation
            # (the plateau-to-decline junction of Fig. 8).
            elapsed = self.time - (self.events.detonation_time or self.time)
            loss = (0.003 + 0.05 * float(np.exp(-0.5 * elapsed))) * dt
            self.remnant_mass = max(0.0, self.remnant_mass - loss)
        elif self.burning.detonated(self.temperature_state):
            self.events.detonation_time = self.time
            self.phase = PHASE_DETONATED
            self.ejecta_mass = self.ejecta_fraction * self.remnant_mass
            self.remnant_mass -= self.ejecta_mass
            self.ejecta_radius = self.remnant_radius
            self.energy_released += 2.5

    def _advance_temperature(self, dt: float, *, extra_heating: float = 0.0) -> None:
        lum = 0.0
        if self._accretion_rate > 0.0:
            accretor = self.binary.primary
            # Accretion luminosity G M Mdot / R.  Post-merger the
            # accretion surface is the puffed-up remnant envelope, not
            # the cold degenerate radius (which is tiny near the
            # Chandrasekhar mass and would absurdly inflate the rate).
            if self.phase in (PHASE_INSPIRAL, PHASE_DISRUPTION):
                surface = accretor.radius
            else:
                surface = self.remnant_radius
            lum = G * accretor.mass * self._accretion_rate / surface
        lum += extra_heating
        # Small seeded convection jitter keeps the fit non-trivial.
        lum *= 1.0 + 0.02 * self._rng.standard_normal()
        before = self.temperature_state
        self.temperature_state = self.burning.advance(
            self.temperature_state,
            dt,
            accretion_luminosity=lum,
            cold_temperature=T_CORE_COLD,
            burning_active=self.phase != PHASE_DETONATED,
        )
        # Book-keep released nuclear + accretion energy.
        self.energy_released += max(
            0.0, (self.temperature_state - before)
        ) * 0.8

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def _measure(self) -> None:
        """Deposit the current configuration and integrate diagnostics."""
        if self.grid is None:
            self._measure_analytic()
            return
        grid = self.grid
        grid.clear()
        if self.phase in (PHASE_INSPIRAL, PHASE_DISRUPTION):
            binary = self.binary
            p1, p2 = binary.positions()
            v1, v2 = binary.velocities()
            grid.deposit_blob(
                p1, binary.primary.mass, binary.primary.radius, v1
            )
            grid.deposit_blob(
                p2, binary.secondary.mass, binary.secondary.radius, v2
            )
        else:
            spin = 0.0
            if self.remnant_mass > 0.0:
                # Rigid-body spin rate reproducing the remnant's J on
                # deposit.  The blob is Gaussian with sigma = R/2, so
                # its planar inertia is M * <x^2 + y^2> = M * 2 sigma^2
                # = 0.5 * M * R^2 — using that keeps the grid-measured
                # J consistent with the tracked remnant_spin_j.
                inertia = 0.5 * self.remnant_mass * self.remnant_radius**2
                spin = self.remnant_spin_j / max(inertia, 1e-12)
            grid.deposit_blob(
                np.zeros(3),
                self.remnant_mass + self.disk_mass,
                self.remnant_radius,
                np.zeros(3),
                spin=spin,
            )
            if self.ejecta_mass > 0.0:
                elapsed = self.time - (self.events.detonation_time or self.time)
                # The shell spreads as it expands (velocity dispersion),
                # so its leading edge leaves the grid early and the
                # bound mass declines smoothly rather than in a cliff.
                width = 0.6 + 0.04 * max(0.0, elapsed)
                grid.deposit_shell(
                    np.zeros(3),
                    self.ejecta_mass,
                    self.ejecta_radius,
                    width,
                    self.ejecta_speed,
                )
        self.mass = grid.total_mass()
        self.angular_momentum = grid.angular_momentum_z()
        kinetic = grid.kinetic_energy()
        # Self-gravity solve every step, exactly as the real code does;
        # the binding energy enters the total-energy diagnostic.
        binding = grid.gravitational_energy()
        thermal = 2.2 * self.temperature_state
        self.energy = kinetic + thermal + self.energy_released + 0.02 * binding
        # Peak temperature as measured on the grid: finite resolution
        # under-resolves the hot core slightly, biasing the measured
        # maximum low by an amount that shrinks as the grid refines.
        self.temperature = self.temperature_state * (
            1.0 - 0.25 / self.resolution
        )

    def _measure_analytic(self) -> None:
        self.mass = (
            self.binary.total_mass
            if self.phase in (PHASE_INSPIRAL, PHASE_DISRUPTION)
            else self.remnant_mass
            + self.disk_mass
            + self.ejecta_mass * np.exp(-0.05 * max(0.0, self.ejecta_radius - 3.0))
        )
        self.angular_momentum = self._j_analytic
        if self.phase in (PHASE_INSPIRAL, PHASE_DISRUPTION):
            kinetic = 0.5 * self.binary.reduced_mass * (
                self.binary.angular_velocity * self.binary.separation
            ) ** 2
        else:
            kinetic = 0.05
        self.energy = kinetic + 2.2 * self.temperature_state + self.energy_released
        self.temperature = self.temperature_state
