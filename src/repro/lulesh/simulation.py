"""The LULESH-like mini-application driver.

Couples the radial Sedov solver with the 3-D domain view and exposes
the same loop structure as the paper's instrumented LULESH: each
iteration is ``TimeIncrement`` + ``LagrangeLeapFrog`` bracketed by the
optional region begin/end callbacks.

Default physical parameters are calibrated so a size-30 run finishes
with the shock around 25/30 of the domain radius — the paper's
ground-truth break-point at vanishing thresholds (Table II) — and the
iteration counts grow roughly linearly with size as the paper's
932/2031/3145 do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.lulesh.domain import LuleshDomain
from repro.lulesh.eos import IdealGasEOS
from repro.lulesh.hydro import SphericalLagrangianHydro
from repro.lulesh.mesh import RadialMesh
from repro.lulesh.viscosity import ArtificialViscosity


@dataclass
class SimulationResult:
    """Outcome of a (possibly early-terminated) run."""

    iterations: int
    time: float
    terminated_early: bool
    velocity_history: Optional[np.ndarray] = None
    history_locations: Optional[np.ndarray] = None
    extra: dict = field(default_factory=dict)


class LuleshSimulation:
    """Sedov blast mini-app on a ``size^3`` domain.

    Parameters
    ----------
    size:
        Elements per edge (30/60/90 in the paper).
    blast_energy:
        Total deposited energy.
    stop_time:
        Physical end time; the default lands the shock near 5/6 of the
        domain radius.
    cfl:
        Courant factor.
    maintain_field:
        Maintain the O(size^3) 3-D velocity field each iteration
        (realistic cost); disable for fast accuracy-only studies.
    record_locations:
        Optional radial node indices whose velocity is recorded every
        iteration (the "ground truth" curves of Fig. 5).
    """

    def __init__(
        self,
        size: int = 30,
        *,
        blast_energy: float = 0.851,
        stop_time: float = 0.65,
        cfl: float = 0.15,
        dt_growth: float = 1.1,
        dt_initial: float = 1.0e-5,
        gamma: float = 1.4,
        maintain_field: bool = True,
        record_locations: Optional[List[int]] = None,
    ) -> None:
        if stop_time <= 0:
            raise ConfigurationError(
                f"stop_time must be positive, got {stop_time}"
            )
        self.size = size
        self.stop_time = stop_time
        mesh = RadialMesh(size)
        mesh.deposit_energy(blast_energy, n_inner=1)
        self.hydro = SphericalLagrangianHydro(
            mesh,
            IdealGasEOS(gamma),
            ArtificialViscosity(),
            cfl=cfl,
            dt_growth=dt_growth,
            dt_initial=dt_initial,
        )
        self.domain = LuleshDomain(mesh, size, maintain_field=maintain_field)
        self.record_locations = (
            np.asarray(record_locations, dtype=np.int64)
            if record_locations is not None
            else None
        )
        self._recorded: List[np.ndarray] = []
        self._blast_velocity = 0.0

    @property
    def iteration(self) -> int:
        return self.hydro.cycle

    @property
    def time(self) -> float:
        return self.hydro.time

    @property
    def blast_velocity(self) -> float:
        """Running peak |velocity| — the paper's "velocity initiated by
        the blast" that relative thresholds reference."""
        return self._blast_velocity

    def step(self) -> None:
        """One mini-app iteration: dt control, hydro advance, 3-D field."""
        self.hydro.step()
        self.domain.update_field(self.hydro.cycle)
        peak = float(np.max(np.abs(self.hydro.mesh.u)))
        self.domain.peak_speed = peak
        self._blast_velocity = max(self._blast_velocity, peak)
        if self.record_locations is not None:
            self._recorded.append(
                np.abs(self.hydro.mesh.u[self.record_locations])
            )

    def run(
        self,
        region=None,
        *,
        max_iterations: int = 1_000_000,
    ) -> SimulationResult:
        """Run to ``stop_time`` (or early termination via ``region``).

        With a region attached, each iteration is wrapped in
        ``region.begin()`` / ``region.end(domain)`` exactly like the
        paper's instrumented main loop; the run stops when the region
        requests termination.
        """
        terminated = False
        while self.time < self.stop_time and self.iteration < max_iterations:
            if region is not None:
                region.begin()
            self.step()
            if region is not None and not region.end(self.domain):
                terminated = True
                break
        history = (
            np.vstack(self._recorded) if self._recorded else None
        )
        return SimulationResult(
            iterations=self.iteration,
            time=self.time,
            terminated_early=terminated,
            velocity_history=history,
            history_locations=self.record_locations,
        )

    def peak_velocity_profile(self) -> np.ndarray:
        """Per-node peak |velocity| over the recorded history.

        Requires ``record_locations``; this is the ground-truth profile
        the break-point Table II thresholds against.
        """
        if not self._recorded:
            raise ConfigurationError(
                "no recorded history; construct with record_locations"
            )
        return np.max(np.vstack(self._recorded), axis=0)
