"""3-D cubic domain view over the spherically symmetric solution.

LULESH's Sedov problem is posed on a cube with the blast at the origin
corner; by spherical symmetry every element's state is a function of
its distance from the origin (paper Fig. 3: "velocities on the same arc
share identical values").  :class:`LuleshDomain` exploits exactly that:
the radial solver carries the physics, and the domain maintains the
full ``size^3`` element velocity field by interpolating the radial
profile each iteration — the per-iteration O(size^3) field update that
gives the simulation its realistic (3-D mini-app shaped) cost profile.

The accessor :meth:`xd` mirrors the paper's provider (``locDom->xd(loc)``):
the x-velocity of node ``loc`` along the x-axis, which by symmetry is
the radial velocity at radius ``loc * dx``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.lulesh.mesh import RadialMesh


class LuleshDomain:
    """Cubic domain of ``size^3`` elements bound to a radial mesh.

    Parameters
    ----------
    mesh:
        The radial mesh carrying the 1-D solution.
    size:
        Elements per cube edge (the paper's 30/60/90).
    maintain_field:
        When True (default) :meth:`update_field` refreshes the full 3-D
        velocity array every call; turning it off removes the O(size^3)
        cost for accuracy-only experiments.
    """

    def __init__(
        self, mesh: RadialMesh, size: int, *, maintain_field: bool = True
    ) -> None:
        if size != mesh.n_elements:
            raise ConfigurationError(
                f"domain size ({size}) must match mesh elements "
                f"({mesh.n_elements})"
            )
        self.mesh = mesh
        self.size = size
        self.maintain_field = maintain_field
        dx = mesh.outer_radius / size
        centers = (np.arange(size) + 0.5) * dx
        xx, yy, zz = np.meshgrid(centers, centers, centers, indexing="ij")
        # Distance of every element centre from the blast corner.
        self._radii = np.sqrt(xx**2 + yy**2 + zz**2).ravel()
        self.velocity = np.zeros(size**3)
        self._field_cycle = -1
        #: ``max |u|`` after the latest step, set once per step by the
        #: simulation for every analysis tracking the blast velocity.
        self.peak_speed = 0.0

    def xd(self, loc: int) -> float:
        """Velocity magnitude at radial node ``loc`` (paper's provider).

        Node 0 is the fixed centre; locations 1..size index outward.
        """
        if not 0 <= loc <= self.size:
            raise ConfigurationError(
                f"loc must be in [0, {self.size}], got {loc}"
            )
        return float(self.mesh.u[loc])

    def xd_batch(self, locations: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`xd`: one gather over a window of nodes.

        The batch path of the in-situ velocity provider — collection
        over a wide spatial window costs one fancy index instead of a
        Python call per node.
        """
        locations = np.asarray(locations, dtype=np.int64)
        if locations.size and (
            int(locations.min()) < 0 or int(locations.max()) > self.size
        ):
            raise ConfigurationError(
                f"locations must be in [0, {self.size}], got "
                f"[{int(locations.min())}, {int(locations.max())}]"
            )
        return self.mesh.u[locations]

    def update_field(self, cycle: int) -> None:
        """Refresh the 3-D element velocity field from the radial profile.

        Idempotent per cycle so accidental double calls do not double
        the simulated cost.
        """
        if not self.maintain_field or cycle == self._field_cycle:
            return
        self.velocity = np.interp(
            self._radii, self.mesh.r, np.abs(self.mesh.u), right=0.0
        )
        self._field_cycle = cycle

    def velocity_cube(self) -> np.ndarray:
        """The 3-D velocity field reshaped to ``(size, size, size)``."""
        return self.velocity.reshape(self.size, self.size, self.size)

    def wavefront_location(self) -> int:
        """Radial element index of the shock front right now.

        Estimated from the pressure (+ artificial viscosity) maximum —
        the robust front estimator; the velocity profile behind the
        shock is broad and would overestimate the front badly.  In a
        rank-decomposed run the owner of this location is the "MPI rank
        indicating the location of the wave front" the paper's status
        broadcasts carry.
        """
        return int(np.argmax(self.mesh.pressure + self.mesh.q))
