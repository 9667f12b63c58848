"""3-D Cartesian diagnostic grid for the merger simulation.

Castro computes its diagnostics (mass, angular momentum, energy
integrals) as sums over the AMR hierarchy; our stand-in is a single
uniform ``resolution^3`` grid onto which each step deposits the stars'
density and momentum, then integrates.  Two properties of the real code
are preserved deliberately:

* the per-step cost scales with ``resolution^3`` (Table VII's domain
  scaling), and
* the diagnostics carry resolution-dependent discretisation error — a
  blob moving across cells produces small orbital-frequency wiggles
  that shrink as the grid refines, which is exactly the noise the AR
  fit has to ride out.

The kernels avoid full-grid temporaries: the cell-centre coordinates
are broadcast views, and each deposit or integral evaluates in place
into work buffers the grid owns.  The gravity solve's FFT pair runs in
place in an owned spectrum buffer (numpy's ``rfftn`` with ``out=``,
then ``irfftn``'s own axis loop written out with ``out=`` on every
axis), so a step (clear, deposits, all four integrals) allocates no
full-grid array.  Every cell still goes through the same IEEE
operations in the same order as the plain elementwise formulas over
full coordinate arrays and numpy's ``rfftn``/``irfftn``, so the results
are bit-identical to them.  Each step still makes a fixed number of
passes over all ``resolution^3`` cells, so the cost scaling above
holds.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigurationError


def _sum_of_squares(dx, dy, dz, out: np.ndarray) -> np.ndarray:
    """``out = dx**2 + dy**2 + dz**2`` over broadcast coordinate offsets."""
    return np.add(dx**2 + dy**2, dz**2, out=out)


def check_resolution(resolution, minimum: int) -> int:
    """``resolution`` as an ``int``; it must be an integer >= ``minimum``.

    Any integer type is accepted (numpy's too), except ``bool``.
    """
    if isinstance(resolution, bool) or not isinstance(
        resolution, (int, np.integer)
    ):
        raise ConfigurationError(
            f"resolution must be an integer, got {resolution!r}"
        )
    if resolution < minimum:
        raise ConfigurationError(
            f"resolution must be >= {minimum}, got {resolution}"
        )
    return int(resolution)


def _check_deposit(mass: float, **inputs) -> None:
    """Reject a negative mass and any non-finite deposit input."""
    for name, value in {"mass": mass, **inputs}.items():
        if not np.all(np.isfinite(value)):
            raise ConfigurationError(f"{name} must be finite, got {value}")
    if mass < 0:
        raise ConfigurationError(f"mass must be >= 0, got {mass}")


class DiagnosticGrid:
    """Uniform cubic grid centred on the origin.

    ``x``, ``y`` and ``z`` are the cell-centre coordinates as broadcast
    views of shapes ``(n, 1, 1)``, ``(1, n, 1)`` and ``(1, 1, n)``;
    an expression over them broadcasts to the full ``(n, n, n)`` grid.
    The fields (``density``, ``momentum_*``) are full arrays.  The grid
    also owns every buffer a step needs: three real work arrays, a bool
    mask and the ``(n, n, n//2 + 1)`` complex spectrum of the gravity
    solve, all allocated once here.

    Parameters
    ----------
    resolution:
        Cells per edge (16/32/48 in the paper's evaluation).
    half_width:
        Physical half-extent; material beyond it is off-grid (and so no
        longer counted in "bound" integrals — how ejecta leaves the
        accounting).
    """

    def __init__(self, resolution: int, half_width: float = 4.0) -> None:
        resolution = check_resolution(resolution, 4)
        if not 0 < half_width < math.inf:
            raise ConfigurationError(
                f"half_width must be positive and finite, got {half_width}"
            )
        self.resolution = resolution
        self.half_width = half_width
        self.dx = 2.0 * half_width / resolution
        self.cell_volume = self.dx**3
        centers = (np.arange(resolution) + 0.5) * self.dx - half_width
        self.x = centers[:, None, None]
        self.y = centers[None, :, None]
        self.z = centers[None, None, :]
        shape = (resolution,) * 3
        self.density = np.zeros(shape)
        self.momentum_x = np.zeros(shape)
        self.momentum_y = np.zeros(shape)
        self.momentum_z = np.zeros(shape)
        self._work = np.empty(shape)
        self._work2 = np.empty(shape)
        self._work3 = np.empty(shape)
        self._mask = np.empty(shape, dtype=bool)
        self._spectrum = np.empty(
            (resolution, resolution, resolution // 2 + 1), dtype=complex
        )
        # Squared wavenumbers of the real-to-complex FFT layout.
        k1 = 2.0 * np.pi * np.fft.fftfreq(resolution, d=self.dx)
        k3 = 2.0 * np.pi * np.fft.rfftfreq(resolution, d=self.dx)
        self._k2 = k1[:, None, None] ** 2 + k1[None, :, None] ** 2 + k3**2
        self._k2[0, 0, 0] = 1.0  # zero mode: zeroed after the divide

    def clear(self) -> None:
        """Zero all fields before a new deposit pass."""
        self.density.fill(0.0)
        self.momentum_x.fill(0.0)
        self.momentum_y.fill(0.0)
        self.momentum_z.fill(0.0)

    # ------------------------------------------------------------------
    # deposits
    # ------------------------------------------------------------------

    def deposit_blob(
        self,
        center: np.ndarray,
        mass: float,
        radius: float,
        velocity: np.ndarray,
        *,
        spin: float = 0.0,
    ) -> None:
        """Deposit a Gaussian star of ``mass`` and scale ``radius``.

        ``velocity`` is the bulk (orbital) velocity; ``spin`` an angular
        velocity about the z axis through the blob centre, which adds
        rotational momentum (how remnant spin angular momentum shows up
        in the grid integral).  Mass falling outside the grid is simply
        lost — the desired "no longer bound" behaviour.
        """
        if not 0 < radius < math.inf:
            raise ConfigurationError(
                f"radius must be positive and finite, got {radius}"
            )
        _check_deposit(mass, center=center, velocity=velocity, spin=spin)
        if mass == 0.0:
            return
        cx, cy, cz = (float(c) for c in center)
        rho = _sum_of_squares(self.x - cx, self.y - cy, self.z - cz, self._work)
        rho *= -0.5
        rho /= (0.5 * radius) ** 2
        np.exp(rho, out=rho)
        norm = rho.sum() * self.cell_volume
        if norm <= 0.0:
            return  # entirely off-grid
        rho *= mass / norm
        self.density += rho
        vx, vy, vz = (float(v) for v in velocity)
        if spin != 0.0:
            # v_spin = omega x (r - c) for rotation about z.
            vx = vx - spin * (self.y - cy)
            vy = vy + spin * (self.x - cx)
        self.momentum_x += np.multiply(rho, vx, out=self._work2)
        self.momentum_y += np.multiply(rho, vy, out=self._work2)
        self.momentum_z += np.multiply(rho, vz, out=self._work2)

    def deposit_shell(
        self,
        center: np.ndarray,
        mass: float,
        radius: float,
        width: float,
        expansion_speed: float,
    ) -> None:
        """Deposit a radially expanding spherical shell (the ejecta).

        Density is Gaussian in radius about ``radius``; each cell's
        velocity points radially outward at ``expansion_speed``.  Mass
        beyond the grid boundary is lost, so the shell's grid-integrated
        mass decays as it expands — producing the post-detonation mass
        decline of Fig. 8.
        """
        if not (0 <= radius < math.inf and 0 < width < math.inf):
            raise ConfigurationError(
                f"radius must be >= 0 and width positive, both finite, got "
                f"radius={radius}, width={width}"
            )
        _check_deposit(mass, center=center, expansion_speed=expansion_speed)
        if mass == 0.0:
            return
        cx, cy, cz = (float(c) for c in center)
        offsets = (self.x - cx, self.y - cy, self.z - cz)
        r = np.sqrt(_sum_of_squares(*offsets, self._work), out=self._work)
        rho = np.subtract(r, radius, out=self._work2)
        rho /= width
        np.square(rho, out=rho)
        rho *= -0.5
        np.exp(rho, out=rho)
        # Normalise against the *unbounded* shell so off-grid mass is lost.
        r_samples = np.linspace(
            max(1e-6, radius - 6 * width), radius + 6 * width, 512
        )
        shell_profile = np.exp(-0.5 * ((r_samples - radius) / width) ** 2)
        analytic_norm = 4.0 * np.pi * np.trapezoid(
            shell_profile * r_samples**2, r_samples
        )
        if analytic_norm <= 0.0:
            return
        rho *= mass / analytic_norm
        self.density += rho
        inv_r = self._work3
        inv_r.fill(0.0)
        away = np.greater(r, 1e-9, out=self._mask)
        np.divide(1.0, r, out=inv_r, where=away)
        rho *= expansion_speed
        for offset, momentum in zip(
            offsets, (self.momentum_x, self.momentum_y, self.momentum_z)
        ):
            flux = np.multiply(rho, offset, out=self._work)
            flux *= inv_r
            momentum += flux

    # ------------------------------------------------------------------
    # integrals
    # ------------------------------------------------------------------

    def total_mass(self) -> float:
        """Grid-integrated mass (the "bound" mass diagnostic)."""
        return float(self.density.sum() * self.cell_volume)

    def angular_momentum_z(self) -> float:
        """z angular momentum: integral of x*py - y*px."""
        lz = np.multiply(self.x, self.momentum_y, out=self._work)
        lz -= np.multiply(self.y, self.momentum_x, out=self._work2)
        return float(lz.sum() * self.cell_volume)

    def kinetic_energy(self) -> float:
        """Kinetic energy from the momentum field."""
        p2 = np.square(self.momentum_x, out=self._work)
        p2 += np.square(self.momentum_y, out=self._work2)
        p2 += np.square(self.momentum_z, out=self._work2)
        ke = self._work2
        ke.fill(0.0)
        significant = np.greater(self.density, 1e-12, out=self._mask)
        np.divide(p2, self.density, out=ke, where=significant)
        return float(0.5 * ke.sum() * self.cell_volume)

    def peak_density(self) -> float:
        return float(self.density.max())

    def mass_within(self, radius: float) -> float:
        """Mass inside a sphere about the origin."""
        if radius < 0:
            raise ConfigurationError(f"radius must be >= 0, got {radius}")
        inside = (self.x**2 + self.y**2 + self.z**2) <= radius**2
        return float(self.density[inside].sum() * self.cell_volume)

    # ------------------------------------------------------------------
    # self-gravity (FFT Poisson solve, as Castro performs each step)
    # ------------------------------------------------------------------

    def solve_gravity(self) -> np.ndarray:
        """Solve nabla^2 phi = 4 pi G rho with an FFT Poisson solver.

        Returns the gravitational potential on the grid as a new array.
        The periodic images a plain FFT implies are acceptable for a
        diagnostic substrate (the density is compact and well inside the
        box); the call's O(n^3 log n) cost per step is the point — it
        gives the simulation the same work profile as the real code's
        gravity solve.
        """
        return self._potential(np.empty_like(self.density))

    def gravitational_energy(self) -> float:
        """Self-gravitational binding energy 0.5 * integral(rho * phi)."""
        phi = self._potential(self._work)
        phi *= self.density
        return float(0.5 * phi.sum() * self.cell_volume)

    def _potential(self, out: np.ndarray) -> np.ndarray:
        """Write the potential into ``out``; the FFTs run in ``_spectrum``.

        Bit-identical to ``irfftn(-4 pi rfftn(density) / k2)``: the
        inverse is ``irfftn``'s own loop (``ifft`` over axes 0 then 1,
        ``irfft`` over axis 2), each axis written in place.
        """
        spectrum = np.fft.rfftn(self.density, out=self._spectrum)
        spectrum *= -4.0 * np.pi
        spectrum /= self._k2
        spectrum[0, 0, 0] = 0.0
        np.fft.ifft(spectrum, axis=0, out=spectrum)
        np.fft.ifft(spectrum, axis=1, out=spectrum)
        return np.fft.irfft(spectrum, self.resolution, axis=2, out=out)
