"""Scene geometry for a full-duplex node with a near-field reflecting surface.

The canonical layout places the base-station transmit and receive uniform
linear arrays along the z axis, the RIS on a plane spanned by the x and z
axes at a configurable angle and distance from the first transmit antenna,
and the user and radar target in the y = 0 plane.  All angles are radians,
all lengths are meters.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

# Tolerated overshoot of an inverse-trig argument past +/-1 before the
# configuration is rejected as infeasible instead of clamped.
ARC_ARGUMENT_SLACK = 1e-9


class InfeasibleGeometryError(ValueError):
    """Scene placement for which the requested angles are undefined."""


def clamp_arc_argument(value: float, context: str = "arccos") -> float:
    """Clamp an inverse-trig argument to [-1, 1].

    Overshoots within ``ARC_ARGUMENT_SLACK`` are floating-point noise and
    get clamped; anything further out raises InfeasibleGeometryError.
    """
    if abs(value) > 1.0 + ARC_ARGUMENT_SLACK:
        raise InfeasibleGeometryError(
            f"{context} argument {value!r} lies outside [-1, 1]"
        )
    return float(min(1.0, max(-1.0, value)))


@dataclass(frozen=True)
class RisAngles:
    """Elevation/azimuth pair parameterizing the RIS array response."""

    elevation: float
    azimuth: float

    def __post_init__(self):
        if not (np.isfinite(self.elevation) and np.isfinite(self.azimuth)):
            raise InfeasibleGeometryError("non-finite RIS angles")


@dataclass(frozen=True)
class Scene:
    """Static geometry of the JCAS node, RIS, downlink user and target.

    ``ris_positions`` is flattened row-major over (row, column) with rows
    stacked along z and columns along x; its first entry is the phase
    reference for the surface response.  The target sits on a circle of
    radius ``target_range`` in the y = 0 plane at ``target_angle`` from
    the x axis.
    """

    bs_tx_positions: np.ndarray
    bs_rx_positions: np.ndarray
    ris_positions: np.ndarray
    ris_rows: int
    ris_cols: int
    user_position: np.ndarray
    target_range: float
    target_angle: float
    bs_ris_angle: float
    bs_ris_distance: float
    wavelength: float
    spacing: float

    def __post_init__(self):
        for name in ("bs_tx_positions", "bs_rx_positions", "ris_positions"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "user_position", np.asarray(self.user_position, dtype=float))
        for name in ("bs_ris_distance", "target_range", "wavelength", "spacing"):
            _check_length(name, getattr(self, name))
        _check_target_angle(self.target_angle)
        if self.ris_positions.shape[0] != self.ris_rows * self.ris_cols:
            raise ValueError("ris_positions inconsistent with ris_rows*ris_cols")
        _check_ula_spacing(self.bs_tx_positions, self.spacing, "bs_tx_positions")
        _check_ula_spacing(self.bs_rx_positions, self.spacing, "bs_rx_positions")
        _check_upa_spacing(self.ris_positions, self.ris_rows, self.ris_cols, self.spacing)
        _check_coplanar(self.ris_positions)

    @property
    def n_bs_tx(self) -> int:
        return self.bs_tx_positions.shape[0]

    @property
    def n_bs_rx(self) -> int:
        return self.bs_rx_positions.shape[0]

    @property
    def n_ris(self) -> int:
        return self.ris_rows * self.ris_cols

    @property
    def target_position(self) -> np.ndarray:
        return self.target_range * np.array(
            [np.cos(self.target_angle), 0.0, np.sin(self.target_angle)]
        )

    def with_target_angle(self, angle: float) -> "Scene":
        """Same scene with the target moved along its range circle.

        Only the new angle is checked: no position moves, and this scene's
        were checked when it was built.  The position arrays are shared."""
        angle = float(angle)
        _check_target_angle(angle)
        moved = copy.copy(self)
        object.__setattr__(moved, "target_angle", angle)
        return moved

    def ris_offsets(self) -> np.ndarray:
        """(n_ris, 2) per-element [x, z] displacement from the first element."""
        rel = self.ris_positions - self.ris_positions[0]
        return rel[:, [0, 2]]


def _check_length(name, value):
    # a NaN fails the comparison too
    if not 0.0 < value < np.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _check_target_angle(angle):
    if not -np.pi / 2 <= angle <= np.pi / 2:
        raise ValueError("target_angle must lie in [-pi/2, pi/2]")


def _check_ula_spacing(positions, spacing, name):
    if positions.shape[0] < 2:
        return
    gaps = np.linalg.norm(np.diff(positions, axis=0), axis=1)
    if np.any(np.abs(gaps - spacing) > 1e-9 * max(1.0, spacing)):
        raise ValueError(f"{name} is not uniformly spaced at the configured spacing")


def _check_upa_spacing(positions, rows, cols, spacing):
    grid = positions.reshape(rows, cols, 3)
    tol = 1e-9 * max(1.0, spacing)
    if cols > 1:
        gaps = np.linalg.norm(np.diff(grid, axis=1), axis=-1)
        if np.any(np.abs(gaps - spacing) > tol):
            raise ValueError("RIS columns are not uniformly spaced")
    if rows > 1:
        gaps = np.linalg.norm(np.diff(grid, axis=0), axis=-1)
        if np.any(np.abs(gaps - spacing) > tol):
            raise ValueError("RIS rows are not uniformly spaced")


def _check_coplanar(positions):
    if positions.shape[0] < 4:
        return
    centered = positions - positions.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if svals[2] > 1e-9 * max(1.0, svals[0]):
        raise ValueError("RIS elements are not coplanar")


def build_scene(
    n_bs_tx: int = 15,
    n_bs_rx: int = 10,
    ris_rows: int = 10,
    ris_cols: int = 10,
    wavelength: float = 0.1,
    bs_ris_angle: float = np.pi / 6,
    bs_ris_distance: float = 5.0,
    user_range: float = 80.0,
    user_angle: float = 0.0,
    target_range: float = 50.0,
    target_angle: float = np.deg2rad(20.0),
) -> Scene:
    """Assemble the canonical scene.

    Every array has half-wavelength element spacing.  Both base-station
    arrays run along z starting at z = 0, with the receive array offset
    along x by two wavelengths so that every transmit/receive distance is
    nonzero.  The RIS first element sits ``bs_ris_distance`` from the
    first transmit antenna at in-plane angle ``bs_ris_angle``; its columns
    extend along x and its rows along z.  User and target sit in the y = 0 plane at
    the given ranges/angles from the first transmit antenna.  A non-finite
    surface or user angle or user range, or a user range that is not
    positive, raises ValueError naming the argument, and so does a length
    (``wavelength``, ``bs_ris_distance``, ``target_range``) that is not
    finite and positive.
    """
    for name, value in (("bs_ris_angle", bs_ris_angle), ("user_angle", user_angle), ("user_range", user_range)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not user_range > 0.0:
        raise ValueError(f"user_range must be positive, got {user_range!r}")
    # the positions scale with these two, so they are checked before those are built
    _check_length("wavelength", wavelength)
    _check_length("bs_ris_distance", bs_ris_distance)
    spacing = wavelength / 2.0
    tx_rx_gap = 2.0 * wavelength
    z = np.arange(n_bs_tx) * spacing
    bs_tx = np.column_stack([np.zeros(n_bs_tx), np.zeros(n_bs_tx), z])
    z = np.arange(n_bs_rx) * spacing
    bs_rx = np.column_stack([np.full(n_bs_rx, tx_rx_gap), np.zeros(n_bs_rx), z])
    ris_ref = bs_ris_distance * np.array(
        [np.cos(bs_ris_angle), 0.0, np.sin(bs_ris_angle)]
    )
    rr, cc = np.meshgrid(np.arange(ris_rows), np.arange(ris_cols), indexing="ij")
    ris = ris_ref + spacing * np.column_stack(
        [cc.ravel(), np.zeros(ris_rows * ris_cols), rr.ravel()]
    )
    user = user_range * np.array([np.cos(user_angle), 0.0, np.sin(user_angle)])
    return Scene(
        bs_tx_positions=bs_tx,
        bs_rx_positions=bs_rx,
        ris_positions=ris,
        ris_rows=ris_rows,
        ris_cols=ris_cols,
        user_position=user,
        target_range=target_range,
        target_angle=target_angle,
        bs_ris_angle=bs_ris_angle,
        bs_ris_distance=bs_ris_distance,
        wavelength=wavelength,
        spacing=spacing,
    )


def pairwise_distances(tx_positions, rx_positions) -> np.ndarray:
    """Euclidean distance between every receive/transmit element pair.

    Returns the (n_rx, n_tx) matrix whose (m, n) entry is the distance from
    transmit element n to receive element m.  Coincident elements are
    rejected because channel amplitudes downstream divide by the distance.
    """
    tx = np.atleast_2d(np.asarray(tx_positions, dtype=float))
    rx = np.atleast_2d(np.asarray(rx_positions, dtype=float))
    if tx.shape[0] == 0 or rx.shape[0] == 0:
        raise ValueError("antenna position lists must be nonempty")
    dist = np.linalg.norm(rx[:, None, :] - tx[None, :, :], axis=-1)
    if np.min(dist) <= 0.0:
        raise ValueError("coincident transmit/receive elements give zero distance")
    return dist


def ula_angle_of(direction) -> float:
    """Steering angle a z-axis ULA associates with a propagation direction."""
    d = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(d)
    if norm <= 0.0:
        raise InfeasibleGeometryError("zero-length direction vector")
    return float(np.arcsin(clamp_arc_argument(d[2] / norm, "arcsin")))


def ris_angles_of_point(scene: Scene, point) -> RisAngles:
    """Elevation/azimuth of a point as seen from the RIS reference element.

    Elevation is the angle between the RIS-to-point vector and the surface
    x axis (arccos of the x component over the 3D distance).  Azimuth is
    the in-plane tilt toward z: arcsin of the z component over the (x, z)
    projection of the distance.
    """
    v = np.asarray(point, dtype=float) - scene.ris_positions[0]
    r2 = float(np.linalg.norm(v))
    if r2 <= 0.0:
        raise InfeasibleGeometryError("point coincides with the RIS reference element")
    r_plane = float(np.hypot(v[0], v[2]))
    if r_plane <= 0.0:
        raise InfeasibleGeometryError("point lies on the RIS surface normal")
    elevation = np.arccos(clamp_arc_argument(v[0] / r2, "elevation arccos"))
    azimuth = np.arcsin(clamp_arc_argument(v[2] / r_plane, "azimuth arcsin"))
    return RisAngles(elevation=float(elevation), azimuth=float(azimuth))


def ris_angles_of_target(scene: Scene) -> RisAngles:
    """RIS-relative angles of the radar target at the scene's target angle."""
    return ris_angles_of_point(scene, scene.target_position)


def upa_phase_lengths(scene: Scene, angles: RisAngles) -> np.ndarray:
    """Per-element effective path-length terms of the RIS response.

    Element i at offsets (dx, dz) from the reference contributes
    dx*sin(elevation)*cos(azimuth) + dz*sin(azimuth); the reference element
    contributes zero.
    """
    offsets = scene.ris_offsets()
    return (
        offsets[:, 0] * np.sin(angles.elevation) * np.cos(angles.azimuth)
        + offsets[:, 1] * np.sin(angles.azimuth)
    )


def ris_phase_derivatives(scene: Scene) -> np.ndarray:
    """d/dtheta of every RIS path-length term at the scene's target angle.

    Differentiates the composition of the angle extraction with the
    path-length map as the target moves along its range circle.  The
    angles themselves are :func:`ris_angles_of_target`'s.
    """
    angles = ris_angles_of_target(scene)
    v = scene.target_position - scene.ris_positions[0]
    dv = scene.target_range * np.array(
        [-np.sin(scene.target_angle), 0.0, np.cos(scene.target_angle)]
    )
    r2 = float(np.linalg.norm(v))
    r_plane = float(np.hypot(v[0], v[2]))
    dr2 = float(v @ dv) / r2
    dr_plane = (v[0] * dv[0] + v[2] * dv[2]) / r_plane

    g = v[0] / r2
    dg = (dv[0] * r2 - v[0] * dr2) / r2**2
    s = v[2] / r_plane
    ds = (dv[2] * r_plane - v[2] * dr_plane) / r_plane**2
    if 1.0 - g * g <= 1e-12 or 1.0 - s * s <= 1e-12:
        raise InfeasibleGeometryError(
            "target aligned with a RIS axis; angle derivatives are singular"
        )
    elevation, azimuth = angles.elevation, angles.azimuth
    d_elevation = -dg / np.sqrt(1.0 - g * g)
    d_azimuth = ds / np.sqrt(1.0 - s * s)

    offsets = scene.ris_offsets()
    return offsets[:, 0] * (
        np.cos(elevation) * np.cos(azimuth) * d_elevation
        - np.sin(elevation) * np.sin(azimuth) * d_azimuth
    ) + offsets[:, 1] * np.cos(azimuth) * d_azimuth
