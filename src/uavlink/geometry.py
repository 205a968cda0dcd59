"""Node placement, distances, and the scenario container.

All positions are metric (x, y, z) with z up. Powers are handled in linear
milliwatts internally; dBm only appears at configuration boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class OutOfBox(ValueError):
    """Candidate UAV position lies outside the deployment box."""


class DegenerateGeometry(ValueError):
    """Two nodes coincide, so a propagation distance would be zero."""


def dbm_to_mw(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0)


@dataclass(frozen=True)
class Position3D:
    x: float
    y: float
    z: float

    def __post_init__(self):
        if self.z < 0.0:
            raise ValueError(f"altitude must be nonnegative, got {self.z}")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class AngularSupport:
    """Rectangular angular interval, radians: mean +/- spread per axis."""

    mean_elev: float
    mean_azim: float
    spread_elev: float
    spread_azim: float

    def __post_init__(self):
        if self.spread_elev < 0.0 or self.spread_azim < 0.0:
            raise ValueError("angle spreads must be nonnegative")
        if not (0.0 < self.mean_elev - self.spread_elev
                and self.mean_elev + self.spread_elev < math.pi):
            raise ValueError("elevation support must lie inside (0, pi)")
        if not (0.0 < self.mean_azim - self.spread_azim
                and self.mean_azim + self.spread_azim < 2.0 * math.pi):
            raise ValueError("azimuth support must lie inside (0, 2*pi)")

    @property
    def elev_interval(self) -> tuple[float, float]:
        return (self.mean_elev - self.spread_elev, self.mean_elev + self.spread_elev)

    @property
    def azim_interval(self) -> tuple[float, float]:
        return (self.mean_azim - self.spread_azim, self.mean_azim + self.spread_azim)


@dataclass(frozen=True)
class Box:
    """Axis-aligned horizontal deployment region for the UAV."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("deployment box must have positive extent")

    def contains(self, xy) -> bool:
        x, y = float(xy[0]), float(xy[1])
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max

    def clip(self, xy) -> np.ndarray:
        return np.array([
            min(max(float(xy[0]), self.x_min), self.x_max),
            min(max(float(xy[1]), self.y_min), self.y_max),
        ])

    def from_unit(self, coords) -> np.ndarray:
        """Map unit-box coordinates, shape (..., 2), onto the box in metres."""
        return self._origin + np.asarray(coords, dtype=float) * self._extent

    def to_unit(self, xy) -> np.ndarray:
        """Inverse of from_unit: metres, shape (..., 2), to the unit box."""
        return (np.asarray(xy, dtype=float) - self._origin) / self._extent

    @property
    def _origin(self) -> np.ndarray:
        return np.array([self.x_min, self.y_min])

    @property
    def _extent(self) -> np.ndarray:
        return np.array([self.x_max - self.x_min, self.y_max - self.y_min])


@dataclass
class Scenario:
    """Static description of one deployment: nodes, arrays, spectrum, supports.

    ``users`` may be None, in which case user positions are drawn per channel
    realization from ``user_xy_range`` (uniform, ground level). ``group_sizes``
    assigns users to groups contiguously: group g serves users
    [sum(group_sizes[:g]), sum(group_sizes[:g+1])).
    """

    bs: Position3D = Position3D(0.0, 0.0, 10.0)
    uav: Position3D = Position3D(50.0, 50.0, 20.0)
    users: list[Position3D] | None = None
    group_sizes: list[int] = field(default_factory=lambda: [2, 2])
    box: Box = Box(0.0, 0.0, 100.0, 100.0)
    user_xy_range: tuple[float, float] = (50.0, 100.0)

    bandwidth_hz: float = 100e6
    noise_psd_dbm_hz: float = -174.0
    # the carrier enters only here: about the 1 m free-space loss at 28 GHz
    ref_pathloss_db: float = 61.34
    pathloss_exp: float = 3.6

    bs_array: tuple[int, int] = (4, 4)
    uav_rx_array: tuple[int, int] = (4, 4)
    uav_tx_array: tuple[int, int] = (4, 4)
    element_spacing: float = 0.5

    paths_first_link: int = 10
    paths_second_link: int = 10

    first_link_tx_support: AngularSupport = AngularSupport(
        math.radians(60.0), math.radians(120.0),
        math.radians(10.0), math.radians(10.0))
    first_link_rx_support: AngularSupport = AngularSupport(
        math.radians(60.0), math.radians(120.0),
        math.radians(10.0), math.radians(10.0))
    group_supports: list[AngularSupport] | None = None

    rf_budget_bs: int = 12
    rf_budget_uav_rx: int = 12
    rf_budget_uav_tx_per_group: int = 6

    def __post_init__(self):
        for name in ("group_sizes", "bs_array", "uav_rx_array", "uav_tx_array"):
            if not all(n > 0 for n in getattr(self, name)):
                raise ValueError(f"scenario.{name} entries must be positive, "
                                 f"got {list(getattr(self, name))}")
        if self.users is not None and len(self.users) != self.num_users:
            raise ValueError(
                f"scenario.users gives {len(self.users)} users but "
                f"scenario.group_sizes sums to {self.num_users}")
        for name in ("bandwidth_hz", "pathloss_exp", "element_spacing",
                     "paths_first_link", "paths_second_link"):
            if not getattr(self, name) > 0:
                raise ValueError(f"scenario.{name} must be positive, "
                                 f"got {getattr(self, name)!r}")
        if not self.user_xy_range[0] < self.user_xy_range[1]:
            raise ValueError(f"scenario.user_xy_range must be increasing, "
                             f"got {list(self.user_xy_range)}")
        if self.group_supports is None:
            self.group_supports = default_group_supports(self.num_groups)
        if len(self.group_supports) != self.num_groups:
            raise ValueError(
                f"scenario.group_supports_deg_full gives "
                f"{len(self.group_supports)} angular supports for "
                f"{self.num_groups} groups; one is required per group")
        if not self.box.contains((self.uav.x, self.uav.y)):
            b = self.box
            raise OutOfBox(
                f"scenario.uav_position ({self.uav.x}, {self.uav.y}) lies "
                f"outside scenario.deployment_box "
                f"[{b.x_min}, {b.y_min}, {b.x_max}, {b.y_max}]")
        # a swarm may place a candidate anywhere in the box, corners included
        nodes = [("scenario.bs_position", self.bs), *(
            (f"scenario.users[{i}]", u) for i, u in enumerate(self.users or []))]
        for name, node in nodes:
            if node.z == self.uav.z and self.box.contains((node.x, node.y)):
                raise ValueError(
                    f"scenario.uav_position altitude {self.uav.z} equals "
                    f"{name}'s, and {name} ({node.x}, {node.y}) lies in "
                    f"scenario.deployment_box: a UAV candidate there would "
                    f"sit on it")
        for name in ("rf_budget_bs", "rf_budget_uav_rx"):
            if getattr(self, name) < self.num_users:
                raise ValueError(
                    f"scenario.{name} must be at least the user count "
                    f"{self.num_users}, got {getattr(self, name)}")
        largest = max(self.group_sizes, default=0)
        if self.rf_budget_uav_tx_per_group < largest:
            raise ValueError(
                f"scenario.rf_budget_uav_tx_per_group must cover the largest "
                f"group, {largest} users, got {self.rf_budget_uav_tx_per_group}")

    @property
    def num_users(self) -> int:
        return sum(self.group_sizes)

    @property
    def num_groups(self) -> int:
        return len(self.group_sizes)

    def group_of_user(self, k: int) -> int:
        bound = 0
        for g, size in enumerate(self.group_sizes):
            bound += size
            if k < bound:
                return g
        raise IndexError(f"user index {k} out of range")


def default_group_supports(num_groups: int) -> list[AngularSupport]:
    """Evenly rotated azimuth supports, one per group: elevation 60 deg,
    azimuth 21 + 120 g deg, spreads 10 deg."""
    return [
        AngularSupport(math.radians(60.0), math.radians(21.0 + 120.0 * g),
                       math.radians(10.0), math.radians(10.0))
        for g in range(num_groups)
    ]


def place_users(rng: np.random.Generator, count: int,
                xy_range: tuple[float, float]) -> list[Position3D]:
    """Draw ground-level user positions uniformly on the square range."""
    lo, hi = xy_range
    xy = rng.uniform(lo, hi, size=(count, 2))
    return [Position3D(float(x), float(y), 0.0) for x, y in xy]


def distances(scenario: Scenario, xys, user_xyz: np.ndarray
              ) -> tuple[np.ndarray, np.ndarray]:
    """3-D distances for a batch of candidate UAV positions (x, y).

    Returns tau1 (n,), BS->UAV, and tau2 (n, K), UAV->user k at row k of
    ``user_xyz``, shape (K, 3) shared by every candidate or (n, K, 3) one
    set per candidate; the UAV altitude is the scenario's. Raises OutOfBox
    for a candidate outside the deployment box and DegenerateGeometry if
    any distance is zero.
    """
    xys = np.atleast_2d(np.asarray(xys, dtype=float))
    box = scenario.box
    ok = ((xys[:, 0] >= box.x_min) & (xys[:, 0] <= box.x_max)
          & (xys[:, 1] >= box.y_min) & (xys[:, 1] <= box.y_max))
    if not np.all(ok):
        bad = xys[~ok][0]
        raise OutOfBox(f"candidate {tuple(bad)} outside deployment box")
    z = scenario.uav.z
    bs = scenario.bs.as_array()
    d1 = np.hypot(xys[:, 0] - bs[0], xys[:, 1] - bs[1])
    tau1 = np.sqrt(d1 ** 2 + (z - bs[2]) ** 2)
    dx = xys[:, 0][:, None] - user_xyz[..., 0]
    dy = xys[:, 1][:, None] - user_xyz[..., 1]
    dz = z - user_xyz[..., 2]
    tau2 = np.sqrt(dx ** 2 + dy ** 2 + dz ** 2)
    if np.any(tau1 == 0.0) or np.any(tau2 == 0.0):
        raise DegenerateGeometry("zero propagation distance")
    return tau1, tau2


def noise_power(scenario: Scenario) -> float:
    """Thermal noise power over the full bandwidth, in dBm."""
    return scenario.noise_psd_dbm_hz + 10.0 * math.log10(scenario.bandwidth_hz)
