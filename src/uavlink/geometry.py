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


def mw_to_dbm(mw: float) -> float:
    if mw <= 0.0:
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * math.log10(mw)


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

    @property
    def center(self) -> np.ndarray:
        return np.array([0.5 * (self.x_min + self.x_max),
                         0.5 * (self.y_min + self.y_max)])

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

    carrier_freq_hz: float = 28e9
    bandwidth_hz: float = 100e6
    noise_psd_dbm_hz: float = -174.0
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
        if any(k <= 0 for k in self.group_sizes):
            raise ValueError("group sizes must be positive")
        if self.users is not None and len(self.users) != self.num_users:
            raise ValueError(
                f"{len(self.users)} users given but group sizes sum to {self.num_users}")
        for shape in (self.bs_array, self.uav_rx_array, self.uav_tx_array):
            if shape[0] < 1 or shape[1] < 1:
                raise ValueError("array shapes must be at least 1x1")
        if self.element_spacing <= 0.0:
            raise ValueError("element spacing must be positive")
        if self.group_supports is None:
            self.group_supports = default_group_supports(self.num_groups)
        if len(self.group_supports) != self.num_groups:
            raise ValueError("one angular support required per group")
        if not self.box.contains((self.uav.x, self.uav.y)):
            raise OutOfBox("default UAV position outside deployment box")
        k = self.num_users
        if self.rf_budget_bs < k or self.rf_budget_uav_rx < k:
            raise ValueError("first-link RF budgets must be at least the user count")
        if any(self.rf_budget_uav_tx_per_group < kg for kg in self.group_sizes):
            raise ValueError("per-group transmit RF budget must cover the group size")

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


# --- configuration boundary -------------------------------------------------

_FLOAT_KEYS = ("carrier_freq_hz", "bandwidth_hz", "noise_psd_dbm_hz",
               "ref_pathloss_db", "pathloss_exp", "element_spacing")
_SHAPE_KEYS = ("bs_array", "uav_rx_array", "uav_tx_array")
_INT_KEYS = ("paths_first_link", "paths_second_link", "rf_budget_bs",
             "rf_budget_uav_rx", "rf_budget_uav_tx_per_group")
_SCENARIO_KEYS = {"bs_position", "uav_position", "users", "group_sizes",
                  "deployment_box", "user_xy_range", "first_link_supports_deg",
                  "group_supports_deg_full", *_FLOAT_KEYS, *_SHAPE_KEYS,
                  *_INT_KEYS}


def scenario_from_dict(cfg: dict) -> Scenario:
    """Build a Scenario from the dict scenario_to_dict writes (angles in
    degrees); any field may be omitted, unknown fields are errors."""
    unknown = set(cfg) - _SCENARIO_KEYS
    if unknown:
        raise ValueError(f"unknown config field scenario.{sorted(unknown)[0]}")
    kwargs = {}
    if "bs_position" in cfg:
        kwargs["bs"] = Position3D(*cfg["bs_position"])
    if "uav_position" in cfg:
        kwargs["uav"] = Position3D(*cfg["uav_position"])
    if cfg.get("users") is not None:
        kwargs["users"] = [Position3D(*u) for u in cfg["users"]]
    if "group_sizes" in cfg:
        kwargs["group_sizes"] = [int(k) for k in cfg["group_sizes"]]
    if "deployment_box" in cfg:
        kwargs["box"] = Box(*cfg["deployment_box"])
    if "user_xy_range" in cfg:
        kwargs["user_xy_range"] = tuple(cfg["user_xy_range"])
    for key in _FLOAT_KEYS:
        if key in cfg:
            kwargs[key] = float(cfg[key])
    for key in _SHAPE_KEYS:
        if key in cfg:
            kwargs[key] = (int(cfg[key][0]), int(cfg[key][1]))
    for key in _INT_KEYS:
        if key in cfg:
            kwargs[key] = int(cfg[key])
    if "first_link_supports_deg" in cfg:
        name = "scenario.first_link_supports_deg"
        pair = cfg["first_link_supports_deg"]
        _check_fields(pair, ("tx", "rx"), name)
        kwargs["first_link_tx_support"] = _support_from_deg(
            pair["tx"], f"{name}.tx")
        kwargs["first_link_rx_support"] = _support_from_deg(
            pair["rx"], f"{name}.rx")
    if "group_supports_deg_full" in cfg:
        kwargs["group_supports"] = [
            _support_from_deg(g, f"scenario.group_supports_deg_full[{i}]")
            for i, g in enumerate(cfg["group_supports_deg_full"])]
    return Scenario(**kwargs)


def scenario_to_dict(s: Scenario) -> dict:
    """Dict round-trip counterpart of scenario_from_dict (angles in degrees)."""
    out = {
        "bs_position": [s.bs.x, s.bs.y, s.bs.z],
        "uav_position": [s.uav.x, s.uav.y, s.uav.z],
        "users": None if s.users is None else [[u.x, u.y, u.z] for u in s.users],
        "group_sizes": list(s.group_sizes),
        "deployment_box": [s.box.x_min, s.box.y_min, s.box.x_max, s.box.y_max],
        "user_xy_range": list(s.user_xy_range),
        "carrier_freq_hz": s.carrier_freq_hz,
        "bandwidth_hz": s.bandwidth_hz,
        "noise_psd_dbm_hz": s.noise_psd_dbm_hz,
        "ref_pathloss_db": s.ref_pathloss_db,
        "pathloss_exp": s.pathloss_exp,
        "bs_array": list(s.bs_array),
        "uav_rx_array": list(s.uav_rx_array),
        "uav_tx_array": list(s.uav_tx_array),
        "element_spacing": s.element_spacing,
        "paths_first_link": s.paths_first_link,
        "paths_second_link": s.paths_second_link,
        "rf_budget_bs": s.rf_budget_bs,
        "rf_budget_uav_rx": s.rf_budget_uav_rx,
        "rf_budget_uav_tx_per_group": s.rf_budget_uav_tx_per_group,
        "first_link_supports_deg": {
            "tx": _support_to_deg(s.first_link_tx_support),
            "rx": _support_to_deg(s.first_link_rx_support),
        },
        "group_supports_deg_full": [_support_to_deg(g) for g in s.group_supports],
    }
    return out


def _support_to_deg(sup: AngularSupport) -> dict:
    return {
        "mean_elev_deg": math.degrees(sup.mean_elev),
        "mean_azim_deg": math.degrees(sup.mean_azim),
        "spread_elev_deg": math.degrees(sup.spread_elev),
        "spread_azim_deg": math.degrees(sup.spread_azim),
    }


_SUPPORT_KEYS = ("mean_elev_deg", "mean_azim_deg", "spread_elev_deg",
                 "spread_azim_deg")


def _check_fields(d, keys: tuple[str, ...], name: str) -> None:
    """Require ``d`` to be a dict of exactly ``keys``, naming the config
    path ``name`` otherwise."""
    if not isinstance(d, dict):
        raise ValueError(f"config field {name} must be an object")
    for key in keys:
        if key not in d:
            raise ValueError(f"missing config field {name}.{key}")
    unknown = set(d) - set(keys)
    if unknown:
        raise ValueError(f"unknown config field {name}.{sorted(unknown)[0]}")


def _support_from_deg(d: dict, name: str) -> AngularSupport:
    _check_fields(d, _SUPPORT_KEYS, name)
    return AngularSupport(*(math.radians(float(d[k])) for k in _SUPPORT_KEYS))
