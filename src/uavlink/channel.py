"""Clustered mmWave channel synthesis for both hops.

Uniform rectangular arrays with elements indexed row-major; the steering
phase of element (n_x, n_y) toward direction (elev, azim) is
2*pi*spacing*(n_x*u + n_y*v) with direction cosines u = sin(elev)*cos(azim)
and v = sin(elev)*sin(azim). Transmit-side vectors carry the positive phase
sign, receive-side vectors the negative one.

Channel matrices are built as conjugates of the matching analog-stage
steering so that a beam pointed at a path's direction collects the full
array gain (the analog stages in :mod:`uavlink.beamforming` use the
transmit/receive signs above).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import AngularSupport, Position3D, Scenario


@dataclass
class PathSet:
    """Angles and complex gains of one side of a clustered-path draw."""

    elev: np.ndarray
    azim: np.ndarray
    gains: np.ndarray

    def __post_init__(self):
        self.elev = np.atleast_1d(np.asarray(self.elev, dtype=float))
        self.azim = np.atleast_1d(np.asarray(self.azim, dtype=float))
        self.gains = np.atleast_1d(np.asarray(self.gains, dtype=complex))
        if not (self.elev.shape == self.azim.shape == self.gains.shape):
            raise ValueError("elev, azim and gains must have matching shapes")

    @property
    def size(self) -> int:
        return self.elev.size


@dataclass
class ChannelPair:
    """One realization's physical channel at a fixed UAV position: the
    second hop's rows, which the surrogate's features read. The first hop
    is kept only RF-collapsed (:meth:`uavlink.links.Realization.stages_at`).
    """

    h2: np.ndarray          # K x N_t, UAV -> users (row per user)


class Supports(NamedTuple):
    """The angular supports of one realization: both sides of the first
    link, and one transmit support per user group."""

    first_tx: AngularSupport
    first_rx: AngularSupport
    groups: list[AngularSupport]


def direction_cosines(elev, azim) -> tuple[np.ndarray, np.ndarray]:
    """Map spherical angles to the (u, v) image coordinates of the array."""
    elev = np.asarray(elev, dtype=float)
    azim = np.asarray(azim, dtype=float)
    sin_e = np.sin(elev)
    return sin_e * np.cos(azim), sin_e * np.sin(azim)


def steering_from_cosines(u, v, rows: int, cols: int, spacing: float = 0.5,
                          direction: str = "transmit") -> np.ndarray:
    """Steering vectors evaluated directly at direction cosines (u, v).

    Returns shape (N,) for scalar inputs or (n, N) for length-n inputs,
    N = rows*cols, entries of unit magnitude (no normalization).
    """
    sign = _phase_sign(direction)
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    phase_x = sign * 2j * math.pi * spacing * np.outer(u, np.arange(rows))
    phase_y = sign * 2j * math.pi * spacing * np.outer(v, np.arange(cols))
    ex = np.exp(phase_x)                     # (n, rows)
    ey = np.exp(phase_y)                     # (n, cols)
    out = (ex[:, :, None] * ey[:, None, :]).reshape(u.size, rows * cols)
    return out[0] if scalar else out


def steering_block(paths: PathSet, shape: tuple[int, int],
                   spacing: float = 0.5, direction: str = "transmit"
                   ) -> np.ndarray:
    """Stacked steering vectors of a path set, one row per path."""
    u, v = direction_cosines(paths.elev, paths.azim)
    return np.atleast_2d(
        steering_from_cosines(u, v, shape[0], shape[1], spacing, direction))


def _phase_sign(direction: str) -> float:
    if direction == "transmit":
        return 1.0
    if direction == "receive":
        return -1.0
    raise ValueError(f"direction must be 'transmit' or 'receive', got {direction!r}")


def pathloss_amplitude(tau, ref_db: float, exponent: float) -> np.ndarray | float:
    """Log-distance amplitude factor: power decays as tau**(-exponent)."""
    tau = np.asarray(tau, dtype=float)
    if np.any(tau <= 0.0):
        raise ValueError("distances must be positive")
    amp = 10.0 ** (-(ref_db + 10.0 * exponent * np.log10(tau)) / 20.0)
    return float(amp) if amp.ndim == 0 else amp


def draw_path_angles(rng: np.random.Generator, support: AngularSupport,
                     count: int) -> tuple[np.ndarray, np.ndarray]:
    elo, ehi = support.elev_interval
    alo, ahi = support.azim_interval
    elev = rng.uniform(elo, ehi, size=count)
    azim = rng.uniform(alo, ahi, size=count)
    return elev, azim


def draw_gains(rng: np.random.Generator, count: int) -> np.ndarray:
    """Circularly symmetric complex gains, total mean power 1."""
    scale = math.sqrt(1.0 / (2 * count))
    return scale * (rng.standard_normal(count) + 1j * rng.standard_normal(count))


def first_link_matrix(tx: PathSet, rx: PathSet, rx_shape: tuple[int, int],
                      tx_shape: tuple[int, int], spacing: float = 0.5
                      ) -> np.ndarray:
    """Assemble the BS->UAV matrix from drawn paths, without pathloss.

    Receive-side columns use the transmit phase sign and transmit-side rows
    the receive sign: each is the conjugate of the analog stage that will
    point at it, which is what makes the RF beams matched filters.
    """
    a_rx = steering_block(rx, rx_shape, spacing, "transmit")   # L x N_r
    a_tx = steering_block(tx, tx_shape, spacing, "receive")    # L x N_T
    return (a_rx.T * tx.gains) @ a_tx


def second_link_rows(user_paths: list[PathSet], tx_shape: tuple[int, int],
                     spacing: float = 0.5) -> np.ndarray:
    """Stack the UAV->user MISO rows, one per user, without pathloss.

    Rows are conjugates of transmit-sign steering (receive sign) so that
    h_k^T f is coherent when f points at user k's paths.
    """
    k = len(user_paths)
    n_t = tx_shape[0] * tx_shape[1]
    h2 = np.empty((k, n_t), dtype=complex)
    for i, paths in enumerate(user_paths):
        block = steering_block(paths, tx_shape, spacing, "receive")
        h2[i] = paths.gains @ block
    return h2


ANGLE_MODELS = ("fixed", "geometric")


def angular_supports(scenario: Scenario, users: list[Position3D],
                     angle_model: str) -> Supports:
    """Resolve a realization's angular supports under ``angle_model``.

    ``fixed`` takes the scenario's supports as configured. ``geometric``
    re-centres each one on a line of sight with the UAV at its default
    position: the first link on BS <-> UAV, each group on UAV -> the
    centroid of its ``users``. Either way the supports are resolved once per
    realization, and every candidate UAV position reuses them.
    """
    if angle_model == "fixed":
        return Supports(scenario.first_link_tx_support,
                        scenario.first_link_rx_support,
                        list(scenario.group_supports))
    if angle_model != "geometric":
        raise ValueError(f"unknown angle model {angle_model!r}")
    uav = scenario.uav
    groups, start = [], 0
    for base, size in zip(scenario.group_supports, scenario.group_sizes):
        members = users[start:start + size]
        start += size
        centroid = Position3D(
            float(np.mean([u.x for u in members])),
            float(np.mean([u.y for u in members])),
            float(np.mean([u.z for u in members])))
        groups.append(recenter_support(base, uav, centroid))
    return Supports(
        recenter_support(scenario.first_link_tx_support, scenario.bs, uav),
        recenter_support(scenario.first_link_rx_support, uav, scenario.bs),
        groups)


def draw_first_link(scenario: Scenario, rng: np.random.Generator,
                    supports: Supports) -> tuple[PathSet, PathSet]:
    """Draw the first-hop paths (transmit side, receive side), which share
    their gains, inside the realization's first-link supports."""
    n_paths = scenario.paths_first_link
    tx_elev, tx_azim = draw_path_angles(rng, supports.first_tx, n_paths)
    rx_elev, rx_azim = draw_path_angles(rng, supports.first_rx, n_paths)
    gains = draw_gains(rng, n_paths)
    return (PathSet(tx_elev, tx_azim, gains),
            PathSet(rx_elev, rx_azim, gains))


def draw_second_link(scenario: Scenario, rng: np.random.Generator,
                     supports: Supports) -> list[PathSet]:
    """Draw each user's second-hop paths inside its group's support."""
    q = scenario.paths_second_link
    user_paths = []
    for k in range(scenario.num_users):
        sup = supports.groups[scenario.group_of_user(k)]
        elev, azim = draw_path_angles(rng, sup, q)
        user_paths.append(PathSet(elev, azim, draw_gains(rng, q)))
    return user_paths


def recenter_support(base: AngularSupport, src: Position3D, dst: Position3D
                     ) -> AngularSupport:
    """Move a support's means onto the src->dst line of sight, keeping spreads."""
    delta = dst.as_array() - src.as_array()
    r = float(np.linalg.norm(delta))
    if r == 0.0:
        raise ValueError("cannot recenter a support on coincident nodes")
    eps = 1e-6
    elev = math.acos(max(-1.0, min(1.0, delta[2] / r)))
    elev = min(max(elev, base.spread_elev + eps), math.pi - base.spread_elev - eps)
    azim = math.atan2(delta[1], delta[0]) % (2.0 * math.pi)
    azim = min(max(azim, base.spread_azim + eps),
               2.0 * math.pi - base.spread_azim - eps)
    return AngularSupport(elev, azim, base.spread_elev, base.spread_azim)
