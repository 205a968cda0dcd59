"""Hybrid beamforming: analog stages on a quantized angle grid, digital
stages from SVD (first link) and regularized zero forcing (second link).

The analog grid on an N_x x N_y array quantizes each direction cosine into
N values lambda_n = -1 + (2n - 1)/N, n = 1..N. At half-wavelength spacing
the grid columns are mutually orthogonal. A stage keeps exactly the grid
cells its angular support image touches, so every entry has constant
modulus 1/sqrt(N_x*N_y).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .geometry import AngularSupport
from .channel import direction_cosines, steering_from_cosines


class EmptySupport(ValueError):
    """Angular support image touches no grid cell."""


class RankDeficient(ValueError):
    """Effective first-link channel cannot carry the requested streams."""


class SingularSystem(ValueError):
    """Unregularized second-link solve hit a singular normal matrix."""


class OverlappingSupports(UserWarning):
    """Two group supports map to a shared grid cell."""


@dataclass(frozen=True)
class QuantizedPair:
    """One selected grid cell: indices are 1-based as in lambda_n."""

    n: int
    k: int
    lx: float
    ly: float


@dataclass
class HbfStages:
    """Analog + digital stages and the effective channels they induce."""

    f_b: np.ndarray        # N_T x N_RFb
    b_b: np.ndarray        # N_RFb x K
    f_ur: np.ndarray       # N_RFu_rx x N_r
    b_ur: np.ndarray       # K x N_RFu_rx
    f_ut: np.ndarray       # N_t x N_RFu_tx
    b_ut: np.ndarray       # N_RFu_tx x K
    eff1: np.ndarray       # N_RFu_rx x N_RFb
    eff2: np.ndarray       # K x N_RFu_tx


def grid_cosines(n: int) -> np.ndarray:
    """The quantized direction cosines lambda_1..lambda_n."""
    return -1.0 + (2.0 * np.arange(1, n + 1) - 1.0) / n


def cell_index(u, n: int) -> np.ndarray:
    """1-based index of the grid cell covering cosine u.

    Cell n spans [lambda_n - 1/n, lambda_n + 1/n]; the cells tile [-1, 1]
    exactly, so the map is a clipped ceiling.
    """
    idx = np.ceil((np.asarray(u, dtype=float) + 1.0) * n / 2.0).astype(int)
    return np.clip(idx, 1, n)


def support_image(support: AngularSupport, samples: int = 200
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Dense (u, v) sampling of the support rectangle: the ``samples`` x
    ``samples`` (elevation, azimuth) grid, evaluated by broadcasting."""
    elo, ehi = support.elev_interval
    alo, ahi = support.azim_interval
    elev = np.linspace(elo, ehi, samples)
    azim = np.linspace(alo, ahi, samples)
    return direction_cosines(elev[:, None], azim[None, :])


def select_pairs(support: AngularSupport, nx: int, ny: int,
                 budget: int | None = None, minimum: int | None = None,
                 samples: int = 200) -> list[QuantizedPair]:
    """Grid cells whose (lx, ly) cell touches the support image.

    Each sample of :func:`support_image` marks its cell on an occupancy
    grid. ``budget`` caps the pair count, ``minimum`` floors it; both keep
    or add the cells nearest the support-center image (ties broken on
    (n, k)). Returned pairs are sorted by (n, k).
    """
    u, v = support_image(support, samples)
    if u.size == 0:
        raise EmptySupport("support produced no sample points")
    touched = np.zeros((nx + 1) * (ny + 1), dtype=bool)
    # 50-row blocks keep temporaries below glibc's 128 KB mmap threshold
    for r in range(0, len(u), 50):
        keys = cell_index(u[r:r + 50], nx)
        keys *= ny + 1
        keys += cell_index(v[r:r + 50], ny)
        touched[keys] = True
    lx_all = grid_cosines(nx)
    ly_all = grid_cosines(ny)
    uc, vc = direction_cosines(support.mean_elev, support.mean_azim)

    def nearest_first(cells) -> list[tuple[int, int]]:
        return sorted(cells, key=lambda nk: (math.hypot(
            lx_all[nk[0] - 1] - uc, ly_all[nk[1] - 1] - vc), nk))

    chosen = nearest_first(divmod(key, ny + 1)
                           for key in np.flatnonzero(touched).tolist())[:budget]
    if minimum is not None and len(chosen) < minimum:
        taken = set(chosen)
        pool = nearest_first((n, k) for n in range(1, nx + 1)
                             for k in range(1, ny + 1) if (n, k) not in taken)
        chosen.extend(pool[:minimum - len(chosen)])
        if len(chosen) < minimum:
            raise EmptySupport(
                f"grid has only {nx * ny} cells, cannot supply {minimum} pairs")
    chosen.sort()
    return [QuantizedPair(n, k, float(lx_all[n - 1]), float(ly_all[k - 1]))
            for n, k in chosen]


def _grid_matrix(pairs: list[QuantizedPair], nx: int, ny: int, spacing: float,
                 direction: str) -> np.ndarray:
    lx = np.array([p.lx for p in pairs])
    ly = np.array([p.ly for p in pairs])
    return steering_from_cosines(lx, ly, nx, ny, spacing, direction)


def build_f_b(pairs: list[QuantizedPair], nx: int, ny: int,
              spacing: float = 0.5) -> np.ndarray:
    """BS analog precoder, one constant-modulus column per selected pair."""
    block = _grid_matrix(pairs, nx, ny, spacing, "transmit")
    return block.T / math.sqrt(nx * ny)


def build_f_ur(pairs: list[QuantizedPair], nx: int, ny: int,
               spacing: float = 0.5) -> np.ndarray:
    """UAV analog combiner, one constant-modulus row per selected pair."""
    block = _grid_matrix(pairs, nx, ny, spacing, "receive")
    return block / math.sqrt(nx * ny)


def build_f_ut(group_supports: list[AngularSupport], nx: int, ny: int,
               spacing: float = 0.5, budget: int | None = None,
               minimums: list[int] | None = None, samples: int = 200
               ) -> np.ndarray:
    """UAV analog precoder: per-group column blocks, concatenated.

    Warns OverlappingSupports when two groups share a cell.
    """
    group_pairs = []
    for g, sup in enumerate(group_supports):
        minimum = None if minimums is None else minimums[g]
        group_pairs.append(select_pairs(sup, nx, ny, budget, minimum, samples))
    seen: dict[tuple[int, int], int] = {}
    for g, pairs in enumerate(group_pairs):
        for p in pairs:
            if (p.n, p.k) in seen:
                warnings.warn(
                    f"groups {seen[(p.n, p.k)]} and {g} share grid cell "
                    f"({p.n}, {p.k}); cross-group leakage will be high",
                    OverlappingSupports)
            else:
                seen[(p.n, p.k)] = g
    blocks = [build_f_b(pairs, nx, ny, spacing) for pairs in group_pairs]
    return np.concatenate(blocks, axis=1)


def bb_first_link(eff1: np.ndarray, p_t_mw: float, num_users: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD stages for the first hop.

    Returns (b_b, b_ur, singular_values): b_b carries the full power budget
    split evenly over the K streams, b_ur is the matched subspace combiner.
    """
    k = num_users
    if min(eff1.shape) < k:
        raise RankDeficient(
            f"effective channel {eff1.shape} cannot carry {k} streams")
    u, s, vh = np.linalg.svd(eff1)
    if s[k - 1] <= s[0] * 1e-12:
        raise RankDeficient(
            f"singular value {k} of the effective channel is numerically zero")
    b_b = math.sqrt(p_t_mw / k) * vh[:k].conj().T
    b_ur = u[:, :k].conj().T
    return b_b, b_ur, s[:k]


def bb_second_link(eff2: np.ndarray, ridge: float) -> np.ndarray:
    """Regularized zero-forcing stage for the second hop.

    ``ridge`` is the per-chain regularizer (noise power over transmit
    power); the solve uses ridge * N_RF on the diagonal.
    """
    n_rf = eff2.shape[1]
    gram = eff2.conj().T @ eff2 + ridge * n_rf * np.eye(n_rf)
    try:
        return np.linalg.solve(gram, eff2.conj().T)
    except np.linalg.LinAlgError as err:
        if ridge == 0.0:
            raise SingularSystem(
                "unregularized normal matrix is singular") from err
        raise
