"""Spectral efficiencies of both hops and power-allocation scaling.

The relay decodes and forwards in two equal half-duplex phases, so the
end-to-end figure is half the smaller hop rate. Unit-covariance symbols are
assumed throughout; all transmit power lives in the digital stages and the
per-user allocation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .beamforming import HbfStages


class NumericalFailure(ArithmeticError):
    """A covariance that must be positive definite was not."""


class AllZeroAlloc(ValueError):
    """Power scaling requested for an allocation with no power anywhere."""


@dataclass
class PowerAlloc:
    """Per-user transmit powers in mW; P = diag(sqrt(p))."""

    p: np.ndarray

    def __post_init__(self):
        self.p = np.atleast_1d(np.asarray(self.p, dtype=float))
        if np.any(self.p < 0.0) or not np.all(np.isfinite(self.p)):
            raise ValueError("powers must be finite and nonnegative")

    @property
    def num_users(self) -> int:
        return self.p.size


@dataclass
class RateReport:
    r1: float
    r2: float
    r_total: float
    sinr: np.ndarray


def rate_first_link(stages: HbfStages, sigma2_mw: float) -> float:
    """Multiplexed rate of the BS->UAV hop in bps/Hz.

    log2 det(I + Q^-1 S) with S the combined stream covariance and Q the
    combined noise covariance; evaluated as a difference of log-dets so the
    combiner's non-orthogonality is handled exactly.
    """
    m = stages.b_ur @ stages.eff1 @ stages.b_b
    s = m @ m.conj().T
    w = stages.b_ur @ stages.f_ur
    q = sigma2_mw * (w @ w.conj().T)
    q = 0.5 * (q + q.conj().T)
    total = q + s
    total = 0.5 * (total + total.conj().T)
    sign_q, logdet_q = np.linalg.slogdet(q)
    sign_t, logdet_t = np.linalg.slogdet(total)
    if sign_q.real <= 0.0 or sign_t.real <= 0.0 or not (
            np.isfinite(logdet_q) and np.isfinite(logdet_t)):
        raise NumericalFailure("noise covariance lost positive definiteness")
    return float((logdet_t - logdet_q) / math.log(2.0))


def coupling_matrix(stages: HbfStages) -> np.ndarray:
    """K x K map from stream inputs to user observations, h_k^T F b_j."""
    return stages.eff2 @ stages.b_ut


def sinr_from_couplings(c: np.ndarray, p: np.ndarray, sigma2_mw: float
                        ) -> np.ndarray:
    """Per-user SINR p_k |c_kk|^2 / (sigma^2 + sum_{j != k} p_j |c_kj|^2)
    from (..., K, K) couplings and (..., K) powers (leading axes batch)."""
    gains = np.abs(c) ** 2
    own = np.arange(gains.shape[-1])
    signal = p * gains[..., own, own]
    gains[..., own, own] = 0.0
    interference = (gains @ p[..., None])[..., 0]
    return signal / (interference + sigma2_mw)


def sinr_per_user(stages: HbfStages, alloc: PowerAlloc, sigma2_mw: float
                  ) -> np.ndarray:
    """Per-user SINR on the UAV->users hop for a given allocation."""
    c = coupling_matrix(stages)
    if alloc.num_users != c.shape[0]:
        raise ValueError("allocation size does not match the user count")
    return sinr_from_couplings(c, alloc.p, sigma2_mw)


def rate_second_link(stages: HbfStages, alloc: PowerAlloc, sigma2_mw: float
                     ) -> float:
    """Sum rate of the UAV->users hop in bps/Hz."""
    sinr = sinr_per_user(stages, alloc, sigma2_mw)
    return float(np.sum(np.log2(1.0 + sinr)))


def precoder_gains(b_ut: np.ndarray) -> np.ndarray:
    """Column energies b_k^H b_k of the digital precoder."""
    return np.sum(np.abs(b_ut) ** 2, axis=0)


def kappa(p_hat: np.ndarray | None, b_ut: np.ndarray, p_t_mw: float
          ) -> float:
    """Scale factor kappa making the allocation meet the power budget
    with equality: sum_k (kappa^2 p_hat_k) b_k^H b_k = P_T. ``p_hat`` None
    means equal relative powers."""
    gains = precoder_gains(b_ut)
    if p_hat is None:
        # a sum, not a dot with ones: the two differ in the last bit
        weighted = float(np.sum(gains))
    else:
        p_hat = np.asarray(p_hat, dtype=float)
        if np.any(p_hat < 0.0):
            raise ValueError("relative powers must be nonnegative")
        weighted = float(p_hat @ gains)
    if weighted <= 0.0:
        raise AllZeroAlloc("allocation carries no power on any active column")
    return math.sqrt(p_t_mw / weighted)


def scale_alloc(p_hat: np.ndarray | None, b_ut: np.ndarray, p_t_mw: float
                ) -> PowerAlloc:
    """Budget-normalized allocation kappa^2 * p_hat; ``p_hat`` None means
    equal powers."""
    k = kappa(p_hat, b_ut, p_t_mw)
    if p_hat is None:
        p_hat = np.ones(b_ut.shape[1])
    return PowerAlloc(k ** 2 * np.asarray(p_hat, dtype=float))


def rate_report(stages: HbfStages, alloc: PowerAlloc, sigma2_mw: float
                ) -> RateReport:
    """Both hop rates and the half-duplex end-to-end rate."""
    r1 = rate_first_link(stages, sigma2_mw)
    sinr = sinr_per_user(stages, alloc, sigma2_mw)
    r2 = float(np.sum(np.log2(1.0 + sinr)))
    return RateReport(r1=r1, r2=r2, r_total=0.5 * min(r1, r2), sinr=sinr)
