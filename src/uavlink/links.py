"""One channel realization, evaluable at any candidate UAV position.

With the angular supports held fixed, moving the UAV only rescales the
first-link matrix by one pathloss amplitude and each second-link row by one
per-user amplitude. A realization therefore caches the RF-collapsed raw
matrices (and the first link's SVD, which is scale invariant) once, and
evaluates whole batches of candidate positions with stacked numpy ops.
The batched math is the same formula as :mod:`uavlink.rates`, which is what
the consistency tests pin down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import beamforming as bf
from . import channel as ch
from . import rates
from .geometry import Scenario, Position3D, distances, place_users


@dataclass
class RfDesign:
    """Analog stages for one scenario (support-driven, channel independent)."""

    f_b: np.ndarray
    f_ur: np.ndarray
    f_ut: np.ndarray
    group_slices: list[slice]
    pairs_bs: list[bf.QuantizedPair]
    pairs_uav_rx: list[bf.QuantizedPair]
    group_pairs: list[list[bf.QuantizedPair]]


@dataclass
class BatchEval:
    """Rates of a batch of candidate positions (arrays over the batch)."""

    r1: np.ndarray
    r2: np.ndarray
    r_total: np.ndarray
    sinr: np.ndarray
    alloc_mw: np.ndarray


def design_rf_stages(scenario: Scenario, users: list[Position3D] | None = None,
                     angle_model: str = "fixed") -> RfDesign:
    """Build the three analog stages from the scenario's angular supports."""
    tx_sup, rx_sup = ch.first_link_supports(
        scenario, (scenario.uav.x, scenario.uav.y), angle_model)
    k = scenario.num_users
    pairs_bs = bf.select_pairs(tx_sup, *scenario.bs_array,
                               budget=scenario.rf_budget_bs, minimum=k)
    pairs_rx = bf.select_pairs(rx_sup, *scenario.uav_rx_array,
                               budget=scenario.rf_budget_uav_rx, minimum=k)
    f_b = bf.build_f_b(pairs_bs, *scenario.bs_array, scenario.element_spacing)
    f_ur = bf.build_f_ur(pairs_rx, *scenario.uav_rx_array,
                         scenario.element_spacing)
    if angle_model == "geometric":
        if users is None:
            raise ValueError("geometric angle model needs the realized users")
        supports = ch.group_tx_supports(
            scenario, users, (scenario.uav.x, scenario.uav.y), angle_model)
    else:
        supports = list(scenario.group_supports)
    f_ut, slices, group_pairs = bf.build_f_ut(
        supports, *scenario.uav_tx_array, scenario.element_spacing,
        budget=scenario.rf_budget_uav_tx_per_group,
        minimums=list(scenario.group_sizes))
    return RfDesign(f_b=f_b, f_ur=f_ur, f_ut=f_ut, group_slices=slices,
                    pairs_bs=pairs_bs, pairs_uav_rx=pairs_rx,
                    group_pairs=group_pairs)


class Realization:
    """Drawn paths plus cached RF-collapsed matrices for fast evaluation."""

    def __init__(self, scenario: Scenario, rng: np.random.Generator,
                 angle_model: str = "fixed"):
        self.scenario = scenario
        self.angle_model = angle_model
        if scenario.users is not None:
            self.users = list(scenario.users)
        else:
            self.users = place_users(rng, scenario.num_users,
                                     scenario.user_xy_range)
        self.rf = design_rf_stages(scenario, self.users, angle_model)

        self.first_tx, self.first_rx = ch.draw_first_link(
            scenario, rng, angle_model)
        self.user_paths = ch.draw_second_link(
            scenario, rng, self.users, angle_model)

        self.h1_raw = ch.first_link_matrix(
            self.first_tx, self.first_rx, scenario.uav_rx_array,
            scenario.bs_array, scenario.element_spacing)
        self.h2_raw = ch.second_link_rows(
            self.user_paths, scenario.uav_tx_array, scenario.element_spacing)

        k = scenario.num_users
        self._eff1_raw = self.rf.f_ur @ self.h1_raw @ self.rf.f_b
        u, s, vh = np.linalg.svd(self._eff1_raw)
        if min(self._eff1_raw.shape) < k or s[k - 1] <= s[0] * 1e-12:
            raise bf.RankDeficient(
                "first-link effective channel cannot carry one stream per user")
        self._svals = s[:k]
        self._v1k = vh[:k].conj().T          # N_RFb x K
        self._b_ur = u[:, :k].conj().T       # K x N_RFu_rx
        m0 = self._b_ur @ self._eff1_raw @ self._v1k
        self._s0 = m0 @ m0.conj().T
        self._s0 = 0.5 * (self._s0 + self._s0.conj().T)
        w = self._b_ur @ self.rf.f_ur
        self._q1_unit = w @ w.conj().T
        self._q1_unit = 0.5 * (self._q1_unit + self._q1_unit.conj().T)
        self._eff2_raw = self.h2_raw @ self.rf.f_ut
        self._user_xyz = np.array([u.as_array() for u in self.users])

    # -- geometry ------------------------------------------------------------

    @property
    def num_users(self) -> int:
        return self.scenario.num_users

    @property
    def default_xy(self) -> np.ndarray:
        return np.array([self.scenario.uav.x, self.scenario.uav.y])

    # -- evaluation ----------------------------------------------------------

    def evaluate_batch(self, xys, p_t_mw: float, sigma2_mw: float,
                       p_hat=None) -> BatchEval:
        """Rates at a batch of candidate positions.

        ``p_hat`` gives relative per-user powers, shape (K,) shared or
        (n, K) per candidate; None means equal. Absolute powers are scaled
        to meet the transmit budget with equality at each position.
        """
        xys = np.atleast_2d(np.asarray(xys, dtype=float))
        n = xys.shape[0]
        k = self.num_users
        sc = self.scenario
        tau1, tau2 = distances(sc, xys, self._user_xyz)
        amp1 = ch.pathloss_amplitude(tau1, sc.ref_pathloss_db, sc.pathloss_exp)
        amp2 = ch.pathloss_amplitude(tau2, sc.ref_pathloss_db, sc.pathloss_exp)

        # first hop: scaled identity-plus-covariance log-dets
        scale = (np.asarray(amp1) ** 2) * (p_t_mw / k)
        q = sigma2_mw * self._q1_unit
        sign_q, logdet_q = np.linalg.slogdet(q)
        arg = q[None, :, :] + scale[:, None, None] * self._s0[None, :, :]
        sign_t, logdet_t = np.linalg.slogdet(arg)
        if np.real(sign_q) <= 0.0 or np.any(np.real(sign_t) <= 0.0):
            raise rates.NumericalFailure(
                "noise covariance lost positive definiteness")
        r1 = (logdet_t - logdet_q) / math.log(2.0)

        # second hop: per-candidate RZF and SINR
        e2 = amp2[:, :, None] * self._eff2_raw[None, :, :]      # n x K x N
        e2h = e2.conj().transpose(0, 2, 1)                       # n x N x K
        n_rf = e2.shape[2]
        ridge = sigma2_mw / p_t_mw
        gram = e2h @ e2 + (ridge * n_rf) * np.eye(n_rf)[None, :, :]
        b_ut = np.linalg.solve(gram, e2h)                        # n x N x K
        c = e2 @ b_ut                                            # n x K x K
        col_gain = np.sum(np.abs(b_ut) ** 2, axis=1)             # n x K

        if p_hat is None:
            p_hat_arr = np.ones((n, k))
        else:
            p_hat_arr = np.asarray(p_hat, dtype=float)
            if p_hat_arr.ndim == 1:
                p_hat_arr = np.broadcast_to(p_hat_arr, (n, k)).copy()
            if p_hat_arr.shape != (n, k) or np.any(p_hat_arr < 0.0):
                raise ValueError("relative powers must be (K,) or (n, K), >= 0")
        weighted = np.sum(p_hat_arr * col_gain, axis=1)
        if np.any(weighted <= 0.0):
            raise rates.AllZeroAlloc(
                "allocation carries no power on any active column")
        alloc = (p_t_mw / weighted)[:, None] * p_hat_arr         # kappa^2 p_hat

        gains2 = np.abs(c) ** 2
        diag = gains2[:, np.arange(k), np.arange(k)].copy()
        signal = alloc * diag
        gains2[:, np.arange(k), np.arange(k)] = 0.0
        interference = np.einsum("nkj,nj->nk", gains2, alloc)
        sinr = signal / (interference + sigma2_mw)
        r2 = np.sum(np.log2(1.0 + sinr), axis=1)

        return BatchEval(r1=r1, r2=r2, r_total=0.5 * np.minimum(r1, r2),
                         sinr=sinr, alloc_mw=alloc)

    def stages_at(self, xy, p_t_mw: float, sigma2_mw: float) -> bf.HbfStages:
        """Full stage set at one position, reusing the cached first-link SVD."""
        xy = np.asarray(xy, dtype=float)
        sc = self.scenario
        tau1, tau2 = distances(sc, xy, self._user_xyz)
        amp1 = float(ch.pathloss_amplitude(tau1[0], sc.ref_pathloss_db,
                                           sc.pathloss_exp))
        amp2 = ch.pathloss_amplitude(tau2[0], sc.ref_pathloss_db,
                                     sc.pathloss_exp)
        eff1 = amp1 * self._eff1_raw
        eff2 = amp2[:, None] * self._eff2_raw
        b_b = math.sqrt(p_t_mw / self.num_users) * self._v1k
        b_ut = bf.bb_second_link(eff2, sigma2_mw / p_t_mw)
        return bf.HbfStages(
            f_b=self.rf.f_b, b_b=b_b, f_ur=self.rf.f_ur, b_ur=self._b_ur,
            f_ut=self.rf.f_ut, b_ut=b_ut, eff1=eff1, eff2=eff2,
            group_slices=list(self.rf.group_slices),
            pairs_bs=list(self.rf.pairs_bs),
            pairs_uav_rx=list(self.rf.pairs_uav_rx),
            group_pairs=[list(p) for p in self.rf.group_pairs])

    def rate_at(self, xy, p_t_mw: float, sigma2_mw: float, p_hat=None
                ) -> rates.RateReport:
        """One-position rate report through the reference formulas."""
        stages = self.stages_at(xy, p_t_mw, sigma2_mw)
        if p_hat is None:
            alloc = rates.equal_alloc(stages.b_ut, p_t_mw)
        else:
            alloc = rates.scale_alloc(p_hat, stages.b_ut, p_t_mw)
        return rates.rate_report(stages, alloc, sigma2_mw)

    def channel_pair_at(self, xy) -> ch.ChannelPair:
        """Physical channel matrices at one position (shared path draws)."""
        xy = np.asarray(xy, dtype=float)
        sc = self.scenario
        tau1, tau2 = distances(sc, xy, self._user_xyz)
        amp1 = float(ch.pathloss_amplitude(tau1[0], sc.ref_pathloss_db,
                                           sc.pathloss_exp))
        amp2 = ch.pathloss_amplitude(tau2[0], sc.ref_pathloss_db,
                                     sc.pathloss_exp)
        return ch.ChannelPair(
            h1=amp1 * self.h1_raw, h2=amp2[:, None] * self.h2_raw,
            tau1=float(tau1[0]), tau2=tau2[0], uav_xy=xy,
            first_link_tx=self.first_tx, first_link_rx=self.first_rx,
            user_paths=self.user_paths)


def make_realization(scenario: Scenario, seed, angle_model: str = "fixed"
                     ) -> Realization:
    """Draw one realization from a seed (int, SeedSequence, or Generator)."""
    return Realization(scenario, np.random.default_rng(seed), angle_model)
