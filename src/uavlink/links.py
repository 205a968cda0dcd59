"""One channel realization, evaluable at any candidate UAV position.

With the angular supports held fixed, moving the UAV only rescales the
first-link matrix by one pathloss amplitude and each second-link row by one
per-user amplitude. A realization therefore caches the RF-collapsed raw
matrices, the first link's SVD stages (scale invariant) and the second
link's K x K Gram once, and evaluates whole batches of candidate positions
with stacked numpy ops: the first hop as a difference of log-dets, the
second through the push-through form of RZF on K x K matrices only, with
the SINR of :func:`uavlink.rates.sinr_from_couplings`.

The caches carry a leading realization axis, of length one for a drawn
realization. :func:`stack_realizations` joins realizations of one scenario
on that axis, so one ``evaluate_batch`` call scores candidates spread over
many realizations; each candidate's result equals the one its own
realization gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import beamforming as bf
from . import channel as ch
from . import rates
from .geometry import Scenario, distances, place_users


@dataclass
class RfDesign:
    """Analog stages designed from one set of angular supports (channel
    independent).

    The stage matrices are read-only, because one design may be shared by
    every realization of a run.
    """

    supports: ch.Supports
    f_b: np.ndarray
    f_ur: np.ndarray
    f_ut: np.ndarray


@dataclass
class BatchEval:
    """Rates of a batch of candidate positions (arrays over the batch)."""

    r1: np.ndarray
    r2: np.ndarray
    r_total: np.ndarray
    sinr: np.ndarray
    alloc_mw: np.ndarray


def design_rf_stages(scenario: Scenario, supports: ch.Supports) -> RfDesign:
    """Build the three analog stages from a realization's angular supports."""
    k = scenario.num_users
    pairs_bs = bf.select_pairs(supports.first_tx, *scenario.bs_array,
                               budget=scenario.rf_budget_bs, minimum=k)
    pairs_rx = bf.select_pairs(supports.first_rx, *scenario.uav_rx_array,
                               budget=scenario.rf_budget_uav_rx, minimum=k)
    f_b = bf.build_f_b(pairs_bs, *scenario.bs_array, scenario.element_spacing)
    f_ur = bf.build_f_ur(pairs_rx, *scenario.uav_rx_array,
                         scenario.element_spacing)
    f_ut = bf.build_f_ut(
        supports.groups, *scenario.uav_tx_array, scenario.element_spacing,
        budget=scenario.rf_budget_uav_tx_per_group,
        minimums=list(scenario.group_sizes))
    # one design may serve every realization of a run: freeze what it shares
    for stage in (f_b, f_ur, f_ut):
        stage.flags.writeable = False
    return RfDesign(supports=supports, f_b=f_b, f_ur=f_ur, f_ut=f_ut)


def shared_rf(scenario: Scenario, angle_model: str = "fixed"
              ) -> RfDesign | None:
    """The analog stages every realization of ``scenario`` shares, or None
    when each realization needs its own.

    The stages follow the supports alone, so one design serves a whole
    run whenever the supports do not depend on drawn users: under ``fixed``,
    and under ``geometric`` with ``scenario.users`` configured. Designing
    consumes no randomness. Under ``geometric`` with drawn users the group
    supports follow each realization's users.
    """
    if angle_model != "fixed" and scenario.users is None:
        return None
    return design_rf_stages(scenario, ch.angular_supports(
        scenario, list(scenario.users or []), angle_model))


class Realization:
    """Drawn paths plus cached RF-collapsed matrices for fast evaluation.

    The angular supports are resolved once, with the UAV at its default
    position (:func:`uavlink.channel.angular_supports`); every candidate
    position reuses them. ``rf`` is an optional prebuilt design for
    ``scenario`` (see :func:`shared_rf`); without one the realization
    designs its own.

    The evaluation caches have a leading realization axis, of length one
    here and R in a stack (:func:`stack_realizations`), which evaluates
    batches only: its single-position methods refuse.
    """

    def __init__(self, scenario: Scenario, rng: np.random.Generator,
                 angle_model: str = "fixed", rf: RfDesign | None = None):
        self.scenario = scenario
        if scenario.users is not None:
            self.users = list(scenario.users)
        else:
            self.users = place_users(rng, scenario.num_users,
                                     scenario.user_xy_range)
        supports = ch.angular_supports(scenario, self.users, angle_model)
        if rf is not None and rf.supports != supports:
            raise ValueError(
                "the shared RF design was made from other angular supports "
                "than this realization's: under the geometric angle model the "
                "group supports follow each realization's users")
        self.rf = rf if rf is not None else design_rf_stages(scenario,
                                                             supports)

        first_tx, first_rx = ch.draw_first_link(scenario, rng, supports)
        user_paths = ch.draw_second_link(scenario, rng, supports)

        # the N_r x N_T first-link matrix is read only through its RF collapse
        self._eff1_raw = self.rf.f_ur @ ch.first_link_matrix(
            first_tx, first_rx, scenario.uav_rx_array, scenario.bs_array,
            scenario.element_spacing) @ self.rf.f_b
        self.h2_raw = ch.second_link_rows(
            user_paths, scenario.uav_tx_array, scenario.element_spacing)

        k = scenario.num_users
        # at unit power per stream the precoder is V[:, :K] itself
        self._v1k, self._b_ur, _ = bf.bb_first_link(self._eff1_raw, k, k)
        m0 = self._b_ur @ self._eff1_raw @ self._v1k
        s0 = m0 @ m0.conj().T
        w = self._b_ur @ self.rf.f_ur
        q1_unit = w @ w.conj().T
        self._eff2_raw = self.h2_raw @ self.rf.f_ut
        gram2 = self._eff2_raw @ self._eff2_raw.conj().T        # K x K
        self._s0 = 0.5 * (s0 + s0.conj().T)[None]
        self._q1_unit = 0.5 * (q1_unit + q1_unit.conj().T)[None]
        self._gram2 = gram2[None]
        self._user_xyz = np.array([u.as_array() for u in self.users])[None]
        self._n_rf = np.array([self._eff2_raw.shape[1]])

    # -- geometry ------------------------------------------------------------

    @property
    def num_users(self) -> int:
        return self.scenario.num_users

    @property
    def default_xy(self) -> np.ndarray:
        return np.array([self.scenario.uav.x, self.scenario.uav.y])

    @property
    def size(self) -> int:
        """Realizations held: 1 for a drawn one, R for a stack."""
        return self._s0.shape[0]

    def _pathloss(self, xys, user_xyz) -> tuple[np.ndarray, ...]:
        """Hop distances tau1 (n,), tau2 (n, K) and their amplitudes."""
        sc = self.scenario
        taus = distances(sc, xys, user_xyz)
        return (*taus, *(ch.pathloss_amplitude(t, sc.ref_pathloss_db,
                                               sc.pathloss_exp) for t in taus))

    def _lone_pathloss(self, xy, what: str) -> tuple[np.ndarray, ...]:
        """``_pathloss`` at one position of a drawn realization; a stack
        has no single realization to answer for."""
        if self.size != 1:
            raise ValueError(f"{what} needs one realization, not a stack of "
                             f"{self.size}; a stack evaluates batches only")
        return self._pathloss(np.asarray(xy, dtype=float), self._user_xyz[0])

    # -- evaluation ----------------------------------------------------------

    def evaluate_batch(self, xys, p_t_mw, sigma2_mw: float,
                       p_hat=None, index=None) -> BatchEval:
        """Rates at a batch of candidate positions.

        ``p_t_mw`` is the transmit budget, one shared or shape (n,) one per
        candidate. ``p_hat`` gives relative per-user powers, shape (K,)
        shared or (n, K) per candidate; None means equal. Absolute powers
        are scaled to meet each candidate's budget with equality at its
        position. ``index`` gives each candidate's realization in a stack,
        shape (n,); None puts every candidate on realization 0. Each row's
        result depends on that row's inputs alone.
        """
        xys = np.atleast_2d(np.asarray(xys, dtype=float))
        n = xys.shape[0]
        k = self.num_users
        if index is None:
            at = 0      # realization 0's caches, broadcast over the batch
        else:
            at = np.asarray(index)
            if (at.shape != (n,) or at.dtype.kind not in "iu"
                    or n and not 0 <= at.min() <= at.max() < self.size):
                raise ValueError(f"realization index must be (n,) integers "
                                 f"in [0, {self.size})")
        p_t = np.asarray(p_t_mw, dtype=float)
        if p_t.ndim > 1 or (p_t.ndim == 1 and p_t.shape != (n,)):
            raise ValueError("transmit budget must be one value or (n,)")
        p_t = p_t if p_t.ndim else float(p_t)   # a float keeps scalar ops fast
        _, _, amp1, amp2 = self._pathloss(xys, self._user_xyz[at])

        # first hop: scaled identity-plus-covariance log-dets, the noise
        # term once per realization
        scale = amp1 ** 2 * (p_t / k)
        q = sigma2_mw * self._q1_unit
        sign_q, logdet_q = np.linalg.slogdet(q)
        arg = q[at] + scale[:, None, None] * self._s0[at]
        sign_t, logdet_t = np.linalg.slogdet(arg)
        if (sign_q.real <= 0.0).any() or (sign_t.real <= 0.0).any():
            raise rates.NumericalFailure(
                "noise covariance lost positive definiteness")
        r1 = (logdet_t - logdet_q[at]) / math.log(2.0)

        # second hop: RZF B = (E^H E + cI)^-1 E^H = E^H A^-1 (push-through),
        # A = G + cI with G = E E^H = D G0 D; then C = E B = G A^-1 and the
        # column gains diag(B^H B) = diag(A^-1 G A^-1), all K x K
        gram = amp2[:, :, None] * self._gram2[at] * amp2[:, None, :]
        ridge = sigma2_mw / p_t * self._n_rf[at]    # each candidate's N_RF
        a_inv = np.linalg.inv(gram + np.multiply.outer(ridge, np.eye(k)))
        c = gram @ a_inv                                         # n x K x K
        col_gain = np.einsum("nkj,njk->nk", a_inv, c).real       # n x K

        p_hat_arr = np.asarray(1.0 if p_hat is None else p_hat, dtype=float)
        if p_hat is None or p_hat_arr.ndim == 1:
            p_hat_arr = np.broadcast_to(p_hat_arr, (n, k))
        if p_hat_arr.shape != (n, k) or np.any(p_hat_arr < 0.0):
            raise ValueError("relative powers must be (K,) or (n, K), >= 0")
        weighted = np.sum(p_hat_arr * col_gain, axis=1)
        if np.any(weighted <= 0.0):
            raise rates.AllZeroAlloc(
                "allocation carries no power on any active column")
        alloc = (p_t / weighted)[:, None] * p_hat_arr        # kappa^2 p_hat

        sinr = rates.sinr_from_couplings(c, alloc, sigma2_mw)
        r2 = np.sum(np.log2(1.0 + sinr), axis=1)

        return BatchEval(r1=r1, r2=r2, r_total=0.5 * np.minimum(r1, r2),
                         sinr=sinr, alloc_mw=alloc)

    def stages_at(self, xy, p_t_mw: float, sigma2_mw: float) -> bf.HbfStages:
        """Full stage set at one position, reusing the cached first-link SVD."""
        _, _, amp1, amp2 = self._lone_pathloss(xy, "stages_at")
        eff1 = float(amp1[0]) * self._eff1_raw
        eff2 = amp2[0][:, None] * self._eff2_raw
        b_b = math.sqrt(p_t_mw / self.num_users) * self._v1k
        b_ut = bf.bb_second_link(eff2, sigma2_mw / p_t_mw)
        return bf.HbfStages(
            f_b=self.rf.f_b, b_b=b_b, f_ur=self.rf.f_ur, b_ur=self._b_ur,
            f_ut=self.rf.f_ut, b_ut=b_ut, eff1=eff1, eff2=eff2)

    def rate_at(self, xy, p_t_mw: float, sigma2_mw: float, p_hat=None
                ) -> rates.RateReport:
        """One-position rate report through the reference formulas."""
        stages = self.stages_at(xy, p_t_mw, sigma2_mw)
        alloc = rates.scale_alloc(p_hat, stages.b_ut, p_t_mw)
        return rates.rate_report(stages, alloc, sigma2_mw)

    def channel_pair_at(self, xy) -> ch.ChannelPair:
        """The physical second-hop rows at one position (shared path draws)."""
        _, _, _, amp2 = self._lone_pathloss(xy, "channel_pair_at")
        return ch.ChannelPair(h2=amp2[0][:, None] * self.h2_raw)


def stack_realizations(realizations: list[Realization]) -> Realization:
    """Realizations of one scenario joined on the caches' realization axis.

    The stack is a :class:`Realization` for batch evaluation only: pass
    ``evaluate_batch`` each candidate's position in ``realizations`` as
    its ``index``. It is assembled from the drawn realizations, so it
    draws, designs and builds nothing.
    """
    if not realizations:
        raise ValueError("no realizations to stack")
    scenario = realizations[0].scenario
    for i, rlz in enumerate(realizations):
        if rlz.scenario != scenario:
            name = next(f.name for f in fields(scenario)
                        if getattr(rlz.scenario, f.name)
                        != getattr(scenario, f.name))
            raise ValueError(
                f"cannot stack realizations of different scenarios: "
                f"realization {i} differs from realization 0 in "
                f"scenario.{name}")
    out = Realization.__new__(Realization)
    out.scenario = scenario
    for name in ("_s0", "_q1_unit", "_gram2", "_user_xyz", "_n_rf"):
        setattr(out, name, np.concatenate(
            [getattr(rlz, name) for rlz in realizations]))
    return out


def make_realization(scenario: Scenario, seed, angle_model: str = "fixed",
                     rf: RfDesign | None = None) -> Realization:
    """Draw one realization from a seed (int, SeedSequence, or Generator);
    ``rf`` is an optional shared analog design (:func:`shared_rf`)."""
    return Realization(scenario, np.random.default_rng(seed), angle_model, rf)
