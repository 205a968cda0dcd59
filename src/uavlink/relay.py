"""Buffer-aided relaying: split the two hops across two UAV positions.

Without a buffer the UAV must serve both hops from one position and the
end-to-end rate is pinned by the weaker hop there. A buffer decouples the
hops: the UAV can drain the first hop from a position favouring the BS link
and flush the queue from one favouring the users. Average queueing delay
follows Little's law on the bottleneck rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pso
from .links import Realization
from .rates import RateReport


class ZeroRate(ValueError):
    """Delay requested for a link pair with no throughput."""


@dataclass
class BufferPolicy:
    """Operating positions for the two hops; equal positions mean no buffer."""

    loc_rx: np.ndarray
    loc_tx: np.ndarray
    mode: str = "with_buffer"
    p_hat: np.ndarray | None = None

    def __post_init__(self):
        self.loc_rx = np.asarray(self.loc_rx, dtype=float)
        self.loc_tx = np.asarray(self.loc_tx, dtype=float)
        if self.mode not in ("with_buffer", "without_buffer"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "without_buffer" and not np.array_equal(
                self.loc_rx, self.loc_tx):
            raise ValueError("bufferless policy needs a single position")


def buffered_rate(rlz: Realization, policy: BufferPolicy, p_t_mw: float,
                  sigma2_mw: float) -> RateReport:
    """End-to-end rate under a policy: each hop evaluated at its position."""
    rx_report = rlz.rate_at(policy.loc_rx, p_t_mw, sigma2_mw)
    if policy.mode == "without_buffer":
        tx_report = rx_report if policy.p_hat is None else rlz.rate_at(
            policy.loc_tx, p_t_mw, sigma2_mw, policy.p_hat)
    else:
        tx_report = rlz.rate_at(policy.loc_tx, p_t_mw, sigma2_mw, policy.p_hat)
    r1 = rx_report.r1
    r2 = tx_report.r2
    return RateReport(r1=r1, r2=r2, r_total=0.5 * min(r1, r2),
                      sinr=tx_report.sinr)


def optimize_policy(rlz: Realization, cfg: pso.PsoConfig, p_t_mw: float,
                    sigma2_mw: float, seed, mode: str = "with_buffer",
                    optimize_pa: bool = False) -> BufferPolicy:
    """Best operating positions for the chosen mode.

    The buffered policy always includes the bufferless optimum among its
    per-hop candidates, so on any one realization the buffered rate is
    never below the bufferless one.
    """
    seq = np.random.SeedSequence(seed) if not isinstance(
        seed, np.random.SeedSequence) else seed
    seeds = seq.spawn(3)
    if mode == "without_buffer":
        base = pso.solve_loc_equal_pa(rlz, cfg, p_t_mw, sigma2_mw, seeds[0])
        return BufferPolicy(loc_rx=base.xy, loc_tx=base.xy, mode=mode)

    # the independent location searches step in lockstep, one swarm each
    if optimize_pa:
        base, rx = pso.solve_loc_equal_pa(rlz, cfg, p_t_mw, sigma2_mw,
                                          seeds[:2], ["r_total", "r1"])
        tx = pso.solve_joint(rlz, cfg, p_t_mw, sigma2_mw, seeds[2],
                             objective="r2")
    else:
        base, rx, tx = pso.solve_loc_equal_pa(rlz, cfg, p_t_mw, sigma2_mw,
                                              seeds, ["r_total", "r1", "r2"])

    # keep the bufferless optimum as a fallback candidate on each hop
    base_report = rlz.rate_at(base.xy, p_t_mw, sigma2_mw)
    rx_r1 = rlz.rate_at(rx.xy, p_t_mw, sigma2_mw).r1
    loc_rx = rx.xy if rx_r1 >= base_report.r1 else base.xy
    tx_r2 = rlz.rate_at(tx.xy, p_t_mw, sigma2_mw, tx.p_hat).r2
    if tx_r2 >= base_report.r2:
        loc_tx, p_hat = tx.xy, tx.p_hat
    else:
        loc_tx, p_hat = base.xy, None
    return BufferPolicy(loc_rx=loc_rx, loc_tx=loc_tx, mode=mode, p_hat=p_hat)


def little_delay(r1: float, r2: float, queue_bits: float) -> float:
    """Average queueing delay Q / min(R1, R2); rates at unit bandwidth."""
    if queue_bits < 0.0:
        raise ValueError("queue size must be nonnegative")
    bottleneck = min(r1, r2)
    if bottleneck <= 0.0:
        raise ZeroRate("bottleneck link carries no rate")
    return queue_bits / bottleneck
