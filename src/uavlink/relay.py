"""Buffer-aided relaying: split the two hops across two UAV positions.

Without a buffer the UAV must serve both hops from one position and the
end-to-end rate is pinned by the weaker hop there. A buffer decouples the
hops: the UAV can drain the first hop from a position favouring the BS link
and flush the queue from one favouring the users. Average queueing delay
follows Little's law on the bottleneck rate.

The buffered search contains the bufferless one: its policy keeps the
bufferless optimum as a fallback on each hop and records it, so one search
yields both policies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import pso
from .links import Realization
from .rates import RateReport


class ZeroRate(ValueError):
    """Delay requested for a link pair with no throughput."""


MODES = ("with_buffer", "without_buffer")


@dataclass
class BufferPolicy:
    """Operating positions for the two hops; equal positions mean no buffer.

    ``base_xy`` is the bufferless optimum a searched policy was built to
    dominate (None for a policy built by hand).
    """

    loc_rx: np.ndarray
    loc_tx: np.ndarray
    mode: str = "with_buffer"
    p_hat: np.ndarray | None = None
    base_xy: np.ndarray | None = None

    def __post_init__(self):
        self.loc_rx = np.asarray(self.loc_rx, dtype=float)
        self.loc_tx = np.asarray(self.loc_tx, dtype=float)
        if self.base_xy is not None:
            self.base_xy = np.asarray(self.base_xy, dtype=float)
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "without_buffer" and not np.array_equal(
                self.loc_rx, self.loc_tx):
            raise ValueError("bufferless policy needs a single position")

    def bufferless(self) -> BufferPolicy:
        """The bufferless policy at ``base_xy``: what ``optimize_policy``
        returns with ``mode="without_buffer"`` on the same seed."""
        if self.base_xy is None:
            raise ValueError("policy records no bufferless optimum")
        return BufferPolicy(loc_rx=self.base_xy, loc_tx=self.base_xy,
                            mode="without_buffer", base_xy=self.base_xy)


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


def optimize_policy(rlz: Realization, cfg: pso.PsoConfig, p_t_mw,
                    sigma2_mw: float, seed, mode: str = "with_buffer",
                    optimize_pa: bool = False
                    ) -> BufferPolicy | list[BufferPolicy]:
    """Best operating positions for the chosen mode.

    Each seed spawns three streams: the bufferless search (position under
    equal powers, for the end-to-end rate), then one search per hop. The
    buffered policy keeps the bufferless optimum among its per-hop
    candidates and records it as ``base_xy``, so on any one realization
    its rate is never below the bufferless one, and one buffered search
    yields both policies (:meth:`BufferPolicy.bufferless`).

    A list ``seed`` gives one seed per power and returns one policy per
    power; ``p_t_mw`` is then one budget or one per power, and the searches
    of every power step in lockstep in one stacked solve (two with
    ``optimize_pa``, whose second-hop search is joint). Any other seed
    solves the single budget ``p_t_mw`` and returns one policy.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    seeds = seed if isinstance(seed, list) else [seed]
    n = len(seeds)
    powers = list(p_t_mw) if np.ndim(p_t_mw) else [p_t_mw] * n
    if len(powers) != n:
        raise ValueError(f"p_t_mw gives {len(powers)} budgets for {n} seeds")
    streams = [(s if isinstance(s, np.random.SeedSequence)
                else np.random.SeedSequence(s)).spawn(3) for s in seeds]

    def budget(searches: int):
        # one budget serves every swarm; per-power budgets repeat per search
        return p_t_mw if not np.ndim(p_t_mw) else np.repeat(powers, searches)

    if mode == "without_buffer":
        bases = pso.solve_loc_equal_pa(rlz, cfg, budget(1), sigma2_mw,
                                       [s[0] for s in streams])
        policies = [BufferPolicy(loc_rx=b.xy, loc_tx=b.xy, mode=mode,
                                 base_xy=b.xy) for b in bases]
    else:
        if optimize_pa:
            loc = pso.solve_loc_equal_pa(rlz, cfg, budget(2), sigma2_mw,
                                         [q for s in streams for q in s[:2]],
                                         ["r_total", "r1"] * n)
            tx = pso.solve_joint(rlz, cfg, budget(1), sigma2_mw,
                                 [s[2] for s in streams], objective="r2")
            found = zip(loc[0::2], loc[1::2], tx)
        else:
            loc = pso.solve_loc_equal_pa(rlz, cfg, budget(3), sigma2_mw,
                                         [q for s in streams for q in s],
                                         ["r_total", "r1", "r2"] * n)
            found = zip(loc[0::3], loc[1::3], loc[2::3])
        policies = [_buffered(rlz, p, sigma2_mw, *searches)
                    for p, searches in zip(powers, found)]
    return policies if isinstance(seed, list) else policies[0]


def _buffered(rlz: Realization, p_t_mw: float, sigma2_mw: float,
              base: pso.SolveResult, rx: pso.SolveResult,
              tx: pso.SolveResult) -> BufferPolicy:
    """The buffered policy at one power from its three searches; each hop
    falls back to the bufferless optimum where its own search did worse."""
    base_report = rlz.rate_at(base.xy, p_t_mw, sigma2_mw)
    rx_r1 = rlz.rate_at(rx.xy, p_t_mw, sigma2_mw).r1
    loc_rx = rx.xy if rx_r1 >= base_report.r1 else base.xy
    tx_r2 = rlz.rate_at(tx.xy, p_t_mw, sigma2_mw, tx.p_hat).r2
    if tx_r2 >= base_report.r2:
        loc_tx, p_hat = tx.xy, tx.p_hat
    else:
        loc_tx, p_hat = base.xy, None
    return BufferPolicy(loc_rx=loc_rx, loc_tx=loc_tx, p_hat=p_hat,
                        base_xy=base.xy)


def little_delay(r1: float, r2: float, queue_bits: float) -> float:
    """Average queueing delay Q / min(R1, R2); rates at unit bandwidth."""
    if queue_bits < 0.0:
        raise ValueError("queue size must be nonnegative")
    bottleneck = min(r1, r2)
    if bottleneck <= 0.0:
        raise ZeroRate("bottleneck link carries no rate")
    return queue_bits / bottleneck
