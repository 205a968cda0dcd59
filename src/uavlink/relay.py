"""Buffer-aided relaying: split the two hops across two UAV positions.

Without a buffer the UAV must serve both hops from one position and the
end-to-end rate is pinned by the weaker hop there. A buffer decouples the
hops: the UAV can drain the first hop from a position favouring the BS link
and flush the queue from one favouring the users. Average queueing delay
follows Little's law on the bottleneck rate.

One search serves both modes: the buffered policy keeps the bufferless
optimum as a fallback on each hop and records it, and the bufferless
policy is that optimum alone.
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
    dominate. ``hop_rates`` are the equal-power rates its search found at
    its own positions (r1 at ``loc_rx``, r2 at ``loc_tx``) and
    ``base_rates`` those at ``base_xy``, both at the budget it was searched
    for; all three are None for a policy built by hand.
    """

    loc_rx: np.ndarray
    loc_tx: np.ndarray
    base_xy: np.ndarray | None = None
    hop_rates: tuple[float, float] | None = None
    base_rates: tuple[float, float] | None = None

    def __post_init__(self):
        self.loc_rx = np.asarray(self.loc_rx, dtype=float)
        self.loc_tx = np.asarray(self.loc_tx, dtype=float)
        if self.base_xy is not None:
            self.base_xy = np.asarray(self.base_xy, dtype=float)

    def bufferless(self) -> BufferPolicy:
        """Both hops at ``base_xy``: what ``optimize_policy`` returns with
        ``mode="without_buffer"`` on the same seed."""
        if self.base_xy is None:
            raise ValueError("policy records no bufferless optimum")
        return BufferPolicy(self.base_xy, self.base_xy, self.base_xy,
                            self.base_rates, self.base_rates)


def buffered_rate(rlz: Realization, policy: BufferPolicy, p_t_mw: float,
                  sigma2_mw: float) -> RateReport:
    """End-to-end rate under a policy: each hop evaluated at its position,
    under equal powers. At the budget a policy was searched for, its r1 and
    r2 are the ``hop_rates`` it records."""
    rx_report = rlz.rate_at(policy.loc_rx, p_t_mw, sigma2_mw)
    tx_report = (rx_report if np.array_equal(policy.loc_rx, policy.loc_tx)
                 else rlz.rate_at(policy.loc_tx, p_t_mw, sigma2_mw))
    r1 = rx_report.r1
    r2 = tx_report.r2
    return RateReport(r1=r1, r2=r2, r_total=0.5 * min(r1, r2),
                      sinr=tx_report.sinr)


def optimize_policy(rlz: Realization | list[Realization], cfg: pso.PsoConfig,
                    p_t_mw, sigma2_mw: float, seed,
                    mode: str = "with_buffer"
                    ) -> BufferPolicy | list[BufferPolicy]:
    """Best operating positions for the chosen mode.

    Each seed spawns three streams for location searches under equal
    powers: the bufferless search (for the end-to-end rate), then one
    search per hop; a SeedSequence seed is copied first, so the caller's
    object is left unchanged. The buffered policy keeps the bufferless
    optimum among its per-hop candidates and records it as ``base_xy``, so
    on any one realization its rate is never below the bufferless one;
    ``mode="without_buffer"`` returns :meth:`BufferPolicy.bufferless` of it.
    Either policy records the per-hop rates its search compared.

    A list ``seed`` returns one policy per seed; ``p_t_mw`` is then one
    budget or one per seed, and ``rlz`` one realization or a list of one
    per seed. Either way the searches of every seed step in lockstep in
    one stacked solve. Any other seed solves the single budget ``p_t_mw``
    and returns one policy.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    seeds = seed if isinstance(seed, list) else [seed]
    n = len(seeds)
    powers = list(p_t_mw) if np.ndim(p_t_mw) else [p_t_mw] * n
    if len(powers) != n:
        raise ValueError(f"p_t_mw gives {len(powers)} budgets for {n} seeds")
    rlzs = rlz if isinstance(rlz, list) else [rlz] * n
    if len(rlzs) != n:
        raise ValueError(f"rlz gives {len(rlzs)} realizations for {n} seeds")
    # one budget serves every swarm; per-seed budgets and realizations
    # repeat per search
    found = pso.solve_loc_equal_pa(
        [r for r in rlzs for _ in range(3)] if isinstance(rlz, list) else rlz,
        cfg, np.repeat(powers, 3) if np.ndim(p_t_mw) else p_t_mw,
        sigma2_mw, [q for s in seeds for q in _own_sequence(s).spawn(3)],
        ["r_total", "r1", "r2"] * n)
    policies = [_buffered(r, p, sigma2_mw, *found[3 * j:3 * j + 3])
                for j, (r, p) in enumerate(zip(rlzs, powers))]
    if mode == "without_buffer":
        policies = [policy.bufferless() for policy in policies]
    return policies if isinstance(seed, list) else policies[0]


def _own_sequence(seed) -> np.random.SeedSequence:
    """A SeedSequence for ``seed``; a caller's SeedSequence is copied in
    its current state, so spawning leaves it untouched and passing the
    same object twice gives the same streams."""
    if not isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(seed)
    return np.random.SeedSequence(
        seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size,
        n_children_spawned=seed.n_children_spawned)


def _buffered(rlz: Realization, p_t_mw: float, sigma2_mw: float,
              base: pso.SolveResult, rx: pso.SolveResult,
              tx: pso.SolveResult) -> BufferPolicy:
    """The buffered policy at one power from its three searches; each hop
    falls back to the bufferless optimum where its own search did worse."""
    base_report = rlz.rate_at(base.xy, p_t_mw, sigma2_mw)
    base_r1, base_r2 = base_report.r1, base_report.r2
    rx_r1 = rlz.rate_at(rx.xy, p_t_mw, sigma2_mw).r1
    tx_r2 = rlz.rate_at(tx.xy, p_t_mw, sigma2_mw).r2
    loc_rx, r1 = (rx.xy, rx_r1) if rx_r1 >= base_r1 else (base.xy, base_r1)
    loc_tx, r2 = (tx.xy, tx_r2) if tx_r2 >= base_r2 else (base.xy, base_r2)
    return BufferPolicy(loc_rx, loc_tx, base.xy, (r1, r2), (base_r1, base_r2))


def little_delay(r1: float, r2: float, queue_bits: float) -> float:
    """Average queueing delay Q / min(R1, R2); rates at unit bandwidth."""
    if queue_bits < 0.0:
        raise ValueError("queue size must be nonnegative")
    bottleneck = min(r1, r2)
    if bottleneck <= 0.0:
        raise ZeroRate("bottleneck link carries no rate")
    return queue_bits / bottleneck
