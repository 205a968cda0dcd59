"""Particle-swarm solvers for UAV placement and per-user power allocation.

All solvers share one vectorized engine working on normalized coordinates
in [0, 1]^D. Location coordinates map affinely onto the deployment box;
power coordinates are square roots of relative powers, so squaring keeps
them nonnegative and the budget scaling in the evaluator handles the total.
The objective is maximized. A solver given a list of seeds steps one swarm
per list element in lockstep, with one batch evaluation per iteration over
every swarm's particles; each swarm draws from its own stream, so with a
fixed seed every swarm is bit-reproducible and equals the same swarm run
alone. A list is therefore never read as one seed's entropy: wrap such
entropy as ``np.random.SeedSequence([...])``. A list of realizations paired
with the list of seeds runs each swarm on its own realization, through one
stack of the realizations (:func:`uavlink.links.stack_realizations`).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .geometry import Box
from .links import Realization, stack_realizations


@dataclass
class PsoConfig:
    """Swarm size, schedule, and update gains.

    ``inertia`` is used as a constant weight unless ``inertia_schedule``
    is set, in which case the weight decays linearly from its upper to its
    lower value over the run.
    """

    particles: int = 20
    iterations: int = 50
    gamma1: float = 2.0
    gamma2: float = 2.0
    inertia: float = 1.1
    inertia_schedule: tuple[float, float] | None = None
    velocity_clip: tuple[float, float] = (-0.2, 0.2)

    def __post_init__(self):
        if self.particles < 1 or self.iterations < 0:
            raise ValueError("need at least one particle and >= 0 iterations")
        lo, hi = self.velocity_clip
        if not lo < hi:
            raise ValueError("velocity clip interval is empty")

    def inertia_at(self, iteration: int) -> float:
        if self.inertia_schedule is None:
            return self.inertia
        upper, lower = self.inertia_schedule
        frac = iteration / max(self.iterations, 1)
        return upper - frac * (upper - lower)


def config_to_dict(cfg: PsoConfig) -> dict:
    """JSON form of every swarm setting (the config file's ``pso`` section)."""
    return {name: list(value) if isinstance(value, tuple) else value
            for name, value in asdict(cfg).items()}


def config_from_dict(section: dict) -> PsoConfig:
    """Inverse of :func:`config_to_dict`; unknown fields are errors."""
    unknown = set(section) - {f.name for f in fields(PsoConfig)}
    if unknown:
        raise ValueError(f"unknown config field pso.{sorted(unknown)[0]}")
    return PsoConfig(**{name: tuple(value) if isinstance(value, list) else value
                        for name, value in section.items()})


@dataclass
class SolveResult:
    """Best candidate found by one swarm plus its search record.

    ``infeasible`` counts the swarm's candidates scored -inf (an all-zero
    power row); ``last_improvement`` is the iteration of its last gbest
    gain, read off ``trace`` (0 when the initial best was never beaten).
    """

    xy: np.ndarray | None
    p_hat: np.ndarray | None
    value: float
    trace: np.ndarray
    objective: str = "r_total"
    infeasible: int = 0
    last_improvement: int = 0


@dataclass
class SwarmRun:
    """Outcome of swarms stepped in lockstep (arrays over the swarms)."""

    best_pos: np.ndarray            # (S, dim) gbest positions
    best_val: np.ndarray            # (S,)
    trace: np.ndarray               # (S, iterations + 1) gbest per step
    infeasible: np.ndarray          # (S,) candidates scored -inf


def clip(x: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    """Elementwise clamp onto [bounds[0], bounds[1]]."""
    lo, hi = bounds
    if not lo <= hi:
        raise ValueError("empty clip interval")
    return np.clip(x, lo, hi)


def run_swarms(objective, dim: int, cfg: PsoConfig, seeds: list,
               warm_starts: list[np.ndarray] | None = None) -> SwarmRun:
    """Step one swarm per seed in lockstep.

    ``objective`` maps (S, m, dim) unit coordinates to (S, m) values, so
    each iteration makes one call over all S*m candidates. Each swarm draws
    from its own ``default_rng(seed)`` in the order a lone swarm would (its
    positions, then y1 and y2 once per step), and every update is
    elementwise, so each swarm's trajectory is bit-identical to running it
    alone. Warm starts overwrite the first particles of every swarm.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    s, m = len(rngs), cfg.particles
    pos = np.stack([rng.uniform(0.0, 1.0, size=(m, dim)) for rng in rngs])
    for i, warm in enumerate((warm_starts or [])[:m]):
        pos[:, i] = np.asarray(warm, dtype=float)
    vel = np.zeros_like(pos)
    values = np.asarray(objective(pos), dtype=float)
    dead = np.isneginf(values).astype(int)      # -inf scores per particle
    swarms = np.arange(s)
    best = np.argmax(values, axis=1)
    pbest_pos, pbest_val = pos.copy(), values.copy()
    gbest_pos, gbest_val = pos[swarms, best], values[swarms, best]
    trace = [gbest_val]
    y = np.empty((s, 2, m, dim))
    for iteration in range(1, cfg.iterations + 1):
        # each swarm's (2, m, dim) block is its y1 then its y2; random()
        # draws the same doubles as uniform(0, 1) did
        for rng, out in zip(rngs, y):
            rng.random(out=out)
        inertia = cfg.inertia_at(iteration)
        vel = (cfg.gamma1 * y[:, 0] * (gbest_pos[:, None, :] - pos)
               + cfg.gamma2 * y[:, 1] * (pbest_pos - pos)
               + inertia * vel)
        vel = clip(vel, cfg.velocity_clip)
        pos = clip(pos + vel, (0.0, 1.0))
        values = np.asarray(objective(pos), dtype=float)
        dead += np.isneginf(values)
        improved = values > pbest_val
        pbest_val = np.where(improved, values, pbest_val)
        pbest_pos = np.where(improved[..., None], pos, pbest_pos)
        best_val = pbest_val.max(axis=1)
        gain = best_val > gbest_val
        if gain.any():      # most late iterations improve on no gbest
            best = np.argmax(pbest_val, axis=1)
            gbest_val = np.where(gain, best_val, gbest_val)
            gbest_pos = np.where(gain[:, None], pbest_pos[swarms, best],
                                 gbest_pos)
        trace.append(gbest_val)
    return SwarmRun(best_pos=gbest_pos, best_val=gbest_val,
                    trace=np.stack(trace, axis=1), infeasible=dead.sum(axis=1))


def run_pso(objective, dim: int, cfg: PsoConfig, seed,
            warm_starts: list[np.ndarray] | None = None
            ) -> tuple[np.ndarray, float, np.ndarray]:
    """One swarm over an (m, dim) -> (m,) objective; returns (best
    position, best value, gbest trace)."""
    run = run_swarms(lambda coords: np.asarray(objective(coords[0]))[None],
                     dim, cfg, [seed], warm_starts)
    return run.best_pos[0], float(run.best_val[0]), run.trace[0]


def _objective_field(batch, name: str) -> np.ndarray:
    if name == "r_total":
        return batch.r_total
    if name == "r1":
        return batch.r1
    if name == "r2":
        return batch.r2
    raise ValueError(f"unknown objective {name!r}")


def _eval_candidates(rlz: Realization, xys: np.ndarray, p_hat, p_t_mw,
                     sigma2_mw: float, objective, index=None) -> np.ndarray:
    """Objective values of a batch of candidates.

    ``p_hat`` None means equal powers. ``p_t_mw`` is one budget or one per
    candidate. ``objective`` is one name, or a list of S names that score S
    equal consecutive blocks of candidates (one block per swarm). ``index``
    places each candidate on a realization of a stack (see
    ``Realization.evaluate_batch``). Clipping can zero out a whole power
    row, which is an infeasible allocation and scores -inf rather than
    raising.
    """
    n = xys.shape[0]
    dead = (np.zeros(n, dtype=bool) if p_hat is None
            else ~(p_hat.sum(axis=1) > 0.0))
    if dead.any():
        # rows are independent, so a dead row is scored on equal powers
        # and then overwritten
        p_hat = np.where(dead[:, None], 1.0, p_hat)
    batch = rlz.evaluate_batch(xys, p_t_mw, sigma2_mw, p_hat, index)
    names = np.atleast_1d(objective).tolist()
    rows = n // len(names)
    values = np.concatenate([
        _objective_field(batch, name)[i * rows:(i + 1) * rows]
        for i, name in enumerate(names)])
    values[dead] = -np.inf
    return values


def _per_swarm(value, s: int, what: str) -> list:
    values = list(value) if np.ndim(value) else [value] * s
    if len(values) != s:
        raise ValueError(f"{what} gives {len(values)} values for {s} swarms")
    return values


def _lead(rlz: Realization | list[Realization]) -> Realization:
    """The realization that stands for the scenario of a solve: ``rlz``,
    or the first of a list (whose realizations share one scenario)."""
    return rlz[0] if isinstance(rlz, list) else rlz


def _solve(rlz: Realization | list[Realization], cfg: PsoConfig, p_t_mw,
           sigma2_mw: float, seed, objective, dim: int, warm: np.ndarray,
           decode) -> SolveResult | list:
    """Run one swarm per seed in lockstep and decode each best position.

    ``decode`` maps unit coordinates (..., dim) to candidate positions
    (..., 2) and relative powers (..., K), or None for equal powers. A list
    runs one swarm per element and returns a list of results; ``p_t_mw``
    and ``objective`` are then one value for every swarm or one per swarm.
    Any other seed (an int, a ``SeedSequence``, a tuple of entropy) runs
    one swarm and returns one result. ``rlz`` is one realization for every
    swarm, or a list of one per swarm, which needs a list of seeds; the
    list is stacked and each swarm's candidates are scored on its own
    realization.
    """
    seeds = seed if isinstance(seed, list) else [seed]
    s, m = len(seeds), cfg.particles
    objectives = _per_swarm(objective, s, "objective")
    p_t_rows = np.repeat(np.asarray(_per_swarm(p_t_mw, s, "p_t_mw"),
                                    dtype=float), m)
    index = None
    if isinstance(rlz, list):
        if not isinstance(seed, list):
            raise ValueError("a list of realizations needs a list of seeds, "
                             "one per realization")
        if len(rlz) != s:
            raise ValueError(f"rlz gives {len(rlz)} realizations for {s} "
                             "swarms")
        rlz, index = stack_realizations(rlz), np.repeat(np.arange(s), m)

    def evaluate(coords: np.ndarray) -> np.ndarray:
        xys, p_hat = decode(coords.reshape(s * m, dim))
        return _eval_candidates(rlz, xys, p_hat, p_t_rows, sigma2_mw,
                                objectives, index).reshape(s, m)

    run = run_swarms(evaluate, dim, cfg, seeds, [warm])
    results = []
    for i in range(s):
        xy, p_hat = decode(run.best_pos[i])
        results.append(SolveResult(
            xy=np.array(xy), p_hat=p_hat, value=float(run.best_val[i]),
            trace=run.trace[i], objective=objectives[i],
            infeasible=int(run.infeasible[i]),
            # gbest never falls, so it first reaches its final value at
            # the last gain
            last_improvement=int(np.argmax(run.trace[i] == run.trace[i][-1]))))
    return results if isinstance(seed, list) else results[0]


def solve_pa_fixed_loc(rlz: Realization | list[Realization], uav_xy,
                       cfg: PsoConfig, p_t_mw, sigma2_mw: float, seed,
                       objective="r_total") -> SolveResult | list:
    """Optimize relative per-user powers at a fixed UAV position.

    The first particle starts at the equal allocation, so the solution is
    never worse than equal power on the same realization. A list ``seed``
    steps one swarm per element in lockstep and returns a list, so a list
    of entropy for one swarm must be wrapped as ``SeedSequence([...])``;
    ``rlz`` may be a list of one realization per seed, all searched at
    ``uav_xy`` (see :func:`_solve`).
    """
    xy = np.asarray(uav_xy, dtype=float)
    k = _lead(rlz).num_users

    def decode(coords):
        return np.broadcast_to(xy, coords.shape[:-1] + (2,)), coords ** 2

    return _solve(rlz, cfg, p_t_mw, sigma2_mw, seed, objective, k,
                  np.ones(k), decode)


def solve_loc_equal_pa(rlz: Realization | list[Realization], cfg: PsoConfig,
                       p_t_mw, sigma2_mw: float, seed, objective="r_total"
                       ) -> SolveResult | list:
    """Optimize the UAV position under an equal power allocation.

    The first particle starts at the default deployment, so the solution is
    never worse than not moving the UAV at all. A list ``seed`` steps one
    swarm per element in lockstep and returns a list, so a list of entropy
    for one swarm must be wrapped as ``SeedSequence([...])``; ``rlz`` may
    be a list of one realization per seed (see :func:`_solve`).
    """
    lead = _lead(rlz)
    box = lead.scenario.box

    def decode(coords):
        return box.from_unit(coords), None

    return _solve(rlz, cfg, p_t_mw, sigma2_mw, seed, objective, 2,
                  box.to_unit(lead.default_xy), decode)


def solve_joint(rlz: Realization | list[Realization], cfg: PsoConfig, p_t_mw,
                sigma2_mw: float, seed, objective="r_total"
                ) -> SolveResult | list:
    """Jointly optimize UAV position and relative powers (dim K + 2).

    The first particle starts at the default position with equal powers. A
    list ``seed`` steps one swarm per element in lockstep and returns a
    list, so a list of entropy for one swarm must be wrapped as
    ``SeedSequence([...])``; ``rlz`` may be a list of one realization per
    seed (see :func:`_solve`).
    """
    lead = _lead(rlz)
    k = lead.num_users
    box = lead.scenario.box

    def decode(coords):
        return box.from_unit(coords[..., :2]), coords[..., 2:] ** 2

    warm = np.concatenate([box.to_unit(lead.default_xy), np.ones(k)])
    return _solve(rlz, cfg, p_t_mw, sigma2_mw, seed, objective, k + 2, warm,
                  decode)


@dataclass
class GridResult:
    """Exhaustive-search surface over deployment-box cell centres."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray          # shape (len(xs), len(ys))
    best_xy: np.ndarray
    best_value: float
    objective: str = "r_total"


def grid_axes(box: Box, dx: float, dy: float
              ) -> tuple[np.ndarray, np.ndarray]:
    """Grid cell centres over ``box``, along x and along y.

    Cell centres sit at min + (i + 0.5) * step; a step wider than the box
    degenerates to the single box-centre cell.
    """
    if dx <= 0.0 or dy <= 0.0:
        raise ValueError("grid steps must be positive")
    return (_centers(box.x_min, box.x_max, dx),
            _centers(box.y_min, box.y_max, dy))


def exhaustive_grid(rlz: Realization, dx: float, dy: float, p_t_mw: float,
                    sigma2_mw: float, objective: str = "r_total"
                    ) -> GridResult:
    """Evaluate every :func:`grid_axes` cell centre under equal powers."""
    xs, ys = grid_axes(rlz.scenario.box, dx, dy)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    xys = np.column_stack([gx.ravel(), gy.ravel()])
    batch = rlz.evaluate_batch(xys, p_t_mw, sigma2_mw)
    values = _objective_field(batch, objective).reshape(xs.size, ys.size)
    flat_best = int(np.argmax(values))
    ix, iy = np.unravel_index(flat_best, values.shape)
    return GridResult(xs=xs, ys=ys, values=values,
                      best_xy=np.array([xs[ix], ys[iy]]),
                      best_value=float(values[ix, iy]), objective=objective)


def _centers(lo: float, hi: float, step: float) -> np.ndarray:
    count = max(1, int(round((hi - lo) / step)))
    if count == 1:
        return np.array([0.5 * (lo + hi)])
    return lo + (np.arange(count) + 0.5) * step
