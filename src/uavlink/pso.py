"""Particle-swarm solvers for UAV placement and per-user power allocation.

All solvers share one vectorized engine working on normalized coordinates
in [0, 1]^D. Location coordinates map affinely onto the deployment box;
power coordinates are square roots of relative powers, so squaring keeps
them nonnegative and the budget scaling in the evaluator handles the total.
The objective is maximized. With a fixed seed every solver is
bit-reproducible: particles are updated in one stacked draw per iteration,
so no execution order can reshuffle the stream.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from .links import Realization


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
class Swarm:
    positions: np.ndarray
    velocities: np.ndarray
    pbest_pos: np.ndarray
    pbest_val: np.ndarray
    gbest_pos: np.ndarray
    gbest_val: float
    iteration: int = 0


@dataclass
class SolveResult:
    """Best candidate found by a solver plus its search trace."""

    xy: np.ndarray | None
    p_hat: np.ndarray | None
    value: float
    trace: np.ndarray
    objective: str = "r_total"


def clip(x: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    """Elementwise clamp onto [bounds[0], bounds[1]]."""
    lo, hi = bounds
    if not lo <= hi:
        raise ValueError("empty clip interval")
    return np.clip(x, lo, hi)


def init_swarm(objective, dim: int, cfg: PsoConfig, rng: np.random.Generator,
               warm_starts: list[np.ndarray] | None = None) -> Swarm:
    """Uniform random swarm; warm starts overwrite the first particles."""
    positions = rng.uniform(0.0, 1.0, size=(cfg.particles, dim))
    if warm_starts:
        for i, pos in enumerate(warm_starts[:cfg.particles]):
            positions[i] = np.asarray(pos, dtype=float)
    velocities = np.zeros_like(positions)
    values = np.asarray(objective(positions), dtype=float)
    best = int(np.argmax(values))
    return Swarm(positions=positions, velocities=velocities,
                 pbest_pos=positions.copy(), pbest_val=values.copy(),
                 gbest_pos=positions[best].copy(),
                 gbest_val=float(values[best]))


def step(swarm: Swarm, objective, cfg: PsoConfig,
         rng: np.random.Generator) -> Swarm:
    """One velocity/position update of every particle, then re-evaluate."""
    m, dim = swarm.positions.shape
    y1 = rng.uniform(0.0, 1.0, size=(m, dim))
    y2 = rng.uniform(0.0, 1.0, size=(m, dim))
    swarm.iteration += 1
    inertia = cfg.inertia_at(swarm.iteration)
    vel = (cfg.gamma1 * y1 * (swarm.gbest_pos[None, :] - swarm.positions)
           + cfg.gamma2 * y2 * (swarm.pbest_pos - swarm.positions)
           + inertia * swarm.velocities)
    vel = clip(vel, cfg.velocity_clip)
    swarm.velocities = vel
    swarm.positions = clip(swarm.positions + vel, (0.0, 1.0))
    values = np.asarray(objective(swarm.positions), dtype=float)
    improved = values > swarm.pbest_val
    swarm.pbest_val = np.where(improved, values, swarm.pbest_val)
    swarm.pbest_pos = np.where(improved[:, None], swarm.positions,
                               swarm.pbest_pos)
    best = int(np.argmax(swarm.pbest_val))
    if swarm.pbest_val[best] > swarm.gbest_val:
        swarm.gbest_val = float(swarm.pbest_val[best])
        swarm.gbest_pos = swarm.pbest_pos[best].copy()
    return swarm


def run_pso(objective, dim: int, cfg: PsoConfig, seed,
            warm_starts: list[np.ndarray] | None = None
            ) -> tuple[np.ndarray, float, np.ndarray]:
    """Full swarm run; returns (best position, best value, gbest trace)."""
    rng = np.random.default_rng(seed)
    swarm = init_swarm(objective, dim, cfg, rng, warm_starts)
    trace = [swarm.gbest_val]
    for _ in range(cfg.iterations):
        step(swarm, objective, cfg, rng)
        trace.append(swarm.gbest_val)
    return swarm.gbest_pos, swarm.gbest_val, np.array(trace)


def _objective_field(batch, name: str) -> np.ndarray:
    if name == "r_total":
        return batch.r_total
    if name == "r1":
        return batch.r1
    if name == "r2":
        return batch.r2
    raise ValueError(f"unknown objective {name!r}")


def _eval_candidates(rlz: Realization, xys: np.ndarray, p_hat: np.ndarray,
                     p_t_mw: float, sigma2_mw: float, objective: str
                     ) -> np.ndarray:
    """Objective values; clipping can zero out a whole power row, which is
    an infeasible allocation and scores -inf rather than raising."""
    alive = p_hat.sum(axis=1) > 0.0
    values = np.full(xys.shape[0], -np.inf)
    if np.any(alive):
        batch = rlz.evaluate_batch(xys[alive], p_t_mw, sigma2_mw, p_hat[alive])
        values[alive] = _objective_field(batch, objective)
    return values


def solve_pa_fixed_loc(rlz: Realization, uav_xy, cfg: PsoConfig,
                       p_t_mw: float, sigma2_mw: float, seed,
                       objective: str = "r_total") -> SolveResult:
    """Optimize relative per-user powers at a fixed UAV position.

    The first particle starts at the equal allocation, so the solution is
    never worse than equal power on the same realization.
    """
    k = rlz.num_users
    xy = np.asarray(uav_xy, dtype=float)

    def evaluate(coords: np.ndarray) -> np.ndarray:
        p_hat = coords ** 2
        xys = np.broadcast_to(xy, (coords.shape[0], 2))
        return _eval_candidates(rlz, xys, p_hat, p_t_mw, sigma2_mw, objective)

    warm = [np.ones(k)]
    pos, val, trace = run_pso(evaluate, k, cfg, seed, warm)
    return SolveResult(xy=xy.copy(), p_hat=pos ** 2, value=val, trace=trace,
                       objective=objective)


def solve_loc_equal_pa(rlz: Realization, cfg: PsoConfig, p_t_mw: float,
                       sigma2_mw: float, seed,
                       objective: str = "r_total") -> SolveResult:
    """Optimize the UAV position under an equal power allocation.

    The first particle starts at the default deployment, so the solution is
    never worse than not moving the UAV at all.
    """
    box = rlz.scenario.box

    def evaluate(coords: np.ndarray) -> np.ndarray:
        xys = box.from_unit(coords)
        return _objective_field(
            rlz.evaluate_batch(xys, p_t_mw, sigma2_mw, None), objective)

    warm = [box.to_unit(rlz.default_xy)]
    pos, val, trace = run_pso(evaluate, 2, cfg, seed, warm)
    return SolveResult(xy=box.from_unit(pos), p_hat=None,
                       value=val, trace=trace, objective=objective)


def solve_joint(rlz: Realization, cfg: PsoConfig, p_t_mw: float,
                sigma2_mw: float, seed,
                objective: str = "r_total") -> SolveResult:
    """Jointly optimize UAV position and relative powers (dim K + 2).

    The first particle starts at the default position with equal powers.
    """
    k = rlz.num_users
    box = rlz.scenario.box

    def evaluate(coords: np.ndarray) -> np.ndarray:
        xys = box.from_unit(coords[:, :2])
        p_hat = coords[:, 2:] ** 2
        return _eval_candidates(rlz, xys, p_hat, p_t_mw, sigma2_mw, objective)

    warm = [np.concatenate([box.to_unit(rlz.default_xy), np.ones(k)])]
    pos, val, trace = run_pso(evaluate, k + 2, cfg, seed, warm)
    return SolveResult(xy=box.from_unit(pos[:2]), p_hat=pos[2:] ** 2,
                       value=val, trace=trace, objective=objective)


@dataclass
class GridResult:
    """Exhaustive-search surface over deployment-box cell centres."""

    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray          # shape (len(xs), len(ys))
    best_xy: np.ndarray
    best_value: float
    objective: str = "r_total"


def exhaustive_grid(rlz: Realization, dx: float, dy: float, p_t_mw: float,
                    sigma2_mw: float, objective: str = "r_total",
                    p_hat=None) -> GridResult:
    """Evaluate every grid cell centre; equal power unless p_hat is given.

    Cell centres sit at min + (i + 0.5) * step; a step wider than the box
    degenerates to the single box-centre cell.
    """
    if dx <= 0.0 or dy <= 0.0:
        raise ValueError("grid steps must be positive")
    box = rlz.scenario.box
    xs = _centers(box.x_min, box.x_max, dx)
    ys = _centers(box.y_min, box.y_max, dy)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    xys = np.column_stack([gx.ravel(), gy.ravel()])
    batch = rlz.evaluate_batch(xys, p_t_mw, sigma2_mw, p_hat)
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
