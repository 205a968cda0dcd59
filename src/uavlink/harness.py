"""Monte-Carlo experiment runner: schemes x transmit powers x realizations.

Realization i of a run is rebuilt from SeedSequence([seed, i]) and solver
calls get their own substreams keyed by (seed, i, scheme, power index), so
results depend only on the configuration and seed, never on worker count,
block size or completion order. Realizations run in blocks of consecutive
indices (:func:`uavlink.schedule.map_blocks`): each swarm scheme makes one
stacked solve per block, with one swarm per (realization, power), and
each stacked swarm equals the same swarm run alone. Result CSVs are
byte-stable for that reason; wall times go to the run manifest, which is
allowed to differ between runs.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import math
import os
import subprocess
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import learn, pso, relay
from .channel import ANGLE_MODELS
from .config import check_fields, from_dict, require_number, \
    scenario_from_dict, scenario_to_dict, to_dict
from .geometry import Scenario, dbm_to_mw, noise_power
from .links import RfDesign, Realization, make_realization, shared_rf
from .schedule import map_blocks

SCHEMES = ("fl_eqpa", "psopa_fl", "psol_eqpa", "psolpa", "exhaustive", "dnn")
_SCHEME_CODE = {name: i for i, name in enumerate(SCHEMES)}
_SWARM_SCHEMES = ("psopa_fl", "psol_eqpa", "psolpa")


@dataclass
class ExperimentSpec:
    """Everything one run needs; serializable to/from the JSON config."""

    scenario: Scenario = field(default_factory=Scenario)
    schemes: list[str] = field(default_factory=lambda: [
        "fl_eqpa", "psopa_fl", "psol_eqpa", "psolpa"])
    p_t_dbm: list[float] = field(default_factory=lambda: [
        0.0, 10.0, 20.0, 30.0, 40.0])
    realizations: int = 100
    seed: int = 1
    workers: int = 1
    angle_model: str = "fixed"
    pso: pso.PsoConfig = field(default_factory=pso.PsoConfig)
    grid_dx: float = 5.0
    grid_dy: float = 5.0
    model_path: str | None = None

    def __post_init__(self):
        check_fields(self, "experiment")
        for name in self.schemes:
            if name not in SCHEMES:
                raise ValueError(
                    f"unknown scheme {name!r}; valid: {', '.join(SCHEMES)}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError("experiment.schemes lists a scheme twice")
        if not self.p_t_dbm:
            raise ValueError("experiment.p_t_dbm needs at least one power")
        if len(set(self.p_t_dbm)) != len(self.p_t_dbm):
            raise ValueError("experiment.p_t_dbm lists a power twice")
        if self.realizations < 1:
            raise ValueError(f"experiment.realizations needs at least one "
                             f"realization, got {self.realizations}")
        if self.seed < 0:
            raise ValueError(f"experiment.seed must be nonnegative, got {self.seed}")
        if self.workers < 1:
            raise ValueError("experiment.workers must be at least 1")
        if self.angle_model not in ANGLE_MODELS:
            raise ValueError(f"unknown angle model {self.angle_model!r}; "
                             f"valid: {', '.join(ANGLE_MODELS)}")
        if self.grid_dx <= 0.0 or self.grid_dy <= 0.0:
            raise ValueError("experiment.grid_dx and grid_dy must be positive")
        if "dnn" in self.schemes and not self.model_path:
            raise ValueError("scheme 'dnn' needs experiment.model_path")


@dataclass
class ResultRow:
    scheme: str
    p_t_dbm: float
    mean_r1: float
    std_r1: float
    mean_r2: float
    std_r2: float
    mean_r_total: float
    std_r_total: float
    realizations: int


def _solver_seed(spec: ExperimentSpec, index: int, scheme: str,
                 pt_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        [int(spec.seed), int(index), _SCHEME_CODE[scheme], int(pt_index)])


def _apply_scheme(rlz: Realization, scheme: str, p_t_mw: float,
                  sigma2_mw: float, spec: ExperimentSpec, decision=None,
                  model: learn.MlpModel | None = None):
    """One scheme on one realization; reported rates all go through the
    reference single-point formulas for comparability.

    ``decision`` is the (xy, p_hat) a swarm scheme's search found (see
    :func:`_swarm_decisions`); ``model`` is the run's surrogate for ``dnn``;
    the other schemes decide here.
    """
    xy, p_hat = rlz.default_xy, None      # None: equal power allocation
    if scheme in _SWARM_SCHEMES:
        xy, p_hat = decision
    elif scheme == "exhaustive":
        xy = pso.exhaustive_grid(rlz, spec.grid_dx, spec.grid_dy, p_t_mw,
                                 sigma2_mw).best_xy
    elif scheme == "dnn":
        xy, _, report = learn.apply_prediction(model, rlz, p_t_mw, sigma2_mw)
        return xy, report
    elif scheme != "fl_eqpa":
        raise ValueError(f"unknown scheme {scheme!r}")
    return xy, rlz.rate_at(xy, p_t_mw, sigma2_mw, p_hat)


def _swarm_decisions(rlzs: list[Realization], scheme: str,
                     p_t_mw: list[float], sigma2_mw: float,
                     spec: ExperimentSpec, block: range) -> list[tuple]:
    """(xy, p_hat) of a swarm scheme on every realization of ``block`` at
    every power of the sweep, realization-major, from one stacked solve
    with one swarm (and one seed) per (realization, power)."""
    seeds = [_solver_seed(spec, index, scheme, pt_index)
             for index in block for pt_index in range(len(p_t_mw))]
    swarm_rlzs = [rlz for rlz in rlzs for _ in p_t_mw]
    budgets = p_t_mw * len(rlzs)
    if scheme == "psopa_fl":
        sols = pso.solve_pa_fixed_loc(swarm_rlzs, rlzs[0].default_xy,
                                      spec.pso, budgets, sigma2_mw, seeds)
    elif scheme == "psol_eqpa":
        sols = pso.solve_loc_equal_pa(swarm_rlzs, spec.pso, budgets,
                                      sigma2_mw, seeds)
    else:
        sols = pso.solve_joint(swarm_rlzs, spec.pso, budgets, sigma2_mw,
                               seeds)
    return [(sol.xy, sol.p_hat) for sol in sols]


def realization(spec: ExperimentSpec, index: int,
                rf: RfDesign | None = None) -> Realization:
    """Realization ``index`` of a run, drawn from SeedSequence([seed, index]).

    ``rf`` is the run's shared analog design (``shared_rf``), if it has one.
    """
    return make_realization(
        spec.scenario, np.random.SeedSequence([int(spec.seed), int(index)]),
        spec.angle_model, rf)


def _realization_rows(spec: ExperimentSpec, rf: RfDesign | None,
                      model: learn.MlpModel | None, block: range
                      ) -> list[dict]:
    """The records of the realizations in ``block``, in index order."""
    rlzs = [realization(spec, index, rf) for index in block]
    sigma2_mw = dbm_to_mw(noise_power(spec.scenario))
    p_t_mw = [dbm_to_mw(p_t) for p_t in spec.p_t_dbm]
    decisions = {scheme: _swarm_decisions(rlzs, scheme, p_t_mw, sigma2_mw,
                                          spec, block)
                 for scheme in spec.schemes if scheme in _SWARM_SCHEMES}
    rows = []
    for j, (index, rlz) in enumerate(zip(block, rlzs)):
        for pt_index, p_t in enumerate(spec.p_t_dbm):
            swarm = j * len(p_t_mw) + pt_index
            for scheme in spec.schemes:
                decision = (decisions[scheme][swarm] if scheme in decisions
                            else None)
                xy, report = _apply_scheme(rlz, scheme, p_t_mw[pt_index],
                                           sigma2_mw, spec, decision, model)
                rows.append({
                    "realization": index, "scheme": scheme, "p_t_dbm": p_t,
                    "r1": report.r1, "r2": report.r2,
                    "r_total": report.r_total,
                    "uav_x": float(xy[0]), "uav_y": float(xy[1]),
                })
    return rows


def _per_block(spec: ExperimentSpec, fn, swarms: int, *args) -> list:
    """The items of ``fn(spec, *args, block)`` over the blocks of the run's
    realization indices (:func:`uavlink.schedule.map_blocks`), in index
    order; each realization adds ``swarms`` swarms to a block's stacked
    solves."""
    return [item for items in map_blocks(functools.partial(fn, spec, *args),
                                         range(spec.realizations), swarms,
                                         spec.workers)
            for item in items]


def run(spec: ExperimentSpec, out_dir: str | None = None
        ) -> tuple[list[ResultRow], list[dict]]:
    """Execute the full experiment; optionally write CSVs and a manifest."""
    t0 = time.perf_counter()
    rf = shared_rf(spec.scenario, spec.angle_model)
    # loaded here, once per run, so a rewritten file is never served stale
    model = (learn.load_model(spec.model_path) if "dnn" in spec.schemes
             else None)
    # in (realization, power, scheme) order
    records = _per_block(spec, _realization_rows, len(spec.p_t_dbm), rf,
                         model)

    results = []
    for scheme in spec.schemes:
        for p_t in spec.p_t_dbm:
            sel = [r for r in records
                   if r["scheme"] == scheme and r["p_t_dbm"] == p_t]
            r1 = np.array([r["r1"] for r in sel])
            r2 = np.array([r["r2"] for r in sel])
            rt = np.array([r["r_total"] for r in sel])
            results.append(ResultRow(
                scheme=scheme, p_t_dbm=p_t,
                mean_r1=float(r1.mean()), std_r1=float(r1.std()),
                mean_r2=float(r2.mean()), std_r2=float(r2.std()),
                mean_r_total=float(rt.mean()), std_r_total=float(rt.std()),
                realizations=len(sel)))
    wall = time.perf_counter() - t0

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        write_results_csv(os.path.join(out_dir, "results.csv"), results)
        write_records_csv(os.path.join(out_dir, "per_realization.csv"),
                          records)
        write_manifest(os.path.join(out_dir, "manifest.json"), spec,
                       {"run_s": wall})
    return results, records


def write_csv(path: str, header: list, rows) -> None:
    """A CSV file of ``header``, then each row of ``rows`` (lists of cells,
    formatted by the caller)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_results_csv(path: str, results: list[ResultRow]) -> None:
    cols = [f.name for f in fields(ResultRow)]
    write_csv(path, cols, ([row.scheme]
                           + [_fmt(getattr(row, c)) for c in cols[1:-1]]
                           + [row.realizations] for row in results))


def write_records_csv(path: str, records: list[dict]) -> None:
    cols = ["realization", "scheme", "p_t_dbm", "r1", "r2", "r_total",
            "uav_x", "uav_y"]
    write_csv(path, cols, ([rec["realization"], rec["scheme"]]
                           + [_fmt(rec[c]) for c in cols[2:]]
                           for rec in records))


def _fmt(x) -> str:
    """Shortest round-trip decimal form; deterministic for identical bits."""
    return repr(float(x))


def spec_to_dict(spec: ExperimentSpec) -> dict:
    return {"scenario": scenario_to_dict(spec.scenario),
            "pso": to_dict(spec.pso), "experiment": to_dict(spec)}


def config_hash(spec: ExperimentSpec) -> str:
    blob = json.dumps(spec_to_dict(spec), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def write_manifest(path: str, spec: ExperimentSpec,
                   wall_times: dict | None = None) -> None:
    manifest = {
        "config": spec_to_dict(spec),
        "config_hash": config_hash(spec),
        "seed": spec.seed,
        "realizations_per_power_point": spec.realizations,
        "git_describe": _git_describe(),
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_times_s": wall_times or {},
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1)


@functools.cache
def _git_describe() -> str | None:
    """``git describe`` of the working directory, resolved once per
    process: a manifest records the checkout as the process first saw it."""
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=5)
        return out.stdout.strip() or None
    except OSError:
        return None


# --- surfaces -----------------------------------------------------------------

def mean_surface(spec: ExperimentSpec, p_t_dbm: float,
                 objective: str = "r_total") -> pso.GridResult:
    """Grid surface averaged over the run's realizations; a non-finite
    ``p_t_dbm`` is refused before any realization is drawn. Realizations
    spread over ``spec.workers`` processes, one per task (a grid has no
    swarms to stack); their grids add up in index order, so the surface
    does not depend on the worker count."""
    require_number(p_t_dbm, "p_t_dbm")
    sigma2_mw = dbm_to_mw(noise_power(spec.scenario))
    p_t_mw = dbm_to_mw(p_t_dbm)
    rf = shared_rf(spec.scenario, spec.angle_model)
    grids = _per_block(spec, _realization_grid, 0, rf, p_t_mw, sigma2_mw,
                       objective)
    values = sum(grids[1:], grids[0]) / spec.realizations
    xs, ys = pso.grid_axes(spec.scenario.box, spec.grid_dx, spec.grid_dy)
    ix, iy = np.unravel_index(int(np.argmax(values)), values.shape)
    return pso.GridResult(xs=xs, ys=ys, values=values,
                          best_xy=np.array([xs[ix], ys[iy]]),
                          best_value=float(values[ix, iy]),
                          objective=objective)


def _realization_grid(spec: ExperimentSpec, rf: RfDesign | None,
                      p_t_mw: float, sigma2_mw: float, objective: str,
                      block: range) -> list[np.ndarray]:
    """The equal-power grid values of each realization in ``block``."""
    return [pso.exhaustive_grid(realization(spec, index, rf), spec.grid_dx,
                                spec.grid_dy, p_t_mw, sigma2_mw,
                                objective).values for index in block]


def emit_surface(grid: pso.GridResult, path: str) -> None:
    """Matrix CSV: rows over x, columns over y, argmax appended."""
    rows = [[_fmt(x)] + [_fmt(v) for v in grid.values[i]]
            for i, x in enumerate(grid.xs)]
    rows.append(["best", _fmt(grid.best_xy[0]), _fmt(grid.best_xy[1]),
                 _fmt(grid.best_value)])
    write_csv(path, ["x\\y"] + [_fmt(y) for y in grid.ys], rows)


# --- delay experiment -----------------------------------------------------------

def run_delay(spec: ExperimentSpec, queue_bits: list[float],
              out_path: str | None = None) -> list[dict]:
    """Average Little's-law delay, bufferless vs buffered, per power point.

    One search yields both policies: per block of realizations, one
    ``relay.optimize_policy`` call steps the searches of every realization
    and power in lockstep (one seed per (realization, power)), and each
    buffered policy carries the bufferless optimum it dominates, so the
    buffered delay never exceeds the bufferless one on any realization.
    Both delays come from the per-hop rates the policies record.
    ``queue_bits`` is refused, before any realization is drawn, when empty,
    repeated, negative or not finite. Blocks spread over ``spec.workers``
    processes; the means add the realizations up in index order, so the
    rows depend neither on the worker count nor on the blocks.
    """
    _check_queue_bits(queue_bits)
    rf = shared_rf(spec.scenario, spec.angle_model)
    per_index = _per_block(spec, _realization_delays, 3 * len(spec.p_t_dbm),
                           rf, queue_bits)
    delays = {key: [d[key] for d in per_index] for key in per_index[0]}
    rows = [{"p_t_dbm": p_t, "queue_bits": q,
             "delay_fixed": float(np.mean(delays["without_buffer", pt, q])),
             "delay_buffered": float(np.mean(delays["with_buffer", pt, q]))}
            for pt, p_t in enumerate(spec.p_t_dbm) for q in queue_bits]
    if out_path is not None:
        cols = list(rows[0])
        write_csv(out_path, cols, ([_fmt(row[c]) for c in cols] for row in rows))
    return rows


def _realization_delays(spec: ExperimentSpec, rf: RfDesign | None,
                        queue_bits: list[float], block: range) -> list[dict]:
    """(mode, power index, queue bits) -> delay, for each realization of
    ``block`` in index order."""
    sigma2_mw = dbm_to_mw(noise_power(spec.scenario))
    p_t_mw = [dbm_to_mw(p_t) for p_t in spec.p_t_dbm]
    rlzs = [realization(spec, index, rf) for index in block]
    seeds = [np.random.SeedSequence([int(spec.seed), index, 101, pt_index])
             for index in block for pt_index in range(len(p_t_mw))]
    policies = relay.optimize_policy(
        [rlz for rlz in rlzs for _ in p_t_mw], spec.pso,
        p_t_mw * len(rlzs), sigma2_mw, seeds)
    p = len(p_t_mw)
    return [{(mode, pt_index, q): relay.little_delay(*pol.hop_rates, q)
             for pt_index, policy in enumerate(policies[j * p:(j + 1) * p])
             for mode, pol in (("without_buffer", policy.bufferless()),
                               ("with_buffer", policy))
             for q in queue_bits}
            for j in range(len(rlzs))]


def _check_queue_bits(queue_bits: list[float]) -> None:
    if not queue_bits:
        raise ValueError("queue_bits needs at least one queue size")
    if len(set(queue_bits)) != len(queue_bits):
        raise ValueError("queue_bits lists a queue size twice")
    for q in queue_bits:
        if not (math.isfinite(q) and q >= 0.0):
            raise ValueError(
                f"queue_bits must be finite and nonnegative, got {q!r}")


# --- configuration boundary ------------------------------------------------------

def spec_from_dict(cfg: dict) -> ExperimentSpec:
    """Parse and validate the run configuration; unknown keys are errors."""
    for key in cfg:
        if key not in ("scenario", "pso", "experiment", "dnn"):
            raise ValueError(f"unknown config section {key!r}")
    scenario = scenario_from_dict(cfg.get("scenario", {}))
    swarm_cfg = from_dict(pso.PsoConfig, cfg.get("pso", {}), "pso")
    # read by `train` alone, but refused here too when it is malformed
    from_dict(learn.TrainConfig, cfg.get("dnn", {}), "dnn")
    return from_dict(ExperimentSpec, cfg.get("experiment", {}), "experiment",
                     scenario=scenario, pso=swarm_cfg)


def read_config(path: str) -> dict:
    """The JSON config file at ``path``; malformed JSON is refused naming
    the file."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"config {path} is not valid JSON: {err}") from err


def load_spec(path: str) -> ExperimentSpec:
    return spec_from_dict(read_config(path))


def paper_scale_spec(**overrides) -> ExperimentSpec:
    """Full-scale preset: 12x12 arrays, long Monte-Carlo budget."""
    scenario = Scenario(bs_array=(12, 12), uav_rx_array=(12, 12),
                        uav_tx_array=(12, 12))
    defaults = dict(scenario=scenario, realizations=2000)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)
