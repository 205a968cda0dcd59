"""Monte-Carlo experiment runner: schemes x transmit powers x realizations.

Realization i of a run is rebuilt from SeedSequence([seed, i]) and solver
calls get their own substreams keyed by (seed, i, scheme, power index), so
results depend only on the configuration and seed, never on worker count or
completion order. Result CSVs are byte-stable for that reason; wall times
go to the run manifest, which is allowed to differ between runs.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

from . import learn, pso, relay
from .channel import ANGLE_MODELS
from .geometry import Scenario, dbm_to_mw, noise_power, scenario_from_dict, \
    scenario_to_dict
from .links import RfDesign, Realization, shared_rf

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
        for name in self.schemes:
            if name not in SCHEMES:
                raise ValueError(
                    f"unknown scheme {name!r}; valid: {', '.join(SCHEMES)}")
        if len(set(self.schemes)) != len(self.schemes):
            raise ValueError("experiment.schemes lists a scheme twice")
        if not self.p_t_dbm:
            raise ValueError("experiment.p_t_dbm needs at least one power")
        if not all(math.isfinite(p_t) for p_t in self.p_t_dbm):
            raise ValueError(
                f"experiment.p_t_dbm must be finite, got {self.p_t_dbm}")
        if len(set(self.p_t_dbm)) != len(self.p_t_dbm):
            raise ValueError("experiment.p_t_dbm lists a power twice")
        if self.realizations < 1:
            raise ValueError("need at least one realization")
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


def _swarm_decisions(rlz: Realization, scheme: str, p_t_mw: list[float],
                     sigma2_mw: float, spec: ExperimentSpec, index: int
                     ) -> list[tuple]:
    """(xy, p_hat) of a swarm scheme at every power of the sweep, from one
    stacked solve with one swarm (and one seed) per power."""
    seeds = [_solver_seed(spec, index, scheme, pt_index)
             for pt_index in range(len(p_t_mw))]
    if scheme == "psopa_fl":
        sols = pso.solve_pa_fixed_loc(rlz, rlz.default_xy, spec.pso, p_t_mw,
                                      sigma2_mw, seeds)
    elif scheme == "psol_eqpa":
        sols = pso.solve_loc_equal_pa(rlz, spec.pso, p_t_mw, sigma2_mw, seeds)
    else:
        sols = pso.solve_joint(rlz, spec.pso, p_t_mw, sigma2_mw, seeds)
    return [(sol.xy, sol.p_hat) for sol in sols]


def realization(spec: ExperimentSpec, index: int,
                rf: RfDesign | None = None) -> Realization:
    """Realization ``index`` of a run, drawn from SeedSequence([seed, index]).

    ``rf`` is the run's shared analog design (``shared_rf``), if it has one.
    """
    seq = np.random.SeedSequence([int(spec.seed), int(index)])
    return Realization(spec.scenario, np.random.default_rng(seq),
                       spec.angle_model, rf)


def _realization_rows(spec: ExperimentSpec, index: int, rf: RfDesign | None,
                      model: learn.MlpModel | None) -> list[dict]:
    rlz = realization(spec, index, rf)
    sigma2_mw = dbm_to_mw(noise_power(spec.scenario))
    p_t_mw = [dbm_to_mw(p_t) for p_t in spec.p_t_dbm]
    decisions = {scheme: _swarm_decisions(rlz, scheme, p_t_mw, sigma2_mw,
                                          spec, index)
                 for scheme in spec.schemes if scheme in _SWARM_SCHEMES}
    rows = []
    for pt_index, p_t in enumerate(spec.p_t_dbm):
        for scheme in spec.schemes:
            decision = (decisions[scheme][pt_index] if scheme in decisions
                        else None)
            xy, report = _apply_scheme(rlz, scheme, p_t_mw[pt_index],
                                       sigma2_mw, spec, decision, model)
            rows.append({
                "realization": index, "scheme": scheme, "p_t_dbm": p_t,
                "r1": report.r1, "r2": report.r2, "r_total": report.r_total,
                "uav_x": float(xy[0]), "uav_y": float(xy[1]),
            })
    return rows


def _per_realization(spec: ExperimentSpec, fn, *args) -> list:
    """``fn(spec, i, *args)`` for every realization index i, in index order,
    spread over ``spec.workers`` processes when there are several."""
    calls = [(spec, i) + args for i in range(spec.realizations)]
    if spec.workers == 1:
        return [fn(*call) for call in calls]
    import multiprocessing as mp
    with mp.Pool(spec.workers) as pool:
        return pool.starmap(fn, calls, chunksize=1)


def run(spec: ExperimentSpec, out_dir: str | None = None
        ) -> tuple[list[ResultRow], list[dict]]:
    """Execute the full experiment; optionally write CSVs and a manifest."""
    t0 = time.perf_counter()
    rf = shared_rf(spec.scenario, spec.angle_model)
    # loaded here, once per run, so a rewritten file is never served stale
    model = (learn.load_model(spec.model_path) if "dnn" in spec.schemes
             else None)
    per_index = _per_realization(spec, _realization_rows, rf, model)
    records = [row for rows in per_index for row in rows]
    records.sort(key=lambda r: (r["realization"],
                                spec.p_t_dbm.index(r["p_t_dbm"]),
                                spec.schemes.index(r["scheme"])))

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


def write_results_csv(path: str, results: list[ResultRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scheme", "p_t_dbm", "mean_r1", "std_r1", "mean_r2",
                         "std_r2", "mean_r_total", "std_r_total",
                         "realizations"])
        for row in results:
            writer.writerow([
                row.scheme, _fmt(row.p_t_dbm), _fmt(row.mean_r1),
                _fmt(row.std_r1), _fmt(row.mean_r2), _fmt(row.std_r2),
                _fmt(row.mean_r_total), _fmt(row.std_r_total),
                row.realizations])


def write_records_csv(path: str, records: list[dict]) -> None:
    cols = ["realization", "scheme", "p_t_dbm", "r1", "r2", "r_total",
            "uav_x", "uav_y"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for rec in records:
            writer.writerow([rec["realization"], rec["scheme"]]
                            + [_fmt(rec[c]) for c in cols[2:]])


def _fmt(x) -> str:
    """Shortest round-trip decimal form; deterministic for identical bits."""
    return repr(float(x))


def spec_to_dict(spec: ExperimentSpec) -> dict:
    return {
        "scenario": scenario_to_dict(spec.scenario),
        "pso": pso.config_to_dict(spec.pso),
        "experiment": {
            "schemes": list(spec.schemes),
            "p_t_dbm": list(spec.p_t_dbm),
            "realizations": spec.realizations,
            "seed": spec.seed,
            "workers": spec.workers,
            "angle_model": spec.angle_model,
            "grid_dx": spec.grid_dx,
            "grid_dy": spec.grid_dy,
            "model_path": spec.model_path,
        },
    }


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


def _git_describe() -> str | None:
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
    spread over ``spec.workers`` processes; their grids add up in index
    order, so the surface does not depend on the worker count."""
    if not math.isfinite(p_t_dbm):
        raise ValueError(f"p_t_dbm must be finite, got {p_t_dbm!r}")
    sigma2_mw = dbm_to_mw(noise_power(spec.scenario))
    p_t_mw = dbm_to_mw(p_t_dbm)
    rf = shared_rf(spec.scenario, spec.angle_model)
    grids = _per_realization(spec, _realization_grid, rf, p_t_mw, sigma2_mw,
                             objective)
    values = sum(grids[1:], grids[0]) / spec.realizations
    xs, ys = pso.grid_axes(spec.scenario.box, spec.grid_dx, spec.grid_dy)
    ix, iy = np.unravel_index(int(np.argmax(values)), values.shape)
    return pso.GridResult(xs=xs, ys=ys, values=values,
                          best_xy=np.array([xs[ix], ys[iy]]),
                          best_value=float(values[ix, iy]),
                          objective=objective)


def _realization_grid(spec: ExperimentSpec, index: int, rf: RfDesign | None,
                      p_t_mw: float, sigma2_mw: float, objective: str
                      ) -> np.ndarray:
    """The equal-power grid values of realization ``index``."""
    return pso.exhaustive_grid(realization(spec, index, rf), spec.grid_dx,
                               spec.grid_dy, p_t_mw, sigma2_mw,
                               objective).values


def emit_surface(grid: pso.GridResult, path: str) -> None:
    """Matrix CSV: rows over x, columns over y, argmax appended."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x\\y"] + [_fmt(y) for y in grid.ys])
        for i, x in enumerate(grid.xs):
            writer.writerow([_fmt(x)] + [_fmt(v) for v in grid.values[i]])
        writer.writerow(["best", _fmt(grid.best_xy[0]), _fmt(grid.best_xy[1]),
                         _fmt(grid.best_value)])


# --- delay experiment -----------------------------------------------------------

def run_delay(spec: ExperimentSpec, queue_bits: list[float],
              out_path: str | None = None) -> list[dict]:
    """Average Little's-law delay, bufferless vs buffered, per power point.

    One search yields both policies: per realization, one
    ``relay.optimize_policy`` call steps every power's searches in lockstep
    (one seed per power), and each buffered policy carries the bufferless
    optimum it dominates, so the buffered delay never exceeds the
    bufferless one on any realization. ``queue_bits`` is refused, before
    any realization is drawn, when empty, repeated, negative or not finite.
    Realizations spread over ``spec.workers`` processes; the means add
    them up in index order, so the rows do not depend on the worker count.
    """
    _check_queue_bits(queue_bits)
    rf = shared_rf(spec.scenario, spec.angle_model)
    per_index = _per_realization(spec, _realization_delays, rf, queue_bits)
    delays = {key: [d[key] for d in per_index] for key in per_index[0]}
    rows = [{"p_t_dbm": p_t, "queue_bits": q,
             "delay_fixed": float(np.mean(delays["without_buffer", pt, q])),
             "delay_buffered": float(np.mean(delays["with_buffer", pt, q]))}
            for pt, p_t in enumerate(spec.p_t_dbm) for q in queue_bits]
    if out_path is not None:
        with open(out_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["p_t_dbm", "queue_bits", "delay_fixed",
                             "delay_buffered"])
            for row in rows:
                writer.writerow([_fmt(row["p_t_dbm"]), _fmt(row["queue_bits"]),
                                 _fmt(row["delay_fixed"]),
                                 _fmt(row["delay_buffered"])])
    return rows


def _realization_delays(spec: ExperimentSpec, index: int,
                        rf: RfDesign | None, queue_bits: list[float]) -> dict:
    """(mode, power index, queue bits) -> delay on realization ``index``."""
    sigma2_mw = dbm_to_mw(noise_power(spec.scenario))
    p_t_mw = [dbm_to_mw(p_t) for p_t in spec.p_t_dbm]
    rlz = realization(spec, index, rf)
    seeds = [np.random.SeedSequence([int(spec.seed), index, 101, pt_index])
             for pt_index in range(len(p_t_mw))]
    buffered = relay.optimize_policy(rlz, spec.pso, p_t_mw, sigma2_mw, seeds)
    delays = {}
    for pt_index, policy in enumerate(buffered):
        for mode, pol in (("without_buffer", policy.bufferless()),
                          ("with_buffer", policy)):
            rep = relay.buffered_rate(rlz, pol, p_t_mw[pt_index], sigma2_mw)
            for q in queue_bits:
                delays[mode, pt_index, q] = relay.little_delay(
                    rep.r1, rep.r2, q)
    return delays


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

_EXP_KEYS = {"schemes", "p_t_dbm", "realizations", "seed", "workers",
             "angle_model", "grid_dx", "grid_dy", "model_path"}


def spec_from_dict(cfg: dict) -> ExperimentSpec:
    """Parse and validate the run configuration; unknown keys are errors."""
    for key in cfg:
        if key not in ("scenario", "pso", "experiment", "dnn"):
            raise ValueError(f"unknown config section {key!r}")
    scenario = scenario_from_dict(cfg.get("scenario", {}))
    swarm_cfg = pso.config_from_dict(cfg.get("pso", {}))
    learn.config_from_dict(cfg.get("dnn", {}))   # read by `train` alone
    exp_cfg = cfg.get("experiment", {})
    unknown = set(exp_cfg) - _EXP_KEYS
    if unknown:
        raise ValueError(f"unknown config field experiment.{sorted(unknown)[0]}")
    return ExperimentSpec(scenario=scenario, pso=swarm_cfg, **exp_cfg)


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
