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
import os
import subprocess
import time
from dataclasses import dataclass, field

import numpy as np

from . import learn, pso, relay
from .geometry import Scenario, dbm_to_mw, noise_power, scenario_from_dict, \
    scenario_to_dict
from .links import Realization

SCHEMES = ("fl_eqpa", "psopa_fl", "psol_eqpa", "psolpa", "exhaustive", "dnn")
_SCHEME_CODE = {name: i for i, name in enumerate(SCHEMES)}
_MODEL_CACHE: dict[str, learn.MlpModel] = {}


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
        if self.realizations < 1:
            raise ValueError("need at least one realization")
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
                  sigma2_mw: float, spec: ExperimentSpec,
                  seed_seq: np.random.SeedSequence):
    """One scheme on one realization; reported rates all go through the
    reference single-point formulas for comparability."""
    if scheme == "fl_eqpa":
        xy = rlz.default_xy
        report = rlz.rate_at(xy, p_t_mw, sigma2_mw)
    elif scheme == "psopa_fl":
        sol = pso.solve_pa_fixed_loc(rlz, rlz.default_xy, spec.pso, p_t_mw,
                                     sigma2_mw, seed_seq)
        xy = rlz.default_xy
        report = rlz.rate_at(xy, p_t_mw, sigma2_mw, sol.p_hat)
    elif scheme == "psol_eqpa":
        sol = pso.solve_loc_equal_pa(rlz, spec.pso, p_t_mw, sigma2_mw,
                                     seed_seq)
        xy = sol.xy
        report = rlz.rate_at(xy, p_t_mw, sigma2_mw)
    elif scheme == "psolpa":
        sol = pso.solve_joint(rlz, spec.pso, p_t_mw, sigma2_mw, seed_seq)
        xy = sol.xy
        report = rlz.rate_at(xy, p_t_mw, sigma2_mw, sol.p_hat)
    elif scheme == "exhaustive":
        grid = pso.exhaustive_grid(rlz, spec.grid_dx, spec.grid_dy, p_t_mw,
                                   sigma2_mw)
        xy = grid.best_xy
        report = rlz.rate_at(xy, p_t_mw, sigma2_mw)
    elif scheme == "dnn":
        model = _load_model_cached(spec.model_path)
        xy, _, report = learn.apply_prediction(model, rlz, p_t_mw, sigma2_mw)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    return xy, report


def _load_model_cached(path: str) -> learn.MlpModel:
    if path not in _MODEL_CACHE:
        _MODEL_CACHE[path] = learn.load_model(path)
    return _MODEL_CACHE[path]


def realization(spec: ExperimentSpec, index: int) -> Realization:
    """Realization ``index`` of a run, drawn from SeedSequence([seed, index])."""
    seq = np.random.SeedSequence([int(spec.seed), int(index)])
    return Realization(spec.scenario, np.random.default_rng(seq),
                       spec.angle_model)


def _realization_rows(spec: ExperimentSpec, index: int) -> list[dict]:
    rlz = realization(spec, index)
    sigma2_mw = dbm_to_mw(noise_power(spec.scenario))
    rows = []
    for pt_index, p_t in enumerate(spec.p_t_dbm):
        p_t_mw = dbm_to_mw(p_t)
        for scheme in spec.schemes:
            xy, report = _apply_scheme(
                rlz, scheme, p_t_mw, sigma2_mw, spec,
                _solver_seed(spec, index, scheme, pt_index))
            rows.append({
                "realization": index, "scheme": scheme, "p_t_dbm": p_t,
                "r1": report.r1, "r2": report.r2, "r_total": report.r_total,
                "uav_x": float(xy[0]), "uav_y": float(xy[1]),
            })
    return rows


def run(spec: ExperimentSpec, out_dir: str | None = None
        ) -> tuple[list[ResultRow], list[dict]]:
    """Execute the full experiment; optionally write CSVs and a manifest."""
    t0 = time.perf_counter()
    indices = list(range(spec.realizations))
    if spec.workers > 1:
        import multiprocessing as mp
        with mp.Pool(spec.workers) as pool:
            per_index = pool.starmap(
                _realization_rows, [(spec, i) for i in indices], chunksize=1)
    else:
        per_index = [_realization_rows(spec, i) for i in indices]
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
        "pso": {
            "particles": spec.pso.particles,
            "iterations": spec.pso.iterations,
            "gamma1": spec.pso.gamma1,
            "gamma2": spec.pso.gamma2,
            "inertia": spec.pso.inertia,
            "inertia_schedule": list(spec.pso.inertia_schedule)
            if spec.pso.inertia_schedule else None,
            "velocity_clip": list(spec.pso.velocity_clip),
        },
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
    """Grid surface averaged over the run's realizations."""
    sigma2_mw = dbm_to_mw(noise_power(spec.scenario))
    p_t_mw = dbm_to_mw(p_t_dbm)
    total = None
    xs = ys = None
    for i in range(spec.realizations):
        grid = pso.exhaustive_grid(realization(spec, i), spec.grid_dx,
                                   spec.grid_dy, p_t_mw, sigma2_mw, objective)
        total = grid.values if total is None else total + grid.values
        xs, ys = grid.xs, grid.ys
    values = total / spec.realizations
    ix, iy = np.unravel_index(int(np.argmax(values)), values.shape)
    return pso.GridResult(xs=xs, ys=ys, values=values,
                          best_xy=np.array([xs[ix], ys[iy]]),
                          best_value=float(values[ix, iy]),
                          objective=objective)


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

    Both policy searches on a realization share one seed, so the buffered
    delay never exceeds the bufferless one on any realization.
    """
    sigma2_mw = dbm_to_mw(noise_power(spec.scenario))
    delays = {}     # (mode, power index, queue bits) -> one per realization
    for i in range(spec.realizations):
        rlz = realization(spec, i)
        for pt_index, p_t in enumerate(spec.p_t_dbm):
            p_t_mw = dbm_to_mw(p_t)
            for mode in ("without_buffer", "with_buffer"):
                policy = relay.optimize_policy(
                    rlz, spec.pso, p_t_mw, sigma2_mw,
                    [int(spec.seed), i, 101, pt_index], mode=mode)
                rep = relay.buffered_rate(rlz, policy, p_t_mw, sigma2_mw)
                for q in queue_bits:
                    delays.setdefault((mode, pt_index, q), []).append(
                        relay.little_delay(rep.r1, rep.r2, q))
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


# --- configuration boundary ------------------------------------------------------

_PSO_KEYS = {"particles", "iterations", "gamma1", "gamma2", "inertia",
             "inertia_schedule", "velocity_clip"}
_EXP_KEYS = {"schemes", "p_t_dbm", "realizations", "seed", "workers",
             "angle_model", "grid_dx", "grid_dy", "model_path"}


def spec_from_dict(cfg: dict) -> ExperimentSpec:
    """Parse and validate the run configuration; unknown keys are errors."""
    for key in cfg:
        if key not in ("scenario", "pso", "experiment", "dnn"):
            raise ValueError(f"unknown config section {key!r}")
    scenario = scenario_from_dict(cfg.get("scenario", {}))
    pso_cfg = cfg.get("pso", {})
    unknown = set(pso_cfg) - _PSO_KEYS
    if unknown:
        raise ValueError(f"unknown config field pso.{sorted(unknown)[0]}")
    kwargs = dict(pso_cfg)
    if kwargs.get("inertia_schedule") is not None:
        kwargs["inertia_schedule"] = tuple(kwargs["inertia_schedule"])
    if "velocity_clip" in kwargs:
        kwargs["velocity_clip"] = tuple(kwargs["velocity_clip"])
    swarm_cfg = pso.PsoConfig(**kwargs)
    exp_cfg = cfg.get("experiment", {})
    unknown = set(exp_cfg) - _EXP_KEYS
    if unknown:
        raise ValueError(f"unknown config field experiment.{sorted(unknown)[0]}")
    return ExperimentSpec(scenario=scenario, pso=swarm_cfg, **exp_cfg)


def load_spec(path: str) -> ExperimentSpec:
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"config {path} is not valid JSON: {err}") from err
    return spec_from_dict(cfg)


def paper_scale_spec(**overrides) -> ExperimentSpec:
    """Full-scale preset: 12x12 arrays, long Monte-Carlo budget."""
    scenario = Scenario(bs_array=(12, 12), uav_rx_array=(12, 12),
                        uav_tx_array=(12, 12))
    defaults = dict(scenario=scenario, realizations=2000)
    defaults.update(overrides)
    return ExperimentSpec(**defaults)
