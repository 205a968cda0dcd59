import dataclasses
import json
import os
import warnings

import numpy as np
import pytest

from uavlink import cli, harness, learn, links, pso, relay
from uavlink.beamforming import OverlappingSupports
from uavlink.geometry import Scenario, dbm_to_mw, noise_power, place_users
from uavlink.harness import (ExperimentSpec, config_hash, run, spec_from_dict,
                             spec_to_dict)
from uavlink.pso import PsoConfig

FAST_PSO = PsoConfig(particles=5, iterations=5)


def _small_spec(**overrides):
    base = dict(schemes=["fl_eqpa", "psopa_fl"], p_t_dbm=[10.0, 20.0],
                realizations=3, seed=9, pso=FAST_PSO, grid_dx=50.0,
                grid_dy=50.0)
    base.update(overrides)
    return ExperimentSpec(**base)


def test_run_aggregates_match_records(tmp_path):
    spec = _small_spec()
    results, records = run(spec, str(tmp_path))
    assert len(records) == 3 * 2 * 2
    assert len(results) == 4
    for row in results:
        sel = [r["r_total"] for r in records
               if r["scheme"] == row.scheme and r["p_t_dbm"] == row.p_t_dbm]
        assert row.realizations == 3
        assert row.mean_r_total == pytest.approx(np.mean(sel))
        assert row.std_r_total == pytest.approx(np.std(sel))
    for name in ("results.csv", "per_realization.csv", "manifest.json"):
        assert os.path.exists(tmp_path / name)


def test_csv_bytes_independent_of_workers(tmp_path):
    serial_dir = tmp_path / "serial"
    pool_dir = tmp_path / "pool"
    run(_small_spec(workers=1), str(serial_dir))
    run(_small_spec(workers=3), str(pool_dir))
    for name in ("results.csv", "per_realization.csv"):
        a = (serial_dir / name).read_bytes()
        b = (pool_dir / name).read_bytes()
        assert a == b


def test_power_sweep_is_monotone_for_equal_pa():
    spec = _small_spec(schemes=["fl_eqpa"], p_t_dbm=[0.0, 20.0, 40.0],
                       realizations=2)
    results, _ = run(spec)
    means = [row.mean_r_total for row in results]
    assert means[0] < means[1] < means[2]


_SWARM_SOLVERS = {"psopa_fl": "solve_pa_fixed_loc",
                  "psol_eqpa": "solve_loc_equal_pa", "psolpa": "solve_joint"}


def test_run_solves_each_swarm_scheme_once_per_realization(monkeypatch):
    spec = _small_spec(schemes=["fl_eqpa", *_SWARM_SOLVERS],
                       p_t_dbm=[0.0, 20.0, 40.0], realizations=2)
    calls = []
    for name in _SWARM_SOLVERS.values():
        def counted(*args, _solve=getattr(pso, name), _name=name, **kwargs):
            calls.append((_name, len(args[-1])))
            return _solve(*args, **kwargs)
        monkeypatch.setattr(pso, name, counted)
    _, records = run(spec)
    monkeypatch.undo()
    # one stacked call per (realization, scheme), one swarm per power
    assert sorted(calls) == sorted(
        (name, 3) for name in _SWARM_SOLVERS.values() for _ in range(2))
    # each record is what a lone swarm on its own seed finds
    sigma2 = dbm_to_mw(noise_power(spec.scenario))
    for rec in records:
        if rec["scheme"] == "fl_eqpa":
            continue
        rlz = harness.realization(spec, rec["realization"])
        p_t_mw = dbm_to_mw(rec["p_t_dbm"])
        seed = harness._solver_seed(spec, rec["realization"], rec["scheme"],
                                    spec.p_t_dbm.index(rec["p_t_dbm"]))
        if rec["scheme"] == "psopa_fl":
            sol = pso.solve_pa_fixed_loc(rlz, rlz.default_xy, spec.pso,
                                         p_t_mw, sigma2, seed)
        else:
            sol = getattr(pso, _SWARM_SOLVERS[rec["scheme"]])(
                rlz, spec.pso, p_t_mw, sigma2, seed)
        report = rlz.rate_at(sol.xy, p_t_mw, sigma2, sol.p_hat)
        assert (rec["uav_x"], rec["uav_y"]) == tuple(sol.xy)
        assert (rec["r1"], rec["r2"], rec["r_total"]) == \
            (report.r1, report.r2, report.r_total)


def test_scheme_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(schemes=["fl_eqpa", "mystery"])
    with pytest.raises(ValueError):
        ExperimentSpec(realizations=0)
    with pytest.raises(ValueError):
        ExperimentSpec(schemes=["dnn"])


@pytest.mark.parametrize("overrides, message", [
    ({"workers": 0}, "workers must be at least 1"),
    ({"p_t_dbm": []}, "needs at least one power"),
    ({"schemes": ["fl_eqpa", "psolpa", "fl_eqpa"]}, "lists a scheme twice"),
    ({"p_t_dbm": [10.0, 20.0, 10]}, "lists a power twice"),
    ({"angle_model": "geometrical"}, "unknown angle model 'geometrical'"),
    ({"grid_dx": 0.0}, "grid_dx and grid_dy must be positive"),
    ({"grid_dy": -5.0}, "grid_dx and grid_dy must be positive"),
    ({"p_t_dbm": [20.0, float("nan")]}, "experiment.p_t_dbm must be finite"),
    ({"p_t_dbm": [float("-inf")]}, "experiment.p_t_dbm must be finite"),
], ids=["workers", "empty_powers", "duplicate_scheme", "duplicate_power",
        "angle_model", "grid_dx", "grid_dy", "nan_power", "infinite_power"])
def test_spec_rejects_invalid_values(overrides, message):
    with pytest.raises(ValueError, match=message):
        ExperimentSpec(**overrides)
    with pytest.raises(ValueError, match=message):
        spec_from_dict({"experiment": overrides})


def test_spec_round_trip_and_hash():
    spec = _small_spec()
    back = spec_from_dict(spec_to_dict(spec))
    assert config_hash(back) == config_hash(spec)
    assert back.schemes == spec.schemes
    assert back.pso.particles == spec.pso.particles
    other = _small_spec(seed=10)
    assert config_hash(other) != config_hash(spec)


def test_spec_from_dict_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config section"):
        spec_from_dict({"experiments": {}})
    with pytest.raises(ValueError, match="unknown config field pso.swarm"):
        spec_from_dict({"pso": {"swarm": 3}})
    with pytest.raises(ValueError,
                       match="unknown config field experiment.relizations"):
        spec_from_dict({"experiment": {"relizations": 5}})
    with pytest.raises(ValueError,
                       match="unknown config field scenario.bs_arrray"):
        spec_from_dict({"scenario": {"bs_arrray": [8, 8]}})
    # run does not train, but refuses a misspelled dnn field all the same
    with pytest.raises(ValueError,
                       match="unknown config field dnn.hiden_layers"):
        spec_from_dict({"dnn": {"hiden_layers": [8]}})


def test_manifest_contents(tmp_path):
    spec = _small_spec()
    path = str(tmp_path / "manifest.json")
    harness.write_manifest(path, spec, {"run_s": 1.5})
    manifest = json.load(open(path))
    assert manifest["config_hash"] == config_hash(spec)
    assert manifest["seed"] == 9
    assert manifest["realizations_per_power_point"] == 3
    assert manifest["wall_times_s"] == {"run_s": 1.5}
    assert "created_utc" in manifest


def test_mean_surface_and_emit(tmp_path):
    spec = _small_spec(realizations=2)
    grid = harness.mean_surface(spec, 20.0)
    assert grid.values.shape == (2, 2)
    path = str(tmp_path / "surface.csv")
    harness.emit_surface(grid, path)
    lines = open(path).read().splitlines()
    assert lines[0].startswith("x\\y,")
    assert len(lines) == 2 + 2
    assert lines[-1].startswith("best,")


def test_surface_bytes_independent_of_workers(tmp_path):
    paths = [tmp_path / f"surface_{workers}.csv" for workers in (1, 2)]
    for workers, path in zip((1, 2), paths):
        spec = _small_spec(realizations=3, workers=workers, grid_dx=25.0,
                           grid_dy=25.0)
        harness.emit_surface(harness.mean_surface(spec, 20.0), str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_run_delay_rows(tmp_path):
    spec = _small_spec(p_t_dbm=[20.0], realizations=2)
    path = str(tmp_path / "delay.csv")
    rows = harness.run_delay(spec, [2.0, 8.0], path)
    assert len(rows) == 2
    for row in rows:
        assert row["delay_buffered"] <= row["delay_fixed"]
    assert rows[1]["delay_fixed"] == pytest.approx(4 * rows[0]["delay_fixed"])
    header = open(path).readline().strip()
    assert header == "p_t_dbm,queue_bits,delay_fixed,delay_buffered"


def test_run_delay_pairs_the_policy_seeds():
    # both columns are reproducible from the per-power seed alone: the
    # bufferless one by a bufferless search, the buffered one by a
    # buffered search
    spec = _small_spec(p_t_dbm=[0.0, 20.0], realizations=2)
    rows = harness.run_delay(spec, [2.0])
    sigma2_mw = dbm_to_mw(noise_power(spec.scenario))
    for pt_index, row in enumerate(rows):
        p_t_mw = dbm_to_mw(row["p_t_dbm"])
        for column, mode in (("delay_fixed", "without_buffer"),
                             ("delay_buffered", "with_buffer")):
            delays = []
            for i in range(spec.realizations):
                rlz = harness.realization(spec, i)
                seed = np.random.SeedSequence([spec.seed, i, 101, pt_index])
                policy = relay.optimize_policy(rlz, spec.pso, p_t_mw,
                                               sigma2_mw, seed, mode=mode)
                rep = relay.buffered_rate(rlz, policy, p_t_mw, sigma2_mw)
                delays.append(relay.little_delay(rep.r1, rep.r2, 2.0))
            assert row[column] == float(np.mean(delays))


def test_run_delay_makes_one_stacked_search_per_realization(monkeypatch):
    spec = _small_spec(p_t_dbm=[0.0, 20.0, 40.0], realizations=2)
    policy_calls, solves = [], []
    optimize, solve = relay.optimize_policy, pso.solve_loc_equal_pa

    def counted_policy(*args, **kwargs):
        policy_calls.append(kwargs.get("mode", "with_buffer"))
        return optimize(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        solves.append(len(args[4]))
        return solve(*args, **kwargs)
    monkeypatch.setattr(relay, "optimize_policy", counted_policy)
    monkeypatch.setattr(pso, "solve_loc_equal_pa", counted_solve)
    # the policy search is location-only: it makes no joint solve
    monkeypatch.setattr(pso, "solve_joint", None)
    harness.run_delay(spec, [2.0, 8.0])
    # per realization: one buffered call, three swarms per power
    assert policy_calls == ["with_buffer"] * spec.realizations
    assert solves == [3 * len(spec.p_t_dbm)] * spec.realizations


def test_run_delay_csv_bytes_independent_of_workers(tmp_path):
    paths = [tmp_path / f"delay_{workers}.csv" for workers in (1, 2)]
    for workers, path in zip((1, 2), paths):
        harness.run_delay(_small_spec(workers=workers), [2.0, 8.0], str(path))
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("queue_bits, message", [
    ([], "queue_bits needs at least one queue size"),
    ([2.0, 8.0, 2.0], "queue_bits lists a queue size twice"),
    ([2.0, -1.0], "queue_bits must be finite and nonnegative, got -1.0"),
    ([float("nan")], "queue_bits must be finite and nonnegative, got nan"),
    ([float("inf")], "queue_bits must be finite and nonnegative, got inf"),
])
def test_run_delay_rejects_bad_queue_bits(monkeypatch, tmp_path, queue_bits,
                                          message):
    def no_draw(*args, **kwargs):
        raise AssertionError("a realization was drawn")
    monkeypatch.setattr(harness, "realization", no_draw)
    path = tmp_path / "delay.csv"
    with pytest.raises(ValueError) as err:
        harness.run_delay(_small_spec(), queue_bits, str(path))
    assert str(err.value) == message
    assert not path.exists()


# --- shared RF design -------------------------------------------------------------

@pytest.fixture
def rf_design_calls(monkeypatch):
    """Count design_rf_stages calls through the name links binds."""
    calls = []
    design = links.design_rf_stages

    def counting(*args, **kwargs):
        calls.append(args)
        return design(*args, **kwargs)
    monkeypatch.setattr(links, "design_rf_stages", counting)
    return calls


_DESIGNING_CALLS = {
    "run": lambda spec, tmp_path: run(spec),
    "mean_surface": lambda spec, tmp_path: harness.mean_surface(spec, 20.0),
    "run_delay": lambda spec, tmp_path: harness.run_delay(spec, [2.0]),
    "generate_dataset": lambda spec, tmp_path: learn.generate_dataset(
        spec.scenario, spec.realizations, spec.seed,
        str(tmp_path / "rows.jsonl"), spec.pso, angle_model=spec.angle_model),
}


@pytest.mark.parametrize("angle_model", ["fixed", "geometric"])
@pytest.mark.parametrize("entry", sorted(_DESIGNING_CALLS))
def test_analog_stages_designed_once_per_fixed_run(entry, angle_model,
                                                   rf_design_calls, tmp_path):
    spec = _small_spec(realizations=3, angle_model=angle_model,
                       p_t_dbm=[20.0], pso=PsoConfig(particles=3,
                                                     iterations=2))
    with warnings.catch_warnings():
        # nearby geometric group supports may share cells at 4x4
        warnings.simplefilter("ignore", OverlappingSupports)
        _DESIGNING_CALLS[entry](spec, tmp_path)
    expected = 1 if angle_model == "fixed" else spec.realizations
    assert len(rf_design_calls) == expected


def test_run_records_match_self_designed_realizations(monkeypatch):
    spec = _small_spec(schemes=["fl_eqpa", "psopa_fl", "psolpa"])
    _, shared = run(spec)
    monkeypatch.setattr(harness, "shared_rf", lambda scenario, model: None)
    _, own = run(spec)
    assert shared == own


# nearby geometric group supports may share cells at 4x4
@pytest.mark.filterwarnings("ignore::uavlink.beamforming.OverlappingSupports")
def test_geometric_run_with_configured_users_shares_one_design(
        monkeypatch, rf_design_calls):
    # configured users fix the geometric supports for every realization
    users = place_users(np.random.default_rng(4), 4, (50.0, 100.0))
    spec = _small_spec(realizations=5, angle_model="geometric",
                       scenario=Scenario(users=users),
                       schemes=["fl_eqpa", "psopa_fl", "psolpa"])
    _, shared = run(spec)
    assert len(rf_design_calls) == 1
    monkeypatch.setattr(harness, "shared_rf", lambda scenario, model: None)
    _, own = run(spec)
    assert len(rf_design_calls) == 1 + spec.realizations
    assert shared == own


def test_run_reads_a_rewritten_model_file(tmp_path):
    path, other = tmp_path / "model.npz", tmp_path / "other.npz"
    spec = _small_spec(schemes=["dnn"], model_path=str(path))
    k, (rows, cols) = spec.scenario.num_users, spec.scenario.uav_tx_array
    n_rf = harness.realization(spec, 0).rf.f_ut.shape[1]
    sizes = [learn.feature_length(k, rows * cols, n_rf), 4, k + 2]
    learn.save_model(learn.init_model(sizes, 1), str(path))
    _, first = run(spec)
    second = learn.init_model(sizes, 2)
    learn.save_model(second, str(path))
    learn.save_model(second, str(other))
    _, rewritten = run(spec)
    _, fresh = run(dataclasses.replace(spec, model_path=str(other)))
    assert first != fresh
    assert rewritten == fresh


def test_load_spec_from_json_file(tmp_path):
    cfg = {"experiment": {"realizations": 7, "seed": 3,
                          "p_t_dbm": [15.0]},
           "pso": {"particles": 6, "iterations": 4}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    spec = harness.load_spec(str(path))
    assert spec.realizations == 7
    assert spec.seed == 3
    assert spec.pso.particles == 6
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValueError, match="not valid JSON"):
        harness.load_spec(str(bad))


def test_paper_scale_preset():
    spec = harness.paper_scale_spec(realizations=5)
    assert spec.scenario.bs_array == (12, 12)
    assert spec.realizations == 5


# --- command line ---------------------------------------------------------------

def _write_fast_config(tmp_path):
    cfg = {"experiment": {"realizations": 2, "seed": 4,
                          "p_t_dbm": [20.0],
                          "schemes": ["fl_eqpa", "psol_eqpa"],
                          "grid_dx": 50.0, "grid_dy": 50.0},
           "pso": {"particles": 4, "iterations": 3},
           "dnn": {"hidden_layers": [8], "epochs": 2, "batch_size": 2}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_cli_run_writes_outputs(tmp_path, capsys):
    cfg = _write_fast_config(tmp_path)
    out_dir = str(tmp_path / "run")
    code = cli.main(["run", "--config", cfg, "--out", out_dir])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "results.csv"))
    assert "bps/Hz" in capsys.readouterr().out


def test_cli_grid_writes_surface(tmp_path, capsys):
    cfg = _write_fast_config(tmp_path)
    out = str(tmp_path / "surface.csv")
    code = cli.main(["grid", "--config", cfg, "--out", out,
                     "--p-t-dbm", "20"])
    assert code == 0
    assert os.path.exists(out)
    assert "best r_total" in capsys.readouterr().out


def test_cli_dataset_train_predict_round_trip(tmp_path, capsys):
    cfg = _write_fast_config(tmp_path)
    data = str(tmp_path / "rows.jsonl")
    code = cli.main(["dataset", "--config", cfg, "--out", data,
                     "--count", "6"])
    assert code == 0
    # the exact path given, whatever its extension
    model = str(tmp_path / "model.json")
    curves = str(tmp_path / "curves.csv")
    code = cli.main(["train", "--config", cfg, "--dataset", data,
                     "--out", model, "--curves", curves,
                     "--test-count", "2"])
    assert code == 0
    assert os.path.exists(model)
    assert open(curves).readline().startswith("epoch,")
    code = cli.main(["predict", "--config", cfg, "--model", model,
                     "--index", "1"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()[-1]
    payload = json.loads(out)
    assert {"uav_xy", "relative_powers", "r_total"} <= payload.keys()


def test_cli_dataset_reports_the_rows_in_the_file(tmp_path, capsys):
    cfg = _write_fast_config(tmp_path)
    data = str(tmp_path / "rows.jsonl")
    assert cli.main(["dataset", "--config", cfg, "--out", data,
                     "--count", "4"]) == 0
    assert capsys.readouterr().out.strip() == f"{data} holds 4 rows"
    # a shorter count keeps the 4 rows already there
    assert cli.main(["dataset", "--config", cfg, "--out", data,
                     "--count", "2"]) == 0
    assert capsys.readouterr().out.strip() == f"{data} holds 4 rows"
    assert len(open(data).read().splitlines()) == 4


def test_cli_delay_writes_csv(tmp_path, capsys):
    cfg = _write_fast_config(tmp_path)
    out = str(tmp_path / "delay.csv")
    code = cli.main(["delay", "--config", cfg, "--out", out,
                     "--queue-bits", "2", "4"])
    assert code == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "p_t_dbm,queue_bits,delay_fixed,delay_buffered"
    assert len(lines) == 3
    # one printed line per CSV row (one power, two queue sizes)
    printed = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in printed] == [
        "P_T 20.0 dBm, Q 2.0 bits", "P_T 20.0 dBm, Q 4.0 bits"]
    assert all("buffered" in line for line in printed)


def test_cli_delay_runs_the_workers_given(tmp_path, monkeypatch):
    seen = []
    run_delay = harness.run_delay

    def recording(spec, *args):
        seen.append(spec.workers)
        return run_delay(spec, *args)
    monkeypatch.setattr(harness, "run_delay", recording)
    cfg = _write_fast_config(tmp_path)
    out = tmp_path / "delay.csv"
    assert cli.main(["delay", "--config", cfg, "--out", str(out),
                     "--workers", "2"]) == 0
    assert seen == [2]
    assert out.exists()


def test_cli_grid_runs_the_workers_given(tmp_path, monkeypatch):
    seen = []
    mean_surface = harness.mean_surface

    def recording(spec, *args):
        seen.append(spec.workers)
        return mean_surface(spec, *args)
    monkeypatch.setattr(harness, "mean_surface", recording)
    cfg = _write_fast_config(tmp_path)
    out = tmp_path / "surface.csv"
    assert cli.main(["grid", "--config", cfg, "--out", str(out),
                     "--workers", "2"]) == 0
    assert seen == [2]
    assert out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["grid", "dataset"])
def test_cli_refuses_a_non_finite_power(tmp_path, capsys, monkeypatch,
                                        command, value):
    def no_draw(*args, **kwargs):
        raise AssertionError("a realization was drawn")
    monkeypatch.setattr(harness, "realization", no_draw)
    monkeypatch.setattr(learn, "Realization", no_draw)
    code = cli.main([command, "--out", str(tmp_path / "out"),
                     f"--p-t-dbm={value}"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith("p_t_dbm must be finite")
    assert list(tmp_path.iterdir()) == []


def test_cli_run_refuses_a_non_finite_configured_power(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": {"p_t_dbm": [NaN]}}')
    out_dir = tmp_path / "run"
    assert cli.main(["run", "--config", str(bad), "--out", str(out_dir)]) == 1
    err = json.loads(capsys.readouterr().err)
    assert "experiment.p_t_dbm must be finite" in err["message"]
    assert not out_dir.exists()


def test_cli_delay_rejects_a_negative_queue_size(tmp_path, capsys):
    cfg = _write_fast_config(tmp_path)
    out = tmp_path / "delay.csv"
    code = cli.main(["delay", "--config", cfg, "--out", str(out),
                     "--queue-bits", "-1"])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError", "message":
                   "queue_bits must be finite and nonnegative, got -1.0"}
    assert not out.exists()


def test_cli_reports_errors_as_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": {"bogus_field": 1}}))
    code = cli.main(["run", "--config", str(bad)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "bogus_field" in err["message"]


@pytest.mark.parametrize("argv, message", [
    (["--realizations", "0", "--workers", "0"], "at least one realization"),
    (["--realizations", "0"], "at least one realization"),
    (["--workers", "0"], "workers must be at least 1"),
])
def test_cli_rejects_zero_overrides(tmp_path, capsys, argv, message):
    code = cli.main(["run", "--out", str(tmp_path / "run")] + argv)
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert message in err["message"]
    assert not os.path.exists(tmp_path / "run")


def test_cli_applies_zero_seed(tmp_path):
    args = cli.build_parser().parse_args(["run", "--seed", "0",
                                          "--realizations", "3"])
    spec = cli._load_spec(args)
    assert (spec.seed, spec.realizations, spec.workers) == (0, 3, 1)


def test_cli_reports_malformed_support_as_json(tmp_path, capsys):
    sup = {"mean_elev_deg": 60.0, "mean_azim_deg": 120.0,
           "spread_elev_deg": 10.0, "spread_azim_deg": 10.0}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(
        {"scenario": {"first_link_supports_deg": {"tx": sup}}}))
    code = cli.main(["run", "--config", str(bad)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "scenario.first_link_supports_deg.rx" in err["message"]


def test_cli_rejects_a_misspelled_dnn_field(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dnn": {"hiden_layers": [8]}}))
    code = cli.main(["train", "--config", str(bad), "--dataset",
                     str(tmp_path / "rows.jsonl")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ValueError",
                   "message": "unknown config field dnn.hiden_layers"}


@pytest.mark.parametrize("command", [
    ["run"], ["train", "--dataset", "rows.jsonl"]], ids=["run", "train"])
def test_cli_names_a_config_that_is_not_json(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text("{bad")
    code = cli.main(command + ["--config", str(bad)])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"config {bad} is not valid JSON: ")


def test_cli_train_needs_enough_rows(tmp_path, capsys):
    data = tmp_path / "tiny.jsonl"
    rows = [{"index": i, "features": [0.1, 0.2], "labels": [0.5, 0.5, 0.5]}
            for i in range(3)]
    data.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    code = cli.main(["train", "--dataset", str(data), "--test-count", "5",
                     "--out", str(tmp_path / "m.npz")])
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert "no training rows" in err["message"]
