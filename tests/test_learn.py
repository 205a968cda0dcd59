import json
import os
import re

import numpy as np
import pytest

from uavlink import learn
from uavlink.geometry import Box, Scenario
from uavlink.learn import (DegenerateInput, ShapeMismatch, TrainConfig, backprop,
                           build_features, build_labels, feature_length,
                           forward, generate_dataset, init_model,
                           load_dataset, load_model, loss, penalized_loss,
                           predict_and_denormalize, save_model, train)
from uavlink.links import make_realization
from uavlink.pso import PsoConfig
from uavlink.rates import precoder_gains


def test_init_model_shapes_and_bounds():
    model = init_model([6, 5, 4], seed=0)
    assert model.layer_sizes == [6, 5, 4]
    assert model.input_dim == 6 and model.output_dim == 4
    assert model.weights[0].shape == (5, 6)
    assert np.max(np.abs(model.weights[0])) <= 1.0 / np.sqrt(6)
    assert np.all(model.biases[0] == 0.0)
    with pytest.raises(ValueError):
        init_model([4], seed=0)


def test_forward_shapes_and_range():
    model = init_model([6, 8, 4], seed=1)
    one = forward(model, np.zeros(6))
    assert one.shape == (4,)
    batch = forward(model, np.zeros((7, 6)))
    assert batch.shape == (7, 4)
    assert np.allclose(batch[3], one)
    assert np.all((batch > 0.0) & (batch < 1.0))
    with pytest.raises(ShapeMismatch):
        forward(model, np.zeros(5))


def test_sigmoid_is_stable_for_large_inputs():
    z = np.array([-1000.0, 0.0, 1000.0])
    out = learn._sigmoid(z)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx(0.0, abs=1e-12)
    assert out[1] == 0.5
    assert out[2] == pytest.approx(1.0, abs=1e-12)


def test_loss_hand_value():
    # two power slots and a position: weights (1/2, 1/2, 1, 1)
    pred = np.array([[0.5, 0.5, 0.5, 0.5]])
    target = np.zeros((1, 4))
    assert loss(pred, target, "mse") == pytest.approx(0.25 * 3.0)
    assert loss(pred, target, "mae") == pytest.approx(0.5 * 3.0)
    with pytest.raises(ShapeMismatch):
        loss(pred, np.zeros((1, 3)))
    with pytest.raises(ValueError):
        loss(pred, target, "huber")


@pytest.mark.parametrize("mode", ["mse", "mae"])
def test_backprop_matches_finite_differences(mode):
    rng = np.random.default_rng(7)
    model = init_model([5, 6, 4], seed=7)
    x = rng.normal(size=(8, 5))
    target = rng.uniform(0.1, 0.9, size=(8, 4))
    l2 = 1e-3
    value, gw, gb = backprop(model, x, target, mode, l2)
    assert value == pytest.approx(penalized_loss(model, x, target, mode, l2))
    h = 1e-6
    for li in range(len(model.weights)):
        flat_w = model.weights[li]
        probe = [(0, 0), (flat_w.shape[0] - 1, flat_w.shape[1] - 1), (0, 1)]
        for (r, c) in probe:
            orig = flat_w[r, c]
            flat_w[r, c] = orig + h
            up = penalized_loss(model, x, target, mode, l2)
            flat_w[r, c] = orig - h
            down = penalized_loss(model, x, target, mode, l2)
            flat_w[r, c] = orig
            fd = (up - down) / (2 * h)
            assert gw[li][r, c] == pytest.approx(fd, abs=1e-6)
        orig = model.biases[li][0]
        model.biases[li][0] = orig + h
        up = penalized_loss(model, x, target, mode, l2)
        model.biases[li][0] = orig - h
        down = penalized_loss(model, x, target, mode, l2)
        model.biases[li][0] = orig
        fd = (up - down) / (2 * h)
        assert gb[li][0] == pytest.approx(fd, abs=1e-6)


def test_training_reduces_loss_on_synthetic_task():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(200, 6))
    w_true = rng.normal(size=(4, 6))
    target = learn._sigmoid(x @ w_true.T)
    model = init_model([6, 16, 4], seed=3)
    before = loss(forward(model, x), target, "mse")
    cfg = TrainConfig(hidden_layers=[16], epochs=20, batch_size=16,
                      learning_rate=3e-3, l2=0.0, seed=3)
    model, curves = train(model, x, target, cfg,
                          val_features=x[:50], val_labels=target[:50])
    after = curves[-1]["train_loss"]
    assert after < 0.5 * before
    assert len(curves) == cfg.epochs
    assert {"epoch", "train_loss", "val_mse", "val_mae"} <= curves[0].keys()
    assert curves[-1]["val_mse"] < curves[0]["val_mse"]


def test_train_rejects_bad_shapes():
    model = init_model([4, 3], seed=0)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(ShapeMismatch):
        train(model, np.zeros((5, 4)), np.zeros((4, 3)), cfg)
    with pytest.raises(ShapeMismatch):
        train(model, np.zeros((5, 4)), np.zeros((5, 2)), cfg)
    with pytest.raises(ValueError):
        TrainConfig(loss="huber")
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)


def test_feature_layout_and_scaling():
    rng = np.random.default_rng(5)
    k, n_t, n_rf = 4, 16, 6
    h2 = rng.normal(size=(k, n_t)) + 1j * rng.normal(size=(k, n_t))
    b_ut = rng.normal(size=(n_rf, k)) + 1j * rng.normal(size=(n_rf, k))
    feats = build_features(h2, b_ut)
    assert feats.shape == (feature_length(k, n_t, n_rf),)
    assert np.max(np.abs(feats)) <= 1.0 + 1e-12
    # the max-abs entry of each of the first two blocks normalizes to 1
    assert np.max(np.abs(feats[:2 * n_t * k])) == pytest.approx(1.0)
    gains = np.sum(np.abs(b_ut) ** 2, axis=0)
    lo = 2 * (n_t + n_rf) * k
    assert np.allclose(feats[lo:lo + k], gains / gains.max())
    assert np.allclose(feats[lo + k:], gains.min() / gains)


def test_feature_errors():
    with pytest.raises(ShapeMismatch):
        build_features(np.ones((3, 4)), np.ones((2, 2)))
    with pytest.raises(DegenerateInput):
        build_features(np.zeros((2, 4)), np.ones((2, 2)))
    with pytest.raises(DegenerateInput):
        build_features(np.ones((2, 4)), np.zeros((2, 2)))


def test_labels_normalize_against_box():
    box = Box(0.0, 0.0, 100.0, 100.0)
    lab = build_labels([2.0, 4.0, 1.0], [25.0, 75.0], box)
    assert np.allclose(lab, [0.5, 1.0, 0.25, 0.25, 0.75])
    with pytest.raises(DegenerateInput):
        build_labels([0.0, 0.0], [10.0, 10.0], box)


def test_predict_and_denormalize_is_feasible(p20_mw):
    rng = np.random.default_rng(9)
    k, n_rf = 4, 6
    b_ut = rng.normal(size=(n_rf, k)) + 1j * rng.normal(size=(n_rf, k))
    model = init_model([feature_length(k, 16, n_rf), 8, k + 2], seed=9)
    h2 = rng.normal(size=(k, 16)) + 1j * rng.normal(size=(k, 16))
    feats = build_features(h2, b_ut)
    box = Box(0.0, 0.0, 100.0, 100.0)
    alloc, xy = predict_and_denormalize(model, feats, b_ut, p20_mw, box)
    assert box.contains(xy)
    spent = float(alloc.p @ precoder_gains(b_ut))
    assert spent == pytest.approx(p20_mw, rel=1e-9)


def test_apply_prediction_reports_rates(desk_realization, p20_mw,
                                        desk_sigma2):
    rlz = desk_realization
    k = rlz.num_users
    n_t, n_rf = rlz.rf.f_ut.shape
    model = init_model([feature_length(k, n_t, n_rf), 8, k + 2], seed=2)
    xy, p_hat, report = learn.apply_prediction(model, rlz, p20_mw,
                                               desk_sigma2)
    assert rlz.scenario.box.contains(xy)
    assert p_hat.shape == (k,)
    assert np.isfinite(report.r_total) and report.r_total >= 0.0


def test_dataset_generation_resume_and_load(tmp_path, desk_scenario):
    path = str(tmp_path / "rows.jsonl")
    cfg = PsoConfig(particles=4, iterations=3)
    generate_dataset(desk_scenario, 2, 31, path, pso_cfg=cfg)
    first = open(path).read().splitlines()
    assert len(first) == 2
    generate_dataset(desk_scenario, 4, 31, path, pso_cfg=cfg)
    lines = open(path).read().splitlines()
    assert len(lines) == 4
    assert lines[:2] == first
    feats, labels, rows = load_dataset(path)
    k = desk_scenario.num_users
    n_t, n_rf = make_realization(desk_scenario, 0).rf.f_ut.shape
    assert feats.shape == (4, feature_length(k, n_t, n_rf))
    assert labels.shape == (4, k + 2)
    assert np.all(labels >= 0.0) and np.all(labels <= 1.0)
    assert [r["index"] for r in rows] == [0, 1, 2, 3]
    meta = json.load(open(path + ".meta.json"))
    assert meta["count"] == 4 and meta["master_seed"] == 31


def test_dataset_resume_refuses_another_configuration(tmp_path,
                                                      desk_scenario):
    path = str(tmp_path / "rows.jsonl")
    cfg = PsoConfig(particles=4, iterations=3)
    generate_dataset(desk_scenario, 2, 1, path, pso_cfg=cfg, p_t_dbm=20.0)
    rows = open(path).read()
    meta = open(path + ".meta.json").read()
    with pytest.raises(ValueError, match="different master_seed"):
        generate_dataset(desk_scenario, 4, 2, path, pso_cfg=cfg, p_t_dbm=40.0)
    with pytest.raises(ValueError, match="different p_t_dbm"):
        generate_dataset(desk_scenario, 4, 1, path, pso_cfg=cfg, p_t_dbm=40.0)
    with pytest.raises(ValueError, match="different pso.iterations"):
        generate_dataset(desk_scenario, 4, 1, path,
                         pso_cfg=PsoConfig(particles=4, iterations=4))
    with pytest.raises(ValueError, match="different scenario.bs_array"):
        generate_dataset(Scenario(bs_array=(3, 3)), 4, 1, path, pso_cfg=cfg)
    # nothing appended, and the sidecar still describes the rows
    assert open(path).read() == rows
    assert open(path + ".meta.json").read() == meta


def test_dataset_resume_needs_the_sidecar(tmp_path, desk_scenario):
    path = str(tmp_path / "rows.jsonl")
    cfg = PsoConfig(particles=4, iterations=3)
    generate_dataset(desk_scenario, 2, 1, path, pso_cfg=cfg)
    os.remove(path + ".meta.json")
    with pytest.raises(ValueError, match="no .*meta.json"):
        generate_dataset(desk_scenario, 4, 1, path, pso_cfg=cfg)
    assert len(open(path).read().splitlines()) == 2


def test_dataset_resume_refuses_other_swarm_settings(tmp_path,
                                                     desk_scenario):
    path = str(tmp_path / "rows.jsonl")
    generate_dataset(desk_scenario, 2, 1, path,
                     pso_cfg=PsoConfig(particles=4, iterations=3, inertia=1.1))
    with pytest.raises(ValueError, match=r"different pso\.inertia"):
        generate_dataset(desk_scenario, 4, 1, path, pso_cfg=PsoConfig(
            particles=4, iterations=3, inertia=0.3))
    assert len(open(path).read().splitlines()) == 2


def test_dataset_sidecar_counts_the_rows_in_the_file(tmp_path,
                                                      desk_scenario):
    path = str(tmp_path / "rows.jsonl")
    cfg = PsoConfig(particles=4, iterations=3)
    generate_dataset(desk_scenario, 4, 1, path, pso_cfg=cfg)
    generate_dataset(desk_scenario, 2, 1, path, pso_cfg=cfg)
    assert len(open(path).read().splitlines()) == 4
    assert json.load(open(path + ".meta.json"))["count"] == 4


def test_dataset_rows_survive_a_crash(tmp_path, desk_scenario, monkeypatch):
    cfg = PsoConfig(particles=4, iterations=3)
    whole = str(tmp_path / "whole.jsonl")
    generate_dataset(desk_scenario, 4, 5, whole, pso_cfg=cfg)
    path = str(tmp_path / "rows.jsonl")
    block = learn._dataset_block

    def crash_in_second_block(*args):
        if 2 in args[-1]:
            raise RuntimeError("killed")
        return block(*args)

    # 4 rows make the blocks 0-1 and 2-3
    monkeypatch.setattr(learn, "_BLOCK_ROWS", 2)
    monkeypatch.setattr(learn, "_dataset_block", crash_in_second_block)
    with pytest.raises(RuntimeError, match="killed"):
        generate_dataset(desk_scenario, 4, 5, path, pso_cfg=cfg)
    # the whole first block is on disk, a byte-equal prefix of a clean run
    assert open(path).read() == "".join(
        open(whole).read().splitlines(keepends=True)[:2])
    monkeypatch.undo()
    generate_dataset(desk_scenario, 4, 5, path, pso_cfg=cfg)
    assert open(path).read() == open(whole).read()


def test_dataset_resume_refuses_a_torn_last_row(tmp_path, desk_scenario):
    path = str(tmp_path / "rows.jsonl")
    cfg = PsoConfig(particles=4, iterations=3)
    generate_dataset(desk_scenario, 2, 1, path, pso_cfg=cfg)
    lines = open(path).read().splitlines()
    with open(path, "a") as fh:
        fh.write(lines[1][:40])
    torn = open(path).read()
    with pytest.raises(ValueError, match="line 3 is not a complete row"):
        generate_dataset(desk_scenario, 4, 1, path, pso_cfg=cfg)
    assert open(path).read() == torn


def test_dataset_resume_refuses_a_missing_index_before_computing(
        tmp_path, desk_scenario, monkeypatch):
    path = str(tmp_path / "rows.jsonl")
    cfg = PsoConfig(particles=4, iterations=3)
    generate_dataset(desk_scenario, 3, 1, path, pso_cfg=cfg)
    lines = open(path).read().splitlines(keepends=True)
    with open(path, "w") as fh:
        fh.write(lines[0] + lines[2])           # indices 0 and 2
    rows = open(path).read()
    meta = open(path + ".meta.json").read()
    computed = []
    monkeypatch.setattr(learn, "_BLOCK_ROWS", 2)
    monkeypatch.setattr(learn, "_dataset_block",
                        lambda *args: computed.append(args[-1]))
    with pytest.raises(ValueError, match="row index 1 is missing"):
        generate_dataset(desk_scenario, 4, 1, path, pso_cfg=cfg)
    assert open(path).read() == rows
    with open(path, "w") as fh:
        fh.write(lines[0] + lines[1] + lines[1])    # indices 0, 1, 1
    rows = open(path).read()
    with pytest.raises(ValueError, match="row index 1 appears twice"):
        generate_dataset(desk_scenario, 4, 1, path, pso_cfg=cfg)
    assert open(path).read() == rows
    assert computed == []
    assert open(path + ".meta.json").read() == meta


def _index_rows(path, indices):
    path.write_text("".join(
        json.dumps({"index": i, "features": [1.0, 2.0],
                    "labels": [0.1, 0.2, 0.3]}) + "\n" for i in indices))
    return str(path)


def test_load_dataset_rejects_a_missing_index(tmp_path):
    with pytest.raises(ValueError, match="row index 1 is missing"):
        load_dataset(_index_rows(tmp_path / "gap.jsonl", [0, 2, 3]))


def test_load_dataset_rejects_a_repeated_index(tmp_path):
    with pytest.raises(ValueError, match="row index 1 appears twice"):
        load_dataset(_index_rows(tmp_path / "twice.jsonl", [1, 0, 1]))


def test_dataset_rows_independent_of_batching(tmp_path, desk_scenario):
    cfg = PsoConfig(particles=4, iterations=3)
    one = str(tmp_path / "one.jsonl")
    two = str(tmp_path / "two.jsonl")
    generate_dataset(desk_scenario, 3, 77, one, pso_cfg=cfg)
    generate_dataset(desk_scenario, 1, 77, two, pso_cfg=cfg)
    generate_dataset(desk_scenario, 3, 77, two, pso_cfg=cfg)
    assert open(one).read() == open(two).read()


def test_dataset_bytes_independent_of_workers(tmp_path, desk_scenario,
                                             monkeypatch):
    cfg = PsoConfig(particles=4, iterations=3)
    monkeypatch.setattr(learn, "_BLOCK_ROWS", 2)    # 5 rows in 3 blocks
    one = str(tmp_path / "one.jsonl")
    two = str(tmp_path / "two.jsonl")
    generate_dataset(desk_scenario, 5, 8, one, pso_cfg=cfg)
    generate_dataset(desk_scenario, 5, 8, two, pso_cfg=cfg, workers=2)
    assert open(one).read() == open(two).read()
    assert open(one + ".meta.json").read() == open(two + ".meta.json").read()


def test_model_round_trip(tmp_path):
    model = init_model([5, 7, 3], seed=4)
    path = str(tmp_path / "model.npz")
    save_model(model, path)
    back = load_model(path)
    assert len(back.weights) == 2
    for w0, w1 in zip(model.weights, back.weights):
        assert np.array_equal(w0, w1)
    x = np.random.default_rng(0).normal(size=5)
    assert np.array_equal(forward(model, x), forward(back, x))


def test_load_dataset_refuses_a_torn_last_row_by_line(tmp_path):
    path = _index_rows(tmp_path / "torn.jsonl", [0, 1])
    row = json.dumps({"index": 2, "features": [1.0, 2.0],
                      "labels": [0.1, 0.2, 0.3]})
    with open(path, "a") as fh:
        fh.write(row[:30])
    with pytest.raises(ValueError, match=re.escape(
            f"{path} line 3 is not a complete row")):
        load_dataset(path)


def test_load_dataset_rejects_empty_and_ragged(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    with pytest.raises(ValueError):
        load_dataset(str(empty))
    ragged = tmp_path / "ragged.jsonl"
    ragged.write_text(
        json.dumps({"index": 0, "features": [1.0, 2.0],
                    "labels": [0.1, 0.2, 0.3]}) + "\n" +
        json.dumps({"index": 1, "features": [1.0],
                    "labels": [0.1, 0.2, 0.3]}) + "\n")
    with pytest.raises(ShapeMismatch):
        load_dataset(str(ragged))
