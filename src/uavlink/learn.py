"""Neural surrogate for the joint placement / power-allocation solver.

A plain multilayer perceptron (ReLU hidden layers, sigmoid output) maps
normalized second-link state at the default UAV position to the solver's
normalized decisions: K relative powers plus the box-relative position.
Everything is hand-rolled on numpy: forward, backprop, Adam, and the
max-abs feature scaling, so the gradients can be checked against finite
differences.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import pso
from .config import check_fields, require_number, scenario_to_dict, to_dict
from .geometry import Box, Scenario, dbm_to_mw, noise_power
from .links import RfDesign, Realization, make_realization, shared_rf
from .rates import PowerAlloc, precoder_gains, scale_alloc
from .schedule import map_blocks


class ShapeMismatch(ValueError):
    """Input width does not match the model or label layout."""


class NonfiniteLoss(ArithmeticError):
    """Training loss left the reals."""


class DegenerateInput(ValueError):
    """Feature scaling impossible: a block is all zero or a gain vanishes."""


@dataclass
class MlpModel:
    """Weights (out x in) and biases per layer; ReLU inside, sigmoid out."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]


@dataclass
class TrainConfig:
    hidden_layers: list[int] = field(default_factory=lambda: [256, 128, 64, 32])
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 15
    l2: float = 1e-4
    loss: str = "mse"
    seed: int = 0

    def __post_init__(self):
        check_fields(self, "dnn")
        if self.loss not in ("mse", "mae"):
            raise ValueError("loss must be 'mse' or 'mae'")
        if self.batch_size < 1:
            raise ValueError(f"dnn.batch_size must be at least 1, "
                             f"got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"dnn.epochs must be nonnegative, "
                             f"got {self.epochs}")
        if not all(width >= 1 for width in self.hidden_layers):
            raise ValueError(f"dnn.hidden_layers entries must be positive, "
                             f"got {self.hidden_layers}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"dnn.learning_rate must be positive, "
                             f"got {self.learning_rate!r}")
        if self.seed < 0:
            raise ValueError(f"dnn.seed must be nonnegative, got {self.seed}")


def init_model(layer_sizes: list[int], seed) -> MlpModel:
    """Uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights, zero biases."""
    if len(layer_sizes) < 2:
        raise ValueError("need at least input and output sizes")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        bound = 1.0 / math.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights=weights, biases=biases)


def forward(model: MlpModel, x: np.ndarray) -> np.ndarray:
    """Network output in (0, 1); accepts one sample or a batch."""
    single = x.ndim == 1
    a = np.atleast_2d(np.asarray(x, dtype=float))
    if a.shape[1] != model.input_dim:
        raise ShapeMismatch(
            f"expected {model.input_dim} features, got {a.shape[1]}")
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.maximum(a @ w.T + b, 0.0)
    out = _sigmoid(a @ model.weights[-1].T + model.biases[-1])
    return out[0] if single else out


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _error_weights(output_dim: int) -> np.ndarray:
    """Per-slot weights: power errors averaged over K, position errors raw."""
    k = output_dim - 2
    if k < 1:
        raise ShapeMismatch("output layout needs K >= 1 power slots plus x, y")
    return np.concatenate([np.full(k, 1.0 / k), np.ones(2)])


def loss(pred: np.ndarray, target: np.ndarray, mode: str = "mse") -> float:
    """Batch-mean decision loss (no penalty term)."""
    pred = np.atleast_2d(pred)
    target = np.atleast_2d(target)
    if pred.shape != target.shape:
        raise ShapeMismatch("prediction and target shapes differ")
    w = _error_weights(pred.shape[1])
    err = pred - target
    if mode == "mse":
        per_sample = (err ** 2) @ w
    elif mode == "mae":
        per_sample = np.abs(err) @ w
    else:
        raise ValueError("loss mode must be 'mse' or 'mae'")
    return float(np.mean(per_sample))


def _penalty(model: MlpModel, l2: float) -> float:
    """l2 * sum of squared weights (biases exempt)."""
    return l2 * sum(float(np.sum(w ** 2)) for w in model.weights)


def penalized_loss(model: MlpModel, x: np.ndarray, target: np.ndarray,
                   mode: str, l2: float) -> float:
    """Decision loss plus l2 * sum of squared weights (biases exempt)."""
    return loss(forward(model, x), target, mode) + _penalty(model, l2)


def backprop(model: MlpModel, x: np.ndarray, target: np.ndarray,
             mode: str, l2: float
             ) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Gradients of the penalized loss w.r.t. every weight and bias."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    target = np.atleast_2d(np.asarray(target, dtype=float))
    n = x.shape[0]
    acts = [x]
    pre = []
    a = x
    for w, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ w.T + b
        pre.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    z_out = a @ model.weights[-1].T + model.biases[-1]
    y = _sigmoid(z_out)

    data_loss = loss(y, target, mode)
    wvec = _error_weights(y.shape[1])
    err = y - target
    dy = (2.0 * wvec * err if mode == "mse" else wvec * np.sign(err)) / n
    dz = dy * y * (1.0 - y)

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = dz.T @ acts[i] + 2.0 * l2 * model.weights[i]
        grads_b[i] = dz.sum(axis=0)
        if i > 0:
            dz = (dz @ model.weights[i]) * (pre[i - 1] > 0.0)
    return data_loss + _penalty(model, l2), grads_w, grads_b


def train(model: MlpModel, features: np.ndarray, labels: np.ndarray,
          cfg: TrainConfig, val_features: np.ndarray | None = None,
          val_labels: np.ndarray | None = None
          ) -> tuple[MlpModel, list[dict]]:
    """Minibatch Adam on the decision loss; returns per-epoch curves.

    Curve rows carry the training-mode loss over the full training set plus
    validation MSE and MAE, so either regressor variant can be compared.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=float)
    if features.ndim != 2 or labels.ndim != 2 or len(features) != len(labels):
        raise ShapeMismatch("features and labels must be matching 2-D arrays")
    if labels.shape[1] != model.output_dim:
        raise ShapeMismatch(
            f"labels have {labels.shape[1]} slots, model emits {model.output_dim}")
    rng = np.random.default_rng(cfg.seed)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    params = model.weights + model.biases
    m = [np.zeros_like(param) for param in params]    # first moments
    v = [np.zeros_like(param) for param in params]    # second moments
    step = 0
    curves = []
    n = len(features)
    for epoch in range(1, cfg.epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch_loss, gw, gb = backprop(model, features[idx], labels[idx],
                                          cfg.loss, cfg.l2)
            if not np.isfinite(batch_loss):
                raise NonfiniteLoss(f"loss diverged at epoch {epoch}")
            step += 1
            correct1 = 1.0 - beta1 ** step
            correct2 = 1.0 - beta2 ** step
            for i, (param, grad) in enumerate(zip(params, gw + gb)):
                m[i] = beta1 * m[i] + (1 - beta1) * grad
                v[i] = beta2 * v[i] + (1 - beta2) * grad ** 2
                # in place, so the model's own arrays move
                param -= cfg.learning_rate * (m[i] / correct1) / (
                    np.sqrt(v[i] / correct2) + eps)
        row = {"epoch": epoch,
               "train_loss": loss(forward(model, features), labels, cfg.loss)}
        if val_features is not None:
            val_pred = forward(model, val_features)
            row["val_mse"] = loss(val_pred, val_labels, "mse")
            row["val_mae"] = loss(val_pred, val_labels, "mae")
        # a diverging last update passes every batch check above
        if not all(np.isfinite(v) for v in row.values()):
            raise NonfiniteLoss(f"loss diverged at epoch {epoch}")
        curves.append(row)
    return model, curves


# --- feature and label layout ------------------------------------------------

def build_features(h2_rows: np.ndarray, b_ut: np.ndarray) -> np.ndarray:
    """Normalized feature vector from second-link state.

    Layout: K channel blocks [Re, Im] of the N_t-wide user rows, K precoder
    blocks [Re, Im] of the N_RF-wide columns, K precoder column gains, K
    inverse gains; each block scaled by its max-abs (gains by the max gain,
    inverse gains by the min gain) so every entry lands in [-1, 1].
    """
    h2_rows = np.atleast_2d(np.asarray(h2_rows))
    b_ut = np.atleast_2d(np.asarray(b_ut))
    k = h2_rows.shape[0]
    if b_ut.shape[1] != k:
        raise ShapeMismatch(
            f"{k} users in the channel rows but {b_ut.shape[1]} precoder columns")
    # user i's [Re, Im] block, then user i + 1's
    ch_block = np.hstack([h2_rows.real, h2_rows.imag]).ravel()
    pc_block = np.hstack([b_ut.T.real, b_ut.T.imag]).ravel()
    gains = precoder_gains(b_ut)
    ch_max = np.max(np.abs(ch_block)) if ch_block.size else 0.0
    pc_max = np.max(np.abs(pc_block)) if pc_block.size else 0.0
    if ch_max == 0.0 or pc_max == 0.0 or np.any(gains <= 0.0):
        raise DegenerateInput("all-zero feature block or vanishing column gain")
    w1 = 1.0 / ch_max
    w2 = 1.0 / pc_max
    w3 = 1.0 / np.max(gains)
    w4 = np.min(gains)
    return np.concatenate([w1 * ch_block, w2 * pc_block,
                           w3 * gains, w4 / gains])


def build_labels(p_mw: np.ndarray, xy, box: Box) -> np.ndarray:
    """Normalized decision vector: powers by their max, position by the box."""
    p_mw = np.asarray(p_mw, dtype=float)
    top = float(np.max(p_mw))
    if top <= 0.0:
        raise DegenerateInput("solver allocation is all zero")
    return np.concatenate([p_mw / top, box.to_unit(xy)])


def _default_features(rlz: Realization, p_t_mw: float,
                      sigma2_mw: float) -> np.ndarray:
    """The surrogate's input: second-hop features at the default position."""
    stages0 = rlz.stages_at(rlz.default_xy, p_t_mw, sigma2_mw)
    return build_features(rlz.channel_pair_at(rlz.default_xy).h2,
                          stages0.b_ut)


def _decode(out: np.ndarray, box: Box) -> tuple[np.ndarray, np.ndarray]:
    """Network output to relative powers and a clipped in-box position."""
    k = out.size - 2
    return out[:k], box.clip(box.from_unit(out[k:]))


def predict_and_denormalize(model: MlpModel, features: np.ndarray,
                            b_ut: np.ndarray, p_t_mw: float, box: Box
                            ) -> tuple[PowerAlloc, np.ndarray]:
    """Map one feature vector to an in-box position and a budget-tight
    allocation (scaled against the supplied precoder columns)."""
    out = forward(model, np.asarray(features, dtype=float))
    if out.ndim != 1:
        raise ShapeMismatch("one feature vector at a time")
    p_rel, xy = _decode(out, box)
    return scale_alloc(p_rel, b_ut, p_t_mw), xy


def apply_prediction(model: MlpModel, rlz: Realization, p_t_mw: float,
                     sigma2_mw: float):
    """Run the surrogate on a realization: features at the default position,
    then rates at the predicted position under the predicted powers."""
    feats = _default_features(rlz, p_t_mw, sigma2_mw)
    p_rel, xy = _decode(forward(model, feats), rlz.scenario.box)
    report = rlz.rate_at(xy, p_t_mw, sigma2_mw, p_rel)
    return xy, p_rel, report


# --- dataset generation -------------------------------------------------------

def _dataset_block(scenario: Scenario, master_seed: int, p_t_mw: float,
                   sigma2_mw: float, pso_cfg: pso.PsoConfig, angle_model: str,
                   rf: RfDesign | None, indices: range) -> list[dict]:
    """The rows at ``indices``, in order, from one stacked ``solve_joint``:
    row i draws its realization and its swarm from SeedSequence([master_seed,
    i]).spawn(2), so it equals the row labeled alone."""
    seqs = [np.random.SeedSequence([int(master_seed), int(i)]).spawn(2)
            for i in indices]
    rlzs = [make_realization(scenario, draw_seq, angle_model, rf)
            for draw_seq, _ in seqs]
    sols = pso.solve_joint(rlzs, pso_cfg, p_t_mw, sigma2_mw,
                           [solve_seq for _, solve_seq in seqs])
    return [_dataset_row(rlz, sol, p_t_mw, sigma2_mw, index)
            for rlz, sol, index in zip(rlzs, sols, indices)]


def _dataset_row(rlz: Realization, sol: pso.SolveResult, p_t_mw: float,
                 sigma2_mw: float, index: int) -> dict:
    report = rlz.rate_at(sol.xy, p_t_mw, sigma2_mw, sol.p_hat)
    feats = _default_features(rlz, p_t_mw, sigma2_mw)
    # p / max(p) is scale free, so the relative powers label directly
    labels = build_labels(sol.p_hat, sol.xy, rlz.scenario.box)
    return {
        "index": index,
        "features": [float(v) for v in feats],
        "labels": [float(v) for v in labels],
        "xy": [float(sol.xy[0]), float(sol.xy[1])],
        "r_total": float(report.r_total),
    }


def generate_dataset(scenario: Scenario, count: int, master_seed: int,
                     out_path: str, pso_cfg: pso.PsoConfig | None = None,
                     p_t_dbm: float = 20.0, workers: int = 1,
                     angle_model: str = "fixed") -> int:
    """Label ``count`` realizations with the joint solver, JSON-lines output;
    returns the number of rows the file holds afterwards.

    Row i depends only on (master_seed, i), so generation parallelizes over
    rows and resumes mid-file: existing rows are kept and only the missing
    tail is computed. The missing rows are labeled in contiguous blocks
    (:func:`uavlink.schedule.map_blocks`), one stacked ``solve_joint`` per
    block with one swarm per row, serially or one block per worker task.
    Each block's rows are appended in index order as soon as the block
    finishes, so a crash loses at most the blocks in flight. A sidecar
    .meta.json pins the configuration and the row count; existing rows are
    resumed only under the configuration it records. A ``count`` below 1
    and a non-finite ``p_t_dbm`` are refused before any file is written.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    require_number(p_t_dbm, "p_t_dbm")
    pso_cfg = pso_cfg or pso.PsoConfig()
    p_t_mw = dbm_to_mw(p_t_dbm)
    sigma2_mw = dbm_to_mw(noise_power(scenario))
    config = {
        "master_seed": int(master_seed),
        "p_t_dbm": float(p_t_dbm),
        "angle_model": angle_model,
        "pso": to_dict(pso_cfg),
        "scenario": scenario_to_dict(scenario),
    }
    meta_path = out_path + ".meta.json"
    existing = len(_read_rows(out_path)) if os.path.exists(out_path) else 0
    if existing:
        _check_resume(out_path, meta_path, existing, config)
    if existing < count:
        # sidecar first: a crash must leave rows that a resume can check
        _write_meta(meta_path, existing, config)
        block_at = functools.partial(
            _dataset_block, scenario, master_seed, p_t_mw, sigma2_mw, pso_cfg,
            angle_model, shared_rf(scenario, angle_model))
        with open(out_path, "a") as fh:
            # one swarm per row; in index order, each block once computed
            for rows in map_blocks(block_at, range(existing, count), 1,
                                   workers):
                fh.writelines(json.dumps(row) + "\n" for row in rows)
                fh.flush()
    _write_meta(meta_path, max(existing, count), config)
    return max(existing, count)


def _write_meta(meta_path: str, count: int, config: dict) -> None:
    with open(meta_path, "w") as fh:
        json.dump({"count": count, **config}, fh, indent=1)


def _read_rows(path: str) -> list[dict]:
    """The rows of a dataset file, for a resume and for training alike; a
    torn row is refused by line number, and indices other than 0..n-1 once
    each by the first missing or repeated one."""
    rows = []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rows.append(json.loads(line))
                complete = line.endswith("\n")
            except ValueError:
                complete = False
            if not complete:
                raise ValueError(f"{path} line {number} is not a complete "
                                 "row; remove that line to resume")
    _check_indices(path, rows)
    return rows


def _check_indices(path: str, rows: list[dict]) -> None:
    """Rows must carry the indices 0..n-1 once each; names the first
    missing or repeated one."""
    for i, index in enumerate(sorted(row["index"] for row in rows)):
        if index != i:
            # sorted, so a larger index skips i and a smaller one repeats
            what = "is missing" if index > i else "appears twice"
            raise ValueError(
                f"{path}: row index {min(i, index)} {what}; rows "
                f"must carry the indices 0..{len(rows) - 1} once each")


def _check_resume(out_path: str, meta_path: str, existing: int,
                  config: dict) -> None:
    """Refuse to extend rows that another configuration wrote."""
    if not os.path.exists(meta_path):
        raise ValueError(f"{out_path} has {existing} rows but no {meta_path}; "
                         "cannot tell which configuration wrote them")
    with open(meta_path) as fh:
        meta = json.load(fh)
    for name, value in config.items():
        old = meta.get(name)
        if old == value:
            continue
        if isinstance(old, dict) and isinstance(value, dict):
            keys = list(value) + [k for k in old if k not in value]
            key = next(k for k in keys if old.get(k) != value.get(k))
            name, old, value = f"{name}.{key}", old.get(key), value.get(key)
        raise ValueError(
            f"{out_path} was written with a different {name} ({old!r}, now "
            f"{value!r}); use a new path or the same configuration")


def load_dataset(path: str) -> tuple[np.ndarray, np.ndarray, list[dict]]:
    """Read a JSON-lines dataset back into feature/label matrices."""
    rows = _read_rows(path)
    if not rows:
        raise ValueError(f"no rows in {path}")
    rows.sort(key=lambda r: r["index"])
    width = len(rows[0]["features"])
    if any(len(r["features"]) != width for r in rows):
        raise ShapeMismatch("inconsistent feature width across rows")
    features = np.array([r["features"] for r in rows], dtype=float)
    labels = np.array([r["labels"] for r in rows], dtype=float)
    return features, labels, rows


def save_model(model: MlpModel, path: str) -> None:
    payload = {"num_layers": np.array(len(model.weights))}
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        payload[f"w{i}"] = w
        payload[f"b{i}"] = b
    # through a handle: given a path, np.savez would append ".npz" to it
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_model(path: str) -> MlpModel:
    with np.load(path) as data:
        num = int(data["num_layers"])
        return MlpModel(weights=[data[f"w{i}"] for i in range(num)],
                        biases=[data[f"b{i}"] for i in range(num)])
