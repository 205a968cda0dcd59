"""Command-line front end: run, grid, dataset, train, predict, delay."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import harness, learn
from .config import from_dict
from .geometry import dbm_to_mw, noise_power


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uavlink",
        description="Dual-hop UAV relay simulator and optimizer suite")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--seed", type=int, help="override the master seed")
        p.add_argument("--paper-scale", action="store_true",
                       help="use the full-scale preset (12x12 arrays)")

    p_run = sub.add_parser("run", help="Monte-Carlo scheme comparison")
    common(p_run)
    p_run.add_argument("--out", default="runs/latest", help="output directory")
    p_run.add_argument("--workers", type=int, help="parallel workers")
    p_run.add_argument("--realizations", type=int)

    p_grid = sub.add_parser("grid", help="exhaustive search surface")
    common(p_grid)
    p_grid.add_argument("--out", default="surface.csv")
    p_grid.add_argument("--p-t-dbm", type=float, default=20.0)
    p_grid.add_argument("--objective", default="r_total",
                        choices=["r1", "r2", "r_total"])
    p_grid.add_argument("--workers", type=int, help="parallel workers")
    p_grid.add_argument("--realizations", type=int)

    p_data = sub.add_parser("dataset", help="label realizations with the joint solver")
    common(p_data)
    p_data.add_argument("--out", default="dataset.jsonl")
    p_data.add_argument("--count", type=int, default=5000)
    p_data.add_argument("--workers", type=int, default=1)
    p_data.add_argument("--p-t-dbm", type=float, default=20.0)

    p_train = sub.add_parser("train", help="fit the decision surrogate")
    common(p_train)
    p_train.add_argument("--dataset", required=True)
    p_train.add_argument("--out", default="model.npz")
    p_train.add_argument("--curves", default=None,
                         help="CSV path for per-epoch losses")
    p_train.add_argument("--test-count", type=int, default=500)

    p_pred = sub.add_parser("predict", help="run the surrogate on one realization")
    common(p_pred)
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--index", type=int, default=0,
                        help="realization index under the master seed")
    p_pred.add_argument("--p-t-dbm", type=float, default=20.0)

    p_delay = sub.add_parser("delay", help="buffered vs bufferless delay sweep")
    common(p_delay)
    p_delay.add_argument("--out", default="delay.csv")
    p_delay.add_argument("--queue-bits", type=float, nargs="+",
                         default=[1.0, 2.0, 4.0, 8.0])
    p_delay.add_argument("--workers", type=int, help="parallel workers")
    p_delay.add_argument("--realizations", type=int)
    return parser


def _load_spec(args) -> harness.ExperimentSpec:
    if args.config:
        spec = harness.load_spec(args.config)
    elif getattr(args, "paper_scale", False):
        spec = harness.paper_scale_spec()
    else:
        spec = harness.ExperimentSpec()
    # replace() re-runs the spec's validation on the overridden fields
    overrides = {name: getattr(args, name, None)
                 for name in ("seed", "workers", "realizations")}
    return dataclasses.replace(
        spec, **{k: v for k, v in overrides.items() if v is not None})


def _train_config(args) -> learn.TrainConfig:
    cfg = harness.read_config(args.config) if args.config else {}
    seed = {} if args.seed is None else {"seed": args.seed}
    return from_dict(learn.TrainConfig, cfg.get("dnn", {}), "dnn", **seed)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ValueError, OSError, ArithmeticError) as err:
        json.dump({"error": type(err).__name__, "message": str(err)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 1


def _dispatch(args) -> int:
    if args.command == "run":
        spec = _load_spec(args)
        results, _ = harness.run(spec, args.out)
        for row in results:
            print(f"{row.scheme} @ {row.p_t_dbm} dBm: "
                  f"R_T = {row.mean_r_total:.4f} bps/Hz")
        print(f"wrote {os.path.join(args.out, 'results.csv')}")
        return 0

    if args.command == "grid":
        spec = _load_spec(args)
        grid = harness.mean_surface(spec, args.p_t_dbm, args.objective)
        harness.emit_surface(grid, args.out)
        print(f"best {args.objective} at ({grid.best_xy[0]:.2f}, "
              f"{grid.best_xy[1]:.2f}): {grid.best_value:.4f} bps/Hz")
        return 0

    if args.command == "dataset":
        spec = _load_spec(args)
        rows = learn.generate_dataset(spec.scenario, args.count, spec.seed,
                                      args.out, spec.pso, args.p_t_dbm,
                                      workers=args.workers,
                                      angle_model=spec.angle_model)
        print(f"{args.out} holds {rows} rows")
        return 0

    if args.command == "train":
        n_test = args.test_count
        if n_test < 1:
            raise ValueError(f"--test-count must be at least 1, got {n_test}")
        cfg = _train_config(args)
        features, labels, _ = learn.load_dataset(args.dataset)
        if n_test >= len(features):
            raise ValueError(
                f"test count {n_test} leaves no training rows "
                f"(dataset has {len(features)})")
        train_x, test_x = features[:-n_test], features[-n_test:]
        train_y, test_y = labels[:-n_test], labels[-n_test:]
        model = learn.init_model(
            [train_x.shape[1]] + list(cfg.hidden_layers) + [train_y.shape[1]],
            cfg.seed)
        model, curves = learn.train(model, train_x, train_y, cfg,
                                    test_x, test_y)
        learn.save_model(model, args.out)
        if args.curves:
            cols = list(curves[0]) if curves else ["epoch", "train_loss"]
            harness.write_csv(args.curves, cols,
                              ([row.get(c) for c in cols] for row in curves))
        last = curves[-1] if curves else {}
        print(f"saved {args.out}; final val_mse: {last.get('val_mse')}")
        return 0

    if args.command == "predict":
        if args.index < 0:
            raise ValueError(f"--index must be nonnegative, got {args.index}")
        spec = _load_spec(args)
        model = learn.load_model(args.model)
        rlz = harness.realization(spec, args.index)
        p_t_mw = dbm_to_mw(args.p_t_dbm)
        sigma2_mw = dbm_to_mw(noise_power(spec.scenario))
        xy, p_rel, report = learn.apply_prediction(model, rlz, p_t_mw,
                                                   sigma2_mw)
        print(json.dumps({
            "uav_xy": [float(xy[0]), float(xy[1])],
            "relative_powers": [float(p) for p in p_rel],
            "r1": report.r1, "r2": report.r2, "r_total": report.r_total,
        }))
        return 0

    if args.command == "delay":
        spec = _load_spec(args)
        rows = harness.run_delay(spec, list(args.queue_bits), args.out)
        for row in rows:
            print(f"P_T {row['p_t_dbm']} dBm, Q {row['queue_bits']} bits: "
                  f"fixed {row['delay_fixed']:.4f} s, "
                  f"buffered {row['delay_buffered']:.4f} s")
        return 0

    raise ValueError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
