"""Command-line entry points.

Subcommands: gen (synthesize a dataset), train (fit and checkpoint),
eval (task-metric report from a checkpoint), score (drive-log metrics),
bench (throughput and peak memory). Exit codes: 0 success, 2 bad
config/usage (a config value outside its domain, a negative or
non-integer seed, an image of the wrong size, a checkpoint built for
another model and a missing or unusable path included), 3 numeric
failure, 4 corrupt data. The SKGE_SEED environment variable overrides
--seed wherever one is accepted.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Dict

import numpy as np

from . import checkpoint, scoring
from .config import RunConfig
from .data import SceneConfig, load_dataset, save_dataset, synth_scene
from .errors import ConfigError, DataError, NumericError
from .model import build_model, make_batch
from .training import REPORT_FIELDS, evaluate, fit, peak_rss_mb


def _seed(flag: int | None) -> int | None:
    """SKGE_SEED when it is set, else flag, the --seed value; never negative."""
    env = os.environ.get("SKGE_SEED")
    seed, source = flag, "--seed"
    if env is not None:
        try:
            seed, source = int(env), "SKGE_SEED"
        except ValueError:
            raise ConfigError(f"SKGE_SEED must be an integer, got {env!r}") from None
    if seed is not None and seed < 0:
        raise ConfigError(f"{source} must be >= 0, got {seed}")
    return seed


def cmd_gen(args) -> int:
    if args.count < 1:
        raise ConfigError(f"--count must be >= 1, got {args.count}")
    if args.size < 16:
        raise ConfigError(f"--size must be >= 16, got {args.size}")
    seed = _seed(args.seed)
    scene = SceneConfig(size=args.size, with_lidar=args.with_lidar)
    samples = [synth_scene(seed + i, scene) for i in range(args.count)]
    save_dataset(args.out, samples, [seed + i for i in range(args.count)])
    print(f"wrote {args.count} samples to {args.out}")
    return 0


def _train_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg.load_file(args.config)
    if args.skge_route is not None:
        cfg.set("skge.route_a", args.skge_route)
        cfg.set("skge.route_b", args.skge_route)
    seed = _seed(args.seed)
    if seed is not None:
        cfg.set("train.seed", seed)
    return cfg


def cmd_train(args) -> int:
    if args.epochs < 1:
        raise ConfigError(f"--epochs must be >= 1, got {args.epochs}")
    metrics = args.metrics or args.out + ".metrics.ndjson"
    for flag, path in (("--out", args.out), ("--metrics", metrics)):
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent) or os.path.isdir(path):
            raise ConfigError(f"{flag} {path}: not a file in an existing directory")
    cfg = _train_config(args)
    samples = load_dataset(args.data)
    state = fit(samples, cfg, args.out, metrics_path=metrics,
                epochs=args.epochs, resume=args.resume)
    print(f"trained {state.epoch} epochs; best validation loss "
          f"{state.best_val:.6f}; checkpoint {args.out}; metrics {metrics}")
    if state.stopped_early:
        print(f"stopped early after {state.stagnant} stagnant epochs")
    return 0


def _load_model_from_ckpt(path):
    """The model a training checkpoint holds, rebuilt from its config record."""
    cfg = checkpoint.read_config(path)
    model = build_model(cfg, np.random.default_rng(0))
    checkpoint.load_model(path, model)
    return model, cfg


def evaluate_dataset(model, cfg, samples, batch_size: int = 8) -> Dict[str, float]:
    """The 7-field task-metric report plus test_metric, the mean task loss.

    cfg is not read: the model carries its own configuration.
    """
    task_means, report = evaluate(model, samples, batch_size)
    report["test_metric"] = float(task_means.mean())
    return report


def cmd_eval(args) -> int:
    model, cfg = _load_model_from_ckpt(args.ckpt)
    samples = load_dataset(args.data)
    report = evaluate_dataset(model, cfg, samples)
    for key in REPORT_FIELDS + ("test_metric",):
        print(f"{key}={report[key]:.6f}")
    return 0


def cmd_score(args) -> int:
    if not os.path.isdir(args.logs):
        raise ConfigError(f"--logs {args.logs} is not a directory")
    files = sorted(os.path.join(args.logs, f) for f in os.listdir(args.logs)
                   if os.path.isfile(os.path.join(args.logs, f)))
    if not files:
        raise ConfigError(f"no log files in {args.logs}")
    logs = [scoring.read_drive_log(f) for f in files]
    result = scoring.score_routes(logs)
    print(f"{'route':<16}{'RC':>10}{'IP':>10}{'DS':>10}")
    for row in result["routes"]:
        print(f"{row['route_id']:<16}{row['rc']:>10.4f}{row['ip']:>10.4f}"
              f"{row['ds']:>10.4f}")
    print(f"{'mean':<16}{result['mean_rc']:>10.4f}{result['mean_ip']:>10.4f}"
          f"{result['driving_score']:>10.4f}")
    aggregate = result["mean_rc"] * result["mean_ip"]
    print(f"note: mean_rc x mean_ip = {aggregate:.4f}; the driving score is "
          f"the per-route mean of rc x ip, so the two differ whenever "
          f"penalties vary across routes")
    print(f"driving_score={result['driving_score']:.4f}")
    return 0


def cmd_bench(args) -> int:
    if args.iters < 1:
        raise ConfigError(f"--iters must be >= 1, got {args.iters}")
    model, cfg = _load_model_from_ckpt(args.ckpt)
    sample = synth_scene(_seed(args.seed), SceneConfig(size=cfg["backbone.input_size"]))
    batch = make_batch([sample])
    for _ in range(10):
        model.forward(batch)
    start = time.perf_counter()
    for _ in range(args.iters):
        model.forward(batch)
    elapsed = time.perf_counter() - start
    fps = args.iters / elapsed if elapsed > 0 else float("inf")
    print(f"fps={fps:.3f}")
    print(f"peak_rss_mb={peak_rss_mb():.1f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="skgedrive",
                                     description="desk-scale driving pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, default=64)
    p.add_argument("--with-lidar", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train and checkpoint")
    p.add_argument("--data", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--metrics", default=None)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--skge-route", default=None,
                   help="skip route for both encoders, e.g. '1->4' or 'none'")
    p.add_argument("--resume", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="task-metric report")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("score", help="score drive logs")
    p.add_argument("--logs", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("bench", help="throughput and memory")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--iters", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError,
            PermissionError) as e:
        print(f"cannot use {e.filename}: {e.strerror}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except DataError as e:
        print(f"corrupt data: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
