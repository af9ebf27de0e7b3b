"""Command-line harness.

Subcommands: ``run`` (single config), ``bench`` (three-seed average),
``decompose`` (offline store compression), ``report`` (storage accounting),
``sweep`` (attack-parameter grid).  ``bench`` and ``sweep`` spread their
independent runs over processes (``runner.run_many``).  Any config key can
be overridden with ``--set dotted.path=value``; the output root may also
come from the ADVREPLAY_OUT environment variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import calib as C
from . import config as CFG
from . import runner
from .arrays import write_text_atomic
from .errors import ConfigError, ContractError, EngineError

BENCH_SEED_PAIRS = ((1993, 0), (2993, 1000), (3993, 2000))  # (class_shuffle, randomness)


def _out_dir(args, config) -> str:
    if args.out is not None:
        return args.out
    env = os.environ.get("ADVREPLAY_OUT")
    if env:
        return env
    return config["output"]["dir"]


def _csv_text(rows) -> str:
    """``rows`` as CSV text, as ``csv.writer`` writes them to a file."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


def _load(args) -> dict:
    return CFG.load_config(args.config, args.set or ())


def cmd_run(args) -> int:
    config = _load(args)
    result = runner.run_benchmark(config, out_dir=_out_dir(args, config))
    print(f"run dir: {result.run_dir}")
    for name, row in result.summary.items():
        print(f"{name:<12} A_inc={row['A_inc']:.4f}  A_last={row['A_last']:.4f}")
    return 0


def cmd_bench(args) -> int:
    config = _load(args)
    out_root = Path(_out_dir(args, config))
    configs = []
    for shuffle_seed, seed in BENCH_SEED_PAIRS:
        run_cfg = CFG.apply_override(config, f"seeds.class_shuffle={shuffle_seed}")
        run_cfg = CFG.apply_override(run_cfg, f"seeds.randomness={seed}")
        configs.append(
            CFG.apply_override(run_cfg, f'output.tag="bench_s{seed}_c{shuffle_seed}"'))
    rows = {}
    for result in runner.run_many(configs, out_dir=out_root):
        for name, summary in result.summary.items():
            rows.setdefault(name, []).append(summary)

    table = [["classifier", "metric", "mean", "std"]]
    for name, summaries in rows.items():
        for metric in ("A_inc", "A_last"):
            values = np.array([s[metric] for s in summaries])
            table.append([name, metric, repr(float(values.mean())), repr(float(values.std()))])
            print(f"{name:<12} {metric}: {values.mean():.4f} ± {values.std():.4f}")
    out_root.mkdir(parents=True, exist_ok=True)
    table_path = out_root / "bench_summary.csv"
    write_text_atomic(table_path, _csv_text(table))
    print(f"bench summary: {table_path}")
    return 0


def _stored_scalars(store: C.PrototypeStore) -> int:
    """Covariance scalars in a store file: d^2 per full class, 2kd + k^2 per rank k."""
    return sum(e.cov.size if e.rank is None else C.decomposed_scalars(len(e.mu), e.rank)
               for e in store.entries.values())


def cmd_decompose(args) -> int:
    store = C.load_store(args.store)
    if not store.entries:
        raise ContractError(f"{args.store}: store holds no classes")
    before = _stored_scalars(store)
    try:
        store.compress_all(args.k)
    except ConfigError as err:
        raise ConfigError(f"{args.store}: {err}") from None
    after = _stored_scalars(store)
    C.save_store(store, args.output)
    print(f"compressed {len(store.entries)} classes to rank {args.k}: "
          f"{before} -> {after} scalars ({100.0 * after / before:.1f}%)")
    return 0


# report flags and the least value each takes
_REPORT_MINIMA = (("old_classes", 0), ("task_samples", 0), ("feature_dim", 1),
                  ("float_bytes", 1), ("index_bytes", 1))


def cmd_report(args) -> int:
    for name, least in _REPORT_MINIMA:
        value = getattr(args, name)
        if value is not None and value < least:
            raise ConfigError(f"--{name.replace('_', '-')} must be >= {least}, got {value}")
    config = _load(args)
    n_old, n_rows = args.old_classes, args.task_samples
    if n_old is None or n_rows is None:
        # the last task has the most old classes
        stream = runner.stream_from_config(config)
        if n_old is None:
            n_old = sum(len(group) for group in stream.class_groups[:-1])
        if n_rows is None:
            n_rows = len(stream.train[-1])
    sizes = runner.storage_report(
        n_old_classes=n_old,
        feature_dim=(config["model"]["feature_dim"] if args.feature_dim is None
                     else args.feature_dim),
        n_candidates_per_class=config["replay"]["k"],
        n_task_samples=n_rows,
        svd_k=config["covariance"]["svd_k"],
        float_bytes=args.float_bytes,
        index_bytes=args.index_bytes,
    )
    print(runner.format_storage_table(sizes))
    if args.json_out:
        write_text_atomic(args.json_out, json.dumps(sizes))
    return 0


def cmd_sweep(args) -> int:
    config = _load(args)
    out_root = Path(_out_dir(args, config))
    # each comma item is override text, so the config table checks and names it
    alphas = args.alpha.split(",") if args.alpha else [config["attack"]["alpha"]]
    loops = args.n_attack.split(",") if args.n_attack else [config["attack"]["n_attack"]]
    grid, configs = [], []
    for alpha_text in alphas:
        for n_text in loops:
            cfg = CFG.apply_override(config, f"attack.alpha={alpha_text}")
            cfg = CFG.apply_override(cfg, f"attack.n_attack={n_text}")
            CFG.validate_config(cfg)
            alpha, n_attack = cfg["attack"]["alpha"], cfg["attack"]["n_attack"]
            grid.append((alpha, n_attack))
            configs.append(
                CFG.apply_override(cfg, f'output.tag="sweep_a{alpha:g}_n{n_attack}"'))
    out_root.mkdir(parents=True, exist_ok=True)
    results = runner.run_many(configs, out_dir=out_root)
    table = [["alpha", "n_attack", "classifier", "A_inc", "A_last"]]
    for (alpha, n_attack), result in zip(grid, results):
        for name, summary in result.summary.items():
            table.append([alpha, n_attack, name, repr(summary["A_inc"]), repr(summary["A_last"])])
            print(f"alpha={alpha:<6g} n={n_attack:<3d} {name:<12} "
                  f"A_inc={summary['A_inc']:.4f} A_last={summary['A_last']:.4f}")
    table_path = out_root / "sweep.csv"
    write_text_atomic(table_path, _csv_text(table))
    print(f"sweep table: {table_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advreplay",
                                     description="incremental-learning benchmark harness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--out", type=str, default=None,
                       help="output root (default: $ADVREPLAY_OUT or config output.dir)")

    p_run = sub.add_parser("run", help="execute a single seeded run")
    common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_bench = sub.add_parser("bench", help="three-seed benchmark with mean/std")
    common(p_bench)
    p_bench.set_defaults(fn=cmd_bench)

    p_dec = sub.add_parser("decompose", help="compress a stored prototype store")
    p_dec.add_argument("store", type=str, help="path to store.json")
    p_dec.add_argument("--k", type=int, required=True, help="target rank")
    p_dec.add_argument("--output", type=str, required=True, help="output store path")
    p_dec.set_defaults(fn=cmd_decompose)

    p_rep = sub.add_parser("report", help="storage accounting table")
    common(p_rep)
    p_rep.add_argument("--old-classes", type=int, default=None)
    p_rep.add_argument("--feature-dim", type=int, default=None)
    p_rep.add_argument("--task-samples", type=int, default=None)
    p_rep.add_argument("--float-bytes", type=int, default=8)
    p_rep.add_argument("--index-bytes", type=int, default=4)
    p_rep.add_argument("--json-out", type=str, default=None)
    p_rep.set_defaults(fn=cmd_report)

    p_sweep = sub.add_parser("sweep", help="attack magnitude/iteration grid")
    common(p_sweep)
    p_sweep.add_argument("--alpha", type=str, default=None, help="comma list, e.g. 8,16,32,64")
    p_sweep.add_argument("--n-attack", type=str, default=None, help="comma list, e.g. 1,2,4,6")
    p_sweep.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except EngineError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
