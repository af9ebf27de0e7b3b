"""One benchmark process: set up a workload, optionally run it, check the run.

Usage (from run.py, one process per sample):
    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run
        [--trace] --result PATH

Set-up time covers ``import advreplay``, config load and validation, and
``runner.stream_from_config``; nothing of the engine is imported before the
clock starts.  In ``run`` mode the process then executes one full
``runner.run_benchmark`` and records its wall and CPU seconds (CPU includes
BLAS threads), the process's peak RSS, the sha256 of ``metrics.csv``, the
accuracies and the result of the output checks.  The result is written as
JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

# Lowest Mahalanobis A_inc a healthy run reaches; every workload and seed
# tried when the benchmark was written scored above 0.85.
MAHALANOBIS_FLOOR = 0.5


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    try:
        result = measure(args)
    except Exception:  # a failed run is reported to run.py, which counts it
        result = {"error": traceback.format_exc()}
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 1 if "error" in result else 0


def measure(args) -> dict:
    import workloads

    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import advreplay
    from advreplay import config as CFG
    from advreplay import runner

    cfg_path, overrides = workloads.config_args(args.workload, args.seed, ROOT, WORK)
    config = CFG.load_config(cfg_path, overrides)
    runner.stream_from_config(config)
    setup_s = time.perf_counter() - started

    engine = Path(advreplay.__file__).resolve()
    if ROOT / "src" not in engine.parents:
        raise RuntimeError(f"advreplay imported from {engine}, not from {ROOT / 'src'}")
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        return result

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    out_dir = WORK / "runs" / args.workload
    config = CFG.apply_override(config, f'output.tag="s{args.seed}_{os.getpid()}"')
    cpu0, wall0 = time.process_time(), time.perf_counter()
    run = runner.run_benchmark(config, out_dir)
    run_s = time.perf_counter() - wall0
    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.uninstall()

    metrics_csv = run.run_dir / "metrics.csv"
    result.update({
        "run_s": run_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sha256": hashlib.sha256(metrics_csv.read_bytes()).hexdigest(),
        "acc": {f"{kind}.{name}": vals[kind]
                for name, vals in run.summary.items() for kind in ("A_inc", "A_last")},
        "problems": check_outputs(run, config),
        "host": host_record(),
    })
    if tracer is not None:
        trace_dir = WORK / "trace"
        trace_dir.mkdir(parents=True, exist_ok=True)
        spans = trace_dir / f"{args.workload}_s{args.seed}.csv"
        tracer.write_spans(spans)
        result["trace"] = {
            "layers": tracer.summarize(),
            "counters": dict(tracer.counters),
            "step_intervals_s": list(tracer.step_intervals_s),
            "spans": len(tracer.start),
            "span_cost_s": tracing.span_cost_s(),
            "spans_file": str(spans.relative_to(ROOT)),
        }
    for path in run.run_dir.iterdir():
        path.unlink()
    run.run_dir.rmdir()
    return result


def check_outputs(run, config) -> list[str]:
    """Problems found in the run's artifacts; empty when the run is correct."""
    problems = []
    classifiers = config["classifiers"]
    tasks = config["tasks"]["count"]
    n_classes = config["dataset"]["n_classes"]
    with (run.run_dir / "metrics.csv").open(newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    summary = {r["key"]: float(r["value"]) for r in rows if r["stage"] == "summary"}
    evals = [r for r in rows if r["stage"] == "eval"]
    if len(evals) != len(classifiers) * tasks * (tasks + 1) // 2:
        problems.append(f"{len(evals)} eval rows, expected one per classifier, task and seen group")
    for r in evals:
        if not 0.0 <= float(r["value"]) <= 1.0:
            problems.append(f"eval {r['key']} at task {r['task']} is {r['value']}")
    for name in classifiers:
        for kind in ("A_inc", "A_last"):
            logged = summary.get(f"{kind}/{name}")
            if logged != run.summary[name][kind]:
                problems.append(f"summary {kind}/{name}: csv {logged} vs returned "
                                f"{run.summary[name][kind]}")
    if "mahalanobis" in classifiers and run.summary["mahalanobis"]["A_inc"] < MAHALANOBIS_FLOOR:
        problems.append(f"mahalanobis A_inc {run.summary['mahalanobis']['A_inc']} "
                        f"below {MAHALANOBIS_FLOOR}")
    store = json.loads((run.run_dir / "store.json").read_text(encoding="utf-8"))
    if len(store["classes"]) != n_classes:
        problems.append(f"store holds {len(store['classes'])} classes, expected {n_classes}")
    model = json.loads((run.run_dir / "model.json").read_text(encoding="utf-8"))
    if not model:
        problems.append("model.json is empty")
    return problems


def host_record() -> dict:
    import numpy as np

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def blas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


if __name__ == "__main__":
    sys.exit(main())
