"""End-to-end and per-layer benchmark of advreplay.

    python3 perfbench/run.py --workload cold20-ref|csv60-svd|finetune-n500|all
        [--seed N] [--seconds S] [--trace 0|1] [--blas-check]

Each workload is a batch job driven as a closed loop with one client: one
incremental run at a time, each in a fresh process (``worker.py``), so that
peak RSS and CPU time belong to one run.  Runs repeat while the next one is
expected to end inside the ``--seconds`` window; at least one always runs.
Set-up is also timed in four set-up-only processes, and ``setup_s`` is the
median over all set-up samples.  BLAS threading is left at its default and
recorded with the host.

``--trace 1`` runs the workload once with every layer in ``tracing.LAYERS``
wrapped and reports per-layer metrics and the tracing overhead (see
``tracing.span_cost_s``).  ``--blas-check`` runs the workload with default
BLAS threads and with ``OPENBLAS_NUM_THREADS=1`` and compares the
``metrics.csv`` hashes.

The seed maps to the engine's seed pair as described in ``workloads.py``;
seed 0 is the reference pair (1993, 0).  A run fails when its process
raises, when its outputs fail the checks in ``worker.check_outputs``, or
when its ``metrics.csv`` hash differs from another run of the same source,
workload and seed in this checkout.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUP_REPS = 4
DEADLINE_S = 170.0  # per workload: every process started must end by then

END_TO_END = (
    ("run_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("acc.A_inc.linear", "fraction"),
    ("acc.A_inc.ncm", "fraction"),
    ("acc.A_inc.mahalanobis", "fraction"),
    ("acc.A_last.mahalanobis", "fraction"),
)

LAYER_EXTRAS = (
    ("model.extract.rows", "count"),
    ("replay.adversarial_attack.rows", "count"),
    ("replay.adversarial_attack.closer_frac", "fraction"),
    ("classify.predict.rows", "count"),
    ("train.step.p50_ms", "ms"),
    ("train.step.p99_ms", "ms"),
    ("data.load_csv.bytes", "bytes"),
    ("calib.save_store.bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.probe_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    out = []
    for layer in tracing.LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.s", "s"), (f"{layer}.self_s", "s")]
    return out + list(LAYER_EXTRAS)


# -- statistics --------------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile; 0.0 for no values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)] if ordered else 0.0


def tail_percentile(values):
    """(label, value) of the highest of p90/p99/p99.9 with at least ten
    samples beyond it, or None when there are too few samples."""
    fits = [p for p in (90.0, 99.0, 99.9) if len(values) * (100.0 - p) / 100.0 >= 10]
    return (f"p{fits[-1]:g}", percentile(values, fits[-1])) if fits else None


# -- processes -------------------------------------------------------------------------


def spawn(workload: str, seed: int, mode: str, deadline: float, trace=False, env=None) -> dict:
    """Run one worker process to completion, killing it at ``deadline``
    (a ``time.monotonic`` value); its JSON result, or an error."""
    WORK.mkdir(parents=True, exist_ok=True)
    result_path = WORK / f"result_{os.getpid()}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--result", str(result_path)]
    if trace:
        cmd.append("--trace")
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} process killed after {time.monotonic() - started:.1f} s"}
    try:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        result = {"error": f"worker exited {proc.returncode} without a result:\n{proc.stderr}"}
    finally:
        result_path.unlink(missing_ok=True)
    result["wall_s"] = time.monotonic() - started
    return result


def source_digest() -> str:
    """sha256 over the engine's source files, to key recorded hashes by code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_hashes(workload: str, seed: int, runs: list[dict]) -> tuple[list[bool], list[str]]:
    """Per run, whether its metrics.csv hash disagrees; and notes to print.

    Every run here and every earlier run recorded in this checkout for the
    same source, workload and seed must give the same hash.  Without a
    recorded hash the majority here is the expected one; with no majority,
    every run disagrees with another.
    """
    hashes = [r["sha256"] for r in runs]
    if not hashes:
        return [], []
    store_path = WORK / "hashes.json"
    try:
        store = json.loads(store_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        store = {}
    key = f"{source_digest()}/{workload}/{seed}"
    counts = Counter(hashes)
    expect = store.get(key)
    notes = [f"metrics.csv sha256 {h[:16]}... x{c}" for h, c in counts.items()]
    if expect is not None:
        notes.append(f"recorded earlier in this checkout for this source: {expect[:16]}...")
    else:
        top, count = counts.most_common(1)[0]
        expect = top if count * 2 > len(hashes) else None
    reference = workloads.REFERENCE_HASHES.get((workload, seed))
    if reference is not None:
        same = all(h == reference for h in hashes)
        notes.append(f"seed-commit reference {reference[:16]}...: "
                     f"{'match' if same else 'DIFFERS'}")
    bad = [h != expect for h in hashes]
    if not any(bad) and key not in store:
        store[key] = expect
        tmp = store_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(store, indent=1, sort_keys=True), encoding="utf-8")
        tmp.replace(store_path)
    return bad, notes


# -- workloads -----------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = [spawn(workload, seed, "setup", deadline) for _ in range(SETUP_REPS)]
    runs = []
    window = time.monotonic()
    while True:
        if runs:
            expected = statistics.median(r["wall_s"] for r in runs)
            now = time.monotonic()
            if now - window + expected > seconds or now + expected > deadline:
                break
        runs.append(spawn(workload, seed, "run", deadline))
        if "error" in runs[-1]:
            break
    ok_runs = [r for r in runs if "error" not in r]
    samples = {
        "run_s": [r["run_s"] for r in ok_runs],
        "cpu_s": [r["cpu_s"] for r in ok_runs],
        "setup_s": [r["setup_s"] for r in setups + runs if "setup_s" in r],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok_runs],
    }
    for name, _ in END_TO_END:
        if name.startswith("acc."):
            samples[name] = [r["acc"][name[4:]] for r in ok_runs]
    return outcome(workload, seed, setups, runs, ok_runs, samples)


def outcome(workload, seed, setups, runs, ok_runs, samples) -> dict:
    procs = setups + runs
    errors = [r["error"] for r in procs if "error" in r]
    problems = [p for r in ok_runs for p in r["problems"]]
    bad_hash, notes = check_hashes(workload, seed, ok_runs)
    failed = len(errors) + sum(1 for r, bad in zip(ok_runs, bad_hash) if r["problems"] or bad)
    return {
        "attempted": len(procs),
        "failed": failed,
        "errors": errors,
        "problems": problems,
        "notes": notes,
        "samples": samples,
        "host": ok_runs[0]["host"] if ok_runs else None,
    }


def measure_traced(workload: str, seed: int) -> dict:
    traced = spawn(workload, seed, "run", time.monotonic() + DEADLINE_S, trace=True)
    ok_runs = [] if "error" in traced else [traced]
    result = outcome(workload, seed, [], [traced], ok_runs, {})
    if not ok_runs:
        return result
    tr = traced["trace"]
    layers, counters = tr["layers"], tr["counters"]
    values = {}
    for layer in tracing.LAYERS:
        for key in ("calls", "s", "self_s"):
            values[f"{layer}.{key}"] = layers[layer][key]
    attacked = counters.get("replay.adversarial_attack.rows", 0)
    steps_ms = [s * 1e3 for s in tr["step_intervals_s"]]
    values.update({
        "model.extract.rows": counters.get("model.extract.rows", 0),
        "replay.adversarial_attack.rows": attacked,
        "replay.adversarial_attack.closer_frac":
            counters.get("replay.adversarial_attack.closer_rows", 0) / attacked if attacked else 0.0,
        "classify.predict.rows": counters.get("classify.predict.rows", 0),
        "train.step.p50_ms": statistics.median(steps_ms) if steps_ms else 0.0,
        "train.step.p99_ms": percentile(steps_ms, 99.0),
        "data.load_csv.bytes": counters.get("data.load_csv.bytes", 0),
        "calib.save_store.bytes": counters.get("calib.save_store.bytes", 0),
        "trace.spans": tr["spans"],
        "trace.probe_s": layers[tracing.PROBE]["s"],
        "trace.run_s": traced["run_s"],
        "trace.overhead_s": tr["spans"] * tr["span_cost_s"] + layers[tracing.PROBE]["s"],
    })
    result.update({"values": values, "layers": layers, "span_cost_s": tr["span_cost_s"],
                   "step_ms": steps_ms, "spans_file": tr["spans_file"]})
    return result


def blas_check(workload: str, seed: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    single = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    default = spawn(workload, seed, "run", deadline)
    one = spawn(workload, seed, "run", deadline, env=single)
    runs = [default, one]
    ok_runs = [r for r in runs if "error" not in r]
    result = outcome(workload, seed, [], runs, ok_runs, {})
    result["blas"] = [(r["host"]["blas_threads"], r["sha256"], r["run_s"], r["cpu_s"])
                      for r in ok_runs]
    return result


# -- reporting -------------------------------------------------------------------------------


def describe(workload: str, seed: int, result: dict) -> None:
    print(f"== {workload}  seed {seed} (class_shuffle {workloads.REFERENCE_SHUFFLE + seed}, "
          f"randomness {seed}); closed loop, 1 client, one run per process")
    host = result["host"]
    if host:
        print(f"host: nproc {host['nproc']} (affinity {host['affinity']}) | {host['cpu_model']} | "
              f"Python {host['python']} | numpy {host['numpy']} | {host['blas']} | "
              f"BLAS threads {host['blas_threads']} "
              f"(OPENBLAS_NUM_THREADS={host['OPENBLAS_NUM_THREADS'] or 'unset'})")
    for note in result["notes"]:
        print(note)
    for err in result["errors"]:
        print(f"FAILED: {err}")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    print(f"runs: attempted {result['attempted']}, failed {result['failed']}")


def print_end_to_end(result: dict) -> dict:
    print(f"{'metric':<26}{'unit':<10}{'median':>14}{'tail':>20}{'n':>5}")
    metrics = {}
    for name, unit in END_TO_END:
        values = result["samples"].get(name, [])
        if not values:
            continue
        med = statistics.median(values)
        tail = tail_percentile(values)
        tail_txt = f"{tail[0]} {tail[1]:.6g}" if tail else "-"
        print(f"{name:<26}{unit:<10}{med:>14.6g}{tail_txt:>20}{len(values):>5}")
        metrics[name] = {"value": med, "unit": unit}
    return metrics


def print_layers(result: dict) -> dict:
    layers = result["layers"]
    total = layers["runner.run_benchmark"]["s"]
    print(f"{'layer':<40}{'calls':>9}{'incl s':>10}{'self s':>10}{'incl %':>8}{'outer %':>9}")
    for name in sorted(layers, key=lambda k: -layers[k]["s"]):
        row = layers[name]
        if row["calls"]:
            print(f"{name:<40}{row['calls']:>9}{row['s']:>10.3f}{row['self_s']:>10.3f}"
                  f"{100 * row['s'] / total:>8.1f}{100 * row['outer_s'] / total:>9.1f}")
    ranked = [k for k in tracing.LAYERS if k not in tracing.STRUCTURAL]
    dominant = max(ranked, key=lambda k: layers[k]["outer_s"])
    print(f"dominant layer: {dominant} "
          f"({100 * layers[dominant]['outer_s'] / total:.1f}% of run_benchmark as an "
          f"outermost operation)")
    steps = result["step_ms"]
    if steps:
        tail = tail_percentile(steps)
        print(f"train.step interval: median {statistics.median(steps):.4g} ms, "
              f"{tail[0] + ' ' + format(tail[1], '.4g') + ' ms' if tail else '-'}, n {len(steps)}")
    values = result["values"]
    print(f"tracing overhead: {values['trace.overhead_s']:.3f} s of traced run_s "
          f"{values['trace.run_s']:.3f} = {values['trace.spans']} spans x "
          f"{1e6 * result['span_cost_s']:.2f} us + probe {values['trace.probe_s']:.3f} s "
          f"(spans in {result['spans_file']})")
    units = dict(per_layer_metrics())
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--blas-check", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "advreplay" / "__init__.py").is_file():
        print(f"advreplay sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    for name in names:
        inputs = ()
        if workloads.WORKLOADS[name]["csv"]:
            inputs = workloads.write_csv_inputs(WORK, args.seed)
        try:
            if args.blas_check:
                result = blas_check(name, args.seed)
            elif args.trace:
                result = measure_traced(name, args.seed)
            else:
                result = measure(name, args.seed, args.seconds)
        finally:
            for path in inputs:
                path.unlink(missing_ok=True)
            if inputs:
                inputs[0].parent.rmdir()
        describe(name, args.seed, result)
        if args.blas_check:
            for threads, sha, run_s, cpu_s in result["blas"]:
                print(f"BLAS threads {threads}: sha256 {sha[:16]}... run_s {run_s:.2f} "
                      f"cpu_s {cpu_s:.2f}")
            same = len({sha for _, sha, _, _ in result["blas"]}) == 1
            print(f"BLAS independence: {'identical' if same else 'DIFFERENT'} metrics.csv")
            got = {}
        elif args.trace:
            got = print_layers(result) if "values" in result else {}
        else:
            got = print_end_to_end(result)
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in got.items()})
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
