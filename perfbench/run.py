"""Benchmark one chordbalance workload and print its metrics.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload selftrain --seed 1 --seconds 25 --trace 0

The run generates the workload's inputs from ``--seed`` several times
(``setup_s`` is the median), then repeats the workload's operation, each
in a fresh process, for about ``--seconds`` seconds and at least twice.
Every operation's outputs are checked, and every operation of one run
must produce byte-identical outputs.  ``--trace 0`` reports the
end-to-end metrics as medians over the operations; ``--trace 1``
alternates untraced and traced operations, at least two pairs, and
reports the per-layer metrics of the traced ones, plus the tracing
overhead as the median difference within a pair.  Metric names and
units are those of ``BENCHMARK.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before
it give a ``detail`` JSON line (machine facts, the outputs' fingerprint,
the selftrain lift, each operation) and a readable table.  The program is
imported from ``src/`` of the checkout, never from an installed copy;
without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
CHILD = Path(__file__).resolve().parent / "child.py"

# BLAS threads are pinned so that timings and model weights do not depend
# on the core count.  One thread: with two, OpenBLAS threads that spin
# while another process holds a core made a selftrain run 2-3x slower.
BLAS_THREADS = 1
_BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 3
MIN_OPS = 2
# A traced run makes at least two untraced/traced pairs, so that the
# tracing overhead is a median over pairs and not a single difference.
MIN_TRACED_PAIRS = 2
CHILD_TIMEOUT_S = 170

END_TO_END = {m["name"]: m["unit"] for m in tracing.BENCHMARK["end_to_end"]}


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_child(request: dict, directory: Path, env: dict) -> tuple[dict | None, str | None]:
    """Run one request in a fresh interpreter; (result, None) or (None, error)."""
    request_path = directory / "request.json"
    result_path = directory / "result.json"
    request = {**request, "src": str(SRC), "result": str(result_path)}
    request_path.write_text(json.dumps(request), "utf-8")
    log_path = directory / "child.log"
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, str(CHILD), str(request_path)], env=env,
                                  stdout=log, stderr=subprocess.STDOUT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, f"timed out after {CHILD_TIMEOUT_S} s"
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text("utf-8", errors="replace").strip().splitlines()[-1:]
        return None, f"exit {proc.returncode}: {' '.join(tail)}"
    result = json.loads(result_path.read_text("utf-8"))
    if result["exit"] != 0:
        return None, f"command exited {result['exit']}"
    return result, None


def run_operation(name: str, inputs, op_dir: Path, traced: bool, env: dict) -> dict:
    """One timed operation: its seconds, memory, layer summary and check outcome."""
    import workloads

    op_dir.mkdir(parents=True)
    if name == "labtools":
        commands = workloads.labtools_commands(inputs, op_dir)
        requests = [{"op": "cli", "argv": argv, "span": f"cli.{argv[2]}",
                     "stdout": str(op_dir / f"{argv[2]}.out")} for argv in commands]
    else:
        requests = [{"op": "experiment", "config": str(inputs.config), "out": str(op_dir / "run")}]
    seconds, peak, summaries = 0.0, 0.0, []
    for k, request in enumerate(requests):
        child_dir = op_dir / f"child{k}"
        child_dir.mkdir()
        result, error = run_child({**request, "trace": traced}, child_dir, env)
        if error is not None:
            return {"traced": traced, "error": error}
        seconds += result["run_s"]
        peak = max(peak, result["peak_rss_mb"])
        if traced:
            summaries.append(result["layers"])
    try:
        outcome = workloads.check(name, inputs, op_dir)
    except (OSError, KeyError, ValueError) as exc:
        return {"traced": traced, "error": f"output check could not run: {exc!r}"}
    return {
        "traced": traced,
        "run_s": seconds,
        "peak_rss_mb": peak,
        "layers": tracing.layer_metrics(tracing.merge_summaries(summaries)) if traced else None,
        "outcome": outcome,
        "error": "; ".join(outcome.errors) or None,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "chordbalance" / "__init__.py").is_file():
        print(f"error: no chordbalance sources under {SRC}", file=sys.stderr)
        return 2
    # Pin BLAS before numpy loads, here and in every child process.
    env = dict(os.environ)
    for var in _BLAS_ENV:
        os.environ[var] = env[var] = str(BLAS_THREADS)
    env.pop("PYTHONPATH", None)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    work = WORK / args.workload
    if work.exists():
        shutil.rmtree(work)
    setup_s, setup_layers = [], []
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        inputs = workloads.setup(args.workload, args.seed, work / "inputs")
        setup_s.append(time.perf_counter() - started)
        setup_layers.append(inputs.setup_layers)

    ops: list[dict] = []
    # A traced run alternates untraced and traced operations, in whole pairs.
    step, min_ops = (2, 2 * MIN_TRACED_PAIRS) if args.trace else (1, MIN_OPS)
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(ops) % 2 == 1
        ops.append(run_operation(args.workload, inputs, work / f"op{len(ops)}", traced, env))
        elapsed = time.perf_counter() - started
        if (len(ops) >= min_ops and len(ops) % step == 0
                and elapsed * (len(ops) + step) / len(ops) > args.seconds):
            break

    good = [op for op in ops if op["error"] is None]
    if good:
        reference = good[0]["outcome"].fingerprint
        for op in good[1:]:
            if op["outcome"].fingerprint != reference:
                op["error"] = "outputs differ from the first operation of this run"
    failed = [op for op in ops if op["error"] is not None]
    good = [op for op in ops if op["error"] is None]
    first = good[0]["outcome"] if good else None

    def median(key, traced):
        values = [op[key] for op in good if op["traced"] == traced]
        return statistics.median(values) if values else 0.0

    if args.trace:
        units = tracing.PER_LAYER
        layers = [op["layers"] for op in good if op["traced"]]
        metrics = ({key: statistics.median(values[key] for values in layers) for key in layers[0]}
                   if layers else dict.fromkeys(units, 0.0))
        for key in ("synth.generate_s", "synth.save_s"):
            metrics[key] = statistics.median(values.get(key, 0.0) for values in setup_layers)
        # Overhead: each traced operation against the untraced one just before it.
        pairs = [t["run_s"] - u["run_s"] for u, t in zip(ops[::2], ops[1::2])
                 if u["error"] is None and t["error"] is None]
        metrics["trace.run_s"] = median("run_s", True)
        metrics["trace.overhead_s"] = statistics.median(pairs) if pairs else 0.0
        metrics["trace.overhead_pairs"] = len(pairs)
    else:
        units = END_TO_END
        metrics = {
            "run_s": median("run_s", False),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": median("peak_rss_mb", False),
            "acqa_best": first.acqa_best if first else 0.0,
            "wcsr_best": first.wcsr_best if first else 0.0,
        }
    if metrics.keys() != units.keys():
        raise RuntimeError(f"metrics {sorted(metrics.keys() ^ units.keys())} do not match BENCHMARK.json")
    metrics = {key: metrics[key] for key in units}

    print("detail " + json.dumps({
        "machine": machine_facts(),
        "fingerprint": first.fingerprint if first else None,
        "lift": first.lift if first else None,
        "ops": [{"traced": op["traced"], "run_s": op.get("run_s"), "error": op["error"]} for op in ops],
    }, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} operations, "
          f"{len(failed)} failed (failed_ops {len(failed) / len(ops):.3f} ratio)")
    print("  run_s per operation: " + " ".join(
        f"{op['run_s']:.3f}{'t' if op['traced'] else ''}" for op in good))
    for op in failed:
        print(f"  failed: {op['error']}")
    if first and first.lift is not None:
        print(f"  acqa lift of the best round over the baseline: {first.lift:+.4f}")
    for key, value in metrics.items():
        print(f"  {key:<38} {value:>16.6f} {units[key]}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
