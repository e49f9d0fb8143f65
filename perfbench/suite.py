"""Run sets of benchmark runs, compare two sets, and re-check exact counts.

From the root of a source checkout:

    python3 perfbench/suite.py run --runs 10 --out .perfbench/results/base.json
    python3 perfbench/suite.py run --runs 3 --trace 1 --out .perfbench/results/trace.json
    python3 perfbench/suite.py compare .perfbench/results/base.json .perfbench/results/new.json
    python3 perfbench/suite.py recount --workload labtools --seed 1

``run`` calls ``run.py`` for every workload of ``BENCHMARK.json`` on
seeds 1 to ``--runs``, each run in a fresh process and one at a time,
prints one table per workload (median, quartiles and sample count of
every metric, plus ``failed_ops``), and writes the runs and the machine
facts to a result file.  ``compare`` judges a new set against a base set
per workload and metric with the bounds of ``BENCHMARK.json``, and
requires every seed's outputs (the ``reports.json`` hash, or the hash of
the ``labtools`` outputs) to be unchanged.  ``recount`` makes two traced runs on one
seed, requires every exact count to be identical and prints the
per-layer table with each layer's share of the traced ``run_s``.

pytest-benchmark is not used: every run happens in fresh processes
outside pytest, and its fixtures would time only in-process calls.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

# Facts that must match for two sets to be compared.
_COMPARABLE = ("blas_threads", "nproc", "python", "numpy", "scipy")
WORKLOADS = [w["name"] for w in tracing.BENCHMARK["workloads"]]


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return {"seed": seed, **detail, **result}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def print_table(name: str, runs: list[dict], bounds: dict[str, float]) -> None:
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"\n== {name}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}")
    print(f"  {'metric':<38} {'unit':<9} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'spread':>8} {'bound':>6}")
    traced_run_s = None
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        unit = runs[0]["metrics"][metric]["unit"]
        q1, median, q3 = quartiles(values)
        if metric == "trace.run_s":
            traced_run_s = median
        bound = bounds.get(metric)
        flag = "" if bound is None or spread(values) <= bound / 3 else "  <- spread above bound/3"
        print(f"  {metric:<38} {unit:<9} {len(values):>3} {median:>14.6f} {q1:>14.6f} {q3:>14.6f} "
              f"{spread(values):>8.4f} {bound if bound is not None else '':>6}{flag}")
    print(f"  {'failed_ops':<38} {'ratio':<9} {len(runs):>3} {failed / attempted:>14.6f}"
          f"   ({failed} of {attempted} operations)")
    lifts = [r["lift"] for r in runs if r["lift"] is not None]
    if lifts:
        print(f"  self-training beat the baseline on {sum(x > 0 for x in lifts)} of {len(lifts)} seeds "
              f"(smallest lift {min(lifts):+.4f})")
    if traced_run_s:
        print("  share of traced run_s:")
        for metric, unit in tracing.PER_LAYER.items():
            if unit == "s" and metric not in ("trace.run_s", "trace.overhead_s",
                                              "synth.generate_s", "synth.save_s"):
                share = statistics.median(r["metrics"][metric]["value"] for r in runs) / traced_run_s
                if share >= 0.005:
                    print(f"    {metric:<36} {share:7.1%}")


def cmd_run(args) -> int:
    bounds = {m["name"]: m["bound"] for m in tracing.BENCHMARK["end_to_end"]} if not args.trace else {}
    result = {"seconds": args.seconds, "trace": args.trace, "machine": None, "workloads": {}}
    for name in WORKLOADS:
        runs = []
        for seed in range(1, args.runs + 1):
            run = one_run(name, seed, args.seconds, args.trace)
            if result["machine"] is None:
                result["machine"] = run["machine"]
            elif run["machine"] != result["machine"]:
                print(f"FLAG: machine facts changed within the set at {name} seed {seed}: "
                      f"{run['machine']}", file=sys.stderr)
            for op in run["ops"]:
                if op["error"] is not None:
                    print(f"{name} seed {seed} failed: {op['error']}")
            runs.append(run)
        result["workloads"][name] = [{k: v for k, v in r.items() if k != "machine"} for r in runs]
        print_table(name, runs, bounds)
    print(f"\nmachine {json.dumps(result['machine'], sort_keys=True)}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", "utf-8")
        print(f"wrote {out}")
    return 0


def cmd_compare(args) -> int:
    base = json.loads(Path(args.base).read_text("utf-8"))
    new = json.loads(Path(args.new).read_text("utf-8"))
    status = 0
    for fact in _COMPARABLE:
        if base["machine"].get(fact) != new["machine"].get(fact):
            print(f"FLAG: {fact} differs ({base['machine'].get(fact)} vs {new['machine'].get(fact)}); "
                  "the sets were not recorded under the same conditions")
            status = 1
    if base["seconds"] != new["seconds"] or base["trace"] or new["trace"]:
        print("FLAG: compare untraced sets recorded with the same --seconds")
        status = 1
    metrics = tracing.BENCHMARK["end_to_end"]
    print(f"{'workload':<11} {'metric':<12} {'base':>12} {'new':>12} {'gain':>8} "
          f"{'bound':>6} {'spread':>7}  verdict")
    for name in base["workloads"]:
        if name not in new["workloads"]:
            print(f"{name:<11} missing from the new set")
            status = 1
            continue
        for m in metrics:
            b = [r["metrics"][m["name"]]["value"] for r in base["workloads"][name]]
            n = [r["metrics"][m["name"]]["value"] for r in new["workloads"][name]]
            b_med, n_med = statistics.median(b), statistics.median(n)
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
            if worse > m["bound"]:
                verdict = "REGRESSION"
                status = 1
            elif spread(b) > m["bound"] and not all(sign * (x - y) < 0 for x in n for y in b):
                verdict = "unresolved (base spread above bound)"
            elif worse < -spread(b):
                verdict = "better"
            else:
                verdict = "no change within bound"
            print(f"{name:<11} {m['name']:<12} {b_med:>12.6g} {n_med:>12.6g} {-worse:>+8.2%} "
                  f"{m['bound']:>6} {spread(b):>7.3f}  {verdict}")
        # Outputs are deterministic per seed: any change of results shows here,
        # however small its effect on the medians of acqa_best and wcsr_best.
        base_prints = {r["seed"]: r["fingerprint"] for r in base["workloads"][name]}
        changed = [r["seed"] for r in new["workloads"][name]
                   if r["seed"] in base_prints and r["fingerprint"] != base_prints[r["seed"]]]
        if changed:
            print(f"{name:<11} outputs differ from the base on seeds {changed}: results changed")
            status = 1
        base_failed = sum(r["failed"] for r in base["workloads"][name])
        new_failed = sum(r["failed"] for r in new["workloads"][name])
        if new_failed > base_failed:
            print(f"{name:<11} failed_ops rose from {base_failed} to {new_failed}")
            status = 1
    return status


def cmd_recount(args) -> int:
    first, second = (one_run(args.workload, args.seed, args.seconds, 1) for _ in range(2))
    exact = tracing.EXACT
    differ = [name for name in exact
              if first["metrics"][name]["value"] != second["metrics"][name]["value"]]
    print_table(args.workload, [first, second], {})
    for name in differ:
        print(f"  {name} differs: {first['metrics'][name]['value']!r} "
              f"vs {second['metrics'][name]['value']!r}")
    ok = not differ and first["correct"] and second["correct"]
    print(f"{args.workload} seed {args.seed}: {len(exact) - len(differ)} of {len(exact)} exact counts "
          f"identical across two traced runs; {'ok' if ok else 'FAILED'}")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("run", help="run every workload on several seeds")
    p.add_argument("--runs", type=int, default=10, help="seeds 1 to RUNS")
    p.add_argument("--seconds", type=int, default=tracing.BENCHMARK["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="result file to write")
    p.set_defaults(func=cmd_run)
    p = sub.add_parser("compare", help="compare a new result set against a base set")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(func=cmd_compare)
    p = sub.add_parser("recount", help="require identical exact counts across two traced runs")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=tracing.BENCHMARK["run_seconds"])
    p.set_defaults(func=cmd_recount)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
