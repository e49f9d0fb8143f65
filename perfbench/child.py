"""Run one timed chordbalance operation in a fresh process.

Usage: python3 child.py <request.json>

The request names the source tree to import from, the operation
(``experiment``: one ``run_experiment`` from a config JSON; ``cli``: one
``chordbalance`` command line) and where to write the result JSON.  The
result holds the operation's wall seconds (interpreter start-up and
package import excluded), the CLI exit code, the process's peak resident
memory and, for traced requests, the tracer's summed span times and counters.  Spans of a
traced request are written to ``spans.jsonl`` beside the result.
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
from pathlib import Path


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text("utf-8"))
    sys.path.insert(0, request["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from chordbalance import cli, focal, pipeline

    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        focal.reset_clamp_count()

    result_path = Path(request["result"])
    exit_code = 0
    rounds = 0
    if request["op"] == "experiment":
        config = pipeline.ExperimentConfig.from_json(request["config"])
        started = time.perf_counter()
        if tracer is None:
            reports = pipeline.run_experiment(config, request["out"])
        else:
            reports = tracer.call("pipeline.run_experiment", pipeline.run_experiment,
                                  config, request["out"])
        seconds = time.perf_counter() - started
        rounds = len(reports) - 1
    else:
        argv = request["argv"]
        with open(request["stdout"], "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
            started = time.perf_counter()
            if tracer is None:
                exit_code = cli.main(argv)
            else:
                exit_code = tracer.call(request["span"], cli.main, argv)
            seconds = time.perf_counter() - started

    result = {
        "run_s": seconds,
        "exit": exit_code,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": None,
    }
    if tracer is not None:
        tracer.uninstall()
        tracer.counts["focal.clamp_count"] = focal.clamp_count()
        tracer.counts["pipeline.rounds"] = rounds
        tracer.write_spans(result_path.with_name("spans.jsonl"))
        result["layers"] = tracer.summary()
    result_path.write_text(json.dumps(result), "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
