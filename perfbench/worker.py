"""One pass of one workload, in a process of its own.

Prints one JSON line: set-up time (import plus input generation), the
wall time of the workload call, the process's peak RSS, the output gate's
tally and, when traced, the tracer's per-function stats, counts and spans.
run.py starts one of these per pass, so each pass pays its own import and
has its own peak RSS.
"""

from __future__ import annotations

import argparse
import json
import resource
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import workloads

    make_inputs, run, check, units = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed)
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    t1 = time.perf_counter()
    output = run(inputs)
    wall_s = time.perf_counter() - t1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tally = {"attempted": 0, "failed": 0, "messages": []}

    def gate(ok: bool, message: str) -> None:
        tally["attempted"] += 1
        if not ok:
            tally["failed"] += 1
            tally["messages"].append(message)

    check(inputs, output, gate)
    record = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "units": units(output),
        "peak_rss_mb": peak_rss_mb,
        **tally,
    }
    if tracer is not None:
        record["stats"] = tracer.stats
        record["counts"] = dict(tracer.counts)
        record["spans"] = tracer.spans
    print(json.dumps(record))


if __name__ == "__main__":
    main()
