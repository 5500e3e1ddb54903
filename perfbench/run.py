"""The patternforge benchmark.

    python3 perfbench/run.py --workload verify-21 --seed 1 --seconds 30 --trace 0

Runs passes of one workload, each in a fresh process (worker.py), for
--seconds, and at least MIN_PASSES of them: a pass starts only if it is
expected to end within --seconds, once MIN_PASSES have run.  Every pass's
output is gated (digests and oracle cross-checks, see workloads.py).

--trace 0 reports the end-to-end metrics, each the median over the run's
passes.  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus tracing_overhead_s, the traced
minus the untraced median wall time; it writes the traced passes' spans to
perfbench/out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-21", "trace-41", "oracles")
MIN_PASSES = 3
PASS_TIMEOUT_S = 150


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    # Passes import cached bytecode, as an installed package does, and hash
    # strings the same way every time.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PATTERNFORGE_THREADS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--trace", str(int(traced))]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, str]]:
    med = {key: statistics.median(p[key] for p in passes) for key in ("wall_s", "peak_rss_mb", "setup_s")}
    return {
        "wall_s": (med["wall_s"], "s"),
        "nodes_per_s": (statistics.median(p["units"] / p["wall_s"] for p in passes), "1/s"),
        "peak_rss_mb": (med["peak_rss_mb"], "MB"),
        "setup_s": (med["setup_s"], "s"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Times are medians over the traced passes; every other metric is an
    exact count or a ratio of counts, and any that does not repeat exactly
    across them is returned as the second item."""
    runs = [layer_metrics(p["stats"], p["counts"]) for p in traced]
    out = {}
    unsteady = []
    for name, (value, unit) in runs[0].items():
        values = [r[name][0] for r in runs]
        if unit == "s":
            value = statistics.median(values)
        elif len(set(values)) != 1:
            unsteady.append(f"{name} differs between traced passes: {values}")
        out[name] = (value, unit)
    overhead = statistics.median(p["wall_s"] for p in traced) - statistics.median(p["wall_s"] for p in plain)
    out["tracing_overhead_s"] = (overhead, "s")
    return out, unsteady


def write_spans(workload: str, seed: int, traced: list[dict]) -> Path:
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for n, p in enumerate(traced):
            origin = min((s[3] for s in p["spans"]), default=0.0)
            for span_id, parent, name, start, end in p["spans"]:
                row = {"pass": n, "id": span_id, "parent": parent, "name": name}
                row.update(start_s=start - origin, end_s=end - origin)
                fh.write(json.dumps(row) + "\n")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + args.seconds
    plain: list[dict] = []
    traced: list[dict] = []
    took: dict[bool, list[float]] = {False: [], True: []}
    while True:
        want_traced = bool(args.trace) and len(traced) < len(plain)
        enough = len(plain) >= MIN_PASSES and (not args.trace or len(traced) >= MIN_PASSES)
        # Start a pass only if it is expected to end before the deadline.
        if enough and time.monotonic() + statistics.median(took[want_traced]) > deadline:
            break
        t0 = time.monotonic()
        (traced if want_traced else plain).append(run_pass(args.workload, args.seed, want_traced))
        took[want_traced].append(time.monotonic() - t0)

    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    messages = [m for p in passes for m in p["messages"][:5]]
    if args.trace:
        metrics, unsteady = per_layer(plain, traced)
        attempted += 1
        failed += bool(unsteady)
        messages += unsteady
        print(f"spans: {os.path.relpath(write_spans(args.workload, args.seed, traced))}")
    else:
        metrics = end_to_end(plain)

    for message in messages:
        print(f"FAIL {message}")
    print(f"{args.workload} seed {args.seed}: {len(plain)} untraced, {len(traced)} traced passes; medians:")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:.6g} {unit}")
    print(f"  {'fail_frac':40s} {failed / attempted:.6g} ({failed} of {attempted} checks failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
