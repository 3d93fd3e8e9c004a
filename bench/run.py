"""The multinerve benchmark.

    python3 bench/run.py --workload projection --seed 1 --seconds 20 --trace 0

Runs one workload (projection, oracle or small-spaces; see NOTES.md) as a
closed loop with one client: sequential in-process `mnv` calls, each one
`multinerve.cli.main(argv)` with stdout captured and checked against the
output recorded in bench/reference/.  The workload runs in a child process
(child.py) that caps its own address space; this process reads its reports,
takes its peak RSS, and prints a run header, a table of metrics with units,
and, as the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced pass (spans.py), and the run header gives
the tracing overhead.  Times are read on a clock that runs at a reference
CPU speed (workloads.RefClock); the header gives raw wall and CPU times too.
Exit code 2, with no result, when the program or the reference cannot be
found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import REFERENCE_DIR, ROOT, WORKLOADS, source_info

BENCH_DIR = Path(__file__).resolve().parent
# the whole run, child included, ends well inside 180 s
DEADLINE_S = 170.0
TAIL_BEYOND = 10

END_TO_END_UNITS = {"setup_s": "s", "batch_s": "s", "instance_p50_ms": "ms",
                    "instance_tail_ms": "ms", "peak_rss_mb": "MB"}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def tail_rank(n: int) -> int:
    """1-based rank of the tail sample: the highest with TAIL_BEYOND samples
    above it, and never below the median when a pass is that small."""
    return min(n, max(n // 2 + 1, n - TAIL_BEYOND))


class ChildRun:
    """Reports read from the child, grouped into passes."""

    def __init__(self):
        self.setup: dict | None = None
        self.trace: dict | None = None
        self.error: str | None = None
        self.done = False
        self.passes: list[dict] = []  # the child's pass report, plus "ms"
        self.current: list[dict] = []
        self.failures: list[dict] = []

    def feed(self, msg: dict) -> None:
        kind = msg["type"]
        if kind == "call":
            self.current.append(msg)
            if not msg["ok"]:
                self.failures.append(msg)
        elif kind == "pass":
            self.passes.append({**msg, "ms": [c["ms"] for c in self.current]})
            self.current = []
        elif kind == "setup":
            self.setup = msg
        elif kind == "trace":
            self.trace = msg
        elif kind == "error":
            self.error = msg["message"]
        elif kind == "done":
            self.done = True


def run_child(argv: list[str], deadline: float, run: ChildRun) -> tuple[int | None, bool]:
    """Run the child to the end or the deadline; returns (exit code, killed)."""
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE)
    killed = False
    buf = b""
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            while True:
                left = deadline - time.monotonic()
                if left <= 0:
                    proc.kill()
                    killed = True
                    break
                if not sel.select(timeout=min(left, 1.0)):
                    continue
                chunk = os.read(proc.stdout.fileno(), 1 << 16)
                if not chunk:
                    break
                buf += chunk
                *lines, buf = buf.split(b"\n")
                for line in lines:
                    run.feed(json.loads(line))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    return proc.returncode, killed


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    started = time.monotonic()

    if not (ROOT / "src" / "multinerve" / "cli.py").is_file():
        return fail(f"program not found: {ROOT / 'src' / 'multinerve'}")
    if not (REFERENCE_DIR / f"{args.workload}.json").is_file():
        return fail(f"no recorded reference for {args.workload} in {REFERENCE_DIR}")

    work = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = BENCH_DIR / ".out"
    work.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    trace_out = out_dir / f"trace-{args.workload}.tsv.gz"
    run = ChildRun()
    try:
        code, killed = run_child(
            [sys.executable, str(BENCH_DIR / "child.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work),
             "--trace-out", str(trace_out)],
            started + DEADLINE_S, run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    if run.error is not None:
        return fail(run.error)
    if run.setup is None:
        return fail(f"the workload process ended (exit {code}) before its set-up finished")

    # a call cut off by a kill or crash counts as attempted and failed
    cut_off = 1 if not run.done else 0
    attempted = sum(len(p["ms"]) for p in run.passes) + len(run.current) + cut_off
    failed = len(run.failures) + cut_off
    untraced = [p for p in run.passes if not p["traced"]]
    if not untraced:
        # not even one whole pass: report the part that ran
        ms = [c["ms"] for c in run.current] or [0.0]
        untraced = [{"ref_s": sum(ms) / 1000.0, "ms": ms,
                     "raw_s": sum(c["raw_ms"] for c in run.current) / 1000.0,
                     "cpu_s": sum(c["cpu_ms"] for c in run.current) / 1000.0}]
    n_calls = len(untraced[0]["ms"])
    rank = tail_rank(n_calls)
    e2e = {
        "setup_s": run.setup["setup_s"],
        "batch_s": statistics.median(p["ref_s"] for p in untraced),
        "instance_p50_ms": statistics.median(statistics.median(p["ms"]) for p in untraced),
        "instance_tail_ms": statistics.median(sorted(p["ms"])[rank - 1] for p in untraced),
        "peak_rss_mb": peak_rss_mb,
    }
    correct = run.done and failed == 0 and not run.setup["bad_inputs"]

    wl = WORKLOADS[args.workload]
    header = {
        "workload": args.workload, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, **source_info(),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loop": "closed, 1 client, sequential in-process calls",
        "generators": [{"backend": b, "args": list(g), "candidates": n}
                       for b, g, n in wl.generators],
        "instances": run.setup["instances"],
        "calls_per_pass": run.setup["calls_per_pass"],
        "untraced_passes": len(untraced),
        "traced_passes": sum(1 for p in run.passes if p["traced"]),
        "tail_percentile": round(100.0 * rank / n_calls, 2),
        "import_s": run.setup["import_s"],
        "setup_rounds_s": run.setup["rounds_s"],
        "raw_setup_rounds_s": run.setup["raw_rounds_s"],
        "setup_write_s": run.setup["write_s"],
        "pass_batch_s": [p["ref_s"] for p in untraced],
        "raw_batch_s": [p["raw_s"] for p in untraced],
        "cpu_batch_s": [p["cpu_s"] for p in untraced],
        "address_space_limit_mb": run.setup["address_space_limit"] >> 20,
        "bad_inputs": run.setup["bad_inputs"],
        "child_exit": code, "killed": killed,
    }
    if run.trace is not None:
        header["trace_overhead_s"] = run.trace["metrics"]["trace.overhead_s"]
        header["spans"] = run.trace["spans"]
        header["spans_file"] = str(Path(run.trace["spans_file"]).relative_to(ROOT))
    print("header: " + json.dumps(header))
    for f in run.failures[:10]:
        print(f"bench: failed call {f['instance']}: {' '.join(f['argv'])}: {f['why']}",
              file=sys.stderr)

    rows = [(k, v, END_TO_END_UNITS[k]) for k, v in e2e.items()]
    rows.append(("failed_ratio", failed / attempted, "1"))
    for name, value, unit in rows:
        print(f"{name:<18} {value:>14.6g} {unit}")
    print(f"{'':<18} {failed} failed of {attempted} calls; tail is "
          f"p{header['tail_percentile']} of {n_calls} calls per pass, "
          f"{len(untraced)} pass(es)")

    if args.trace:
        from spans import metric_names
        values = run.trace["metrics"] if run.trace else {}
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit in metric_names()}
        correct = correct and run.trace is not None
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
