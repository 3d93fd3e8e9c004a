"""One workload run, in its own process: set-up, timed passes, tracing.

Started by run.py.  It caps its own address space first, so a region
blow-up in the program becomes a counted failure (MemoryError in the call)
instead of taking the machine's memory.  It reports to run.py as one JSON
object per line on stdout; the program's own output is captured per call
and never reaches that stream.

Times are read on workloads.RefClock, which runs at a reference CPU speed;
the raw wall times and the process's CPU times are reported as well.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import (BENCH_DIR, ROOT, WORKLOADS, RefClock, command_key,
                       digest, input_text, item_commands, load_pool, run_call,
                       select)

ADDRESS_SPACE_LIMIT = 1 << 30
# set-up rounds: at least SETUP_MIN_ROUNDS, then more until SETUP_ROUNDS_S
# of set-up has been timed, at most SETUP_MAX_ROUNDS
SETUP_MIN_ROUNDS = 3
SETUP_MAX_ROUNDS = 25
SETUP_ROUNDS_S = 2.0
IMPORT_SAMPLES = 5
# one import of the program in a fresh interpreter, in reference seconds:
# the wall time of the import at the rate of the reference clock, taken
# from the median of probes run just before and just after it
IMPORT_PROBE = (
    "import statistics, sys, time; sys.path[:0] = [{bench!r}, {src!r}]\n"
    "from workloads import PROBE_REF_S, probe\n"
    "probes = [probe() for _ in range(9)]\n"
    "t = time.perf_counter(); import multinerve.cli; t = time.perf_counter() - t\n"
    "probes += [probe() for _ in range(9)]\n"
    "print(t * PROBE_REF_S / statistics.median(probes))\n"
)

_out = sys.stdout


def send(kind: str, **fields) -> None:
    _out.write(json.dumps({"type": kind, **fields}) + "\n")
    _out.flush()


def setup(wl, picked: list[dict], main, clock, work: Path):
    """Generate and write every input, decide the conditional calls, warm up.

    Returns the call list [(instance id, argv, reference)], the ids of
    inputs whose digest differs from the recorded one, and the time spent
    writing files.  That time is the benchmark's own work and follows the
    machine's disk, so it is left out of setup_s.
    """
    from multinerve.families import region_is_empty
    from multinerve.formats import parse_family

    calls, bad_inputs, write_s = [], [], 0.0
    for item in picked:
        text = input_text(item, main, clock)
        if digest(text) != item["input_digest"]:
            bad_inputs.append(item["id"])
        suffix = "poset" if "space_seed" in item["input"] else "family"
        path = work / f"{item['id']}.{suffix}"
        t = clock.now()
        path.write_text(text, encoding="utf-8")
        write_s += clock.now() - t
        # the conditional calls are decided here, once, from the input
        empty = False
        if wl.if_empty:
            F = parse_family(text, str(path))
            empty = region_is_empty(F, range(len(F)))
        for tpl in item_commands(wl, empty):
            argv = [str(path) if a == "{input}" else a for a in tpl]
            calls.append((item["id"], argv, item["refs"].get(command_key(tpl))))
    cheapest = min(picked, key=lambda it: it["cost_s"])["id"]
    for iid, argv, _ in calls:
        if iid == cheapest:
            run_call(main, argv, clock)
    return calls, bad_inputs, write_s


def check(res, ref) -> str | None:
    """Why a call failed, or None."""
    if res.error is not None:
        return res.error
    if ref is None:
        return "no recorded reference"
    if res.code != ref[0]:
        return f"exit {res.code}, recorded {ref[0]}"
    if digest(res.stdout) != ref[1]:
        return "stdout differs from the recorded output"
    return None


def run_pass(calls, main, clock, traced: bool, tracer) -> dict:
    """Every call once, in order; each result is checked and reported."""
    t0 = time.perf_counter()
    raw_s = ref_s = cpu_s = 0.0
    for k, (iid, argv, ref) in enumerate(calls):
        if tracer is not None:
            tracer.call_index = k
        res = run_call(main, argv, clock)
        why = check(res, ref)
        msg = {"ms": res.ref_seconds * 1000.0, "raw_ms": res.seconds * 1000.0,
               "cpu_ms": res.cpu_seconds * 1000.0, "ok": why is None}
        if why is not None:
            msg.update(why=why, instance=iid, argv=argv)
        send("call", **msg)
        raw_s += res.seconds
        ref_s += res.ref_seconds
        cpu_s += res.cpu_seconds
    result = {"traced": traced, "wall_s": time.perf_counter() - t0,
              "raw_s": raw_s, "ref_s": ref_s, "cpu_s": cpu_s}
    send("pass", **result)
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--trace-out", required=True)
    args = ap.parse_args()

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = ADDRESS_SPACE_LIMIT if hard == resource.RLIM_INFINITY \
        else min(ADDRESS_SPACE_LIMIT, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))

    sys.path.insert(0, str(ROOT / "src"))
    clock = RefClock()
    clock.start()
    try:
        return measure(args, limit, clock)
    finally:
        # an armed timer would kill the interpreter on its way out
        clock.stop()


def import_times() -> list[float]:
    """Seconds to import the program, each in a fresh interpreter."""
    code = IMPORT_PROBE.format(bench=str(BENCH_DIR), src=str(ROOT / "src"))
    return [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                 capture_output=True, text=True,
                                 check=True).stdout)
            for _ in range(IMPORT_SAMPLES)]


def measure(args, limit: int, clock: RefClock) -> int:
    try:
        from multinerve.cli import main as mnv_main
    except ImportError as e:
        send("error", message=f"cannot import the program: {e}")
        return 2
    imports = import_times()

    wl = WORKLOADS[args.workload]
    picked = select(load_pool(args.workload), args.workload, args.seed,
                    args.seconds)
    rounds, raw_rounds, writes = [], [], []
    while len(rounds) < SETUP_MIN_ROUNDS or (
            sum(rounds) < SETUP_ROUNDS_S and len(rounds) < SETUP_MAX_ROUNDS):
        t, r = time.perf_counter(), clock.now()
        calls, bad_inputs, write_s = setup(wl, picked, mnv_main, clock,
                                           Path(args.work_dir))
        rounds.append(clock.now() - r - write_s)
        raw_rounds.append(time.perf_counter() - t)
        writes.append(write_s)
    send("setup", import_s=imports, rounds_s=rounds, raw_rounds_s=raw_rounds,
         write_s=writes,
         setup_s=statistics.median(imports) + statistics.median(rounds),
         instances=len(picked), calls_per_pass=len(calls),
         bad_inputs=bad_inputs, address_space_limit=limit)

    # a further pass starts only if it should end within the budget; a
    # traced run spends half the budget untraced, then traces
    start = time.perf_counter()
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = []
    while True:
        untraced.append(run_pass(calls, mnv_main, clock, False, None))
        if time.perf_counter() - start + untraced[-1]["wall_s"] > budget:
            break
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
        import multinerve.cli
        mnv_main = multinerve.cli.main  # the wrapped binding
        per_pass = []
        base = statistics.median(p["ref_s"] for p in untraced)
        while True:
            first = tracer.mark()
            p = run_pass(calls, mnv_main, clock, True, tracer)
            m = tracer.pass_metrics(first, p["ref_s"] / p["raw_s"])
            m["trace.batch_s"] = p["ref_s"]
            m["trace.overhead_s"] = p["ref_s"] - base
            per_pass.append(m)
            if time.perf_counter() - start + p["wall_s"] > args.seconds:
                break
        tracer.write(args.trace_out)
        send("trace", spans=tracer.mark(), spans_file=args.trace_out,
             metrics={k: statistics.median(p[k] for p in per_pass)
                      for k in per_pass[0]})
    send("done")
    return 0


if __name__ == "__main__":
    sys.exit(main())
