"""Record the instance pools and reference outputs: bench/reference/*.json.

    python3 bench/record.py [workload ...]

Run at the commit whose outputs are the reference.  For each workload it
generates the candidate instances in order and runs every call of each one
twice in-process.  It keeps the exit code and a digest of stdout, and takes
the faster of the two timings on the reference clock (workloads.RefClock)
as the call's cost.  A third run of the first command, under tracemalloc,
gives the instance's peak memory.  Instances with a call slower than MAX_CALL_S are left
out, so that no single call dominates a pass; they are listed in the file.  The rest are paired by cost
and memory (pair_up), and instances without a partner are dropped.  A rerun
at a later commit whose outputs changed on purpose replaces the reference.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import sys
import tempfile
import tracemalloc
from pathlib import Path

from workloads import (REFERENCE_DIR, ROOT, WORKLOADS, RefClock, command_key,
                       digest, input_text, item_commands, run_call, source_info)

MAX_CALL_S = 2.0
# largest difference in the cost of one command, or in peak memory, as a
# share of the larger, between the two instances of a pair
MAX_PAIR_GAP = 0.08


class _TooSlow(Exception):
    pass


def _alarm(signum, frame):
    raise _TooSlow()


def timed_twice(main, argv, clock):
    """Two runs of one call, or None when the first is cut off."""
    signal.setitimer(signal.ITIMER_REAL, 3 * MAX_CALL_S)
    try:
        first = run_call(main, argv, clock)
    except _TooSlow:  # fired between the call's end and the reset below
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    if first.error and first.error.startswith("_TooSlow"):
        return None
    return [first, run_call(main, argv, clock)]


def _close(a: float, b: float, floor: float = 0.005) -> bool:
    return abs(a - b) <= max(MAX_PAIR_GAP * max(a, b), floor)


def pair_up(items: list[dict]) -> list[list[int]]:
    """Pairs of instances that a seed chooses between.

    The two members share backend and emptiness, so the same commands run.
    Each command's recorded cost differs by at most MAX_PAIR_GAP of the
    larger (or 5 ms), and so does the peak of traced memory (or 1.5 MB).
    Matching each command keeps the median and tail calls of a pass steady,
    and matching memory keeps the peak RSS of a run steady.  Each instance,
    in order of total cost, is matched with the first close instance among
    the next few; unmatched instances are left out.  Pairs are ordered by
    how far into its generator's sequence their later member came, so that
    any prefix keeps the generators' mix.
    """
    groups: dict[tuple, list[int]] = {}
    position: dict[int, float] = {}
    for backend in {it["backend"] for it in items}:
        mine = [i for i, it in enumerate(items) if it["backend"] == backend]
        position.update((i, k / len(mine)) for k, i in enumerate(mine))
    for i, it in enumerate(items):
        groups.setdefault((it["backend"], it["empty"]), []).append(i)
    pairs = []
    for members in groups.values():
        members.sort(key=lambda i: (items[i]["cost_s"], items[i]["id"]))
        free = list(members)
        while free:
            a = free.pop(0)
            for b in free[:6]:
                if all(_close(c, items[b]["call_costs"][k])
                       for k, c in items[a]["call_costs"].items()) \
                        and _close(items[a]["peak_mb"], items[b]["peak_mb"], 1.5):
                    pairs.append([a, b])
                    free.remove(b)
                    break
    return sorted(pairs, key=lambda p: (max(position[i] for i in p), p))


def peak_traced_mb(main, argv, clock) -> float:
    """Peak of memory traced by tracemalloc during one more run of a call."""
    tracemalloc.start()
    try:
        run_call(main, argv, clock)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def candidates(wl):
    """Instance specs in a fixed order, alternating between generators."""
    k = 0
    while True:
        for backend, gen, _ in wl.generators:
            if backend == "space":
                yield {"id": f"s{k}", "backend": "duplicated" if k % 2 else "complex",
                       "input": {"space_seed": k, "duplicated": k % 2 == 1}}
            else:
                yield {"id": f"{backend}-{k}", "backend": backend,
                       "input": {"gen": list(gen), "seed": k}}
        k += 1


def record(name: str, main, clock, work: Path) -> dict:
    from multinerve.families import region_is_empty
    from multinerve.formats import parse_family

    wl = WORKLOADS[name]
    want = {"space" if b == "space" else b: n for b, _, n in wl.generators}
    items, excluded = [], []
    for item in candidates(wl):
        gen_key = item["backend"] if item["backend"] in want else "space"
        if not any(want.values()):
            break
        if want[gen_key] == 0:
            continue
        want[gen_key] -= 1
        text = input_text(item, main, clock)
        path = work / "input"
        path.write_text(text, encoding="utf-8")
        empty = False
        if wl.if_empty:
            F = parse_family(text, str(path))
            empty = region_is_empty(F, range(len(F)))
        refs, costs, peak = {}, {}, 0.0
        for tpl in item_commands(wl, empty):
            argv = [str(path) if a == "{input}" else a for a in tpl]
            runs = timed_twice(main, argv, clock)
            if runs is None or min(r.ref_seconds for r in runs) > MAX_CALL_S:
                costs = None
                break
            if any(r.error for r in runs):
                raise RuntimeError(f"{item['id']} {tpl}: {runs[0].error}")
            if len({(r.code, digest(r.stdout)) for r in runs}) != 1:
                raise RuntimeError(f"{item['id']} {tpl}: output not deterministic")
            refs[command_key(tpl)] = [runs[0].code, digest(runs[0].stdout)]
            costs[command_key(tpl)] = round(min(r.ref_seconds for r in runs), 5)
            if not peak:  # the first command builds the largest structures
                peak = peak_traced_mb(main, argv, clock)
        if costs is None:
            excluded.append(item["id"])
            continue
        cost = sum(costs.values())
        item.update(input_digest=digest(text), empty=empty, cost_s=round(cost, 5),
                    peak_mb=round(peak, 2), call_costs=costs, refs=refs)
        items.append(item)
        print(f"{name}: {item['id']} {cost:.3f}s", file=sys.stderr)
    pairs = pair_up(items)
    for item in items:
        del item["call_costs"]  # only the pairing needs them
    kept = sorted(i for p in pairs for i in p)
    new_index = {old: new for new, old in enumerate(kept)}
    return {
        "workload": name,
        "recorded": {**source_info(), "python": platform.python_version(),
                     "nproc": os.cpu_count(), "max_call_s": MAX_CALL_S,
                     "candidates": len(items) + len(excluded),
                     "unpaired": len(items) - len(kept)},
        "excluded": excluded,
        "pairs": [[new_index[i] for i in p] for p in pairs],
        "items": [items[i] for i in kept],
    }


def write_pool(pool: dict) -> Path:
    out = REFERENCE_DIR / f"{pool['workload']}.json"
    with open(out, "w", encoding="utf-8") as fh:
        # one instance per line keeps re-recorded files diffable
        fh.write("{\n")
        for key in ("workload", "recorded", "excluded", "pairs"):
            fh.write(f"  {json.dumps(key)}: {json.dumps(pool[key])},\n")
        fh.write('  "items": [\n')
        fh.write(",\n".join("    " + json.dumps(it, sort_keys=True)
                            for it in pool["items"]))
        fh.write("\n  ]\n}\n")
    return out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from multinerve.cli import main as mnv_main

    signal.signal(signal.SIGALRM, _alarm)
    REFERENCE_DIR.mkdir(exist_ok=True)
    (ROOT / "bench" / ".work").mkdir(exist_ok=True)
    clock = RefClock()
    clock.start()
    try:
        with tempfile.TemporaryDirectory(dir=ROOT / "bench" / ".work") as tmp:
            for name in sys.argv[1:] or list(WORKLOADS):
                pool = record(name, mnv_main, clock, Path(tmp))
                out = write_pool(pool)
                print(f"wrote {out.relative_to(ROOT)}: {len(pool['items'])} "
                      f"instances, {len(pool['pairs'])} pairs", file=sys.stderr)
    finally:
        # an armed timer would kill the interpreter on its way out
        clock.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
