"""Workload definitions, instance selection, input set-up and the timed call.

Every workload draws its instances from a pool recorded in
``bench/reference/<workload>.json`` by ``bench/record.py``.  The pool holds,
for each instance, how to generate its input, a digest of that input, the
exit code and stdout digest of every call at the recording commit, and the
cost of the instance when it was recorded.  The instances come in pairs of
nearly equal cost, and a run's seed picks one instance of each pair, so two
seeds get different instances and nearly the same work.  The number of pairs
used is sized from ``--seconds`` with the recorded costs, so the work done
does not depend on the speed of the program being measured.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import signal
import time
from dataclasses import dataclass
from pathlib import Path

import spaces

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
# share of --seconds that the recorded cost of one pass fills
PASS_SHARE = 0.6
# probe time at full speed (5th percentile) on a 2-vCPU Xeon at 2.0 GHz
PROBE_REF_S = 0.00045
TICK_S = 0.05


@dataclass(frozen=True)
class Workload:
    why: str
    # (backend, generator arguments, candidate instances); the "space"
    # generator is bench/spaces.py, the others are `mnv gen`
    generators: tuple[tuple[str, tuple[str, ...], int], ...]
    # argv templates run on every instance; "{input}" is the input file
    commands: tuple[tuple[str, ...], ...]
    # argv template added when the family's total intersection is empty
    if_empty: tuple[str, ...] | None
    # passes in a run at the recording commit; more, shorter passes give
    # medians that shrug off a slow moment, where calls are short enough
    passes: int = 1


WORKLOADS = {
    "projection": Workload(
        why="L/J/Helly enumeration over 6-9-vertex multinerves: j_index, "
            "sparse_rank and order_complex dominate; the family oracle is "
            "under 5%",
        generators=(
            ("subcomplex", ("--backend", "subcomplex", "--n", "5",
                            "--grid", "4", "--stars-per-member", "2"), 200),
            ("box", ("--backend", "box", "--n", "5", "--ambient-dim", "1",
                     "--boxes-per-member", "2"), 200),
        ),
        commands=tuple(("verify", "projection", "{input}", "--t", t)
                       for t in ("1", "2", "3")),
        if_empty=("verify", "helly", "{input}"),
    ),
    "oracle": Workload(
        why="2^n member subsets through the family oracle (region boxes, "
            "components, emptiness); leray is never called",
        # three subcomplex families per box family: the median call then
        # falls inside the subcomplex `verify multinerve` calls, not on the
        # boundary between two clusters of call times
        generators=(
            ("box", ("--backend", "box", "--n", "10", "--ambient-dim", "2",
                     "--boxes-per-member", "2"), 28),
            ("subcomplex", ("--backend", "subcomplex", "--n", "12",
                            "--grid", "7", "--stars-per-member", "3"), 84),
        ),
        commands=(("verify", "multinerve", "{input}", "--s", "0"),),
        if_empty=("helly", "{input}"),
    ),
    "small-spaces": Workload(
        why="thousands of 3-30 ms calls on 6-vertex posets, where fixed "
            "per-call costs (parsing, poset validation, chain complex "
            "set-up, argparse) dominate",
        generators=(("space", (), 1000),),
        commands=(("leray", "{input}"), ("j-index", "{input}"),
                  ("homology", "{input}")),
        if_empty=None,
        # the recorded cost of these few-millisecond calls, the faster of
        # two back-to-back runs, is about half of what they take in a pass;
        # eight planned passes come to about four in a run
        passes=8,
    ),
}


def item_commands(workload: Workload, empty: bool) -> list[tuple[str, ...]]:
    cmds = list(workload.commands)
    if empty and workload.if_empty:
        cmds.append(workload.if_empty)
    return cmds


def command_key(argv: list[str]) -> str:
    """Reference key of a call: its arguments without the input file."""
    return " ".join(a for a in argv if a != "{input}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


# ---------------------------------------------------------------------------
# the timed call


@dataclass
class CallResult:
    code: int | None
    stdout: str
    error: str | None  # set when the call raised
    seconds: float = 0.0  # wall time
    ref_seconds: float = 0.0  # on the reference clock
    cpu_seconds: float = 0.0  # CPU time of the process


def run_call(main, argv: list[str], clock: RefClock) -> CallResult:
    """One in-process `mnv` call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    t0, r0, c0 = time.perf_counter(), clock.now(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else 1
        res = CallResult(code, out.getvalue(), None)
    except Exception as e:  # a raising call is a counted failure, not a crash
        res = CallResult(None, out.getvalue(), f"{type(e).__name__}: {e}")
    res.seconds, res.ref_seconds = time.perf_counter() - t0, clock.now() - r0
    res.cpu_seconds = time.process_time() - c0
    return res


# Times are taken on a clock that runs at a reference CPU speed.  On a
# shared machine the speed available to one process can swing by 2x within
# seconds; a 2-vCPU virtual machine showed this with a fixed loop alone.
# Every TICK_S of CPU time a signal handler times a fixed pure-Python loop,
# ``probe``, and sets the clock's rate to PROBE_REF_S over that time.  A
# duration on this clock reads as wall seconds at the speed where the probe
# takes PROBE_REF_S.


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    t = time.perf_counter()
    d: dict = {}
    for i in range(1000):
        d[i % 97] = d.get(i % 97, 0) + i * 3 // 7
        frozenset((i, i + 1, i % 5))
    return time.perf_counter() - t


class RefClock:
    """Reference-speed seconds; the handler's own time is left out.

    A process runs at most one, between start() and stop(), because it
    takes SIGVTALRM.
    """

    def __init__(self):
        self.ref = 0.0
        self.last = time.perf_counter()
        self.rate = 1.0
        self.version = 0

    def _tick(self, signum=None, frame=None) -> None:
        ref = self.ref + (time.perf_counter() - self.last) * self.rate
        rate = PROBE_REF_S / probe()
        self.ref, self.last, self.rate = ref, time.perf_counter(), rate
        self.version += 1

    def start(self) -> None:
        self._tick()
        signal.signal(signal.SIGVTALRM, self._tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)

    def now(self) -> float:
        while True:
            version = self.version
            ref = self.ref + (time.perf_counter() - self.last) * self.rate
            if version == self.version:  # no tick in between
                return ref


# ---------------------------------------------------------------------------
# pools and selection


def load_pool(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def select(pool: dict, workload: str, seed: int, seconds: float) -> list[dict]:
    """The instances of one run, in call order: one of each pair in the
    shortest prefix of the pairs whose recorded cost fills PASS_SHARE of
    ``seconds`` in the workload's number of passes."""
    items, pairs = pool["items"], pool["pairs"]
    target = PASS_SHARE * seconds / WORKLOADS[workload].passes
    n, cost = 0, 0.0
    while n < len(pairs) and (n == 0 or cost < target):
        cost += sum(items[i]["cost_s"] for i in pairs[n]) / 2
        n += 1
    rng = random.Random(f"{workload}/{seed}")
    picked = [items[rng.choice(p)] for p in pairs[:n]]
    rng.shuffle(picked)
    return picked


# ---------------------------------------------------------------------------
# inputs


def input_text(item: dict, main, clock: RefClock) -> str:
    """Generate one instance's input file contents."""
    spec = item["input"]
    if "space_seed" in spec:
        return spaces.write_poset_v1(
            spaces.random_space(spec["space_seed"], spec["duplicated"]))
    res = run_call(main, ["gen", *spec["gen"], "--seed", str(spec["seed"])], clock)
    if res.code != 0:
        raise RuntimeError(f"mnv gen failed for {item['id']}: {res.error}")
    return res.stdout


# ---------------------------------------------------------------------------
# provenance


def source_info() -> dict:
    """The git commit when the checkout has one, and a digest of src/
    either way (benchmark checkouts need not be git repositories)."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.is_file():
                commit = loose.read_text().strip()
            elif (ROOT / ".git" / "packed-refs").is_file():
                for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
        else:
            commit = ref
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes())
    return {"commit": commit, "src_sha256": h.hexdigest()[:16]}
