"""Self-test of the benchmark at tiny size (about a minute).

    python3 bench/selftest.py

Checks, for every workload, that a run prints all six end-to-end metrics
with their units and a last-line result matching BENCHMARK.json; that a
corrupted reference output is counted as a failure in failed_ratio; that a
traced run prints every per-layer metric of BENCHMARK.json and passes the
output check; and that a directory holding only BENCHMARK.json and bench/
makes the benchmark exit non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
WORK = BENCH_DIR / ".work" / "selftest"
SEED = 7
SIX = {"setup_s": "s", "batch_s": "s", "instance_p50_ms": "ms",
       "instance_tail_ms": "ms", "peak_rss_mb": "MB", "failed_ratio": "1"}


def bench(cwd: Path, workload: str, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def table(lines: list[str]) -> dict[str, tuple[float, str]]:
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 3 and parts[0] in SIX:
            out[parts[0]] = (float(parts[1]), parts[2])
    return out


def checkout(path: Path, with_src: bool) -> Path:
    """A copy of BENCHMARK.json and bench/, and of src/ when asked."""
    skip = shutil.ignore_patterns(".work", ".out", "__pycache__")
    path.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", path)
    shutil.copytree(BENCH_DIR, path / "bench", ignore=skip)
    if with_src:
        shutil.copytree(ROOT / "src", path / "src", ignore=skip)
    return path


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json names the workloads of workloads.py")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        # a checkout whose references have every recorded stdout of the
        # first command of each instance altered
        corrupt = checkout(WORK / "corrupt", with_src=True)
        for path in (corrupt / "bench" / "reference").glob("*.json"):
            pool = json.loads(path.read_text())
            for item in pool["items"]:
                first = next(iter(item["refs"]))
                item["refs"][first][1] = "0" * len(item["refs"][first][1])
            path.write_text(json.dumps(pool))

        for name in WORKLOADS:
            proc, lines = bench(ROOT, name)
            check(proc.returncode == 0, f"{name}: exit 0 ({proc.stderr.strip()[-300:]})")
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{name}: result keys")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1, f"{name}: outputs match the reference")
            check({k: v["unit"] for k, v in result["metrics"].items()} == e2e,
                  f"{name}: result metrics and units are those of BENCHMARK.json")
            check(all(v["value"] > 0 for v in result["metrics"].values()),
                  f"{name}: no end-to-end metric reads 0")
            shown = table(lines)
            check({k: u for k, (_, u) in shown.items()} == SIX,
                  f"{name}: all six end-to-end metrics printed with units")

            proc, lines = bench(corrupt, name)
            result = json.loads(lines[-1])
            check(proc.returncode == 0 and not result["correct"]
                  and result["failed"] >= 1 and table(lines)["failed_ratio"][0] > 0,
                  f"{name}: a corrupted reference output counts in failed_ratio "
                  f"({result['failed']} of {result['attempted']})")

        proc, lines = bench(ROOT, "small-spaces", 1)
        result = json.loads(lines[-1])
        check(proc.returncode == 0 and result["correct"] and result["failed"] == 0,
              "traced run passes the output check")
        check({k: v["unit"] for k, v in result["metrics"].items()} == per_layer,
              "traced run prints every per-layer metric of BENCHMARK.json")
        check(result["metrics"]["leray.leray_number.calls"]["value"] > 0,
              "traced run counts calls into the layers")

        proc, lines = bench(checkout(WORK / "bare", with_src=False), "projection")
        check(proc.returncode != 0 and not (lines and lines[-1].startswith("{")),
              "without the program: non-zero exit and no result")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
