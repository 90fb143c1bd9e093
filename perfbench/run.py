#!/usr/bin/env python3
"""Build and run manymap's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds the
benchmark package (perfbench/CMakeLists.txt, which compiles ../src) into
$CARGO_TARGET_DIR (default .bench_build); later calls rebuild only what
changed. The last line of standard output is the run's JSON result.

--smoke runs every workload named in BENCHMARK.json at tiny size, traced
and untraced, and checks that each run passes its correctness checks and
emits exactly the metrics BENCHMARK.json lists, with the same units.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def build_dir() -> Path:
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build() -> Path:
    """Configure once, then build the driver; build logs go to stderr."""
    bdir = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: manymap sources (src/) not found next to perfbench/")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(bdir), "--target", "manymap_perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(cmd)}")
    return bdir / "manymap_perfbench"


def command(binary: Path, workload: str, seed: int, seconds: float, trace: int,
            smoke: bool) -> list:
    workdir = build_dir() / "work"
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds",
           str(seconds), "--trace", str(trace), "--workdir", str(workdir)]
    return cmd + (["--smoke"] if smoke else [])


def smoke(binary: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            run = subprocess.run(command(binary, workload, 1, 1, trace, True),
                                 stdout=subprocess.PIPE, text=True)
            where = f"{workload} --trace {trace}"
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                problems.append(f"{where}: exit {run.returncode}")
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["attempted"] < 1:
                problems.append(f"{where}: correctness checks failed")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            for name in sorted(want.keys() - got.keys()):
                problems.append(f"{where}: metric {name} missing")
            for name in sorted(got.keys() - want.keys()):
                problems.append(f"{where}: metric {name} not in BENCHMARK.json")
            for name in sorted(want.keys() & got.keys()):
                if want[name] != got[name]:
                    problems.append(f"{where}: {name} unit {got[name]} != {want[name]}")
            print(f"smoke {where}: {len(got)} metrics, correct={result['correct']}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    print("smoke: OK" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        parser.error("--workload is required")
    cmd = command(binary, args.workload, args.seed, args.seconds, args.trace, False)
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
