#!/usr/bin/env python3
"""Builds and runs the layered audit benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Configures and builds perfbench/ (which compiles the engine libraries from
src/) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
one workload in one process, and relays its output. The last line of
standard output is the result object {"correct", "attempted", "failed",
"metrics"}; it is printed only when the run reported exactly the metrics
BENCHMARK.json lists for the trace mode (end_to_end for --trace 0,
per_layer for --trace 1). Every file the run writes stays under the build
directory and is removed when the run ends.
"""
import argparse
import gzip
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def build(build_dir):
    """Configures on first use, then builds incrementally. Output -> stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def unpack_dimacs(build_dir):
    """Decompresses the checked-in SAT inputs (dimacs/*.cnf.gz) once."""
    out = build_dir / "dimacs"
    out.mkdir(exist_ok=True)
    for packed in sorted((HERE / "dimacs").glob("*.cnf.gz")):
        target = out / packed.name[:-len(".gz")]
        if target.exists() and target.stat().st_mtime >= packed.stat().st_mtime:
            continue
        partial = target.with_suffix(".partial")
        with gzip.open(packed, "rb") as src, open(partial, "wb") as dst:
            shutil.copyfileobj(src, dst)
        partial.replace(target)
    return out


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"engine sources not found under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else ROOT / target)
    build_dir = build_dir / "perfbench"
    try:
        binary = build(build_dir)
        dimacs_dir = unpack_dimacs(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        return fail(f"build failed: {err}")

    work_dir = build_dir / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    env = dict(os.environ, TMPDIR=str(work_dir))
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir),
               "--dimacs-dir", str(dimacs_dir)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    if lines[:-1]:
        print("\n".join(lines[:-1]))
    if proc.returncode != 0:
        return fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return fail("no result line")
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = expected_metrics(args.trace)
    if reported != expected:
        missing = sorted(set(expected) - set(reported))
        extra = sorted(set(reported) - set(expected))
        return fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
                    f"unexpected {extra}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
