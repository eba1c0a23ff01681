#!/usr/bin/env python3
"""The taxitrace system benchmark: one command for every workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the library sources
under src/ with it) in Release into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that is unset, then runs the workload and
checks its output digests. Prints the environment, every metric by name
and unit, and as the last line one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

WORKLOADS = tuple(metrics.DIGEST_FAMILY)
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run_checked(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise BenchError("%s exited with %d" % (cmd[0], proc.returncode))
    return proc.stdout


def build(root):
    if not (root / "src" / "CMakeLists.txt").is_file():
        raise BenchError("library sources not found under %s/src" % root)
    build_root = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_root.is_absolute():
        build_root = root / build_root
    build_dir = build_root / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_checked(cmd, BUILD_TIMEOUT_S)
    sys.stderr.write(run_checked(
        ["cmake", "--build", str(build_dir), "-j", "4"], BUILD_TIMEOUT_S))
    return build_dir / "perfbench"


def source_digest(root):
    """sha1 over the library and benchmark sources, for the record."""
    h = hashlib.sha1()
    for base in ("src", "perfbench"):
        for path in sorted((root / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def commit(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        raise BenchError("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    binary = build(root)
    reference = json.loads(
        (Path(__file__).resolve().parent / "reference.json").read_text())
    out = run_checked([str(binary), "--workload", args.workload,
                       "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace)], RUN_TIMEOUT_S)
    lines = [l for l in out.splitlines() if l.startswith("PERFBENCH ")]
    if len(lines) != 1:
        raise BenchError("perfbench printed no result line")
    raw = json.loads(lines[0][len("PERFBENCH "):])

    env = dict(raw["env"])
    env.update(commit=commit(root), source_sha1=source_digest(root),
               workload=args.workload, seed=args.seed, trace=args.trace)
    # Only optimized builds are comparable; a flagged result is never
    # set against another.
    env["comparable"] = env["build_type"] == "Release" and env["ndebug"]
    if not env["comparable"]:
        sys.stderr.write("perfbench: WARNING: %s build, numbers are not "
                         "comparable\n" % env["build_type"])
    print("env " + json.dumps(env, sort_keys=True))
    # The raw times behind the normalized metrics.
    walls = [run["wall_s"] for run in raw["runs"]]
    calibration = raw["calib_s"] or raw["setup_calib_s"]
    print("raw jobs %d wall_s min %.6g median %.6g quartile_spread %.4f "
          "setup_s median %.6g calibration_s median %.6g" %
          (len(walls), min(walls), metrics.median(walls),
           metrics.quartile_spread(walls), metrics.median(raw["setup_s"]),
           metrics.median(calibration)))

    attempted, failed, problems = metrics.check_outputs(raw, reference)
    for problem in problems:
        sys.stderr.write("perfbench: CHECK FAILED: %s\n" % problem)
    if args.trace:
        values = metrics.per_layer_metrics(raw)
    else:
        values = metrics.end_to_end_metrics(raw)
    for name, m in values.items():
        print("metric %-40s %.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError, KeyError,
            ValueError) as err:
        sys.stderr.write("perfbench: %s\n" % err)
        sys.exit(1)
