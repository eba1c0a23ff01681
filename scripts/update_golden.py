#!/usr/bin/env python3
"""Regenerate the golden study files under tests/golden/.

Builds the regression_test target and runs the golden tests with
TAXITRACE_UPDATE_GOLDEN=1, which makes them rewrite study_small.json
(the StudyResults digest) and study_small_observability.json (funnel,
counters and data histograms) from the current pipeline output instead
of comparing against them. Use
this only for an *intentional* behaviour change, and review the diff of
the golden file like any other code change.

--only narrows the run to one file: `digest` rewrites study_small.json,
`observability` rewrites study_small_observability.json. A performance
change that moves only work counters (probe or candidate counts, say)
must refresh the observability file alone: its study results are
unchanged by definition, so study_small.json has to keep passing as it
stands.

Usage:
  scripts/update_golden.py [--build-dir BUILD] [--only digest|observability]
"""

from __future__ import annotations

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

# The gtest filter that rewrites each golden file.
GOLDEN_TESTS = {
    "digest": "GoldenDigestTest.SmallStudyDigestMatchesGolden",
    "observability": "GoldenDigestTest.SmallStudyObservabilityMatchesGolden",
}


def run(cmd: list[str], **kwargs) -> None:
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, **kwargs)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--build-dir",
        default=str(REPO_ROOT / "build"),
        help="CMake build directory (configured on demand)",
    )
    parser.add_argument(
        "--only",
        choices=sorted(GOLDEN_TESTS),
        help="rewrite just this golden file (default: both)",
    )
    args = parser.parse_args()

    build_dir = pathlib.Path(args.build_dir)
    if not (build_dir / "CMakeCache.txt").exists():
        if shutil.which("cmake") is None:
            print("error: cmake not found on PATH", file=sys.stderr)
            return 1
        run(["cmake", "-B", str(build_dir), "-S", str(REPO_ROOT)])
    run(["cmake", "--build", str(build_dir), "--target", "regression_test"])

    test_binary = build_dir / "tests" / "regression_test"
    if not test_binary.exists():
        print(f"error: {test_binary} not built", file=sys.stderr)
        return 1

    env = dict(os.environ, TAXITRACE_UPDATE_GOLDEN="1")
    gtest_filter = GOLDEN_TESTS[args.only] if args.only else "GoldenDigestTest.*"
    run([str(test_binary), f"--gtest_filter={gtest_filter}"], env=env)

    golden = REPO_ROOT / "tests" / "golden"
    print(f"regenerated the golden files in {golden}")
    print("review the diff before committing:")
    run(["git", "--no-pager", "diff", "--stat", str(golden)])
    return 0


if __name__ == "__main__":
    sys.exit(main())
