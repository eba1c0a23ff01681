#!/usr/bin/env python3
"""tt_lint self-test: runs the linter over the corpus under
tests/lint_corpus/ and asserts the EXACT finding set, exit codes,
suppression handling, baseline behaviour, and SARIF shape.

Expectations are `// expect(<rule>)` markers in the corpus sources
(line 1 for repo-scope rules); a missing finding and an unexpected
finding both fail, so the corpus pins false negatives and false
positives at the same time. Registered in tests/CMakeLists.txt as the
`tt_lint_selftest` ctest.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LINT = REPO / "scripts" / "tt_lint.py"
CORPUS = REPO / "tests" / "lint_corpus"

EXPECT_RE = re.compile(r"expect\(([a-z0-9-]+)\)")
FINDING_RE = re.compile(r"^(.+?):(\d+): \[([a-z0-9-]+)\]")

# Rules whose findings anchor to line 1 of the named file, not to the
# line carrying the marker.
FILE_ANCHORED = {"unregistered-test", "test-only-module"}

failures: list[str] = []


def fail(msg: str) -> None:
    failures.append(msg)
    print(f"FAIL: {msg}", file=sys.stderr)


def run_lint(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(LINT), *args],
                          capture_output=True, text=True)


def parse_findings(stdout: str) -> set[tuple[str, int, str]]:
    out = set()
    for line in stdout.splitlines():
        m = FINDING_RE.match(line)
        if m:
            out.add((m.group(1), int(m.group(2)), m.group(3)))
    return out


def expected_findings(root: Path) -> set[tuple[str, int, str]]:
    exp = set()
    for path in sorted(root.rglob("*")):
        if path.suffix not in (".h", ".cc"):
            continue
        rel = path.relative_to(root).as_posix()
        for num, text in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            for m in EXPECT_RE.finditer(text):
                rule = m.group(1)
                line = 1 if rule in FILE_ANCHORED else num
                exp.add((rel, line, rule))
    return exp


def check_case(name: str, extra_paths: list[str] | None = None) -> None:
    root = CORPUS / name
    args = ["--root", str(root), "--no-baseline"]
    if extra_paths:
        args += [str(root / p) for p in extra_paths]
    r = run_lint(args)
    got = parse_findings(r.stdout)
    want = expected_findings(root)
    for missing in sorted(want - got):
        fail(f"{name}: expected finding not reported: {missing}")
    for extra in sorted(got - want):
        fail(f"{name}: unexpected finding: {extra}")
    want_rc = 1 if want else 0
    if r.returncode != want_rc:
        fail(f"{name}: exit code {r.returncode}, want {want_rc}\n"
             f"stderr: {r.stderr}")


def check_exit_codes() -> None:
    r = run_lint(["--root", str(CORPUS / "clean"),
                  str(CORPUS / "clean" / "no" / "such" / "path")])
    if r.returncode != 2:
        fail(f"missing path: exit {r.returncode}, want 2")


def check_sarif() -> None:
    root = CORPUS / "determinism"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.sarif"
        r = run_lint(["--root", str(root), "--no-baseline",
                      "--format=sarif", "--output", str(out)])
        if r.returncode != 1:
            fail(f"sarif run: exit {r.returncode}, want 1")
            return
        doc = json.loads(out.read_text(encoding="utf-8"))
        if doc.get("version") != "2.1.0":
            fail(f"sarif: version {doc.get('version')}, want 2.1.0")
        runs = doc.get("runs") or [{}]
        driver = runs[0].get("tool", {}).get("driver", {})
        if driver.get("name") != "tt_lint":
            fail("sarif: tool.driver.name missing")
        rules = {r_["id"] for r_ in driver.get("rules", [])}
        results = runs[0].get("results", [])
        if len(results) != len(expected_findings(root)):
            fail(f"sarif: {len(results)} results, want "
                 f"{len(expected_findings(root))}")
        for res in results:
            if res.get("ruleId") not in rules:
                fail(f"sarif: result rule {res.get('ruleId')} not in "
                     "driver.rules")
            loc = (res.get("locations") or [{}])[0] \
                .get("physicalLocation", {})
            if not loc.get("artifactLocation", {}).get("uri") \
                    or not loc.get("region", {}).get("startLine"):
                fail("sarif: result missing physical location")


def check_baseline() -> None:
    src = CORPUS / "determinism"
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "repo"
        shutil.copytree(src, root)
        baseline = Path(tmp) / "baseline.json"

        r = run_lint(["--root", str(root), "--write-baseline",
                      "--baseline", str(baseline)])
        if r.returncode != 0 or not baseline.is_file():
            fail(f"write-baseline: exit {r.returncode}, want 0")
            return

        r = run_lint(["--root", str(root), "--baseline", str(baseline)])
        if r.returncode != 0:
            fail(f"baselined rerun: exit {r.returncode}, want 0\n"
                 f"stdout: {r.stdout}")

        # A NEW finding must not hide behind the baseline.
        victim = root / "src" / "taxitrace" / "core" / "fresh.cc"
        victim.write_text(
            "void Fresh(std::atomic<int>& c) {\n"
            "  c.fetch_add(1, std::memory_order_relaxed);\n"
            "}\n", encoding="utf-8")
        r = run_lint(["--root", str(root), "--baseline", str(baseline)])
        got = parse_findings(r.stdout)
        if r.returncode != 1:
            fail(f"baseline+new finding: exit {r.returncode}, want 1")
        if got != {("src/taxitrace/core/fresh.cc", 2, "relaxed-atomic")}:
            fail(f"baseline+new finding: reported {sorted(got)}")

        # Removing the code must make its entries stale, not fatal.
        victim.unlink()
        bad = root / "src" / "taxitrace" / "core" / \
            "unordered_iteration_bad.cc"
        bad.write_text("// emptied\n", encoding="utf-8")
        r = run_lint(["--root", str(root), "--baseline", str(baseline)])
        if r.returncode != 0:
            fail(f"stale baseline: exit {r.returncode}, want 0")
        if "stale" not in r.stderr:
            fail("stale baseline: no stale warning printed")

        # A corrupt baseline is a usage error.
        baseline.write_text("{not json", encoding="utf-8")
        r = run_lint(["--root", str(root), "--baseline", str(baseline)])
        if r.returncode != 2:
            fail(f"corrupt baseline: exit {r.returncode}, want 2")


def check_list_rules() -> None:
    r = run_lint(["--list-rules"])
    if r.returncode != 0:
        fail(f"--list-rules: exit {r.returncode}")
        return
    listed = {line.split()[0] for line in r.stdout.splitlines() if line}
    required = {
        "unordered-iteration", "ambient-entropy", "pointer-keyed-order",
        "parallel-accumulation", "relaxed-atomic", "bare-assert",
        "raw-thread", "adhoc-timing", "linear-reset", "result-ok-status",
        "include-path", "ignored-status", "unregistered-test",
        "test-only-module",
        "suppression-reason", "unused-suppression",
    }
    for rule in sorted(required - listed):
        fail(f"--list-rules: missing rule {rule}")


def main() -> int:
    check_case("determinism")
    check_case("idiom")
    check_case("engine")
    check_case("clean")
    check_case("repo", extra_paths=["tests", "bench"])
    check_exit_codes()
    check_sarif()
    check_baseline()
    check_list_rules()
    if failures:
        print(f"tt_lint_selftest: {len(failures)} failure(s)",
              file=sys.stderr)
        return 1
    print("tt_lint_selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
