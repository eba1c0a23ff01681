"""Repo-scope rules: facts about the build graph, not any one file."""

from __future__ import annotations

import re

from ..engine import SRC_SUFFIXES, Finding, RepoContext
from .base import RepoRule

_INCLUDE_RE = re.compile(r'^[ \t]*#[ \t]*include[ \t]*"(taxitrace/[^"]+)"',
                         re.MULTILINE)


class UnregisteredTest(RepoRule):
    """Every tests/*.cc must be referenced by tests/CMakeLists.txt and
    every bench/*.cc by bench/CMakeLists.txt (via taxitrace_bench(name)
    or a literal source reference): an unregistered target compiles on
    nobody's machine and silently never runs."""

    name = "unregistered-test"
    short = ("a tests/ or bench/ source file not referenced by its "
             "CMakeLists.txt never builds or runs")

    def check_repo(self, ctx: RepoContext):
        yield from self._check_dir(ctx, "tests", "test source")
        yield from self._check_dir(ctx, "bench", "bench source")

    def _check_dir(self, ctx: RepoContext, dirname: str, what: str):
        d = ctx.repo_root / dirname
        cmake = d / "CMakeLists.txt"
        if not cmake.is_file():
            return
        cmake_text = cmake.read_text(encoding="utf-8")
        for source in sorted(d.glob("*.cc")):
            if source.name in cmake_text:
                continue
            # bench targets are declared as taxitrace_bench(<stem>),
            # which expands to <stem>.cc; accept a whole-word stem.
            if re.search(r"\b" + re.escape(source.stem) + r"\b",
                         cmake_text):
                continue
            yield Finding(
                path=f"{dirname}/{source.name}", line=1,
                rule=self.name,
                message=f"{what} is not referenced by "
                        f"{dirname}/CMakeLists.txt, so it never builds "
                        "or runs")


class TestOnlyModule(RepoRule):
    """Every src/taxitrace/**/*.h must be included by code that ships: a
    file under src/, examples/, bench/ or perfbench/ other than the
    header's own .cc. A header that only its own .cc and the tests
    include is a module nothing in the system runs; delete it, or
    exempt it with a reasoned allow-file comment."""

    name = "test-only-module"
    short = ("a src/taxitrace header that nothing outside its own .cc "
             "and the tests includes is a module nothing runs")

    USER_DIRS = ("src", "examples", "bench", "perfbench")

    def check_repo(self, ctx: RepoContext):
        src = ctx.repo_root / "src" / "taxitrace"
        if not src.is_dir():
            return
        includers: dict[str, set[str]] = {}
        for dirname in self.USER_DIRS:
            d = ctx.repo_root / dirname
            if not d.is_dir():
                continue
            for path in sorted(d.rglob("*")):
                if path.suffix not in SRC_SUFFIXES:
                    continue
                rel = path.relative_to(ctx.repo_root).as_posix()
                text = path.read_text(encoding="utf-8", errors="replace")
                for m in _INCLUDE_RE.finditer(text):
                    includers.setdefault("src/" + m.group(1),
                                         set()).add(rel)
        for header in sorted(src.rglob("*.h")):
            rel = header.relative_to(ctx.repo_root).as_posix()
            own_cc = rel[:-len(".h")] + ".cc"
            if includers.get(rel, set()) - {own_cc}:
                continue
            yield Finding(
                path=rel, line=1, rule=self.name,
                message="no file under src/, examples/, bench/ or "
                        "perfbench/ includes this header except its own "
                        ".cc, so only tests use the module")
