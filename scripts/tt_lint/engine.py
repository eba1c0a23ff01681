"""tt_lint engine: source model, suppressions, passes, finding flow.

Suppression policy (enforced here, not in individual rules):

  // tt-lint: allow(<rule>): <reason>        this line or the next
  // tt-lint: allow-file(<rule>): <reason>   whole file (put at top)

A suppression without a reason still suppresses its target finding (so
the report is not doubled) but raises a `suppression-reason` finding of
its own; a suppression that never fires raises `unused-suppression`.
Neither engine finding can itself be suppressed — fix the comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .tokenizer import Comment, Token, tokenize

SRC_SUFFIXES = {".h", ".cc"}

# One suppression per comment; the reason runs to the end of it.
_ALLOW_RE = re.compile(
    r"tt-lint:\s*allow(-file)?\(([a-z0-9-]+)\)(?::\s*(.*\S))?")

# Engine-level rule ids (documented in the catalogue with the others).
SUPPRESSION_REASON = "suppression-reason"
UNUSED_SUPPRESSION = "unused-suppression"


@dataclass(frozen=True, order=True)
class Finding:
    path: str      # repo-relative posix path
    line: int
    rule: str
    message: str
    col: int = 1


@dataclass
class Suppression:
    rule: str
    line: int
    file_scope: bool
    reason: str | None
    used: bool = False


class SourceFile:
    """One lintable file: text, tokens, comments, suppressions."""

    def __init__(self, path: Path, repo_root: Path):
        self.path = path
        self.rel = path.relative_to(repo_root).as_posix()
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.lines = self.text.splitlines()
        self.tokens, self.comments = tokenize(self.text)
        self.suppressions: list[Suppression] = []
        self._line_allows: dict[tuple[int, str], Suppression] = {}
        self._file_allows: dict[str, Suppression] = {}
        self._parse_suppressions()

    def _parse_suppressions(self) -> None:
        for comment in self.comments:
            for m in _ALLOW_RE.finditer(comment.text):
                file_scope = m.group(1) == "-file"
                rule = m.group(2)
                reason = m.group(3)
                sup = Suppression(rule=rule, line=comment.line,
                                  file_scope=file_scope,
                                  reason=reason.strip() if reason else None)
                self.suppressions.append(sup)
                if file_scope:
                    self._file_allows.setdefault(rule, sup)
                else:
                    self._line_allows.setdefault((comment.line, rule), sup)

    def suppression_for(self, rule: str, line: int) -> Suppression | None:
        # A line suppression covers its own line (trailing comment) or
        # the line below it (standalone comment above the code).
        sup = self._line_allows.get((line, rule)) \
            or self._line_allows.get((line - 1, rule))
        if sup is not None:
            return sup
        return self._file_allows.get(rule)

    def line_text(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""


@dataclass
class RepoContext:
    """Repo-wide facts collected in pass 1, visible to every rule."""
    repo_root: Path
    files: list[SourceFile] = field(default_factory=list)
    # Functions declared (in headers) to return Status, by name.
    status_fns: set[str] = field(default_factory=set)
    # Names of variables/members declared with an unordered container
    # type, per file and repo-wide; names of functions returning one.
    unordered_vars_by_file: dict[str, set[str]] = field(
        default_factory=dict)
    unordered_member_vars: set[str] = field(default_factory=set)
    unordered_fns: set[str] = field(default_factory=set)

    def by_rel(self, rel: str) -> SourceFile | None:
        for f in self.files:
            if f.rel == rel:
                return f
        return None

    def unordered_names_for(self, sf: SourceFile) -> set[str]:
        """Bare-identifier matching set for a file: its own declarations
        plus its sibling header's (foo.cc sees foo.h's members)."""
        names = set(self.unordered_vars_by_file.get(sf.rel, ()))
        if sf.rel.endswith(".cc"):
            sibling = sf.rel[:-3] + ".h"
            names |= self.unordered_vars_by_file.get(sibling, set())
        # Member-style names (trailing underscore) are unambiguous
        # enough to match repo-wide.
        names |= {n for n in self.unordered_member_vars if n.endswith("_")}
        return names


def run_analysis(files: list[SourceFile], repo_root: Path,
                 file_rules, repo_rules) -> tuple[list[Finding], int]:
    """Run every pass. Returns (reportable findings, suppressed count).

    Engine findings (reasonless or unused suppressions) are appended
    after rule findings are resolved against suppressions.
    """
    from .rules import collect_repo_facts  # local import: no cycle

    ctx = RepoContext(repo_root=repo_root, files=files)
    collect_repo_facts(ctx)

    raw: list[Finding] = []
    for sf in files:
        for rule in file_rules:
            raw.extend(rule.check_file(sf, ctx))
    for rule in repo_rules:
        raw.extend(rule.check_repo(ctx))

    by_rel = {f.rel: f for f in files}

    def source_for(rel: str) -> SourceFile | None:
        # A repo-scope finding may name a file outside the lint targets;
        # load it so its suppressions still apply. Its own unused
        # suppressions are not reported: its file rules never ran.
        if rel not in by_rel:
            path = repo_root / rel
            if path.suffix not in SRC_SUFFIXES or not path.is_file():
                return None
            by_rel[rel] = SourceFile(path, repo_root)
        return by_rel[rel]

    reported: list[Finding] = []
    suppressed = 0
    for finding in raw:
        sf = source_for(finding.path)
        sup = sf.suppression_for(finding.rule, finding.line) \
            if sf is not None else None
        if sup is not None:
            sup.used = True
            suppressed += 1
        else:
            reported.append(finding)

    for sf in files:
        for sup in sf.suppressions:
            scope = "allow-file" if sup.file_scope else "allow"
            if sup.reason is None:
                reported.append(Finding(
                    path=sf.rel, line=sup.line, rule=SUPPRESSION_REASON,
                    message=f"suppression '{scope}({sup.rule})' has no "
                            "reason; write "
                            f"'// tt-lint: {scope}({sup.rule}): <why>'"))
            if not sup.used:
                reported.append(Finding(
                    path=sf.rel, line=sup.line, rule=UNUSED_SUPPRESSION,
                    message=f"suppression '{scope}({sup.rule})' never "
                            "fires; delete it"))

    reported.sort(key=lambda f: (f.path, f.line, f.rule))
    return reported, suppressed
