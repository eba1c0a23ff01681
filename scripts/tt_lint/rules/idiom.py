"""The repo-idiom rules, ported from the original single-line regexes
onto the shared tokenizer. Semantics match the legacy linter; the token
stream removes the old false-negative classes (calls split across
lines, patterns inside strings or comments)."""

from __future__ import annotations

import re

from ..cxx import find_range_fors, match_forward, statement_start
from ..engine import RepoContext, SourceFile
from ..tokenizer import ID, PP, PUNCT
from .base import FileRule, path_is_under

_EXECUTOR_FILES = (
    "src/taxitrace/common/executor.h",
    "src/taxitrace/common/executor.cc",
)
_CHECK_HEADER = "src/taxitrace/common/check.h"

_INCLUDE_RE = re.compile(r'#\s*include\s+"([^"]+)"')

_SEARCH_STATE_NAMES = frozenset({
    "dist", "prev", "prev_edge", "prev_vertex", "visited", "settled",
    "seen", "seen_stamp", "stamp",
})


def _std_seq(tokens, i, names) -> str | None:
    """If tokens[i:] spell `std::<name>` with name in names, return it."""
    if (tokens[i].kind == ID and tokens[i].value == "std"
            and i + 2 < len(tokens)
            and tokens[i + 1].kind == PUNCT
            and tokens[i + 1].value == "::"
            and tokens[i + 2].kind == ID
            and tokens[i + 2].value in names):
        return tokens[i + 2].value
    return None


class BareAssert(FileRule):
    name = "bare-assert"
    short = ("bare assert() in library code; asserts compile away in "
             "Release, use TT_CHECK / TT_DCHECK")

    def check_file(self, sf: SourceFile, ctx: RepoContext):
        if sf.rel == _CHECK_HEADER:
            return
        toks = sf.tokens
        for i, t in enumerate(toks):
            if (t.kind == ID and t.value == "assert"
                    and i + 1 < len(toks)
                    and toks[i + 1].value == "("):
                yield self.finding(
                    sf, t.line,
                    "bare assert() in library code; use TT_CHECK or "
                    "TT_DCHECK (taxitrace/common/check.h)", t.col)


class RawThread(FileRule):
    name = "raw-thread"
    short = ("raw std::thread/std::async outside the Executor breaks "
             "the determinism contract")

    def check_file(self, sf: SourceFile, ctx: RepoContext):
        if sf.rel in _EXECUTOR_FILES:
            return
        toks = sf.tokens
        for i in range(len(toks)):
            name = _std_seq(toks, i, ("thread", "jthread", "async"))
            if name is not None:
                yield self.finding(
                    sf, toks[i].line,
                    f"raw std::{name}; use the Executor "
                    "(taxitrace/common/executor.h) so parallel stages "
                    "stay deterministic", toks[i].col)


class AdhocTiming(FileRule):
    name = "adhoc-timing"
    short = ("std::chrono outside the executor and obs/; wall-clock "
             "measurement goes through obs::StageSpan")

    def check_file(self, sf: SourceFile, ctx: RepoContext):
        if sf.rel in _EXECUTOR_FILES \
                or path_is_under(sf.rel, ("src/taxitrace/obs/",)):
            return
        toks = sf.tokens
        for i in range(len(toks)):
            if _std_seq(toks, i, ("chrono",)) is not None:
                yield self.finding(
                    sf, toks[i].line,
                    "ad-hoc std::chrono timing; use obs::StageSpan "
                    "(taxitrace/obs/stage_span.h) so the cost shows up "
                    "in the stage trace", toks[i].col)


class LinearReset(FileRule):
    name = "linear-reset"
    short = ("O(|V|) per-search reset of search state outside a "
             "generation-stamped scratch type")

    _MSG = ("O(|V|) per-search reset of search state; keep it in a "
            "generation-stamped scratch "
            "(taxitrace/roadnet/search_scratch.h) so each search costs "
            "O(visited)")

    _RNG_MSG = ("per-call full-vector RNG refill; derive each element "
                "lazily from MixSeed(...) (taxitrace/common/rng.h) so a "
                "call costs O(elements actually read)")

    def check_file(self, sf: SourceFile, ctx: RepoContext):
        if "scratch" in sf.path.name:
            return
        toks = sf.tokens
        n = len(toks)
        yield from self._check_rng_refills(sf, toks)
        for i, t in enumerate(toks):
            if t.kind != ID:
                continue
            base = t.value.rstrip("_")
            # dist_.assign(...) / prev->assign(...)
            if base in _SEARCH_STATE_NAMES and i + 3 < n \
                    and toks[i + 1].kind == PUNCT \
                    and toks[i + 1].value in (".", "->") \
                    and toks[i + 2].kind == ID \
                    and toks[i + 2].value == "assign" \
                    and toks[i + 3].value == "(":
                if not self._statement_mentions_scratch(toks, i):
                    yield self.finding(sf, t.line, self._MSG, t.col)
            # std::fill(dist.begin(), ...)
            if t.value == "fill" and i >= 2 \
                    and toks[i - 1].value == "::" \
                    and toks[i - 2].value == "std" \
                    and i + 1 < n and toks[i + 1].value == "(":
                close = match_forward(toks, i + 1)
                args = toks[i + 2:close]
                if any(a.kind == ID
                       and a.value.rstrip("_") in _SEARCH_STATE_NAMES
                       for a in args) \
                        and not any(a.kind == ID
                                    and "scratch" in a.value.lower()
                                    for a in args):
                    yield self.finding(sf, t.line, self._MSG, t.col)

    def _check_rng_refills(self, sf: SourceFile, toks):
        """A range-for that reassigns every element of a non-scratch
        vector from an RNG is the |E|/|V|-sized cousin of the assign()
        reset: the whole buffer is refilled per call even though the
        caller touches a fraction of it. The sanctioned shapes are a
        scratch-owned buffer (reused, not reallocated) or — better — a
        counter-derived draw per element at its point of use."""
        for rf in find_range_fors(toks):
            decl = toks[rf.decl[0]:rf.decl[1]]
            # Only a mutable reference loop variable can refill the
            # container; by-value and const loops read, never reset.
            if not any(t.kind == PUNCT and t.value == "&" for t in decl):
                continue
            if any(t.kind == ID and t.value == "const" for t in decl):
                continue
            if not rf.loop_vars:
                continue
            var = rf.loop_vars[-1]
            # Scratch-owned buffers are the sanctioned reuse home.
            if any(t.kind == ID and "scratch" in t.value.lower()
                   for t in toks[rf.range_expr[0]:rf.range_expr[1]]):
                continue
            a, b = rf.body
            for k in range(a, b):
                t = toks[k]
                if t.kind != ID or t.value != var:
                    continue
                if k + 1 >= b or toks[k + 1].kind != PUNCT \
                        or toks[k + 1].value != "=":
                    continue
                stmt_end = k
                while stmt_end < b and toks[stmt_end].value != ";":
                    stmt_end += 1
                stmt = toks[statement_start(toks, k):stmt_end]
                if any(s.kind == ID
                       and ("rng" in s.value.lower()
                            or "random" in s.value.lower())
                       for s in stmt):
                    yield self.finding(sf, toks[rf.for_index].line,
                                       self._RNG_MSG,
                                       toks[rf.for_index].col)
                    break

    @staticmethod
    def _statement_mentions_scratch(toks, i) -> bool:
        a = statement_start(toks, i)
        for t in toks[a:i]:
            if t.kind == ID and "scratch" in t.value.lower():
                return True
        return False


class ResultOkStatus(FileRule):
    name = "result-ok-status"
    short = ("Result constructed from Status::OK(); a Result holds a "
             "value or a non-OK status")

    def check_file(self, sf: SourceFile, ctx: RepoContext):
        toks = sf.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != ID or t.value != "Result":
                continue
            if i + 1 >= n or toks[i + 1].value != "<":
                continue
            # Scan to the end of this statement for Status::OK(. A `{`
            # at depth 0 opens a function/lambda body — `Result<T>
            # Foo(...) {`, `) const {`, `-> Status {` — and must not
            # leak body contents into the declaration; only a braced
            # initializer (`Result<T>{...}`, `= {...}`) continues.
            j = i
            depth = 0
            while j < n:
                v = toks[j].value
                if toks[j].kind == PUNCT:
                    if v == "{" and depth == 0 and j > 0 \
                            and toks[j - 1].value not in (">", "=", ",",
                                                          "(", "return"):
                        break
                    if v in "([{":
                        depth += 1
                    elif v in ")]}":
                        depth -= 1
                        if depth < 0:
                            break
                    elif v == ";" and depth <= 0:
                        break
                if toks[j].kind == ID and v == "Status" and j + 3 < n \
                        and toks[j + 1].value == "::" \
                        and toks[j + 2].value == "OK" \
                        and toks[j + 3].value == "(":
                    yield self.finding(
                        sf, toks[j].line,
                        "Result constructed from Status::OK(); a Result "
                        "holds a value or a non-OK status", toks[j].col)
                    break
                j += 1


class IncludePath(FileRule):
    name = "include-path"
    short = ('#include "..." must use the canonical taxitrace/... '
             "path form")

    def check_file(self, sf: SourceFile, ctx: RepoContext):
        for t in sf.tokens:
            if t.kind != PP:
                continue
            m = _INCLUDE_RE.search(t.value)
            if m and not m.group(1).startswith("taxitrace/"):
                yield self.finding(
                    sf, t.line,
                    f'#include "{m.group(1)}" does not use the '
                    "taxitrace/... path form", t.col)


class IgnoredStatus(FileRule):
    name = "ignored-status"
    short = ("return value of a Status-returning function is ignored")

    _WRAPPERS = frozenset({
        "TT_CHECK_OK", "RETURN_IF_ERROR", "TAXITRACE_RETURN_IF_ERROR",
        "TAXITRACE_ASSIGN_OR_RETURN", "EXPECT_OK", "ASSERT_OK",
    })

    def check_file(self, sf: SourceFile, ctx: RepoContext):
        toks = sf.tokens
        n = len(toks)
        for i, t in enumerate(toks):
            if t.kind != ID or t.value not in ctx.status_fns:
                continue
            if i + 1 >= n or toks[i + 1].value != "(":
                continue
            close = match_forward(toks, i + 1)
            if close + 1 >= n or toks[close + 1].value != ";":
                continue  # not a bare call statement
            prev = toks[i - 1] if i > 0 else None
            if prev is not None:
                if prev.kind == ID:
                    continue  # `Status Name(` is a declaration
                if prev.kind == PUNCT and prev.value not in (
                        ".", "->", "::", ";", "{", "}", ")"):
                    continue  # mid-expression
            a = statement_start(toks, i)
            stmt = toks[a:close + 1]
            if any(s.kind == PUNCT and s.value == "=" for s in stmt):
                continue
            if any(s.kind == ID and (s.value in ("return", "void")
                                     or s.value in self._WRAPPERS
                                     or "RETURN_IF_ERROR" in s.value)
                   for s in stmt):
                continue
            yield self.finding(
                sf, t.line,
                f"return value of Status-returning {t.value}() is "
                "ignored", t.col)

