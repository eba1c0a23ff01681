"""Rule registry and pass-1 repo-wide fact collection."""

from __future__ import annotations

from ..cxx import CXX_KEYWORDS, match_angle
from ..engine import RepoContext, SUPPRESSION_REASON, UNUSED_SUPPRESSION
from ..tokenizer import ID, PUNCT

UNORDERED_TYPES = frozenset({
    "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset",
})


def collect_repo_facts(ctx: RepoContext) -> None:
    for sf in ctx.files:
        _collect_status_fns(ctx, sf)
        _collect_unordered_decls(ctx, sf)


def _collect_status_fns(ctx: RepoContext, sf) -> None:
    """Names of functions declared to return Status in headers.

    Status's own factories (OK, NotFound, ...) are value producers, not
    fallible calls, so common/status.h is skipped."""
    if not sf.rel.endswith(".h"):
        return
    if sf.rel == "src/taxitrace/common/status.h":
        return
    toks = sf.tokens
    for i, t in enumerate(toks):
        if t.kind != ID or t.value != "Status":
            continue
        if i + 2 >= len(toks):
            continue
        name_tok = toks[i + 1]
        if name_tok.kind != ID or name_tok.value in CXX_KEYWORDS:
            continue
        if toks[i + 2].value != "(":
            continue
        prev = toks[i - 1] if i > 0 else None
        if prev is not None and prev.kind == PUNCT \
                and prev.value in (".", "->", "<"):
            continue
        if name_tok.value in ("OK", "Status"):
            continue
        ctx.status_fns.add(name_tok.value)


def _collect_unordered_decls(ctx: RepoContext, sf) -> None:
    """Variables/members declared with an unordered container type, and
    functions returning one. Feeds the unordered-iteration rule."""
    toks = sf.tokens
    n = len(toks)
    file_vars = ctx.unordered_vars_by_file.setdefault(sf.rel, set())
    for i, t in enumerate(toks):
        if t.kind != ID or t.value not in UNORDERED_TYPES:
            continue
        j = i + 1
        if j >= n or toks[j].value != "<":
            continue
        j = match_angle(toks, j)
        if j < 0 or j >= n:
            continue
        # Skip ref/pointer/const decoration after the template args.
        while j < n and toks[j].kind == PUNCT \
                and toks[j].value in ("&", "*", "&&"):
            j += 1
        while j < n and toks[j].kind == ID and toks[j].value == "const":
            j += 1
        if j >= n or toks[j].kind != ID \
                or toks[j].value in CXX_KEYWORDS:
            continue
        name = toks[j].value
        after = toks[j + 1].value if j + 1 < n else ""
        if after == "(":
            ctx.unordered_fns.add(name)
        elif after in (";", "=", "{", ",", ")"):
            file_vars.add(name)
            ctx.unordered_member_vars.add(name)


def all_rules():
    """(file_rules, repo_rules) in catalogue order."""
    from . import determinism, idiom, repo
    file_rules = [
        idiom.BareAssert(),
        idiom.RawThread(),
        idiom.AdhocTiming(),
        idiom.LinearReset(),
        idiom.ResultOkStatus(),
        idiom.IncludePath(),
        idiom.IgnoredStatus(),
        idiom.FlatGraphIndex(),
        determinism.UnorderedIteration(),
        determinism.AmbientEntropy(),
        determinism.PointerKeyedOrder(),
        determinism.ParallelAccumulation(),
        determinism.RelaxedAtomic(),
    ]
    repo_rules = [repo.UnregisteredTest(), repo.TestOnlyModule()]
    return file_rules, repo_rules


def rule_catalogue():
    """Metadata for --list-rules and SARIF: [(id, summary)]."""
    file_rules, repo_rules = all_rules()
    cat = [(r.name, r.short) for r in file_rules + repo_rules]
    cat.append((SUPPRESSION_REASON,
               "a tt-lint suppression must carry a reason"))
    cat.append((UNUSED_SUPPRESSION,
               "a tt-lint suppression that never fires must be deleted"))
    return cat
