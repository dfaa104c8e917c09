"""The reprolint checker framework.

A :class:`Checker` inspects the indexed program (one
:class:`~repro.analysis.callgraph.ProgramContext` holding every parsed
:class:`FileContext`) and yields
:class:`~repro.analysis.findings.Finding` objects.  The
:class:`Analyzer` parses files, indexes them, runs every registered
checker, and applies inline suppressions.

Suppressions
------------

A finding is suppressed by a comment on the reported line::

    self.device.read_block(no)  # reprolint: disable=IO001 -- pointer chase

The justification after ``--`` is mandatory: reprolint's contract is
that every silenced invariant carries a written reason, so a bare
``disable`` is itself reported (rule ``SUP001``).  ``disable=all``
silences every rule on the line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Type

from repro.analysis.callgraph import ProgramContext
from repro.analysis.findings import Finding, Severity
from repro.analysis.symbols import SymbolTable

_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)"
    r"(?:\s+--\s*(\S.*?))?\s*$"
)


@dataclass(frozen=True)
class Suppression:
    """One inline ``# reprolint: disable=`` comment."""

    line: int
    rules: frozenset[str]
    justification: str

    def covers(self, rule_id: str) -> bool:
        return "all" in self.rules or rule_id in self.rules


def parse_suppressions(source_lines: list[str]) -> dict[int, Suppression]:
    suppressions: dict[int, Suppression] = {}
    for lineno, text in enumerate(source_lines, start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        rules = frozenset(rule.strip() for rule in match.group(1).split(","))
        suppressions[lineno] = Suppression(
            line=lineno, rules=rules, justification=match.group(2) or ""
        )
    return suppressions


@dataclass
class FileContext:
    """Everything the checkers can know about one file."""

    path: str
    module: str
    tree: ast.Module
    source_lines: list[str]
    symbols: SymbolTable
    suppressions: dict[int, Suppression] = field(default_factory=dict)


class Checker:
    """Base class for one rule: set the class attributes and implement
    :meth:`check` over the whole indexed program."""

    rule_id: str = ""
    severity: Severity = Severity.ERROR
    description: str = ""

    def check(self, program: ProgramContext) -> Iterator[Finding]:
        """Yield findings; each carries the path of the file it blames,
        which is where its suppression comment is looked up."""
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return self.finding_at(ctx.path, getattr(node, "lineno", 1), message)

    def finding_at(self, path: str, line: int, message: str) -> Finding:
        return Finding(
            rule_id=self.rule_id,
            path=path,
            line=line,
            severity=self.severity,
            message=message,
        )


#: rule_id -> checker class, in registration order.
CHECKER_REGISTRY: dict[str, Type[Checker]] = {}


def register(checker: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if not checker.rule_id:
        raise ValueError(f"{checker.__name__} has no rule_id")
    if checker.rule_id in CHECKER_REGISTRY:
        raise ValueError(f"duplicate rule id {checker.rule_id}")
    CHECKER_REGISTRY[checker.rule_id] = checker
    return checker


def module_name_for(path: str) -> str:
    """Derive the dotted module name from a file path.

    The segment after the last ``repro`` path component anchors the
    package — this works for the installed tree (``.../src/repro/...``)
    and for test fixtures that mirror it under a temp directory.  Files
    outside any ``repro`` tree get their bare stem, which opts them out
    of the package-scoped rules.
    """
    normalized = path.replace("\\", "/")
    parts = [part for part in normalized.split("/") if part]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[anchor:])
    return parts[-1] if parts else ""


class AnalysisError(Exception):
    """A target file could not be parsed."""


def build_context(source: str, path: str) -> FileContext:
    """Parse one file into the context the checkers consume."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        raise AnalysisError(f"{path}: {exc}") from exc
    lines = source.splitlines()
    return FileContext(
        path=path,
        module=module_name_for(path),
        tree=tree,
        source_lines=lines,
        symbols=SymbolTable.build(tree),
        suppressions=parse_suppressions(lines),
    )


class Analyzer:
    """Runs a set of checkers over files and applies suppressions.

    Whatever it is given — one fixture or the whole tree — is indexed
    into one :class:`~repro.analysis.callgraph.ProgramContext` (symbol
    tables, call graph, function summaries) and every selected rule
    runs once over that.  Suppressions apply by the blamed file and
    line.
    """

    def __init__(self, rules: Optional[Iterable[str]] = None) -> None:
        selected = set(rules) if rules is not None else None
        if selected is not None:
            unknown = selected - set(CHECKER_REGISTRY) - {"SUP001"}
            if unknown:
                raise ValueError(f"unknown rule(s): {', '.join(sorted(unknown))}")
        self.rules = selected
        self.checkers = [
            checker_cls()
            for rule_id, checker_cls in CHECKER_REGISTRY.items()
            if selected is None or rule_id in selected
        ]

    def run_source(self, source: str, path: str) -> list[Finding]:
        """Analyze one file's source text."""
        return self.run_sources([(path, source)])

    def run_sources(self, items: Iterable[tuple[str, str]]) -> list[Finding]:
        """Analyze ``(path, source)`` pairs as one program."""
        return self.run_contexts(
            [build_context(source, path) for path, source in items]
        )

    def run_contexts(self, contexts: list[FileContext]) -> list[Finding]:
        return self.run_program(ProgramContext(contexts))

    def run_program(self, program: ProgramContext) -> list[Finding]:
        """Run the selected rules over an already indexed program."""
        by_path = {ctx.path: ctx for ctx in program.files}
        findings: list[Finding] = []
        for checker in self.checkers:
            for finding in checker.check(program):
                findings.append(self._apply_suppression(by_path[finding.path], finding))
        for ctx in program.files:
            findings.extend(self._suppression_hygiene(ctx))
        return sorted(findings, key=lambda f: f.sort_key)

    def _apply_suppression(self, ctx: FileContext, finding: Finding) -> Finding:
        suppression = ctx.suppressions.get(finding.line)
        if suppression is None or not suppression.covers(finding.rule_id):
            return finding
        return Finding(
            rule_id=finding.rule_id,
            path=finding.path,
            line=finding.line,
            severity=finding.severity,
            message=finding.message,
            suppressed=True,
            justification=suppression.justification,
        )

    def _suppression_hygiene(self, ctx: FileContext) -> Iterator[Finding]:
        """SUP001: every suppression must carry a written justification."""
        if self.rules is not None and "SUP001" not in self.rules:
            return
        for suppression in ctx.suppressions.values():
            if not suppression.justification:
                yield Finding(
                    rule_id="SUP001",
                    path=ctx.path,
                    line=suppression.line,
                    severity=Severity.ERROR,
                    message=(
                        "suppression without justification: write "
                        "'# reprolint: disable=RULE -- reason'"
                    ),
                )
