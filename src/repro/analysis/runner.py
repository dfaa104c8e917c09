"""Tree walking and reporting for ``repro lint``.

The runner resolves targets (files or directories) to a sorted list of
Python files, runs the :class:`~repro.analysis.framework.Analyzer`, and
renders either a human report or the stable JSON document the CI lint
job consumes.  Exit status: 0 when every finding is suppressed (with a
justification), 1 otherwise, 2 on unusable targets.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.analysis.callgraph import ProgramContext
from repro.analysis.findings import Finding
from repro.analysis.framework import AnalysisError, Analyzer, FileContext, build_context

_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}

#: Schema version of the ``--json`` document; bump on layout changes.
JSON_SCHEMA_VERSION = 1


def default_target() -> str:
    """The installed ``repro`` package tree (what CI lints)."""
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def collect_files(targets: Sequence[str]) -> list[str]:
    """Expand files/directories into a sorted, de-duplicated file list."""
    files: set[str] = set()
    for target in targets:
        if os.path.isfile(target):
            files.add(os.path.abspath(target))
        elif os.path.isdir(target):
            for dirpath, dirnames, filenames in os.walk(target):
                dirnames[:] = sorted(
                    d for d in dirnames if d not in _SKIP_DIRS
                )
                for filename in filenames:
                    if filename.endswith(".py"):
                        files.add(os.path.abspath(os.path.join(dirpath, filename)))
        else:
            raise FileNotFoundError(target)
    return sorted(files)


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def active(self) -> list[Finding]:
        return [finding for finding in self.findings if not finding.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.suppressed]

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        return 1 if self.active else 0

    # -- rendering -----------------------------------------------------
    def render_text(self, show_suppressed: bool = False) -> str:
        lines = [finding.render() for finding in self.active]
        if show_suppressed:
            lines.extend(finding.render() for finding in self.suppressed)
        lines.extend(f"error: {message}" for message in self.errors)
        counts = self.rule_counts()
        summary = ", ".join(f"{rule}={n}" for rule, n in sorted(counts.items()))
        lines.append(
            f"{self.files_scanned} file(s) scanned, "
            f"{len(self.active)} finding(s), "
            f"{len(self.suppressed)} suppressed"
            + (f" [{summary}]" if summary else "")
        )
        return "\n".join(lines)

    def render_json(self, root: Optional[str] = None) -> str:
        """Machine-stable JSON: sorted findings, fixed key order.

        ``root`` relativizes paths so the document does not depend on
        the checkout location.
        """
        def normalize(path: str) -> str:
            if root:
                try:
                    return os.path.relpath(path, root).replace(os.sep, "/")
                except ValueError:  # pragma: no cover - different drive
                    return path
            return path

        findings = sorted(self.findings, key=lambda f: f.sort_key)
        document = {
            "version": JSON_SCHEMA_VERSION,
            "files_scanned": self.files_scanned,
            "counts": {
                "active": len(self.active),
                "suppressed": len(self.suppressed),
                "by_rule": self.rule_counts(),
            },
            "findings": [
                {**finding.to_dict(), "path": normalize(finding.path)}
                for finding in findings
            ],
            "errors": list(self.errors),
        }
        return json.dumps(document, indent=2, sort_keys=False)

    def rule_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.active:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def _load(targets: Sequence[str], report: LintReport) -> list[FileContext]:
    """Parse every Python file under ``targets`` (defaulting to the
    installed repro tree), recording unusable ones on ``report``."""
    contexts: list[FileContext] = []
    try:
        files = collect_files(list(targets) if targets else [default_target()])
    except FileNotFoundError as exc:
        report.errors.append(f"no such file or directory: {exc}")
        return contexts
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                contexts.append(build_context(handle.read(), path))
        except AnalysisError as exc:
            report.errors.append(str(exc))
    report.files_scanned = len(contexts)
    return contexts


def build_program_for(targets: Sequence[str]) -> ProgramContext:
    """Index ``targets`` into a
    :class:`~repro.analysis.callgraph.ProgramContext` (unparseable files
    are skipped — the lint pass reports them)."""
    return ProgramContext(_load(targets, LintReport()))


def run_paths(
    targets: Sequence[str], rules: Optional[Iterable[str]] = None
) -> LintReport:
    """Lint ``targets`` (defaulting to the installed repro tree) as one
    program: every selected rule over one call graph."""
    analyzer = Analyzer(rules=rules)
    report = LintReport()
    report.findings.extend(analyzer.run_contexts(_load(targets, report)))
    return report
