"""reprolint — AST-based invariant analysis for the CompressDB repro.

The engine's hard contracts (refcount balance on every path, batched
block I/O, the layer cake, cluster lock order) are invisible to generic
linters; this package encodes them as checkers over Python ASTs.  A
rule earns its place by firing on a defect seeded into the real tree
(``SEEDS`` in ``tests/test_reprolint.py``).  Entry points:

* ``repro lint`` (CLI) — lint the tree, exit non-zero on violations;
* :func:`repro.analysis.runner.run_paths` — programmatic API;
* :class:`repro.analysis.framework.Analyzer` — analysis of in-memory
  sources (one fixture or many, always as one program).

Rules ship in the ``rules_*`` modules and self-register via
:func:`repro.analysis.framework.register`.
"""

from __future__ import annotations

from repro.analysis.findings import Finding, Severity
from repro.analysis.framework import (
    CHECKER_REGISTRY,
    AnalysisError,
    Analyzer,
    Checker,
    FileContext,
    Suppression,
    build_context,
    register,
)
from repro.analysis.runner import (
    LintReport,
    build_program_for,
    collect_files,
    default_target,
    run_paths,
)

# Imported for their registration side effect: each rule module adds its
# checker to CHECKER_REGISTRY, so the registry is complete as soon as the
# package is imported (``repro lint --list-rules`` relies on this).
from repro.analysis import rules_concurrency  # noqa: E402,F401
from repro.analysis import rules_determinism  # noqa: E402,F401
from repro.analysis import rules_encoding  # noqa: E402,F401
from repro.analysis import rules_io  # noqa: E402,F401
from repro.analysis import rules_layering  # noqa: E402,F401
from repro.analysis import rules_locks  # noqa: E402,F401
from repro.analysis import rules_refcount  # noqa: E402,F401

__all__ = [
    "AnalysisError",
    "Analyzer",
    "CHECKER_REGISTRY",
    "Checker",
    "FileContext",
    "Finding",
    "LintReport",
    "Severity",
    "Suppression",
    "build_context",
    "build_program_for",
    "collect_files",
    "default_target",
    "register",
    "run_paths",
]
