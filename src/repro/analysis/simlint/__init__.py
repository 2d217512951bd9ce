"""``simlint`` — static determinism / hot-path hygiene analysis for
the simulator (layer 1 of the ``simcheck`` tooling; layer 2 is the
runtime sanitizer in :mod:`repro.analysis.sanitizer`).

v2 is a multi-pass suite.  ``lint_paths`` parses the whole tree
**once** into a :class:`~.project.Project` (module symbol table, call
graph, RNG-taint call summaries), then runs per file:

* the original per-file checkers (RNG/wallclock hygiene, set
  iteration, float equality, ``__slots__`` hygiene);
* the **RNG taint** dataflow pass (:mod:`.taint`) — sampled values
  flowing into hash-keyed containers, order-sensitive iteration, or
  float equality;
* the **async / fork-safety** pass (:mod:`.async_checks`) — blocking
  calls in coroutines, un-awaited coroutines, pre-fork event
  loops/locks, mutable module state in the service tree.

Usage::

    from repro.analysis.simlint import lint_paths
    report = lint_paths(["src/repro", "benchmarks", "scripts"])
    for violation in report.violations:
        print(violation.render())

or from the CLI: ``repro lint [--json|--sarif] [--check]
[--baseline FILE] [--write-baseline] [paths ...]``.

See docs/ANALYSIS.md for the rule table (generated from
:data:`~.rules.RULES` by ``scripts/gen_rule_table.py``), suppression
syntax (``# simlint: disable=`` / ``disable-file=``), the baseline
policy, and the SARIF export.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import ast

from .baseline import Baseline, BaselineError
from .checkers import (
    Directives,
    Violation,
    check_source,
    collect_comment_directives,
)
from .project import Project
from .rules import (
    DEFAULT_CONFIG,
    RULES,
    RULES_BY_ID,
    LintConfig,
    Rule,
)
from .sarif import report_to_sarif

__all__ = [
    "Baseline",
    "BaselineError",
    "DEFAULT_CONFIG",
    "Directives",
    "LintConfig",
    "LintReport",
    "Project",
    "Rule",
    "RULES",
    "RULES_BY_ID",
    "Violation",
    "check_source",
    "collect_comment_directives",
    "lint_file",
    "lint_paths",
    "report_to_sarif",
]


@dataclass
class LintReport:
    """Aggregate result of linting a set of paths."""

    violations: List[Violation] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: List[str] = field(default_factory=list)
    #: Directive problems (unknown rule ids, misplaced disable-file):
    #: surfaced in output, never silently dropped, but advisory — they
    #: do not flip :attr:`ok`.
    warnings: List[str] = field(default_factory=list)
    #: Findings absorbed by a baseline (see :meth:`apply_baseline`).
    baseline_matched: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts

    def apply_baseline(self, baseline: Baseline) -> "LintReport":
        """Subtract baseline-accepted findings (zero-new policy):
        keeps only findings *not* matched by the baseline and records
        how many were absorbed."""
        new, matched = baseline.filter(self.violations)
        self.violations = new
        self.baseline_matched += matched
        return self

    def to_dict(self) -> Dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "violations": [v.to_dict() for v in self.violations],
            "counts_by_rule": self.counts_by_rule(),
            "parse_errors": list(self.parse_errors),
            "warnings": list(self.warnings),
            "baseline_matched": self.baseline_matched,
            "ok": self.ok,
        }

    def to_sarif(self) -> Dict[str, object]:
        return report_to_sarif(self)

    def render(self, summary_only: bool = False) -> str:
        lines: List[str] = []
        if not summary_only:
            lines.extend(v.render() for v in self.violations)
            lines.extend(self.parse_errors)
        lines.extend(self.warnings)
        counts = self.counts_by_rule()
        suffix = (
            f" (+{self.baseline_matched} baselined)"
            if self.baseline_matched
            else ""
        )
        if counts:
            breakdown = ", ".join(
                f"{rule}={count}" for rule, count in sorted(counts.items())
            )
            lines.append(
                f"simlint: {len(self.violations)} violation(s) in "
                f"{self.files_checked} file(s) ({breakdown}){suffix}"
            )
        else:
            lines.append(
                f"simlint: clean — {self.files_checked} file(s), "
                f"0 violations{suffix}"
            )
        return "\n".join(lines)


def _iter_python_files(paths: Sequence[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        else:
            yield path


def _parse_tree(
    paths: Sequence[Path], report: LintReport
) -> Tuple[Project, List[Tuple[str, str, str, "ast.Module"]]]:
    """Single parse of every file; syntax errors land in the report."""
    sources: List[Tuple[str, str, str, ast.Module]] = []
    for file_path in _iter_python_files(paths):
        report.files_checked += 1
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(file_path))
        except SyntaxError as exc:
            report.parse_errors.append(
                f"{file_path}:{exc.lineno or 0}: parse-error: {exc.msg}"
            )
            continue
        sources.append(
            (str(file_path), file_path.as_posix(), source, tree)
        )
    return Project.from_sources(sources), sources


def lint_file(
    path: "Path | str", config: LintConfig = DEFAULT_CONFIG
) -> List[Violation]:
    """Lint a single file; returns its unsuppressed violations.

    Single-file convenience: cross-file context (imported async
    defs, call summaries from other modules) is limited to this file.
    """
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    return check_source(source, str(path), path.as_posix(), config)


def lint_paths(
    paths: Sequence["Path | str"],
    config: LintConfig = DEFAULT_CONFIG,
    baseline: Optional[Baseline] = None,
) -> LintReport:
    """Lint files and directories (recursively) into one report.

    Parses the whole tree once, builds the project symbol table and
    call summaries, then runs every pass per file.  When ``baseline``
    is given, findings it accepts are subtracted
    (:meth:`LintReport.apply_baseline`).
    """
    report = LintReport()
    project, sources = _parse_tree([Path(p) for p in paths], report)
    for path, posix_path, source, _tree in sources:
        report.violations.extend(
            check_source(
                source,
                path,
                posix_path,
                config,
                project=project,
                warnings=report.warnings,
            )
        )
    report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    if baseline is not None:
        report.apply_baseline(baseline)
    return report
