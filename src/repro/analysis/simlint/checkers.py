"""AST checkers for the ``simlint`` pass.

The engine makes one :mod:`tokenize` pass (comments: suppressions and
``hot-path`` markers live there, outside the AST) and one :mod:`ast`
pass per file.  Checkers are deliberately conservative: they flag only
patterns that are provably one of the registered hazards, so a clean
``repro lint`` run stays meaningful as a CI gate.

Violations are reported at the line of the offending *statement*
(``node.lineno``); a ``# simlint: disable=<rule>`` comment on that
physical line suppresses them (see :func:`collect_comment_directives`).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from .rules import ALL_RULE_IDS, LintConfig

#: Matches the three directive forms: per-line ``disable=<id>,<id>``,
#: file-level ``disable-file=<id>`` (first comment block only) and the
#: ``hot-path`` class marker.
_DIRECTIVE_RE = re.compile(
    r"#\s*simlint:\s*(?:"
    r"disable-file=(?P<filerules>[\w\-, ]+)"
    r"|disable=(?P<rules>[\w\-, ]+)"
    r"|(?P<hotpath>hot-path))"
)

#: Token types that may precede the first statement without ending the
#: file-header comment block (the module docstring is allowed through
#: so ``# simlint: disable-file=`` can follow it).
_HEADER_TOKENS = frozenset(
    {
        tokenize.ENCODING,
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
    }
)

_RANDOM_MODULE_OK = frozenset({"Random"})
_WALLCLOCK_MODULES = frozenset({"time", "datetime"})
_MUTATING_METHODS = frozenset(
    {
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "add",
        "remove",
        "discard",
    }
)


@dataclass(frozen=True)
class Violation:
    """One lint finding, addressed to a file/line/column."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule}: {self.message}"
        )


@dataclass
class Directives:
    """All ``# simlint:`` comment directives found in one file.

    * ``suppressions`` — line -> rule ids disabled there.  A directive
      on a *continuation* line of a multi-line statement is attributed
      both to its physical line and to the statement's first line
      (where violations are reported), so ``disable=`` works anywhere
      inside the statement.
    * ``hot_path_lines`` — lines carrying ``# simlint: hot-path``.
    * ``file_disables`` — rule ids disabled for the whole file by a
      ``# simlint: disable-file=<id>`` directive in the file's first
      comment block (comments before any code; a module docstring may
      precede them).  ``disable-file`` elsewhere is ignored with a
      warning.  File-level disables take precedence over (subsume)
      per-line directives for the same rule.
    * ``warnings`` — ``(line, message)`` pairs for malformed
      directives: unknown rule ids and misplaced ``disable-file``.
      These are surfaced in the report, never silently dropped.
    """

    suppressions: Dict[int, FrozenSet[str]] = None  # type: ignore[assignment]
    hot_path_lines: FrozenSet[int] = frozenset()
    file_disables: FrozenSet[str] = frozenset()
    warnings: List[Tuple[int, str]] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.suppressions is None:
            self.suppressions = {}
        if self.warnings is None:
            self.warnings = []


def _split_rule_list(raw: str) -> FrozenSet[str]:
    return frozenset(
        part.strip() for part in raw.split(",") if part.strip()
    )


def collect_comment_directives(source: str) -> Directives:
    """Extract suppression / hot-path / file-disable directives.

    One :mod:`tokenize` pass.  The literal rule id ``"all"`` disables
    every rule; unknown ids produce a warning entry instead of being
    silently ignored.
    """
    out = Directives()
    suppressions: Dict[int, Set[str]] = {}
    hot_path_lines: Set[int] = set()
    file_disables: Set[str] = set()
    #: First line of the logical line currently being tokenized, so a
    #: directive on a continuation line reaches the reporting line.
    logical_start: Optional[int] = None
    #: Inside the file-header comment block (only ENCODING / comments /
    #: blank lines / the module docstring seen so far)?
    in_header = True
    docstring_seen = False

    def note_unknown(line: int, rules: FrozenSet[str]) -> None:
        for rule in sorted(rules - ALL_RULE_IDS - {"all"}):
            out.warnings.append(
                (line, f"unknown rule id '{rule}' in simlint directive")
            )

    def add_suppression(lines: Iterable[int], rules: FrozenSet[str]) -> None:
        known = rules & (ALL_RULE_IDS | {"all"})
        if not known:
            return
        for line in lines:
            suppressions.setdefault(line, set()).update(known)

    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                match = _DIRECTIVE_RE.search(tok.string)
                if match is None:
                    continue
                line = tok.start[0]
                lines = {line}
                if logical_start is not None:
                    lines.add(logical_start)
                if match.group("hotpath"):
                    hot_path_lines.update(lines)
                elif match.group("filerules") is not None:
                    rules = _split_rule_list(match.group("filerules"))
                    note_unknown(line, rules)
                    if in_header:
                        file_disables.update(
                            rules & (ALL_RULE_IDS | {"all"})
                        )
                    else:
                        out.warnings.append(
                            (
                                line,
                                "'disable-file' outside the first "
                                "comment block has no effect — move it "
                                "above the first statement or use a "
                                "per-line 'disable='",
                            )
                        )
                else:
                    rules = _split_rule_list(match.group("rules"))
                    note_unknown(line, rules)
                    add_suppression(lines, rules)
                continue
            if tok.type in _HEADER_TOKENS:
                if tok.type == tokenize.NEWLINE:
                    logical_start = None
                continue
            # First non-trivial token of a logical line.
            if logical_start is None:
                logical_start = tok.start[0]
            if in_header:
                if (
                    tok.type == tokenize.STRING
                    and not docstring_seen
                ):
                    docstring_seen = True
                else:
                    in_header = False
    except tokenize.TokenError:
        pass
    out.suppressions = {
        line: frozenset(rules) for line, rules in suppressions.items()
    }
    out.hot_path_lines = frozenset(hot_path_lines)
    out.file_disables = frozenset(file_disables)
    return out


def _is_set_expr(node: ast.AST) -> bool:
    """True for expressions that are statically known to build a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_set_annotation(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet")
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr in ("Set", "FrozenSet")
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return any(
            marker in node.value
            for marker in ("set", "Set", "frozenset", "FrozenSet")
        )
    return False


def _self_attr(node: ast.AST, self_names: FrozenSet[str]) -> Optional[str]:
    """``self.x`` -> ``"x"`` when the base name is a known ``self``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in self_names
    ):
        return node.attr
    return None


def _container_key(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Hashable identity for a ``name`` or ``obj.attr`` container ref."""
    if isinstance(node, ast.Name):
        return ("name", node.id)
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
        return ("attr", node.value.id, node.attr)
    return None


class _FileChecker(ast.NodeVisitor):
    """Single-file lint pass.  One instance per file."""

    def __init__(
        self,
        path: str,
        posix_path: str,
        tree: ast.Module,
        config: LintConfig,
        hot_path_lines: FrozenSet[int],
    ) -> None:
        self.path = path
        self.posix_path = posix_path
        self.config = config
        self.hot_path_lines = hot_path_lines
        self.violations: List[Violation] = []
        self._random_aliases: Set[str] = set()
        self._numpy_aliases: Set[str] = set()
        #: ``np.random`` attribute nodes that belong to an explicit
        #: generator construction (``np.random.default_rng(seed)``);
        #: these are exempt from the blanket ``numpy-random`` rule.
        self._numpy_generator_nodes: Set[int] = set()
        self._os_aliases: Set[str] = set()
        self._random_class_names: Set[str] = set()
        self._float_names: Set[str] = set()
        self._float_attrs: Set[str] = set()
        self._class_stack: List[ast.ClassDef] = []
        self._collect_float_bindings(tree)

    # -- helpers -------------------------------------------------------

    def _report(
        self, rule: str, node: ast.AST, message: str
    ) -> None:
        if not self.config.rule_applies(rule, self.posix_path):
            return
        self.violations.append(
            Violation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=message,
            )
        )

    def _collect_float_bindings(self, tree: ast.Module) -> None:
        """Names/attributes declared ``: float`` or assigned a float
        literal anywhere in the file — used by ``float-equality``."""
        for node in ast.walk(tree):
            if isinstance(node, ast.AnnAssign):
                is_float = (
                    isinstance(node.annotation, ast.Name)
                    and node.annotation.id == "float"
                )
                if not is_float:
                    continue
                if isinstance(node.target, ast.Name):
                    self._float_names.add(node.target.id)
                elif isinstance(node.target, ast.Attribute):
                    self._float_attrs.add(node.target.attr)
            elif isinstance(node, ast.Assign):
                if not (
                    isinstance(node.value, ast.Constant)
                    and type(node.value.value) is float
                ):
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._float_names.add(target.id)
                    elif isinstance(target, ast.Attribute):
                        self._float_attrs.add(target.attr)
            elif isinstance(node, ast.arg):
                if (
                    node.annotation is not None
                    and isinstance(node.annotation, ast.Name)
                    and node.annotation.id == "float"
                ):
                    self._float_names.add(node.arg)

    # -- imports: RNG / wallclock hazards ------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            bound = alias.asname or root
            if root == "random":
                self._random_aliases.add(bound)
            elif root == "numpy":
                self._numpy_aliases.add(alias.asname or root)
                if alias.name.startswith("numpy.random"):
                    self._report(
                        "numpy-random",
                        node,
                        f"import of '{alias.name}' pulls in numpy's "
                        "global RNG state",
                    )
            elif root == "os":
                self._os_aliases.add(bound)
            if root in _WALLCLOCK_MODULES:
                self._report(
                    "wallclock",
                    node,
                    f"import of '{alias.name}' — wall-clock state has no "
                    "place in simulation code",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        root = module.split(".")[0]
        if root == "random":
            for alias in node.names:
                if alias.name in _RANDOM_MODULE_OK:
                    self._random_class_names.add(alias.asname or alias.name)
                else:
                    self._report(
                        "module-random",
                        node,
                        f"'from random import {alias.name}' binds the "
                        "shared module-level RNG stream",
                    )
        elif root == "numpy":
            if module.startswith("numpy.random") or any(
                alias.name == "random" for alias in node.names
            ):
                self._report(
                    "numpy-random",
                    node,
                    f"import from '{module}' pulls in numpy's global "
                    "RNG state",
                )
        elif root in _WALLCLOCK_MODULES:
            self._report(
                "wallclock",
                node,
                f"import from '{module}' — wall-clock state has no "
                "place in simulation code",
            )
        elif root == "os":
            for alias in node.names:
                if alias.name == "urandom":
                    self._report(
                        "wallclock",
                        node,
                        "'os.urandom' is a nondeterministic entropy "
                        "source",
                    )
        self.generic_visit(node)

    # -- calls / attribute uses ----------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # random.Random() / Random() with no seed argument.
        is_random_ctor = (
            isinstance(func, ast.Attribute)
            and func.attr == "Random"
            and isinstance(func.value, ast.Name)
            and func.value.id in self._random_aliases
        ) or (
            isinstance(func, ast.Name)
            and func.id in self._random_class_names
        )
        if is_random_ctor and not node.args and not node.keywords:
            self._report(
                "unseeded-random",
                node,
                "random.Random() constructed without a seed — seed it "
                "from the run configuration",
            )
        # np.random.default_rng(...) / np.random.Generator(...): the
        # vectorized-code analogue of random.Random(...).  With an
        # explicit seed argument this is the *sanctioned* numpy RNG
        # idiom, so the blanket numpy-random rule stands down; without
        # one it is the same determinism hazard as random.Random().
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("default_rng", "Generator")
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in self._numpy_aliases
        ):
            self._numpy_generator_nodes.add(id(func.value))
            if not node.args and not node.keywords:
                self._report(
                    "numpy-unseeded-generator",
                    node,
                    f"'np.random.{func.attr}()' constructed without an "
                    "explicit seed — OS-entropy seeding is "
                    "nondeterministic across runs",
                )
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name):
            base = node.value.id
            if (
                base in self._random_aliases
                and node.attr not in _RANDOM_MODULE_OK
            ):
                self._report(
                    "module-random",
                    node,
                    f"'random.{node.attr}' uses the shared module-level "
                    "RNG stream — use a seeded random.Random instance",
                )
            elif (
                base in self._numpy_aliases
                and node.attr == "random"
                and id(node) not in self._numpy_generator_nodes
            ):
                self._report(
                    "numpy-random",
                    node,
                    f"'{base}.random' accesses numpy's global RNG state",
                )
            elif base in self._os_aliases and node.attr == "urandom":
                self._report(
                    "wallclock",
                    node,
                    "'os.urandom' is a nondeterministic entropy source",
                )
        self.generic_visit(node)

    # -- float equality ------------------------------------------------

    def _is_floatish(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Constant) and type(node.value) is float:
            return True
        if isinstance(node, ast.Name) and node.id in self._float_names:
            return True
        if (
            isinstance(node, ast.Attribute)
            and node.attr in self._float_attrs
        ):
            return True
        return False

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            if any(self._is_floatish(operand) for operand in operands):
                self._report(
                    "float-equality",
                    node,
                    "float compared with == / != — use an ordering "
                    "comparison or an explicit tolerance",
                )
        self.generic_visit(node)

    # -- set iteration / dict mutation ---------------------------------

    def _function_set_bindings(
        self, func: ast.AST
    ) -> Tuple[FrozenSet[str], FrozenSet[str]]:
        """Names (and ``self`` attrs) bound to set expressions in
        ``func``'s body."""
        names: Set[str] = set()
        attrs: Set[str] = set()
        for node in ast.walk(func):
            value = None
            targets: Iterable[ast.AST] = ()
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign):
                value, targets = node.value, (node.target,)
                if _is_set_annotation(node.annotation):
                    if isinstance(node.target, ast.Name):
                        names.add(node.target.id)
                    elif isinstance(node.target, ast.Attribute):
                        attrs.add(node.target.attr)
            if value is None or not _is_set_expr(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
                elif isinstance(target, ast.Attribute):
                    attrs.add(target.attr)
        return frozenset(names), frozenset(attrs)

    def _check_iteration_order(self, func: ast.AST) -> None:
        """Flag ``for``/comprehension iteration over sets, and
        container mutation inside the loop iterating it."""
        set_names, set_attrs = self._function_set_bindings(func)

        def iter_is_set(expr: ast.AST) -> bool:
            if _is_set_expr(expr):
                return True
            if isinstance(expr, ast.Name) and expr.id in set_names:
                return True
            if (
                isinstance(expr, ast.Attribute)
                and expr.attr in set_attrs
            ):
                return True
            return False

        for node in ast.walk(func):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if iter_is_set(node.iter):
                    self._report(
                        "set-iteration",
                        node,
                        "iterating a set — hash order varies across "
                        "runs; iterate a list/tuple or sorted() view",
                    )
                self._check_mutation_while_iterating(node)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    if iter_is_set(generator.iter):
                        self._report(
                            "set-iteration",
                            node,
                            "comprehension over a set — hash order "
                            "varies across runs",
                        )

    def _check_mutation_while_iterating(self, loop: ast.For) -> None:
        iter_expr = loop.iter
        # ``for k in d`` or ``for k, v in d.items()/keys()/values()``.
        if (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Attribute)
            and iter_expr.func.attr in ("items", "keys", "values")
            and not iter_expr.args
        ):
            container = iter_expr.func.value
        else:
            container = iter_expr
        key = _container_key(container)
        if key is None:
            return
        for node in ast.walk(loop):
            if node is loop:
                continue
            if isinstance(node, ast.Delete):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and _container_key(target.value) == key
                    ):
                        self._report(
                            "dict-mutation",
                            node,
                            "container entry deleted while the "
                            "container is being iterated",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
                and _container_key(node.func.value) == key
            ):
                self._report(
                    "dict-mutation",
                    node,
                    f"'.{node.func.attr}()' resizes the container "
                    "being iterated",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_iteration_order(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_iteration_order(node)
        self.generic_visit(node)

    def visit_Module(self, node: ast.Module) -> None:
        # Module-level loops (rare, but config tables get built there).
        for stmt in node.body:
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._check_iteration_order(stmt)
        self.generic_visit(node)

    # -- class hygiene: __slots__ --------------------------------------

    @staticmethod
    def _class_slots(node: ast.ClassDef) -> Optional[FrozenSet[str]]:
        """The literal ``__slots__`` names, or ``None`` if absent /
        not statically known."""
        for stmt in node.body:
            targets: Iterable[ast.AST] = ()
            value = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = (stmt.target,), stmt.value
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "__slots__"
                ):
                    if isinstance(value, (ast.Tuple, ast.List)):
                        names = set()
                        for element in value.elts:
                            if isinstance(element, ast.Constant) and isinstance(
                                element.value, str
                            ):
                                names.add(element.value)
                        return frozenset(names)
                    return frozenset()  # present but dynamic
        return None

    @staticmethod
    def _dataclass_slots(node: ast.ClassDef) -> bool:
        """True when decorated ``@dataclass(..., slots=True)``."""
        for decorator in node.decorator_list:
            if not isinstance(decorator, ast.Call):
                continue
            func = decorator.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name != "dataclass":
                continue
            for keyword in decorator.keywords:
                if (
                    keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    return True
        return False

    def _is_hot_path(self, node: ast.ClassDef) -> bool:
        if node.name in self.config.registered_hot_path(self.posix_path):
            return True
        lines = {node.lineno}
        lines.update(dec.lineno for dec in node.decorator_list)
        return bool(lines & self.hot_path_lines)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        slots = self._class_slots(node)
        has_slots = slots is not None or self._dataclass_slots(node)
        if self._is_hot_path(node) and not has_slots:
            self._report(
                "missing-slots",
                node,
                f"hot-path class '{node.name}' does not define "
                "__slots__ (per-instance dicts on the cycle path)",
            )
        if slots:
            self._check_attrs_outside_init(node, slots)
        self._class_stack.append(node)
        self.generic_visit(node)
        self._class_stack.pop()

    def _check_attrs_outside_init(
        self, node: ast.ClassDef, slots: FrozenSet[str]
    ) -> None:
        init_attrs: Set[str] = set()
        methods = [
            stmt
            for stmt in node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for method in methods:
            if method.name not in ("__init__", "__post_init__"):
                continue
            self_names = frozenset(
                arg.arg for arg in method.args.args[:1]
            )
            for sub in ast.walk(method):
                for target in _assignment_targets(sub):
                    attr = _self_attr(target, self_names)
                    if attr is not None:
                        init_attrs.add(attr)
        allowed = slots | init_attrs
        for method in methods:
            if method.name in ("__init__", "__post_init__"):
                continue
            self_names = frozenset(
                arg.arg for arg in method.args.args[:1]
            )
            if not self_names:
                continue
            for sub in ast.walk(method):
                for target in _assignment_targets(sub):
                    attr = _self_attr(target, self_names)
                    if attr is not None and attr not in allowed:
                        self._report(
                            "attr-outside-init",
                            sub,
                            f"attribute '{attr}' created outside "
                            f"__init__ on slotted class '{node.name}'",
                        )


def _assignment_targets(node: ast.AST) -> Iterable[ast.AST]:
    if isinstance(node, ast.Assign):
        return node.targets
    if isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        return (node.target,)
    return ()


def check_source(
    source: str,
    path: str,
    posix_path: str,
    config: LintConfig,
    project: "object | None" = None,
    warnings: "List[str] | None" = None,
) -> List[Violation]:
    """Lint one file's source text; returns unsuppressed violations
    sorted by (line, col, rule).

    ``project`` is an optional :class:`~.project.Project` giving the
    cross-file passes (taint summaries, imported ``async def`` names)
    their whole-tree context; without one, a single-file project is
    built on the fly.  ``warnings`` collects rendered directive
    warnings (unknown rule ids, misplaced ``disable-file``) when a
    list is passed.
    """
    directives = collect_comment_directives(source)

    # Project-wide passes (dataflow taint, async/fork-safety).
    # Imported lazily: these modules import Violation from here, so a
    # top-level import would be circular.
    from .async_checks import check_async
    from .project import Project
    from .taint import check_taint

    if project is None:
        tree = ast.parse(source, filename=path)
        project = Project.from_sources([(path, posix_path, source, tree)])
    module = project.module_for(posix_path)
    tree = module.tree if module is not None else ast.parse(
        source, filename=path
    )

    checker = _FileChecker(
        path, posix_path, tree, config, directives.hot_path_lines
    )
    checker.visit(tree)
    violations = list(checker.violations)
    if module is not None:
        violations.extend(check_taint(module, project, config))
        violations.extend(check_async(module, project, config))

    if warnings is not None:
        warnings.extend(
            f"{path}:{line}: warning: {message}"
            for line, message in directives.warnings
        )

    kept = []
    seen = set()
    for violation in violations:
        if (
            "all" in directives.file_disables
            or violation.rule in directives.file_disables
        ):
            continue
        disabled = directives.suppressions.get(violation.line, frozenset())
        if "all" in disabled or violation.rule in disabled:
            continue
        # Nested functions are walked by both their own visit and the
        # enclosing function's pass; collapse identical findings.
        key = (violation.line, violation.col, violation.rule)
        if key in seen:
            continue
        seen.add(key)
        kept.append(violation)
    kept.sort(key=lambda v: (v.line, v.col, v.rule))
    return kept
