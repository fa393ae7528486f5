"""Per-file analysis context: parsed AST plus the resolution tables rules need.

A :class:`SourceFile` wraps one Python file with everything the rules
share: the raw lines (pragma scanning reads text, not syntax),
the parsed tree, an import-alias table for resolving dotted call names
(``from datetime import datetime`` makes ``datetime.now`` resolve to
``datetime.datetime.now``), a line → enclosing-symbol index for stable
finding attribution, the inline ``# repro: allow[...]`` pragma index,
and a child → parent node map for context-sensitive checks (is this
clock read an operand of a delta expression?).

Everything derived is computed lazily and cached — a rule that never
asks for the parent map never pays for it.
"""

from __future__ import annotations

import ast
import re
from functools import cached_property
from pathlib import Path

__all__ = ["SourceFile", "dotted_name", "PRAGMA_RE"]

#: Inline suppression pragma: ``# repro: allow[RPR001]`` or
#: ``# repro: allow[RPR001,RPR003] — optional free-form reason``.
PRAGMA_RE = re.compile(r"#\s*repro:\s*allow\[([A-Za-z0-9_,\s]+)\]")


def dotted_name(node: ast.AST) -> str | None:
    """Syntactic dotted form of a Name/Attribute chain (``a.b.c``).

    Returns None for anything that is not a plain chain (calls,
    subscripts, literals as the base).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class SourceFile:
    """One analyzed file; see the module docstring for what it carries."""

    def __init__(self, path: Path, root: Path):
        self.path = path
        self.root = root
        resolved = path.resolve()
        try:
            self.rel = resolved.relative_to(root.resolve()).as_posix()
        except ValueError:  # outside the root: keep the absolute path
            self.rel = resolved.as_posix()
        self.text = path.read_text(encoding="utf-8", errors="replace")
        self.lines = self.text.splitlines()
        self.tree: ast.Module | None = None
        self.parse_error: str | None = None
        try:
            self.tree = ast.parse(self.text, filename=self.rel)
        except SyntaxError as error:
            self.parse_error = (
                f"cannot parse: {error.msg} (line {error.lineno or 0})"
            )

    # -- import resolution --------------------------------------------------

    @cached_property
    def imports(self) -> dict[str, str]:
        """Local binding → absolute dotted module/object path.

        ``import a.b`` binds ``a`` → ``a`` (attribute chains then resolve
        naturally); ``import a.b as x`` binds ``x`` → ``a.b``;
        ``from m import n as o`` binds ``o`` → ``m.n``.  Relative imports
        are skipped — the deny-lists the rules match against are absolute
        stdlib/third-party names.
        """
        table: dict[str, str] = {}
        if self.tree is None:
            return table
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        table[alias.asname] = alias.name
                    else:
                        table[alias.name.split(".")[0]] = alias.name.split(".")[0]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        return table

    def resolve_name(self, node: ast.AST) -> str | None:
        """Absolute dotted name of a Name/Attribute chain, alias-expanded.

        ``open`` (a bare builtin) resolves to ``"open"``; unresolvable
        shapes (calls, subscripts at the base) resolve to None.
        """
        syntactic = dotted_name(node)
        if syntactic is None:
            return None
        head, _, rest = syntactic.partition(".")
        expanded = self.imports.get(head)
        if expanded is None:
            return syntactic
        return f"{expanded}.{rest}" if rest else expanded

    # -- enclosing-symbol index ---------------------------------------------

    @cached_property
    def _symbol_spans(self) -> list[tuple[int, int, str]]:
        spans: list[tuple[int, int, str]] = []

        def walk(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    qualname = f"{prefix}.{child.name}" if prefix else child.name
                    spans.append(
                        (child.lineno, child.end_lineno or child.lineno, qualname)
                    )
                    walk(child, qualname)
                else:
                    walk(child, prefix)

        if self.tree is not None:
            walk(self.tree, "")
        # Innermost span wins: sort outermost-first, overwrite on lookup.
        spans.sort(key=lambda span: (span[0], -span[1]))
        return spans

    def symbol_at(self, line: int) -> str:
        """Innermost enclosing ``Class.method`` chain at ``line``."""
        symbol = "<module>"
        for start, end, qualname in self._symbol_spans:
            if start <= line <= end:
                symbol = qualname
        return symbol

    # -- pragma index --------------------------------------------------------

    @cached_property
    def pragmas(self) -> dict[int, frozenset[str]]:
        """Line (1-based) → rule IDs allowed on that line."""
        table: dict[int, frozenset[str]] = {}
        for number, line in enumerate(self.lines, start=1):
            match = PRAGMA_RE.search(line)
            if match:
                rules = frozenset(
                    token.strip().upper()
                    for token in match.group(1).split(",")
                    if token.strip()
                )
                if rules:
                    table[number] = rules
        return table

    def is_allowed(self, rule: str, line: int) -> bool:
        """True when a pragma suppresses ``rule`` at ``line``.

        A pragma applies to its own physical line, or — when written as
        a standalone comment line — to the line directly below it.
        """
        if rule in self.pragmas.get(line, frozenset()):
            return True
        above = self.pragmas.get(line - 1, frozenset())
        if rule in above:
            text = self.lines[line - 2].strip() if line >= 2 else ""
            if text.startswith("#"):
                return True
        return False

    # -- parent map ----------------------------------------------------------

    @cached_property
    def parents(self) -> dict[ast.AST, ast.AST]:
        table: dict[ast.AST, ast.AST] = {}
        if self.tree is not None:
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    table[child] = node
        return table

    def ancestors(self, node: ast.AST):
        """Parents of ``node``, innermost first, up to the module."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)
