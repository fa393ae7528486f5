"""Rule plumbing: the base classes every analyzer plugs in through.

Two shapes of rule exist.  A :class:`FileRule` sees one
:class:`~repro.analysis.source.SourceFile` at a time — most invariants
are local.  A :class:`ProjectRule` sees the whole file set at once, for
cross-file contracts (spec classes defined in one module and consumed
in another).  Both
yield :class:`~repro.analysis.finding.Finding` objects; the engine owns
pragma suppression, baselining, ordering and reporting, so rules just
emit every violation they see.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.analysis.finding import Finding
from repro.analysis.source import SourceFile

__all__ = ["Rule", "FileRule", "ProjectRule", "scoped"]


class Rule:
    """Shared rule surface: stable ID, short name, one-line description."""

    rule_id: str = "RPR999"
    name: str = "unnamed"
    description: str = ""

    def check_project(self, files: list[SourceFile]) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, sf: SourceFile, line: int, col: int, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=sf.rel,
            line=line,
            col=col,
            message=message,
            symbol=sf.symbol_at(line),
        )


class FileRule(Rule):
    """A rule that inspects files independently."""

    def check_file(self, sf: SourceFile) -> Iterable[Finding]:
        raise NotImplementedError

    def check_project(self, files: list[SourceFile]) -> Iterator[Finding]:
        for sf in files:
            if sf.tree is not None:
                yield from self.check_file(sf)


class ProjectRule(Rule):
    """A rule that needs the whole file set (cross-file contracts)."""


def scoped(sf: SourceFile, prefixes: tuple[str, ...]) -> bool:
    """Is this file inside one of the scope prefixes?

    Matching is on path *segments* (``repro/sim/`` matches
    ``src/repro/sim/engine.py`` whether the analysis root is the repo or
    ``src/``), so rules scope to architectural layers, not to where the
    analysis was started from.
    """
    rel = f"/{sf.rel}"
    return any(f"/{prefix}" in rel for prefix in prefixes)
