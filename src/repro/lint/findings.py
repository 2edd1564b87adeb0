"""The :class:`Finding` record shared by the driver and the rules."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.lint.scopes import ModuleInfo


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    #: Stripped source text of the flagged line (human context in
    #: reports).
    snippet: str = ""
    #: Qualified name of the enclosing function, "" at module level.
    #: Baselines key on it: a symbol survives edits that move it.
    symbol: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def baseline_key(self) -> Tuple[str, str, str]:
        """The baseline fingerprint: rule + normalized path + symbol."""
        return (self.path, self.rule, self.symbol)

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
            "snippet": self.snippet,
            "symbol": self.symbol,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def make_finding(
    module: ModuleInfo, node, rule: str, message: str
) -> Finding:
    """A finding anchored at an AST node (the rule modules' helper)."""
    line = getattr(node, "lineno", 1)
    col = getattr(node, "col_offset", 0)
    info = module.enclosing_function(node)
    if info is None and hasattr(node, "name"):
        # The node may itself be a def (purity findings anchor there).
        for own in module.functions:
            if own.node is node:
                info = own
                break
    return Finding(
        path=module.rel,
        line=line,
        col=col,
        rule=rule,
        message=message,
        snippet=module.snippet(line),
        symbol=info.qualname if info is not None else "",
    )
