"""Observability rules: OBS001 (no bare ``print()`` in library code)
and OBS002 (instrument names must be catalogued).

OBS001: library modules under ``src/repro/`` must report through the
:mod:`repro.obs` facade (metrics, events, spans) or return renderable
results; a stray ``print()`` bypasses both, cannot be captured by the
exporters, and pollutes stdout for callers that parse it (the CLI, the
benchmark JSON export). The CLI front-ends and the plain-text plotting
helper are the sanctioned stdout writers and are exempt.

OBS002: every metric, span, or event name the pipeline registers with a
string literal — ``obs.counter("...")``, ``.gauge``, ``.histogram``,
``.span``, ``obs.emit("...")`` — must appear in the catalogue tables of
``docs/observability.md``. The catalogue is how readers discover what
an ``obs check`` gate rule or a test can reference; an undocumented
name is invisible to them and prone to silent drift.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

from repro.lint.findings import Finding
from repro.lint.rules.base import Rule, register

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.lint.engine import ModuleInfo

__all__ = ["BarePrintInLibrary", "UncataloguedObsName"]

# Modules whose whole point is writing to stdout.
_EXEMPT_FILES = ("cli.py", "textplot.py")
_LIBRARY_PREFIX: Tuple[str, ...] = ("src", "repro")


def _library_relparts(module: "ModuleInfo") -> Optional[Tuple[str, ...]]:
    """Path components below ``src/repro/``, or None outside the library.

    The engine may be invoked from the repo root or from ``src/``, so the
    prefix is searched anywhere in the path rather than anchored.
    """
    parts = module.path_parts()
    for i in range(len(parts) - 1):
        if parts[i : i + 2] == _LIBRARY_PREFIX:
            rel = parts[i + 2 :]
            break
    else:
        if parts[:1] == ("repro",):
            rel = parts[1:]
        else:
            return None
    return rel or None


@register
class BarePrintInLibrary(Rule):
    rule_id = "OBS001"
    summary = "bare print() in library code"
    rationale = (
        "Library code under src/repro/ must report through the repro.obs "
        "facade (counters, events, spans) or return data for the caller "
        "to render; print() is invisible to the exporters and corrupts "
        "stdout for machine consumers. CLI modules and the text plotter "
        "are the sanctioned stdout writers."
    )

    def should_check(self, module: "ModuleInfo") -> bool:
        rel = _library_relparts(module)
        if rel is None:
            return False
        if rel[0] == "lint":  # the linter prints its own findings
            return False
        return module.filename not in _EXEMPT_FILES

    def visit_Call(self, node: ast.Call, module: "ModuleInfo") -> Iterator[Finding]:
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            yield self.finding(
                module,
                node,
                "bare print() in library code; emit a repro.obs event/metric "
                "or return the text to the caller (CLI modules are exempt)",
            )


# Facade/registry methods whose first argument names an instrument.
_OBS_NAMING_METHODS = frozenset({"counter", "gauge", "histogram", "span", "emit"})


@register
class UncataloguedObsName(Rule):
    rule_id = "OBS002"
    summary = "instrument name missing from docs/observability.md"
    rationale = (
        "docs/observability.md is the operator-facing catalogue of every "
        "metric, span, and event the pipeline can produce; obs check "
        "gate rules and tests are written against it. A name registered in "
        "code but absent from the catalogue is undiscoverable and drifts "
        "silently. Add the name to the relevant catalogue table (or fix "
        "the literal)."
    )

    def should_check(self, module: "ModuleInfo") -> bool:
        # Repo-aware like DOC001: silent when the catalogue is absent.
        return bool(
            module.context.has_obs_catalogue
            and _library_relparts(module) is not None
        )

    def visit_Call(self, node: ast.Call, module: "ModuleInfo") -> Iterator[Finding]:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        if func.attr not in _OBS_NAMING_METHODS:
            return
        if not node.args:
            return
        first = node.args[0]
        # Only plain literals are checkable; f-strings and variables
        # (e.g. span-name constants) are out of scope by design.
        if not isinstance(first, ast.Constant) or not isinstance(first.value, str):
            return
        if module.context.knows_obs_name(first.value):
            return
        yield self.finding(
            module,
            first,
            f"obs name {first.value!r} is not catalogued in "
            "docs/observability.md; document it in the metric/span/event "
            "tables",
        )
