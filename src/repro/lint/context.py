"""Repo-aware lint context.

The DOC001 rule cross-checks paper references found in docstrings
(``Figure 12``, ``§4.1``, ``Section 4.2``) against the figures and
sections actually catalogued in ``docs/paper_mapping.md``. This module
discovers the repo root, parses the mapping file once, and exposes the
resulting reference sets to every worker process.

It also centralises the reference-extraction regexes so the rule and the
mapping parser can never drift apart.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import FrozenSet, Iterator, Optional, Tuple

__all__ = ["PaperRef", "RepoContext", "extract_obs_names", "extract_refs"]

# "Figure 12", "Fig. 5", "Figures 7-11" (ASCII hyphen, en- or em-dash).
_FIGURE = re.compile(
    r"\bFig(?:ure)?s?\.?\s*(?P<lo>\d+)(?:\s*[-–—]\s*(?P<hi>\d+))?"
)
# "§4.1", "§ 2", "Section 4.2", "Sections 4.1-4.3" (range kept as endpoints).
_SECTION = re.compile(
    r"(?:§\s*|\bSections?\s+)(?P<num>\d+(?:\.\d+)*)"
)

# Files whose presence marks the repository root.
_ROOT_MARKERS = ("pyproject.toml", ".git")
_MAPPING_RELPATH = Path("docs") / "paper_mapping.md"
_OBS_DOC_RELPATH = Path("docs") / "observability.md"

# OBS002's catalogue: every backtick-quoted token in observability.md
# that looks like an instrument name (dotted lowercase path or a bare
# snake_case event type). Deliberately permissive — over-collecting
# produces false negatives for the linter, never false positives.
_BACKTICK = re.compile(r"`([^`\n]+)`")
_OBS_NAME = re.compile(r"^\.?[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)*$")

@dataclass(frozen=True)
class PaperRef:
    """One paper reference found in free text."""

    kind: str  # "figure" | "section"
    value: str  # "12" or "4.1"
    line_offset: int  # 0-based line index within the scanned text


def extract_refs(text: str) -> Iterator[PaperRef]:
    """Yield every figure/section reference in ``text``, ranges expanded."""
    for offset, line in enumerate(text.splitlines()):
        for match in _FIGURE.finditer(line):
            lo = int(match.group("lo"))
            hi = int(match.group("hi") or lo)
            if hi < lo or hi - lo > 100:  # malformed or absurd range
                hi = lo
            for number in range(lo, hi + 1):
                yield PaperRef("figure", str(number), offset)
        for match in _SECTION.finditer(line):
            yield PaperRef("section", match.group("num"), offset)


def extract_obs_names(text: str) -> FrozenSet[str]:
    """Instrument names catalogued in observability.md prose/tables.

    Tables abbreviate sibling metrics as ``exbox.decisions.admitted`` /
    ``.rejected``; a leading-dot token is expanded against the most
    recent full dotted name by replacing its trailing components.
    """
    names = set()
    last_full: Optional[str] = None
    for match in _BACKTICK.finditer(text):
        token = match.group(1).strip()
        if not _OBS_NAME.match(token):
            continue
        if token.startswith("."):
            if last_full is None:
                continue
            suffix = token[1:].split(".")
            base = last_full.split(".")
            if len(base) <= len(suffix):
                continue
            names.add(".".join(base[: -len(suffix)] + suffix))
        else:
            names.add(token)
            if "." in token:
                last_full = token
    return frozenset(names)


def _section_matches(ref: str, known: FrozenSet[str]) -> bool:
    """Prefix matching on dot boundaries: §4 covers §4.1 and vice versa."""
    if ref in known:
        return True
    for section in known:
        if section.startswith(ref + ".") or ref.startswith(section + "."):
            return True
    return False


@dataclass(frozen=True)
class RepoContext:
    """Everything a worker process needs beyond the file it is linting."""

    root: Optional[str] = None
    mapping_path: Optional[str] = None
    figures: FrozenSet[str] = field(default_factory=frozenset)
    sections: FrozenSet[str] = field(default_factory=frozenset)
    obs_doc_path: Optional[str] = None
    obs_names: FrozenSet[str] = field(default_factory=frozenset)

    @property
    def has_mapping(self) -> bool:
        return self.mapping_path is not None

    @property
    def has_obs_catalogue(self) -> bool:
        return self.obs_doc_path is not None

    def knows_figure(self, number: str) -> bool:
        return number in self.figures

    def knows_section(self, number: str) -> bool:
        return _section_matches(number, self.sections)

    def knows_obs_name(self, name: str) -> bool:
        return name in self.obs_names

    @classmethod
    def discover(cls, start: Path) -> "RepoContext":
        """Walk up from ``start`` to the repo root and parse the mapping."""
        here = start.resolve()
        if here.is_file():
            here = here.parent
        for candidate in (here, *here.parents):
            if any((candidate / marker).exists() for marker in _ROOT_MARKERS):
                return cls.from_root(candidate)
        return cls()

    @classmethod
    def from_root(cls, root: Path) -> "RepoContext":
        mapping = root / _MAPPING_RELPATH
        obs_doc = root / _OBS_DOC_RELPATH
        obs_doc_path: Optional[str] = None
        obs_names: FrozenSet[str] = frozenset()
        if obs_doc.is_file():
            obs_doc_path = str(obs_doc)
            obs_names = extract_obs_names(obs_doc.read_text(encoding="utf-8"))
        if not mapping.is_file():
            return cls(
                root=str(root), obs_doc_path=obs_doc_path, obs_names=obs_names
            )
        figures, sections = _parse_mapping(mapping.read_text(encoding="utf-8"))
        return cls(
            root=str(root),
            mapping_path=str(mapping),
            figures=figures,
            sections=sections,
            obs_doc_path=obs_doc_path,
            obs_names=obs_names,
        )


def _parse_mapping(text: str) -> Tuple[FrozenSet[str], FrozenSet[str]]:
    figures = set()
    sections = set()
    for ref in extract_refs(text):
        if ref.kind == "figure":
            figures.add(ref.value)
        else:
            sections.add(ref.value)
    return frozenset(figures), frozenset(sections)
