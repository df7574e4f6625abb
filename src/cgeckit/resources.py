"""Loader for the six rule-resource TSV files.

All files are UTF-8, tab-separated, with `#`-prefixed comment lines and
blank lines ignored. Column layouts:

- mixed_patterns.tsv: kind<TAB>match<TAB>splice
    kind `pattern`: two competing structures for one meaning; a sentence
    ending with `match` gets `splice` appended (structure blend).
    kind `sentence`: a second sentence reusing the final word; a sentence
    ending with `match` gets the run-on tail `splice` appended.
- logic_patterns.tsv: one of
    subsume<TAB>superset<TAB>subsumed   (subsumed concept conjoined after superset)
    hostguest<TAB>marker                (relational ADP for host/guest swap)
    causal<TAB>trigger                  (word marking a non-causal compound sentence)
- collocations.tsv: kind<TAB>left<TAB>right<TAB>wrong1,wrong2,...<TAB>side
    kind in {subject_predicate, predicate_object, subject_object,
    modifier_head}; side names the member the rule replaces.
- synonyms.tsv: word<TAB>syn1,syn2,...[<TAB>kind]
    kind `synonym` (default): near-synonyms for redundant doubling.
    kind `subsume`: a word whose meaning already covers the original.
- connectives.tsv: first<TAB>second<TAB>wrong1,wrong2,...
    correlative pair plus wrong replacements for the second member.
- function_words.tsv: category<TAB>word (one word per line; categories are
    open, see the shipped bundle for the ones the rules consume).

Missing files raise ConfigError naming the file; malformed lines raise
ParseError with the file name and line number. Duplicate keys merge their
candidate lists in file order.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources as importlib_resources
from typing import Callable, Iterator

from cgeckit.core import ConfigError, ParseError, open_input

FILE_NAMES = (
    "mixed_patterns.tsv",
    "logic_patterns.tsv",
    "collocations.tsv",
    "synonyms.tsv",
    "connectives.tsv",
    "function_words.tsv",
)


@dataclass(frozen=True)
class MixedPattern:
    kind: str  # "pattern" | "sentence"
    match: str
    splice: str


@dataclass(frozen=True)
class Collocation:
    kind: str  # subject_predicate | predicate_object | subject_object | modifier_head
    left: str
    right: str
    wrong: tuple[str, ...]
    side: str  # "left" | "right": which member gets replaced


@dataclass(frozen=True)
class ConnectivePair:
    first: str
    second: str
    wrong: tuple[str, ...]


@dataclass
class RuleResources:
    """Parsed rule tables; read-only after load."""

    mixed_patterns: list[MixedPattern] = field(default_factory=list)
    subsume_pairs: list[tuple[str, str]] = field(default_factory=list)
    hostguest_markers: list[str] = field(default_factory=list)
    causal_triggers: list[str] = field(default_factory=list)
    collocations: list[Collocation] = field(default_factory=list)
    synonyms: dict[str, list[str]] = field(default_factory=dict)
    meaning_pairs: dict[str, list[str]] = field(default_factory=dict)
    connective_pairs: list[ConnectivePair] = field(default_factory=list)
    function_words: dict[str, list[str]] = field(default_factory=dict)


def default_resources_dir() -> str:
    return str(importlib_resources.files("cgeckit").joinpath("data", "resources"))


def _rows(path: str) -> Iterator[tuple[int, list[str]]]:
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split("\t")


def _split_list(cell: str) -> list[str]:
    return [w for w in cell.split(",") if w]


def _merge(table: dict[str, list[str]], key: str, values: list[str]) -> None:
    bucket = table.setdefault(key, [])
    for v in values:
        if v not in bucket:
            bucket.append(v)


def _bad(path: str, lineno: int, why: str) -> ParseError:
    return ParseError(f"{os.path.basename(path)}:{lineno}: {why}")


def _parse_mixed(path: str, res: RuleResources) -> None:
    for lineno, cols in _rows(path):
        if len(cols) != 3 or cols[0] not in ("pattern", "sentence") or not all(cols):
            raise _bad(path, lineno, "expected `pattern|sentence<TAB>match<TAB>splice`")
        res.mixed_patterns.append(MixedPattern(cols[0], cols[1], cols[2]))


def _parse_logic(path: str, res: RuleResources) -> None:
    for lineno, cols in _rows(path):
        kind = cols[0]
        if kind == "subsume" and len(cols) == 3 and cols[1] and cols[2]:
            if cols[1] == cols[2]:
                raise _bad(path, lineno, "subsumed concept equals the superset")
            res.subsume_pairs.append((cols[1], cols[2]))
        elif kind == "hostguest" and len(cols) == 2 and cols[1]:
            if cols[1] not in res.hostguest_markers:
                res.hostguest_markers.append(cols[1])
        elif kind == "causal" and len(cols) == 2 and cols[1]:
            if cols[1] not in res.causal_triggers:
                res.causal_triggers.append(cols[1])
        else:
            raise _bad(path, lineno, f"unknown or malformed logic pattern row {cols!r}")


_COLLOCATION_KINDS = ("subject_predicate", "predicate_object", "subject_object", "modifier_head")


def _parse_collocations(path: str, res: RuleResources) -> None:
    for lineno, cols in _rows(path):
        if len(cols) != 5 or cols[0] not in _COLLOCATION_KINDS or cols[4] not in ("left", "right"):
            raise _bad(path, lineno, "expected `kind<TAB>left<TAB>right<TAB>wrong,...<TAB>left|right`")
        wrong = _split_list(cols[3])
        if not cols[1] or not cols[2] or not wrong:
            raise _bad(path, lineno, "empty collocation member or wrong-candidate list")
        correct_member = cols[1] if cols[4] == "left" else cols[2]
        if correct_member in wrong:
            raise _bad(path, lineno, f"wrong candidates contain the correct word {correct_member!r}")
        res.collocations.append(Collocation(cols[0], cols[1], cols[2], tuple(wrong), cols[4]))


def _parse_synonyms(path: str, res: RuleResources) -> None:
    for lineno, cols in _rows(path):
        if len(cols) not in (2, 3) or not cols[0]:
            raise _bad(path, lineno, "expected `word<TAB>syn,...[<TAB>synonym|subsume]`")
        kind = cols[2] if len(cols) == 3 else "synonym"
        words = _split_list(cols[1])
        if not words:
            raise _bad(path, lineno, "empty synonym list")
        if cols[0] in words:
            raise _bad(path, lineno, f"synonym list for {cols[0]!r} contains the word itself")
        if kind == "synonym":
            _merge(res.synonyms, cols[0], words)
        elif kind == "subsume":
            _merge(res.meaning_pairs, cols[0], words)
        else:
            raise _bad(path, lineno, f"unknown synonym kind {kind!r}")


def _parse_connectives(path: str, res: RuleResources) -> None:
    for lineno, cols in _rows(path):
        if len(cols) != 3 or not cols[0] or not cols[1]:
            raise _bad(path, lineno, "expected `first<TAB>second<TAB>wrong,...`")
        wrong = _split_list(cols[2])
        if not wrong:
            raise _bad(path, lineno, "empty wrong-candidate list")
        if cols[1] in wrong:
            raise _bad(path, lineno, f"wrong candidates contain the correct word {cols[1]!r}")
        res.connective_pairs.append(ConnectivePair(cols[0], cols[1], tuple(wrong)))


def _parse_function_words(path: str, res: RuleResources) -> None:
    for lineno, cols in _rows(path):
        if len(cols) != 2 or not cols[0] or not cols[1]:
            raise _bad(path, lineno, "expected `category<TAB>word`")
        _merge(res.function_words, cols[0], [cols[1]])


_PARSERS: dict[str, Callable[[str, RuleResources], None]] = {
    "mixed_patterns.tsv": _parse_mixed,
    "logic_patterns.tsv": _parse_logic,
    "collocations.tsv": _parse_collocations,
    "synonyms.tsv": _parse_synonyms,
    "connectives.tsv": _parse_connectives,
    "function_words.tsv": _parse_function_words,
}


def load_resources(directory: str | None = None) -> RuleResources:
    """Load and validate the six resource tables from a directory.

    Raises:
        ConfigError: missing/unreadable file, naming it.
        ParseError: malformed line, naming file and line number.
    """
    directory = directory or default_resources_dir()
    res = RuleResources()
    for name in FILE_NAMES:
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            raise ConfigError(f"missing resource file: {path}")
        try:
            _PARSERS[name](path, res)
        except OSError as exc:
            raise ConfigError(f"cannot read resource file {path}: {exc}") from exc
    for label, table in (
        ("mixed_patterns", res.mixed_patterns),
        ("logic_patterns", res.subsume_pairs or res.hostguest_markers or res.causal_triggers),
        ("collocations", res.collocations),
        ("synonyms", res.synonyms or res.meaning_pairs),
        ("connectives", res.connective_pairs),
        ("function_words", res.function_words),
    ):
        if not table:
            raise ConfigError(f"resource table {label} is empty after loading {directory}")
    return res
