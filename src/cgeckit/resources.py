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

A file that cannot be opened raises OSError naming it; malformed lines raise
ParseError with the file name and line number. Duplicate keys merge their
candidate lists in file order, keeping each word's first occurrence.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, NamedTuple

from cgeckit.core import ConfigError, ParseError, open_input

# Table rows are named tuples: read-only records that, unlike frozen
# dataclasses, cost next to nothing to define at import and to build per row.
class MixedPattern(NamedTuple):
    kind: str  # "pattern" | "sentence"
    match: str
    splice: str


class Collocation(NamedTuple):
    kind: str  # subject_predicate | predicate_object | subject_object | modifier_head
    left: str
    right: str
    wrong: tuple[str, ...]
    side: str  # "left" | "right": which member gets replaced


class ConnectivePair(NamedTuple):
    first: str
    second: str
    wrong: tuple[str, ...]


# A lookup map takes a key to the table positions of its rows, in table order.
_Positions = dict[str, list[int]]


def _key_map(keys: Iterable[str]) -> _Positions:
    """Map each key to its positions in `keys`."""
    index: _Positions = {}
    for pos, key in enumerate(keys):
        index.setdefault(key, []).append(pos)
    return index


def _key_maps_by_kind(rows: list, key: Callable) -> dict[str, _Positions]:
    """One lookup map per row kind, keyed by `key(row)`."""
    maps: dict[str, _Positions] = {}
    for pos, row in enumerate(rows):
        maps.setdefault(row.kind, {}).setdefault(key(row), []).append(pos)
    return maps


def _matching_rows(table: list, index: _Positions, keys: Iterable[str]) -> list:
    """The rows of `table` whose key is one of the distinct `keys`, in
    table order, so that candidates come out in the order of a whole-table
    scan (the rules' random pick indexes into that order)."""
    positions: list[int] = []
    for key in keys:
        positions.extend(index.get(key, ()))
    positions.sort()
    return [table[pos] for pos in positions]


@dataclass
class RuleResources:
    """Parsed rule tables; read-only after load.

    The rules find their rows through private lookup maps built from the
    tables on first use. Each map takes the key a rule matches on to the
    positions of the matching rows, so a rule's cost grows with the
    sentence, not with the size of its table.
    """

    mixed_patterns: list[MixedPattern] = field(default_factory=list)
    subsume_pairs: list[tuple[str, str]] = field(default_factory=list)
    hostguest_markers: list[str] = field(default_factory=list)
    causal_triggers: list[str] = field(default_factory=list)
    collocations: list[Collocation] = field(default_factory=list)
    synonyms: dict[str, list[str]] = field(default_factory=dict)
    meaning_pairs: dict[str, list[str]] = field(default_factory=dict)
    connective_pairs: list[ConnectivePair] = field(default_factory=list)
    function_words: dict[str, list[str]] = field(default_factory=dict)

    @cached_property
    def _mixed_index(self) -> dict[str, tuple[list[int], _Positions]]:
        """Per kind: the distinct match lengths, and match -> positions.

        A sentence's head ends with a match exactly when its suffix of that
        match's length is the match.
        """
        maps = _key_maps_by_kind(self.mixed_patterns, lambda entry: entry.match)
        return {kind: (sorted({len(m) for m in index}), index) for kind, index in maps.items()}

    @cached_property
    def _subsume_index(self) -> _Positions:
        """Superset -> positions in `subsume_pairs`."""
        return _key_map(superset for superset, _ in self.subsume_pairs)

    @cached_property
    def _collocation_index(self) -> dict[str, _Positions]:
        """Per kind: the member a rule looks up -> positions in `collocations`.

        subject_predicate rows are keyed by `right` (the rule knows the
        predicate), all other kinds by `left`.
        """
        return _key_maps_by_kind(
            self.collocations, lambda c: c.right if c.kind == "subject_predicate" else c.left
        )

    @cached_property
    def _connective_index(self) -> _Positions:
        """First member -> positions in `connective_pairs`."""
        return _key_map(pair.first for pair in self.connective_pairs)

    @cached_property
    def _hostguest_set(self) -> frozenset[str]:
        return frozenset(self.hostguest_markers)

    @cached_property
    def _word_sets(self) -> dict[str, frozenset[str]]:
        """Function-word category -> its words, for membership tests."""
        return {category: frozenset(words) for category, words in self.function_words.items()}

    @cached_property
    def _word_tuples(self) -> dict[str, tuple[str, ...]]:
        """Function-word category -> its words in table order, for draws."""
        return {category: tuple(words) for category, words in self.function_words.items()}


DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def default_resources_dir() -> str:
    return os.path.join(DATA_DIR, "resources")


def _rows(path: str) -> Iterator[tuple[int, list[str]]]:
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            yield lineno, line.split("\t")


def _split_list(cell: str) -> list[str]:
    return [w for w in cell.split(",") if w]


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
            res.hostguest_markers.append(cols[1])
        elif kind == "causal" and len(cols) == 2 and cols[1]:
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
            res.synonyms.setdefault(cols[0], []).extend(words)
        elif kind == "subsume":
            res.meaning_pairs.setdefault(cols[0], []).extend(words)
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
        res.function_words.setdefault(cols[0], []).append(cols[1])


def _dedupe(res: RuleResources) -> None:
    """Keep the first occurrence of each marker, trigger and bucket word,
    in file order."""
    res.hostguest_markers[:] = dict.fromkeys(res.hostguest_markers)
    res.causal_triggers[:] = dict.fromkeys(res.causal_triggers)
    for table in (res.synonyms, res.meaning_pairs, res.function_words):
        for key, bucket in table.items():
            table[key] = list(dict.fromkeys(bucket))


_PARSERS: dict[str, Callable[[str, RuleResources], None]] = {
    "mixed_patterns.tsv": _parse_mixed,
    "logic_patterns.tsv": _parse_logic,
    "collocations.tsv": _parse_collocations,
    "synonyms.tsv": _parse_synonyms,
    "connectives.tsv": _parse_connectives,
    "function_words.tsv": _parse_function_words,
}
FILE_NAMES = tuple(_PARSERS)


def load_resources(directory: str | None = None) -> RuleResources:
    """Load and validate the six resource tables from a directory.

    Raises:
        OSError: a table file cannot be opened or read; it names the file.
        ParseError: malformed line, naming file and line number.
        ConfigError: a table is empty after loading.
    """
    directory = directory or default_resources_dir()
    res = RuleResources()
    for name, parse in _PARSERS.items():
        parse(os.path.join(directory, name), res)
    _dedupe(res)
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
