"""Segmentation, POS tagging, and shallow syntactic-role identification.

Two tagging paths are supported: a greedy longest-match lexicon tagger
(self-contained, driven by a shipped TSV lexicon) and a pre-tagged input
parser for text already processed by an external tagger. Role
identification is a documented heuristic over the tag sequence, not a
parser; it is validated against a hand-labeled fixture set.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass, field
from functools import cache
from importlib import resources as importlib_resources
from typing import Mapping

from cgeckit.core import (
    ConfigError,
    POSTag,
    ParseError,
    SyntacticRole,
    TaggedSentence,
    Token,
    _tagged,
    _token,
    open_input,
)

NOMINAL_TAGS = frozenset({POSTag.NOUN, POSTag.PRON, POSTag.PROPN})
# Tags allowed inside an attribute's modifier run (before 的).
_ATTR_RUN_TAGS = frozenset({POSTag.ADJ, POSTag.NOUN, POSTag.PROPN, POSTag.NUM, POSTag.ADV})


def _shipped(name: str) -> str:
    return str(importlib_resources.files("cgeckit").joinpath("data", name))


def load_tag_mapping(path: str | None = None) -> dict[str, str]:
    """Load a TSV mapping external tag names to the canonical tag set."""
    path = path or _shipped("tag_mapping.tsv")
    mapping: dict[str, str] = {}
    try:
        with open_input(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0]:
                    raise ConfigError(f"{path}:{lineno}: expected `tag<TAB>canonical`")
                mapping.setdefault(parts[0], parts[1])
    except OSError as exc:
        raise ConfigError(f"cannot read tag mapping {path}: {exc}") from exc
    return mapping


def map_tag(raw: str, mapping: Mapping[str, str] | None = None) -> POSTag:
    """Map an external tag name to the closed tag set; unknowns become OTHER."""
    name = raw
    if mapping and raw in mapping:
        name = mapping[raw]
    try:
        return POSTag(name)
    except ValueError:
        return POSTag.OTHER


def load_lexicon(
    path: str | None = None, mapping: Mapping[str, str] | None = None
) -> dict[str, POSTag]:
    """Load a `surface<TAB>tag` lexicon; the first entry wins on duplicates."""
    path = path or _shipped("lexicon.tsv")
    lexicon: dict[str, POSTag] = {}
    try:
        with open_input(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith("#"):
                    continue
                parts = line.split("\t")
                if len(parts) != 2 or not parts[0]:
                    raise ConfigError(f"{path}:{lineno}: expected `surface<TAB>tag`")
                surface, tag = parts
                if surface not in lexicon:
                    lexicon[surface] = map_tag(tag, mapping)
    except OSError as exc:
        raise ConfigError(f"cannot read lexicon {path}: {exc}") from exc
    return lexicon


def _is_digit(ch: str) -> bool:
    return ch.isdigit() or unicodedata.category(ch) == "Nd"


class Tagger:
    """Greedy longest-match segmenter over a loaded lexicon.

    The lexicon is compiled once: for each first character, the lengths of
    the entries that start with it, longest first. A position then tries
    only lengths that some entry has, instead of every length up to the
    longest entry. Empty entries can never match and are left out.
    """

    def __init__(self, lexicon: Mapping[str, POSTag]):
        self.lexicon = dict(lexicon)
        lengths: dict[str, set[int]] = {}
        for surface in self.lexicon:
            if surface:
                lengths.setdefault(surface[0], set()).add(len(surface))
        self._lengths = {
            first: tuple(sorted(ns, reverse=True)) for first, ns in lengths.items()
        }

    def __call__(self, raw: str) -> TaggedSentence:
        lexicon, lengths = self.lexicon, self._lengths
        tokens: list[Token] = []
        pos = 0
        n = len(raw)
        while pos < n:
            for length in lengths.get(raw[pos], ()):
                end = pos + length
                if end <= n:
                    surface = raw[pos:end]
                    tag = lexicon.get(surface)
                    if tag is not None:
                        break
            else:
                end = pos + 1
                if _is_digit(raw[pos]):
                    # Numerals are unbounded; group a digit run into one NUM token.
                    while end < n and _is_digit(raw[end]):
                        end += 1
                    tag = POSTag.NUM
                else:
                    tag = POSTag.OTHER
                surface = raw[pos:end]
            # The tokens tile raw by construction, so they skip the checks.
            tokens.append(_token(surface, tag, pos, end))
            pos = end
        return _tagged(raw, tuple(tokens))


@cache
def _shipped_tag_mapping() -> dict[str, str]:
    return load_tag_mapping()


@cache
def get_tagger() -> Tagger:
    """The tagger over the shipped lexicon and tag mapping, built once."""
    return Tagger(load_lexicon(mapping=_shipped_tag_mapping()))


def segment_and_tag(raw: str) -> TaggedSentence:
    """Segment and tag raw text with the shipped lexicon.

    Greedy longest match against the lexicon; digit runs become single NUM
    tokens; any other unknown character becomes a single-character OTHER
    token, so the tokens always cover the whole input.
    """
    return get_tagger()(raw)


def parse_pretagged(line: str) -> TaggedSentence:
    """Parse one `surface/TAG surface/TAG ...` line from an external tagger.

    A tag is a canonical tag name or a tag that the shipped tag_mapping.tsv
    maps (THULAC's `n`, `v`, ...); any other tag becomes OTHER.

    Raises:
        ParseError: for an item without `/` or with an empty surface,
            citing the 1-based item index.
    """
    mapping = _shipped_tag_mapping()
    tokens: list[Token] = []
    pos = 0
    for index, item in enumerate(line.split(), start=1):
        surface, sep, tag = item.rpartition("/")
        if not sep:
            raise ParseError(f"item {index} ({item!r}): missing `/TAG` separator")
        if not surface:
            raise ParseError(f"item {index} ({item!r}): empty surface")
        tokens.append(Token(surface, map_tag(tag, mapping), pos, pos + len(surface)))
        pos += len(surface)
    text = "".join(t.surface for t in tokens)
    return TaggedSentence(text, tuple(tokens))


def serialize_pretagged(sentence: TaggedSentence) -> str:
    return " ".join(f"{t.surface}/{t.tag.value}" for t in sentence.tokens)


@dataclass(frozen=True)
class RoleSpans:
    """Token-index ranges [i, j) per syntactic role. Predicate has at most one."""

    spans: Mapping[SyntacticRole, tuple[tuple[int, int], ...]] = field(default_factory=dict)

    def ranges(self, role: SyntacticRole) -> tuple[tuple[int, int], ...]:
        return self.spans.get(role, ())

    def first(self, role: SyntacticRole) -> tuple[int, int] | None:
        ranges = self.ranges(role)
        return ranges[0] if ranges else None

    def predicate_index(self) -> int | None:
        pred = self.first(SyntacticRole.PREDICATE)
        return pred[0] if pred else None


def _is_de(token: Token) -> bool:
    return token.surface == "的" and token.tag is POSTag.PART


def _clauses(sentence: TaggedSentence) -> list[tuple[int, int]]:
    """Token-index clause ranges, split on PUNCT tokens (PUNCT excluded)."""
    clauses = []
    start = 0
    for i, tok in enumerate(sentence.tokens):
        if tok.tag is POSTag.PUNCT:
            if i > start:
                clauses.append((start, i))
            start = i + 1
    if start < len(sentence.tokens):
        clauses.append((start, len(sentence.tokens)))
    return clauses or [(0, 0)]


def _nominal_runs(sentence: TaggedSentence, lo: int, hi: int) -> list[tuple[int, int]]:
    runs = []
    i = lo
    while i < hi:
        if sentence.tokens[i].tag in NOMINAL_TAGS:
            j = i
            while j < hi and sentence.tokens[j].tag in NOMINAL_TAGS:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    return runs


def find_predicate(sentence: TaggedSentence) -> int | None:
    """First VERB token not immediately followed by 的 (which relativizes it)."""
    tokens = sentence.tokens
    for i, tok in enumerate(tokens):
        if tok.tag is POSTag.VERB:
            if i + 1 < len(tokens) and _is_de(tokens[i + 1]):
                continue
            return i
    return None


def _eligible_np(sentence: TaggedSentence, run: tuple[int, int]) -> bool:
    """A bare noun-phrase run: not an attribute (的 follows) and not the
    object of a preposition (ADP precedes)."""
    tokens = sentence.tokens
    i, j = run
    if j < len(tokens) and _is_de(tokens[j]):
        return False
    if i > 0 and tokens[i - 1].tag is POSTag.ADP:
        return False
    return True


def _attribute_ranges(sentence: TaggedSentence, predicate: int | None) -> list[tuple[int, int]]:
    tokens = sentence.tokens
    out = []
    for d, tok in enumerate(tokens):
        if not _is_de(tok) or d == 0:
            continue
        # 的 must introduce a noun phrase: optional ADJ run, then a nominal.
        k = d + 1
        while k < len(tokens) and tokens[k].tag is POSTag.ADJ:
            k += 1
        if k >= len(tokens) or tokens[k].tag not in NOMINAL_TAGS:
            continue
        before = tokens[d - 1]
        if before.tag is POSTag.VERB and d - 1 != predicate:
            # Relative clause `N* V 的`: include the verb and its bare subject.
            s = d - 1
            while s - 1 >= 0 and tokens[s - 1].tag in NOMINAL_TAGS and s - 1 != predicate:
                s -= 1
        elif before.tag is POSTag.PRON:
            # Possessive pronoun directly before 的.
            s = d - 1
        elif before.tag in _ATTR_RUN_TAGS:
            s = d - 1
            while s - 1 >= 0 and tokens[s - 1].tag in _ATTR_RUN_TAGS and s - 1 != predicate:
                s -= 1
        else:
            continue
        out.append((s, d + 1))
    return out


def identify_roles(sentence: TaggedSentence) -> RoleSpans:
    """Assign the six syntactic components with a shallow tag-sequence heuristic.

    The heuristic (documented behavior, validated against the shipped
    hand-labeled fixtures):

    - Predicate: first VERB not immediately followed by 的/PART.
    - Subject: first bare nominal run (NOUN/PRON/PROPN, not followed by 的,
      not preceded by an ADP) before the predicate in its clause; with no
      predicate, the first bare nominal run of the first clause.
    - Object: last bare nominal run after the predicate in its clause.
    - Attribute: modifier run ending in 的 that introduces a noun phrase
      (possessive pronouns and `N* V 的` relative clauses included).
    - Adverbial: ADV runs and ADP-led phrases between clause start and the
      predicate (ADV tokens inside an attribute are not re-reported).
    - Complement: 得/PART-led phrase immediately after the predicate, to the
      end of the clause.

    Sentences with no VERB get an empty Predicate; rules that need one
    simply do not fire.
    """
    tokens = sentence.tokens
    spans: dict[SyntacticRole, tuple[tuple[int, int], ...]] = {}
    predicate = find_predicate(sentence)
    clauses = _clauses(sentence)
    if predicate is not None:
        cs, ce = next((c for c in clauses if c[0] <= predicate < c[1]), (0, len(tokens)))
        spans[SyntacticRole.PREDICATE] = ((predicate, predicate + 1),)
    else:
        cs, ce = clauses[0]

    subject_hi = predicate if predicate is not None else ce
    for run in _nominal_runs(sentence, cs, subject_hi):
        if _eligible_np(sentence, run):
            spans[SyntacticRole.SUBJECT] = (run,)
            break

    if predicate is not None:
        objects = [
            run
            for run in _nominal_runs(sentence, predicate + 1, ce)
            if _eligible_np(sentence, run)
        ]
        if objects:
            spans[SyntacticRole.OBJECT] = (objects[-1],)

    attributes = _attribute_ranges(sentence, predicate)
    if attributes:
        spans[SyntacticRole.ATTRIBUTE] = tuple(attributes)

    if predicate is not None:
        adverbials: list[tuple[int, int]] = []
        in_attr = {
            i for a, b in attributes for i in range(a, b)
        }
        i = cs
        while i < predicate:
            tok = tokens[i]
            if tok.tag is POSTag.ADV and i not in in_attr:
                j = i
                while j < predicate and tokens[j].tag is POSTag.ADV and j not in in_attr:
                    j += 1
                adverbials.append((i, j))
                i = j
            elif tok.tag is POSTag.ADP:
                # NUM covers demonstrative compounds (这个/这位/...), which
                # sit inside prepositional phrases: 对这个问题.
                j = i + 1
                while j < predicate and (
                    tokens[j].tag in NOMINAL_TAGS or tokens[j].tag is POSTag.NUM
                ):
                    j += 1
                adverbials.append((i, j))
                i = j
            else:
                i += 1
        if adverbials:
            spans[SyntacticRole.ADVERBIAL] = tuple(adverbials)

        nxt = predicate + 1
        if nxt < ce and tokens[nxt].surface == "得" and tokens[nxt].tag is POSTag.PART:
            spans[SyntacticRole.COMPLEMENT] = ((nxt, ce),)

    return RoleSpans(spans)
