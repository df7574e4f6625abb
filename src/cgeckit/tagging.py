"""Segmentation, POS tagging, and shallow syntactic-role identification.

Two tagging paths are supported: a greedy longest-match lexicon tagger
(self-contained, driven by a shipped TSV lexicon) and a pre-tagged input
parser for text already processed by an external tagger. Role
identification is a documented heuristic over the tag sequence, not a
parser; it is validated against a hand-labeled fixture set.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from functools import cache
from operator import attrgetter
from typing import Container, Mapping, NamedTuple

from cgeckit.core import (
    ConfigError,
    POSTag,
    ParseError,
    SyntacticRole,
    TaggedSentence,
    Token,
    _tagged,
)
from cgeckit.resources import DATA_DIR, _rows

# The tags that per-token loops here and in rules.py test, as module
# names. A global read costs about 14 ns; `POSTag.VERB` costs about 160 ns
# on Python 3.11, whose EnumType defines a Python-level `__getattr__` that
# every class attribute read pays (27 ns on 3.13, which dropped it).
_VERB, _NOUN, _ADJ, _ADV, _ADP, _PART, _PRON, _NUM, _CCONJ, _PUNCT, _X, _OTHER = (
    POSTag.VERB, POSTag.NOUN, POSTag.ADJ, POSTag.ADV, POSTag.ADP, POSTag.PART, POSTag.PRON,
    POSTag.NUM, POSTag.CCONJ, POSTag.PUNCT, POSTag.X, POSTag.OTHER,
)

_START, _END = attrgetter("char_start"), attrgetter("char_end")

# Characters of a CJK numeral. Where no lexicon entry matches, the tagger
# groups a run of them into one NUM token, as it groups a run of digits.
_CJK_NUMERALS = frozenset("〇零一二两三四五六七八九十百千万亿")

NOMINAL_TAGS = frozenset({POSTag.NOUN, POSTag.PRON, POSTag.PROPN})
# Tags allowed inside an attribute's modifier run (before 的).
_ATTR_RUN_TAGS = frozenset({POSTag.ADJ, POSTag.NOUN, POSTag.PROPN, POSTag.NUM, POSTag.ADV})


def _shipped(name: str) -> str:
    return os.path.join(DATA_DIR, name)


def load_tag_mapping(path: str | None = None) -> dict[str, str]:
    """Load a TSV mapping external tag names to the canonical tag set.

    Raises:
        OSError: the file cannot be opened or read.
        ConfigError: a line is not `tag<TAB>canonical`.
    """
    path = path or _shipped("tag_mapping.tsv")
    mapping: dict[str, str] = {}
    for lineno, parts in _rows(path):
        if len(parts) != 2 or not parts[0]:
            raise ConfigError(f"{path}:{lineno}: expected `tag<TAB>canonical`")
        mapping.setdefault(parts[0], parts[1])
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
    """Load a `surface<TAB>tag` lexicon; the first entry wins on duplicates.

    Raises:
        OSError: the file cannot be opened or read.
        ConfigError: a line is not `surface<TAB>tag`.
    """
    path = path or _shipped("lexicon.tsv")
    lexicon: dict[str, POSTag] = {}
    for lineno, parts in _rows(path):
        if len(parts) != 2 or not parts[0]:
            raise ConfigError(f"{path}:{lineno}: expected `surface<TAB>tag`")
        surface, tag = parts
        if surface not in lexicon:
            lexicon[surface] = map_tag(tag, mapping)
    return lexicon


class Tagger:
    """Greedy longest-match segmenter over a loaded lexicon.

    The lexicon is compiled once: for each first character, the lengths of
    the entries that start with it, longest first. A position then tries
    only lengths that some entry has, instead of every length up to the
    longest entry. Empty entries can never match and are left out.

    One scan loop serves both entry points: a call tags a whole text from
    position 0, and `splice` re-tags only the window around one edit.
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
        # A step of the scan reads at most this many characters for a match.
        self._longest = max(map(len, self.lexicon), default=0)

    def _scan(self, raw: str, pos: int, stops: Container[int]) -> tuple[list[Token], int]:
        """The greedy tokens of raw from pos up to the first position in
        `stops` that the scan lands on, and that position. `stops` holds
        len(raw), where every scan lands."""
        lexicon, lengths = self.lexicon, self._lengths
        tokens: list[Token] = []
        n = len(raw)
        while pos not in stops:
            for length in lengths.get(raw[pos], ()):
                end = pos + length
                if end <= n:
                    surface = raw[pos:end]
                    tag = lexicon.get(surface)
                    if tag is not None:
                        break
            else:
                end = pos + 1
                ch = raw[pos]
                if ch.isdigit() or ch in _CJK_NUMERALS:
                    # Numerals are unbounded; group a run of digits, or a run
                    # of CJK numerals, into one NUM token.
                    numeral = str.isdigit if ch.isdigit() else _CJK_NUMERALS.__contains__
                    while end < n and numeral(raw[end]):
                        end += 1
                    tag = _NUM
                else:
                    tag = _OTHER
                surface = raw[pos:end]
            tokens.append(Token(surface, tag, pos, end))
            pos = end
        return tokens, pos

    def __call__(self, raw: str) -> TaggedSentence:
        tokens, _ = self._scan(raw, 0, (len(raw),))
        return _tagged(raw, tuple(tokens))

    def splice(self, sentence: TaggedSentence, edit: tuple[int, int, str]) -> TaggedSentence:
        """`sentence` with text[start:end] replaced by piece, for the edit
        (start, end, piece), re-tagging only the window the edit can change.

        The scan restarts at the first token that may read the edit: one
        that starts within the longest lexicon entry of `start`, or one that
        reaches `start` (a numeral run, or an external tagger's token). Up to
        there the greedy scan takes the same steps on both texts. It stops
        at the first position at or after the edit's end where an old token
        at or after `end` starts, moved by the edit's change in length;
        from a shared boundary the scan depends only on the text to its
        right, so the old tokens from there on are kept, moved by that
        change. For tokens this tagger made, the result equals tagging the
        new text whole; tokens of an external tagger outside the window
        keep their surfaces and tags.
        """
        start, end, piece = edit
        old, text = sentence.tokens, sentence.text
        raw = text[:start] + piece + text[end:]
        shift = len(piece) - (end - start)
        first = bisect_left(old, start, key=_END)
        longest = self._longest
        while first and old[first - 1].char_start + longest > start:
            first -= 1
        after = bisect_left(old, end, first, key=_START)
        stops = {token.char_start + shift for token in old[after:]}
        stops.add(len(raw))
        window, stop = self._scan(raw, old[first - 1].char_end if first else 0, stops)
        kept = old[bisect_left(old, stop - shift, after, key=_START):]
        if shift:
            kept = [Token(t.surface, t.tag, t.char_start + shift, t.char_end + shift) for t in kept]
        return _tagged(raw, (*old[:first], *window, *kept))


@cache
def _shipped_tag_mapping() -> dict[str, str]:
    return load_tag_mapping()


@cache
def get_tagger() -> Tagger:
    """The tagger over the shipped lexicon and tag mapping, built once."""
    return Tagger(load_lexicon(mapping=_shipped_tag_mapping()))


def segment_and_tag(raw: str) -> TaggedSentence:
    """Segment and tag raw text with the shipped lexicon.

    Greedy longest match against the lexicon; digit runs and runs of CJK
    numerals (三十, 两千) become single NUM tokens; any other unknown
    character becomes a single-character OTHER token, so the tokens always
    cover the whole input.
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


class RoleSpans(NamedTuple):
    """Token-index ranges [i, j) per syntactic role. Predicate has at most one."""

    spans: Mapping[SyntacticRole, tuple[tuple[int, int], ...]]

    def ranges(self, role: SyntacticRole) -> tuple[tuple[int, int], ...]:
        return self.spans.get(role, ())

    def first(self, role: SyntacticRole) -> tuple[int, int] | None:
        ranges = self.ranges(role)
        return ranges[0] if ranges else None

    def predicate_index(self) -> int | None:
        pred = self.first(SyntacticRole.PREDICATE)
        return pred[0] if pred else None


def _is_de(token: Token) -> bool:
    return token.surface == "的" and token.tag is _PART


def _clauses(sentence: TaggedSentence) -> list[tuple[int, int]]:
    """Token-index clause ranges, split on PUNCT tokens (PUNCT excluded)."""
    clauses = []
    start = 0
    for i, tok in enumerate(sentence.tokens):
        if tok.tag is _PUNCT:
            if i > start:
                clauses.append((start, i))
            start = i + 1
    if start < len(sentence.tokens):
        clauses.append((start, len(sentence.tokens)))
    return clauses or [(0, 0)]


def _clause_of(sentence: TaggedSentence, index: int) -> tuple[int, int]:
    """The clause of `_clauses` that holds token `index`, found by scanning
    out to the PUNCT tokens on either side; (0, len(tokens)) for a PUNCT
    token, which no clause holds."""
    tokens = sentence.tokens
    if tokens[index].tag is _PUNCT:
        return 0, len(tokens)
    start = index
    while start and tokens[start - 1].tag is not _PUNCT:
        start -= 1
    end = index + 1
    while end < len(tokens) and tokens[end].tag is not _PUNCT:
        end += 1
    return start, end


# Tags of a prepositional phrase after its ADP: NUM covers demonstrative
# compounds (这个/这位/...), as in 对这个问题.
_PHRASE_TAGS = NOMINAL_TAGS | {POSTag.NUM}


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

    The tags are read into a list once; the predicate's clause is found by
    scanning out from the predicate, and its nominal runs are walked once,
    the subject taken from those before the predicate and the object from
    those after it.
    """
    tokens = sentence.tokens
    n = len(tokens)
    tags = [tok.tag for tok in tokens]
    de = [tag is _PART and tok.surface == "的" for tag, tok in zip(tags, tokens)]

    predicate = None
    for i, tag in enumerate(tags):
        if tag is _VERB and not (i + 1 < n and de[i + 1]):
            predicate = i
            break
    # The predicate's clause, or with no predicate the first clause.
    if predicate is not None:
        cs, ce = _clause_of(sentence, predicate)
    else:
        cs, ce = _clauses(sentence)[0]

    # Bare noun-phrase runs: not an attribute (的 follows) and not the
    # object of a preposition (ADP precedes). The predicate is a VERB, so
    # no run crosses it.
    subject = obj = None
    subject_hi = ce if predicate is None else predicate
    i = cs
    while i < ce:
        if tags[i] not in NOMINAL_TAGS:
            i += 1
            continue
        j = i + 1
        while j < ce and tags[j] in NOMINAL_TAGS:
            j += 1
        if not (j < n and de[j]) and not (i and tags[i - 1] is _ADP):
            if j > subject_hi:
                obj = (i, j)
            elif subject is None:
                subject = (i, j)
                if predicate is None:
                    break
                j = predicate + 1  # later runs before the predicate are not read
        i = j

    # Attributes: a modifier run ending in 的 that introduces a noun phrase
    # (an optional ADJ run, then a nominal). The predicate is a VERB that
    # 的 does not follow, so no attribute holds it.
    attributes = []
    for d in range(1, n):
        if not de[d]:
            continue
        k = d + 1
        while k < n and tags[k] is _ADJ:
            k += 1
        if k >= n or tags[k] not in NOMINAL_TAGS:
            continue
        before = tags[d - 1]
        s = d - 1
        if before is _VERB:
            # Relative clause `N* V 的`: include the verb and its bare subject.
            while s and tags[s - 1] in NOMINAL_TAGS:
                s -= 1
        elif before is _PRON:
            pass  # possessive pronoun directly before 的
        elif before in _ATTR_RUN_TAGS:
            while s and tags[s - 1] in _ATTR_RUN_TAGS:
                s -= 1
        else:
            continue
        attributes.append((s, d + 1))

    spans: dict[SyntacticRole, tuple[tuple[int, int], ...]] = {}
    if predicate is not None:
        spans[SyntacticRole.PREDICATE] = ((predicate, predicate + 1),)
    if subject is not None:
        spans[SyntacticRole.SUBJECT] = (subject,)
    if obj is not None:
        spans[SyntacticRole.OBJECT] = (obj,)
    if attributes:
        spans[SyntacticRole.ATTRIBUTE] = tuple(attributes)
    if predicate is None:
        return RoleSpans(spans)

    # Adverbials: ADV runs outside attributes, and ADP-led phrases, between
    # the clause start and the predicate.
    in_attr = {i for a, b in attributes for i in range(a, b)} if attributes else ()
    adverbials = []
    i = cs
    while i < predicate:
        tag = tags[i]
        if tag is _ADV and i not in in_attr:
            j = i + 1
            while j < predicate and tags[j] is _ADV and j not in in_attr:
                j += 1
        elif tag is _ADP:
            j = i + 1
            while j < predicate and tags[j] in _PHRASE_TAGS:
                j += 1
        else:
            i += 1
            continue
        adverbials.append((i, j))
        i = j
    if adverbials:
        spans[SyntacticRole.ADVERBIAL] = tuple(adverbials)

    nxt = predicate + 1
    if nxt < ce and tags[nxt] is _PART and tokens[nxt].surface == "得":
        spans[SyntacticRole.COMPLEMENT] = ((nxt, ce),)
    return RoleSpans(spans)
