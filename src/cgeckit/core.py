"""Core text types and edit primitives.

Everything downstream builds on the types here: POS-tagged tokens and
sentences, the coarse/fine error-type taxonomy, character-level edit
spans, the training-pair record with its JSON-lines serialization, and
`report_json`, the one JSON format of every report. All offsets are
Unicode code point indices, never bytes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO


class CgecError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CgecError):
    """Bad or missing configuration (maps to exit code 2 in the CLI)."""


def finite_number(name: str, value) -> float:
    """value, if it is a finite int or float and not a bool; else a
    ConfigError naming it. Config files may hold NaN, Infinity, strings,
    booleans and ints beyond float range where a number belongs."""
    try:
        finite = type(value) in (int, float) and math.isfinite(value)
    except OverflowError:  # an int that no float can hold
        finite = False
    if not finite:
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return value


def check_seed(seed) -> None:
    """A ConfigError unless seed is an int in [0, 2**64). random.Random
    seeds an int by its absolute value, so -1 would draw as 1."""
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be an integer that fits in 64 unsigned bits, got {seed!r}")


class ValidationError(CgecError):
    """Malformed input data (maps to exit code 3 in the CLI)."""


class ParseError(ValidationError):
    """Unparseable input line or item; carries location context in the message."""


class _IdentityEnum(Enum):
    """An enum whose members hash by identity.

    Members are singletons and compare by identity, so the identity hash
    agrees with equality. It runs in C, where Enum's own hash is a Python
    call (hash of the member name) on every set or dict lookup, such as
    `token.tag in NOMINAL_TAGS`. Hash values, and so the iteration order of
    a set of members, differ between processes; no output depends on it.
    """

    __hash__ = object.__hash__


class POSTag(_IdentityEnum):
    """Closed 13-member part-of-speech set; unknown external tags map to OTHER."""

    NOUN = "NOUN"
    VERB = "VERB"
    ADJ = "ADJ"
    ADV = "ADV"
    PRON = "PRON"
    CCONJ = "CCONJ"
    ADP = "ADP"
    PART = "PART"
    X = "X"  # auxiliary verbs (能/会/应该/要/...)
    NUM = "NUM"
    PROPN = "PROPN"
    PUNCT = "PUNCT"
    OTHER = "OTHER"


class SyntacticRole(_IdentityEnum):
    """The six sentence components corruption rules match against."""

    SUBJECT = "Subject"
    PREDICATE = "Predicate"
    OBJECT = "Object"
    ATTRIBUTE = "Attribute"
    ADVERBIAL = "Adverbial"
    COMPLEMENT = "Complement"


class CoarseType(_IdentityEnum):
    """The six coarse grammatical-error categories."""

    STRUCTURAL_CONFUSION = "StructuralConfusion"
    IMPROPER_LOGICALITY = "ImproperLogicality"
    MISSING_COMPONENT = "MissingComponent"
    REDUNDANT_COMPONENT = "RedundantComponent"
    IMPROPER_COLLOCATION = "ImproperCollocation"
    IMPROPER_WORD_ORDER = "ImproperWordOrder"


# Fine-grained rule id -> coarse category. Exactly 26 entries; rule ids double
# as registry keys in the rules module.
FINE_TO_COARSE: dict[str, CoarseType] = {
    "MixedPatterns": CoarseType.STRUCTURAL_CONFUSION,
    "MixedSubjects": CoarseType.STRUCTURAL_CONFUSION,
    "MixedSentences": CoarseType.STRUCTURAL_CONFUSION,
    "MeasureWord": CoarseType.IMPROPER_LOGICALITY,
    "Unreasonable": CoarseType.IMPROPER_LOGICALITY,
    "ImproperNegation": CoarseType.IMPROPER_LOGICALITY,
    "ReverseHostGuest": CoarseType.IMPROPER_LOGICALITY,
    "ImposingCauseAndEffect": CoarseType.IMPROPER_LOGICALITY,
    "LackSubject": CoarseType.MISSING_COMPONENT,
    "LackPredicate": CoarseType.MISSING_COMPONENT,
    "LackObject": CoarseType.MISSING_COMPONENT,
    "LackModifier": CoarseType.MISSING_COMPONENT,
    "MultiWords": CoarseType.REDUNDANT_COMPONENT,
    "MultiMeanings": CoarseType.REDUNDANT_COMPONENT,
    "SubjectPredicate": CoarseType.IMPROPER_COLLOCATION,
    "PredicateObject": CoarseType.IMPROPER_COLLOCATION,
    "SubjectObject": CoarseType.IMPROPER_COLLOCATION,
    "ModifierHeadWord": CoarseType.IMPROPER_COLLOCATION,
    "Connectives": CoarseType.IMPROPER_COLLOCATION,
    "MultiAttributives": CoarseType.IMPROPER_WORD_ORDER,
    "MultiAdverbials": CoarseType.IMPROPER_WORD_ORDER,
    "AttributiveHeadWord": CoarseType.IMPROPER_WORD_ORDER,
    "Prepositions": CoarseType.IMPROPER_WORD_ORDER,
    "ConnectivesSubject": CoarseType.IMPROPER_WORD_ORDER,
    "AssociatedWords": CoarseType.IMPROPER_WORD_ORDER,
    "AdverbialAttributives": CoarseType.IMPROPER_WORD_ORDER,
}


class ErrorType(NamedTuple):
    """A (coarse, fine) error label; fine ids determine the coarse category.
    Unchecked; `from_fine` gives the shared label of a fine id, and
    `pair_from_json` checks the labels it reads."""

    coarse: CoarseType
    fine: str

    @classmethod
    def from_fine(cls, fine: str) -> "ErrorType":
        """The label of a fine rule id: one shared instance per known id."""
        label = _ERROR_TYPES.get(fine)
        if label is None:
            raise ValidationError(f"unknown fine error type: {fine!r}")
        return label


# One label per fine rule id, built once; every pair that a rule fires
# shares it.
_ERROR_TYPES: dict[str, ErrorType] = {
    fine: ErrorType(coarse, fine) for fine, coarse in FINE_TO_COARSE.items()
}


class Token(NamedTuple):
    """One token: text[char_start:char_end] == surface. Unchecked; the
    TaggedSentence that holds it checks its span."""

    surface: str
    tag: POSTag
    char_start: int
    char_end: int


# The config, report and table classes of the package are plain classes,
# not dataclasses: `dataclasses` imports `inspect` and `ast`, a cost every
# run would pay at start-up. Each lists its fields, in constructor order,
# in `_fields`, and takes its equality from these functions; a read-only
# one also its hash and its refusal of assignment.


def _same_fields(self, other) -> bool:
    """An instance equals one of its own class whose fields are equal."""
    if other.__class__ is not self.__class__:
        return NotImplemented
    fields = self._fields
    return tuple(getattr(self, f) for f in fields) == tuple(getattr(other, f) for f in fields)


def _hash_fields(self) -> int:
    return hash(tuple(getattr(self, f) for f in self._fields))


def _read_only(self, name: str, *value) -> None:
    """__setattr__ and __delattr__ of a read-only class, whose constructor
    fills its __dict__ directly."""
    raise AttributeError(f"cannot assign to field {name!r} of a read-only {type(self).__name__}")


class TaggedSentence:
    """A segmented, tagged sentence. Token surfaces concatenate back to text."""

    _fields = ("text", "tokens")
    text: str
    tokens: tuple[Token, ...]

    __eq__ = _same_fields
    __hash__ = _hash_fields
    __setattr__ = __delattr__ = _read_only

    def __init__(self, text: str, tokens: tuple[Token, ...]) -> None:
        pos = 0
        for tok in tokens:
            if (
                not tok.surface
                or tok.char_start != pos
                or text[tok.char_start : tok.char_end] != tok.surface
            ):
                raise ValidationError(
                    f"token {tok.surface!r} at [{tok.char_start}, {tok.char_end}) "
                    f"does not tile the sentence text"
                )
            pos = tok.char_end
        if pos != len(text):
            raise ValidationError("tokens do not cover the sentence text")
        self.__dict__.update(text=text, tokens=tokens)


def _tagged(text: str, tokens: tuple[Token, ...]) -> TaggedSentence:
    """A TaggedSentence built without the tiling check, for tokens that tile
    text by construction. It equals the checked TaggedSentence."""
    sentence = object.__new__(TaggedSentence)
    fields = sentence.__dict__
    fields["text"] = text
    fields["tokens"] = tokens
    return sentence


class EditSpan(NamedTuple):
    """Replace incorrect[start:end] with `replacement` (empty = deletion).
    Unchecked; `apply_edits` and `pair_from_json` check the spans."""

    start: int
    end: int
    replacement: str


class CorpusPair(NamedTuple):
    """One training sample: an ungrammatical text, its correction, and labels.

    Invariant: apply_edits(incorrect, edits) == correct. error_types has one
    entry per applied rule (empty for the random-augmentation baseline).
    Unchecked; `pair_from_json` checks each record it reads.
    """

    id: str
    incorrect: str
    correct: str
    edits: tuple[EditSpan, ...]
    error_types: tuple[ErrorType, ...]
    rule_id: str
    seed: int


def _span_text(span: EditSpan) -> str:
    return f"({span.start}, {span.end}, {span.replacement!r})"


def _check_edits(text: str, edits: Sequence[EditSpan]) -> None:
    """Raise ValidationError, naming the first bad span, unless every span
    lies in text, ends at or after its start and starts at or after the
    end of the span before it."""
    prev_end = 0
    prev: EditSpan | None = None
    for span in edits:
        start, end = span.start, span.end
        if start < 0 or end < start or end > len(text) or start < prev_end:
            if start < 0:
                fault = "starts before the text"
            elif end < start:
                fault = "ends before it starts"
            elif end > len(text):
                fault = f"exceeds text length {len(text)}"
            else:
                fault = f"overlaps previous edit {_span_text(prev)}"
            raise ValidationError(f"edit {_span_text(span)} {fault}")
        prev_end = end
        prev = span


def apply_edits(incorrect: str, edits: Sequence[EditSpan]) -> str:
    """Apply sorted, non-overlapping edit spans to a text.

    Args:
        incorrect: the text the spans index into.
        edits: spans sorted by start, pairwise non-overlapping.

    Returns:
        The edited text.

    Raises:
        ValidationError: on a span out of bounds, ending before its start or
            overlapping the one before, naming the span.
    """
    _check_edits(incorrect, edits)
    # One join of the unchanged runs and the replacements, left to right:
    # each character is copied once, however many edits there are.
    pieces = []
    pos = 0
    for start, end, replacement in edits:
        pieces.append(incorrect[pos:start])
        pieces.append(replacement)
        pos = end
    pieces.append(incorrect[pos:])
    return "".join(pieces)


def _delta_columns(a: Sequence, b: Sequence) -> list[tuple[int, int, int]]:
    """The unit-cost edit distance table D of a (rows) and b (columns), kept
    as the deltas between its cells rather than the cells.

    One pass of Myers' bit-vector algorithm in Hyyrö's edit-distance form
    computes each column of D from the one before with a few len(a)-bit
    operations. Entry j - 1 is (diagonal, insert, delete) of column j, for
    j = 1..len(b); bit i - 1 of each tells of row i = 1..len(a):
    - diagonal: D[i][j] == D[i-1][j-1] (0 means D[i-1][j-1] + 1);
    - insert: D[i][j] == D[i][j-1] + 1;
    - delete: D[i][j] == D[i-1][j] + 1.
    Row 0 and column 0 need no bits: D[0][j] = j and D[i][0] = i. Any cell
    follows from the diagonal bits (D[i][j] = D[i-1][j-1] + 0 or 1), and a
    walk along minimal paths needs no more than these three tests.
    Memory is 3 x len(a) x len(b) bits.
    """
    match: dict = {}
    bit = 1
    for x in a:
        match[x] = match.get(x, 0) | bit
        bit <<= 1
    mask = bit - 1
    plus, minus = mask, 0  # the vertical +1 / -1 deltas of the column
    columns = []
    for y in b:
        eq = match.get(y, 0)
        xv = eq | minus
        xh = (((eq & plus) + plus) ^ plus) | eq
        hplus = (minus | ~(xh | plus)) & mask
        hminus = plus & xh
        # Row 0 of the table grows by one per column, hence the carried-in 1.
        hshift = (hplus << 1) | 1
        plus = ((hminus << 1) | ~(xv | hshift)) & mask
        minus = hshift & xv
        columns.append((xh | xv, hplus, plus))
    return columns


def _common_prefix_length(a: Sequence, b: Sequence) -> int:
    """The length of the longest common prefix of a and b.

    A binary search over slice comparisons, so the items are compared in C:
    about log2(min(len(a), len(b))) comparisons of at most that many items.
    """
    low, high = 0, min(len(a), len(b))
    while low < high:
        middle = (low + high + 1) // 2
        if a[:middle] == b[:middle]:
            low = middle
        else:
            high = middle - 1
    return low


def trim_edit(text: str, start: int, end: int, piece: str) -> EditSpan | None:
    """The edit that replaces text[start:end] with piece, cut to its changed
    window: the characters the slice and the piece share at either end are
    dropped. None when the edit changes nothing."""
    old = text[start:end]
    if piece == old:
        return None
    head = _common_prefix_length(old, piece)
    tail = _common_prefix_length(old[head:][::-1], piece[head:][::-1])
    return EditSpan(start + head, end - tail, piece[head : len(piece) - tail])


# The front walk is tried only on a core of at least this many items whose
# bound squared is at most the core's length: below that the bit-vector
# columns are as fast or faster (ROADMAP item 7 has the measured crossover).
_FRONT_MIN_CORE = 16


def _walk_fronts(
    a: Sequence, b: Sequence, head: int, bound: int
) -> tuple[list, int, int] | None:
    """The changed steps, right to left, of the backtrace of `_edit_ops`
    over the distance table D of a and b (a changed core, whose items
    start at index `head` of the texts), with the row and column where it
    leaves the core (i == head or j == head); or None when the distance
    D[len(a)][len(b)] exceeds `bound`.

    The forward pass finds, for e = 0, 1, ..., the furthest-reaching front
    of each diagonal k = j - i: fronts[e][k] is the largest row i with
    D[i][i + k] <= e, or a row past the diagonal's end when its last cell
    qualifies (Ukkonen 1985; Myers 1986). Level e enters diagonal k
    at the furthest of a replace from level e - 1 on k, an insert from
    k - 1 and a delete from k + 1, then slides along the matches that
    follow, compared in C; starts[e][k] is the row it entered at. It
    stops at the level that reaches the corner, after (d + 1)^2 diagonals
    at most for distance d, with memory O(d x bound).

    D never decreases along a diagonal, so the cells of diagonal k with
    D == e are the rows in (fronts[e - 1][k], fronts[e][k]], and those past
    starts[e][k] match. So the backtrace reads D from the fronts: at a cell
    with D == e, after the run of matches it jumps over, a replace needs
    D[i-1][j-1] == e - 1, that is fronts[e - 1][k] >= i - 1; an insert
    needs fronts[e - 1][k - 1] >= i; what is left is a delete. Ties resolve
    as in the column walk, so the steps are the same.
    """
    m, n = len(a), len(b)
    if abs(n - m) > bound:
        return None
    # Diagonal k of a level is entry k + width; -2 marks a diagonal with no
    # cell at that level (rows are >= 0, so -2 + 1 < any row). Level -1
    # reaches row -1 of diagonal 0, so that level 0 enters it at row 0.
    # A front may pass the last row of its diagonal. It then compares with
    # every row of the diagonal as that last row does, and so does what the
    # next level builds from it, so it needs no clip.
    width = bound + 1
    size = 2 * width + 1
    prev = [-2] * size
    prev[width] = -1
    fronts, starts = [], []
    corner = n - m + width
    for e in range(bound + 1):
        front, start = [-2] * size, [-2] * size
        for c in range(width + max(-e, -m), width + min(e, n) + 1):
            x = prev[c] + 1  # replace
            if prev[c - 1] > x:  # insert
                x = prev[c - 1]
            if prev[c + 1] >= x:  # delete
                x = prev[c + 1] + 1
            start[c] = x
            y = x + c - width
            if x < m and y < n and a[x] == b[y]:
                x += _common_prefix_length(a[x:], b[y:])
            front[c] = x
        fronts.append(front)
        starts.append(start)
        if front[corner] >= m:
            break
        prev = front
    else:
        return None
    ops: list[tuple[str, int, int]] = []
    i, j = m, n
    while i and j:
        c = j - i + width
        x = starts[e][c]
        if i > x:
            i, j = x, j - i + x
        elif a[i - 1] == b[j - 1]:
            i, j = i - 1, j - 1
        else:
            prev = fronts[e - 1]
            e -= 1
            if prev[c] >= i - 1:
                i, j = i - 1, j - 1
                ops.append(("replace", head + i, head + j))
            elif prev[c - 1] >= i:
                j -= 1
                ops.append(("insert", head + i, head + j))
            else:
                i -= 1
                ops.append(("delete", head + i, head + j))
    return ops, head + i, head + j


def _edit_ops(
    a: Sequence, b: Sequence, bound: int | None = None
) -> list[tuple[str, int, int]]:
    """The changed steps of the minimal unit-cost edit script turning a into b.

    Returns (op, i, j) steps in left-to-right order, where op is one of
    "replace", "insert", "delete"; i indexes a, j indexes b at the point the
    step applies. The items between steps match. Backtrace ties resolve
    match > replace > insert > delete, so the script is canonical: it is the
    non-match steps of a backtrace over the whole distance table D.

    Only the changed core is aligned. While the last items are equal the
    backtrace takes the match first, so the common suffix is cut. Where
    a[:h] == b[:h], every cell with i <= h or j <= h has D[i][j] = |i - j|,
    and for i, j >= h the table is the table of a[h:] and b[h:]. So the
    backtrace walks the core only, and once i or j reaches h it finishes by
    a fixed rule: equal items match; otherwise the longer side gives up one
    item (an insert if j > i, a delete if i > j); and it stops when i == j.
    It must not simply drop the prefix: "aab" -> "ab" deletes index 0, not
    index 1.

    On the core, equal items always match, since with unit costs the
    diagonal is then minimal; a replace needs D[i][j] == D[i-1][j-1] + 1,
    an insert D[i][j] == D[i][j-1] + 1, and what is left is a delete. The
    backtrace reads D one of two ways, with the same result:
    - from diagonal fronts (`_walk_fronts`), in O(L + d^2) time and
      O(d x bound) memory for a core of L items at distance d, when `bound`
      is given, the core has at least `_FRONT_MIN_CORE` (16) items and
      bound^2 <= L. `bound` is the caller's upper estimate of d; it is
      never needed for correctness. If d exceeds it, the fronts are
      dropped and the columns run, so a wrong bound costs time only;
    - otherwise from the delta columns of `_delta_columns`, in L^2 / word
      size time plus the steps walked, and 3 bits per cell of the core.
    Cost follows the changed core, not the length of a and b. A periodic
    prefix ("ab" * k + "abX" -> "ab" * k + "Y") can still be walked item by
    item, which is linear in its length.
    """
    tail = _common_prefix_length(a[::-1], b[::-1])
    i, j = len(a) - tail, len(b) - tail
    head = _common_prefix_length(a[:i], b[:j])
    walk = None
    if bound is not None:
        core = max(i, j) - head
        if core >= _FRONT_MIN_CORE and bound * bound <= core:
            walk = _walk_fronts(a[head:i], b[head:j], head, bound)
    if walk is not None:
        ops, i, j = walk
    else:
        columns = _delta_columns(a[head:i], b[head:j])
        ops = []
        while i > head and j > head:
            bit = 1 << (i - head - 1)
            diagonal, insert, _ = columns[j - head - 1]
            if a[i - 1] == b[j - 1]:
                i, j = i - 1, j - 1
            elif not diagonal & bit:
                i, j = i - 1, j - 1
                ops.append(("replace", i, j))
            elif insert & bit:
                j -= 1
                ops.append(("insert", i, j))
            else:
                i -= 1
                ops.append(("delete", i, j))
    while i != j:
        if i and j and a[i - 1] == b[j - 1]:
            i, j = i - 1, j - 1
        elif j > i:
            j -= 1
            ops.append(("insert", i, j))
        else:
            i -= 1
            ops.append(("delete", i, j))
    ops.reverse()
    return ops


def _pair_bound(pair: CorpusPair) -> int | None:
    """An upper bound on the edit distance of a pair whose edits turn its
    incorrect text into its correct text (pair_from_json checks that): an
    edit costs at most max(removed, inserted) characters. None, without
    the sum, when the changed core is too short for `_edit_ops` to use a
    bound: the texts agree outside the edits, so the core lies within the
    edits' span of either text.
    """
    edits = pair.edits
    if edits:
        span = edits[-1].end - edits[0].start  # in the incorrect text
        if (
            span >= _FRONT_MIN_CORE
            or span + len(pair.correct) - len(pair.incorrect) >= _FRONT_MIN_CORE
        ):
            return sum(max(e.end - e.start, len(e.replacement)) for e in edits)
    return None


def diff_edits(incorrect: str, correct: str, bound: int | None = None) -> tuple[EditSpan, ...]:
    """Minimal character edit script grouped into maximal touching spans.

    The changed steps of `_edit_ops` with no matched character between them
    collapse into a single span: a step touches the one before when it
    starts where that one ended in `incorrect`, since a match moves both
    texts on. Cost follows the changed core of the two texts, not their
    length. `bound`, an upper estimate of the edit distance, lets a long
    core with few edits be aligned in time and memory that follow the
    distance (see `_edit_ops`); the spans are the same with or without it,
    right or wrong. Round trip: apply_edits(a, diff_edits(a, b)) == b.
    """
    spans: list[EditSpan] = []
    start = end = -1
    pieces: list[str] = []
    for op, i, j in _edit_ops(incorrect, correct, bound):
        if i != end:
            if start >= 0:
                spans.append(EditSpan(start, end, "".join(pieces)))
            start = end = i
            pieces = []
        if op != "insert":
            end = i + 1
        if op != "delete":
            pieces.append(correct[j])
    if start >= 0:
        spans.append(EditSpan(start, end, "".join(pieces)))
    return tuple(spans)


# What json.dumps(..., ensure_ascii=False) writes a str and an int with.
_str = json.encoder.encode_basestring
_int = int.__repr__


def pair_to_json(pair: CorpusPair) -> str:
    """Serialize one pair as a compact JSON object with a fixed key order.

    The text equals json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
    of the pair's dict, built from one template: only the strings need
    escaping, and ints are written as json writes them."""
    edits = ",".join(
        f'{{"start":{_int(e.start)},"end":{_int(e.end)},"replacement":{_str(e.replacement)}}}'
        for e in pair.edits
    )
    types = ",".join(
        f'{{"coarse":{_str(t.coarse.value)},"fine":{_str(t.fine)}}}' for t in pair.error_types
    )
    return (
        f'{{"id":{_str(pair.id)},"incorrect":{_str(pair.incorrect)},'
        f'"correct":{_str(pair.correct)},"edits":[{edits}],"error_types":[{types}],'
        f'"rule_id":{_str(pair.rule_id)},"seed":{_int(pair.seed)}}}'
    )


def report_json(doc: dict) -> str:
    """A report's document as indented JSON text with a final newline: the
    one format of every report and of `stats` output."""
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def _spec(**types: type) -> tuple:
    """(names, getter of their values, types) of some record fields."""
    return tuple(types), itemgetter(*types), tuple(types.values())


# Scalar fields of a pair record and of its edits, with the JSON type each
# must have. bool is excluded where int is required, though it subclasses int.
_PAIR_SPEC = _spec(id=str, incorrect=str, correct=str, rule_id=str, seed=int)
_EDIT_SPEC = _spec(start=int, end=int, replacement=str)


def _fields(obj: dict, spec: tuple) -> tuple:
    """obj's values for the fields of a spec, each of exactly its type."""
    names, get, types = spec
    values = get(obj)
    if tuple(map(type, values)) != types:
        for name, value, kind in zip(names, values, types):
            if type(value) is not kind:
                expected = "a string" if kind is str else "an integer"
                raise ValidationError(
                    f"{name!r} must be {expected}, got {json.dumps(value, ensure_ascii=False)}"
                )
    return values


def _error_type_from_json(entry) -> ErrorType:
    """One `error_types` entry as the shared label of its fine id, which
    must name that id's coarse category."""
    label = ErrorType.from_fine(entry["fine"])
    if label.coarse.value != entry["coarse"]:
        raise ValidationError(
            f"fine type {label.fine!r} belongs to {label.coarse.value}, not {entry['coarse']}"
        )
    return label


def pair_from_json(line: str, lineno: int | None = None) -> CorpusPair:
    """Decode one JSON-lines pair record and check that its edits lie in
    the incorrect text in order and reproduce the correct text.

    Raises:
        ParseError: on any fault of the record, naming `lineno` if given.
    """
    where = "" if lineno is None else f" at line {lineno}"
    try:
        obj = json.loads(line)
    except ValueError as exc:  # bad JSON, or an int of more digits than int() takes
        raise ParseError(f"bad JSON{where}: {exc}") from exc
    try:
        pair_id, incorrect, correct, rule_id, seed = _fields(obj, _PAIR_SPEC)
        pair = CorpusPair(
            id=pair_id,
            incorrect=incorrect,
            correct=correct,
            edits=tuple(EditSpan(*_fields(e, _EDIT_SPEC)) for e in obj["edits"]),
            error_types=tuple(map(_error_type_from_json, obj["error_types"])),
            rule_id=rule_id,
            seed=seed,
        )
    except (KeyError, TypeError, ValueError, ValidationError) as exc:
        raise ParseError(f"bad pair record{where}: {exc}") from exc
    try:
        correct = apply_edits(pair.incorrect, pair.edits)
    except ValidationError as exc:
        raise ParseError(f"pair record{where}: {exc}") from exc
    if correct != pair.correct:
        raise ParseError(f"pair record{where}: edits do not reproduce the correct text")
    return pair


@contextlib.contextmanager
def open_input(path: str) -> Iterator[TextIO]:
    """Open a UTF-8 text input, dropping a leading byte-order mark; a
    decoding error while it is read becomes a ParseError that names the
    file. It reads with universal newlines: "\n", "\r\n" and a lone "\r"
    end a line."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from None


def read_pairs(path: str) -> Iterator[CorpusPair]:
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if line:
                yield pair_from_json(line, lineno)


_CHUNK = 64  # items per ordered_map task

# (fn, state) of the running ordered_map; set only inside spawned pool workers.
_MAP_JOB: tuple = ()


def _init_map_worker(fn: Callable, state) -> None:
    global _MAP_JOB
    _MAP_JOB = (fn, state)


def _map_call(item):
    fn, state = _MAP_JOB
    return fn(state, item)


def ordered_map(fn: Callable, state, items: Iterable, workers: int) -> Iterator:
    """Yield fn(state, item) for each item, in input order.

    Calls run in chunks of 64 items. The first 64 * workers items are read
    up front, and at most one process starts per chunk they fill; with one
    chunk or one worker everything runs in-process. Otherwise one
    spawn-context pool runs the calls; its initializer ships (fn, state)
    to each worker once, so both must pickle. `multiprocessing` is
    imported only when a pool starts, so a one-process run never loads it.

    Raises:
        ConfigError: `workers` is not an integer >= 1.
    """
    if type(workers) is not int or workers < 1:
        raise ConfigError(f"workers must be an integer >= 1, got {workers!r}")
    items = iter(items)
    if workers > 1:
        head = list(itertools.islice(items, _CHUNK * workers))
        workers = min(workers, -(-len(head) // _CHUNK))
        items = itertools.chain(head, items)
    if workers <= 1:  # 0 when the input was empty
        for item in items:
            yield fn(state, item)
        return
    import multiprocessing

    context = multiprocessing.get_context("spawn")
    with context.Pool(workers, initializer=_init_map_worker, initargs=(fn, state)) as pool:
        yield from pool.imap(_map_call, items, chunksize=_CHUNK)
