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
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence, TextIO


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


@dataclass(frozen=True)
class ErrorType:
    """A (coarse, fine) error label; fine ids determine the coarse category."""

    coarse: CoarseType
    fine: str

    def __post_init__(self) -> None:
        expected = FINE_TO_COARSE.get(self.fine)
        if expected is None:
            raise ValidationError(f"unknown fine error type: {self.fine!r}")
        if expected is not self.coarse:
            raise ValidationError(
                f"fine type {self.fine!r} belongs to {expected.value}, not {self.coarse.value}"
            )

    @classmethod
    def from_fine(cls, fine: str) -> "ErrorType":
        """The label of a fine rule id: one shared instance per known id."""
        label = _ERROR_TYPES.get(fine)
        if label is None:
            raise ValidationError(f"unknown fine error type: {fine!r}")
        return label


# One frozen label per fine rule id, built once; every pair that a rule
# fires shares it.
_ERROR_TYPES: dict[str, ErrorType] = {
    fine: ErrorType(coarse, fine) for fine, coarse in FINE_TO_COARSE.items()
}


@dataclass(frozen=True)
class Token:
    surface: str
    tag: POSTag
    char_start: int
    char_end: int

    def __post_init__(self) -> None:
        if self.char_start >= self.char_end:
            raise ValidationError(
                f"token {self.surface!r} has empty span [{self.char_start}, {self.char_end})"
            )
        if len(self.surface) != self.char_end - self.char_start:
            raise ValidationError(
                f"token {self.surface!r} length does not match span "
                f"[{self.char_start}, {self.char_end})"
            )


@dataclass(frozen=True)
class TaggedSentence:
    """A segmented, tagged sentence. Token surfaces concatenate back to text."""

    text: str
    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        pos = 0
        for tok in self.tokens:
            if tok.char_start != pos or self.text[tok.char_start : tok.char_end] != tok.surface:
                raise ValidationError(
                    f"token {tok.surface!r} at [{tok.char_start}, {tok.char_end}) "
                    f"does not tile the sentence text"
                )
            pos = tok.char_end
        if pos != len(self.text):
            raise ValidationError("tokens do not cover the sentence text")


def _token(surface: str, tag: POSTag, char_start: int, char_end: int) -> Token:
    """A Token built without its checks, for a caller whose spans are right
    by construction (the lexicon tagger). It equals the checked Token."""
    token = object.__new__(Token)
    fields = token.__dict__
    fields["surface"] = surface
    fields["tag"] = tag
    fields["char_start"] = char_start
    fields["char_end"] = char_end
    return token


def _tagged(text: str, tokens: tuple[Token, ...]) -> TaggedSentence:
    """A TaggedSentence built without the tiling check, for tokens that tile
    text by construction. It equals the checked TaggedSentence."""
    sentence = object.__new__(TaggedSentence)
    fields = sentence.__dict__
    fields["text"] = text
    fields["tokens"] = tokens
    return sentence


@dataclass(frozen=True, order=True)
class EditSpan:
    """Replace incorrect[start:end] with `replacement` (empty = deletion)."""

    start: int
    end: int
    replacement: str

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValidationError(f"bad edit span ({self.start}, {self.end}, {self.replacement!r})")


@dataclass(frozen=True)
class CorpusPair:
    """One training sample: an ungrammatical text, its correction, and labels.

    Invariant: apply_edits(incorrect, edits) == correct. error_types has one
    entry per applied rule (empty for the random-augmentation baseline).
    """

    id: str
    incorrect: str
    correct: str
    edits: tuple[EditSpan, ...]
    error_types: tuple[ErrorType, ...]
    rule_id: str
    seed: int


def _check_edits(text: str, edits: Sequence[EditSpan]) -> None:
    prev_end = 0
    prev: EditSpan | None = None
    for span in edits:
        if span.end > len(text):
            raise ValidationError(
                f"edit ({span.start}, {span.end}, {span.replacement!r}) "
                f"exceeds text length {len(text)}"
            )
        if prev is not None and span.start < prev_end:
            raise ValidationError(
                f"edit ({span.start}, {span.end}, {span.replacement!r}) "
                f"overlaps previous edit ({prev.start}, {prev.end}, {prev.replacement!r})"
            )
        prev_end = span.end
        prev = span


def apply_edits(incorrect: str, edits: Sequence[EditSpan]) -> str:
    """Apply sorted, non-overlapping edit spans to a text.

    Args:
        incorrect: the text the spans index into.
        edits: spans sorted by start, pairwise non-overlapping.

    Returns:
        The edited text.

    Raises:
        ValidationError: on out-of-bounds or overlapping spans, naming the span.
    """
    _check_edits(incorrect, edits)
    result = incorrect
    # Right-to-left so earlier offsets stay valid as the string changes.
    for span in reversed(list(edits)):
        result = result[: span.start] + span.replacement + result[span.end :]
    return result


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


def _edit_ops(a: Sequence, b: Sequence) -> list[tuple[str, int, int]]:
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
    backtrace reads the delta columns of `_delta_columns` for the core
    only, and once i or j reaches h it finishes by a fixed rule: equal
    items match; otherwise the longer side gives up one item (an insert if
    j > i, a delete if i > j); and it stops when i == j. It must not simply
    drop the prefix: "aab" -> "ab" deletes index 0, not index 1.

    On the core, equal items always match, since with unit costs the
    diagonal is then minimal; a replace needs D[i][j] == D[i-1][j-1] + 1,
    an insert D[i][j] == D[i][j-1] + 1, and what is left is a delete. Time
    is the core's rows x columns / word size plus the steps walked, and
    memory 3 bits per cell of the core: cost follows the changed core, not
    the length of a and b. A periodic prefix ("ab" * k + "abX" -> "ab" * k
    + "Y") can still be walked item by item, which is linear in its length.
    """
    tail = _common_prefix_length(a[::-1], b[::-1])
    i, j = len(a) - tail, len(b) - tail
    head = _common_prefix_length(a[:i], b[:j])
    columns = _delta_columns(a[head:i], b[head:j])
    ops: list[tuple[str, int, int]] = []
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


def diff_edits(incorrect: str, correct: str) -> tuple[EditSpan, ...]:
    """Minimal character edit script grouped into maximal touching spans.

    The changed steps of `_edit_ops` with no matched character between them
    collapse into a single span: a step touches the one before when it
    starts where that one ended in `incorrect`, since a match moves both
    texts on. Cost follows the changed core of the two texts, not their
    length. Round trip: apply_edits(a, diff_edits(a, b)) == b.
    """
    spans: list[EditSpan] = []
    start = end = -1
    pieces: list[str] = []
    for op, i, j in _edit_ops(incorrect, correct):
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


# One compact encoder for every pair; json.dumps with these arguments would
# build a new JSONEncoder per call.
_PAIR_ENCODER = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


def pair_to_json(pair: CorpusPair) -> str:
    """Serialize one pair as a compact JSON object with a fixed key order."""
    obj = {
        "id": pair.id,
        "incorrect": pair.incorrect,
        "correct": pair.correct,
        "edits": [
            {"start": e.start, "end": e.end, "replacement": e.replacement} for e in pair.edits
        ],
        "error_types": [{"coarse": t.coarse.value, "fine": t.fine} for t in pair.error_types],
        "rule_id": pair.rule_id,
        "seed": pair.seed,
    }
    return _PAIR_ENCODER.encode(obj)


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


def _fields(obj: dict, spec: tuple, where: str) -> tuple:
    """obj's values for the fields of a spec, each of exactly its type."""
    names, get, types = spec
    values = get(obj)
    if tuple(map(type, values)) != types:
        for name, value, kind in zip(names, values, types):
            if type(value) is not kind:
                expected = "a string" if kind is str else "an integer"
                raise ParseError(
                    f"bad pair record{where}: {name!r} must be {expected}, "
                    f"got {json.dumps(value, ensure_ascii=False)}"
                )
    return values


def _error_type_from_json(entry) -> ErrorType:
    """One `error_types` entry as a label: the shared instance when it names
    a known (coarse, fine) pair as strings; anything else goes through the
    checked constructor and fails there with its own error."""
    if type(entry) is dict:
        coarse, fine = entry.get("coarse"), entry.get("fine")
        if type(fine) is str:
            label = _ERROR_TYPES.get(fine)
            if label is not None and label.coarse.value == coarse:
                return label
    return ErrorType(CoarseType(entry["coarse"]), entry["fine"])


def pair_from_json(line: str, lineno: int | None = None) -> CorpusPair:
    where = "" if lineno is None else f" at line {lineno}"
    try:
        obj = json.loads(line)
    except ValueError as exc:  # bad JSON, or an int of more digits than int() takes
        raise ParseError(f"bad JSON{where}: {exc}") from exc
    try:
        pair_id, incorrect, correct, rule_id, seed = _fields(obj, _PAIR_SPEC, where)
        pair = CorpusPair(
            id=pair_id,
            incorrect=incorrect,
            correct=correct,
            edits=tuple(
                EditSpan(*_fields(e, _EDIT_SPEC, where)) for e in obj["edits"]
            ),
            error_types=tuple(map(_error_type_from_json, obj["error_types"])),
            rule_id=rule_id,
            seed=seed,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad pair record{where}: {exc}") from exc
    if apply_edits(pair.incorrect, pair.edits) != pair.correct:
        raise ParseError(f"pair record{where}: edits do not reproduce the correct text")
    return pair


@contextlib.contextmanager
def open_input(path: str) -> Iterator[TextIO]:
    """Open a UTF-8 text input, dropping a leading byte-order mark; a
    decoding error while it is read becomes a ParseError that names the
    file."""
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
