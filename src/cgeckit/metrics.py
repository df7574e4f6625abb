"""Evaluation: character Levenshtein, word-level MaxMatch scoring, corpus
statistics tables, and Fleiss' kappa.

MaxMatch extraction searches every minimal alignment between source and
hypothesis, allowing adjacent edits to merge across short unchanged runs,
and returns the edit set that best matches the gold annotation. Annotator
selection during corpus scoring maximizes the running F-score, so scoring
is sequential by contract even though extraction is per-sentence pure.
`ScoreReport` and `StatsReport` give their documents with `to_dict`;
`core.report_json` writes them.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, islice, zip_longest
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from cgeckit.core import (
    CoarseType,
    ConfigError,
    CorpusPair,
    ParseError,
    ValidationError,
    _delta_columns,
    _edit_ops,
    _pair_bound,
    finite_number,
    open_input,
)

# --- character Levenshtein ------------------------------------------------


class EditOps(NamedTuple):
    distance: int
    replace: int
    insert: int
    delete: int


def levenshtein(a: str, b: str, bound: int | None = None) -> EditOps:
    """Unit-cost edit distance from a to b with canonical op counts.

    Counts are the changed steps of one backtrace with ties resolved match
    > replace > insert > delete, so they are reproducible; distance ==
    replace + insert + delete always holds. Cost follows the changed core
    of a and b (see `_edit_ops`), not their length. `bound`, an upper
    estimate of the distance, lets a long core at a short distance be
    aligned in O(core + distance^2) time; the counts are the same with or
    without it, and a bound below the distance costs time only.
    """
    ops = [op for op, _, _ in _edit_ops(a, b, bound)]
    return EditOps(len(ops), ops.count("replace"), ops.count("insert"), ops.count("delete"))


# --- M2 gold files --------------------------------------------------------


class GoldEdit(NamedTuple):
    """One annotated correction over word-token offsets of the source, as
    the (start, end, correction) triple that MaxMatch compares. Unchecked;
    `parse_m2` checks the span of each one it reads."""

    start_token: int
    end_token: int
    correction: str


class M2Sentence(NamedTuple):
    """One source sentence with each annotator's gold edit set, in
    ascending annotator id order."""

    tokens: tuple[str, ...]
    by_annotator: Mapping[int, tuple[GoldEdit, ...]]


@dataclass(frozen=True)
class ScoreParams:
    beta: float = 0.5
    max_unchanged: int = 2
    char_tokenize: bool = False

    def __post_init__(self) -> None:
        if finite_number("beta", self.beta) <= 0:
            raise ConfigError(f"beta must be > 0, got {self.beta!r}")
        if type(self.max_unchanged) is not int or self.max_unchanged < 0:
            raise ConfigError(f"max_unchanged must be an integer >= 0, got {self.max_unchanged!r}")
        if type(self.char_tokenize) is not bool:
            raise ConfigError(f"char_tokenize must be true or false, got {self.char_tokenize!r}")


_NOOP = "-NONE-"


def parse_m2(source) -> Iterator[M2Sentence]:
    """Yield the sentences of an M2 gold file, `S` token lines plus `A`
    annotation lines, each as the next `S` line or blank line closes it.

    A `-NONE-` correction is a no-op annotation: it registers the annotator
    with an empty edit set. Its span may be the standard `-1 -1`, which no
    other correction may have. A sentence without annotation lines gets one
    implicit annotator 0 with an empty set; annotators come in ascending
    id order. Accepts a path, opened when the first sentence is asked for,
    or an open file; either is read one line at a time.
    """
    if not hasattr(source, "read"):
        with open_input(source) as fh:
            yield from parse_m2(fh)
        return
    tokens: tuple[str, ...] | None = None
    edits: dict[int, list[GoldEdit]] = {}
    # Lines end where iterating the file ends them: for a path, open_input
    # reads with universal newlines, so at "\n", "\r\n" or a lone "\r".
    # splitlines would also break an S line at a \x0c between tokens. The
    # blank line chained on at the end closes the last sentence.
    for num, line in enumerate(chain(source, ("",)), 1):
        line = line.rstrip()
        if not line or line.startswith("S ") or line == "S":
            if tokens is not None:
                by_annotator = {a: tuple(v) for a, v in sorted(edits.items())} or {0: ()}
                yield M2Sentence(tokens=tokens, by_annotator=by_annotator)
            tokens, edits = (tuple(line[2:].split()) if line else None), {}
            continue
        if not line.startswith("A "):
            raise ParseError(f"line {num}: expected S/A/blank, got {line[:30]!r}")
        if tokens is None:
            raise ParseError(f"line {num}: annotation before any S line")
        fields = line[2:].split("|||")
        if len(fields) != 6:
            raise ParseError(f"line {num}: expected 6 |||-separated fields, got {len(fields)}")
        span = fields[0].split()
        if len(span) != 2:
            raise ParseError(f"line {num}: span must be two integers, got {fields[0]!r}")
        try:
            start, end = int(span[0]), int(span[1])
            annotator = int(fields[5])
        except ValueError as exc:
            raise ParseError(f"line {num}: {exc}") from None
        noop = fields[2] == _NOOP
        if not (0 <= start <= end or noop and start == end == -1):
            raise ParseError(f"line {num}: invalid span {start} {end}")
        if end > len(tokens):
            raise ParseError(f"line {num}: span end {end} exceeds {len(tokens)} tokens")
        bucket = edits.setdefault(annotator, [])
        if not noop:
            correction = " ".join(fields[2].split())
            bucket.append(GoldEdit(start, end, correction))


def write_m2(pairs: Iterable[CorpusPair], fh: TextIO) -> int:
    """Write pairs as a character-tokenized M2 gold file (annotator 0).

    Each character of the incorrect text becomes one token, so the pair's
    character edit spans are valid token spans as-is. Returns the number of
    sentences written.
    """
    count = 0
    for pair in pairs:
        if any(ch.isspace() for ch in pair.incorrect):
            raise ValidationError(
                f"pair {pair.id}: whitespace cannot be a character token in M2 output"
            )
        etype = pair.error_types[0].coarse.value if pair.error_types else "NA"
        fh.write("S " + " ".join(pair.incorrect) + "\n")
        for span in pair.edits:
            if any(ch.isspace() for ch in span.replacement) or "|||" in span.replacement:
                raise ValidationError(
                    f"pair {pair.id}: correction {span.replacement!r} not representable in M2"
                )
            correction = " ".join(span.replacement)
            fh.write(
                f"A {span.start} {span.end}|||{etype}|||{correction}"
                f"|||REQUIRED|||-NONE-|||0\n"
            )
        fh.write("\n")
        count += 1
    return count


# --- MaxMatch edit extraction ----------------------------------------------


# The `used` set of a state that holds no credited insertion.
_EMPTY: frozenset[str] = frozenset()


def _run_end(columns, src: Sequence[str], hyp: Sequence[str], i: int, j: int, stop: int) -> int:
    """The row of the first cell after (i, j) down its diagonal with an arc
    other than the match, or none, if it comes before row `stop`; else
    `stop`. `columns` are the delta columns that `_minimal_arcs` reads."""
    n, m, d = len(src), len(hyp), j - i
    k = i + 1
    while k < stop:
        _, insert, delete = columns[m - k - d - 1]
        if src[k] != hyp[k + d] or (insert | delete) >> (n - k - 1) & 1:
            break
        k += 1
    return k


def _minimal_arcs(src: Sequence[str], hyp: Sequence[str]):
    """The arc reader of the MaxMatch walk: cell(i, j) is (match, arcs,
    jump) for a cell (i, j) on a minimal alignment of src to hyp.
    - match: src[i] == hyp[j]; a match always stays on a minimal path;
    - arcs: the heads of the changed arcs that stay on one, in the order
      replace, insert, delete;
    - jump: for a cell whose only arc is the match, the state
      (k, l, None, frozenset()) of the first cell down its diagonal with
      another arc or none; else None.

    An arc stays on a minimal path iff R at its tail is the arc's cost plus
    R at its head, where R[i][j], the distance from (i, j) to (n, m), is
    cell (n - i, m - j) of the table of the reversed sequences. So bit
    n - i - 1 of entry m - j - 1 of their delta columns (core._delta_columns)
    tells each arc: a 0 diagonal bit between unequal tokens is a replace,
    and the insert and delete bits are those arcs. Row n has only
    insertions and column m only deletions. Memory is the columns'
    3 x n x m bits and the runs scanned.
    """
    n, m = len(src), len(hyp)
    columns = _delta_columns(src[::-1], hyp[::-1])
    # Per diagonal j - i, the first and end rows of the runs scanned so far,
    # in order down it, so that each cell is scanned once whichever cell the
    # walk enters by. An empty run at the last row or column closes each.
    runs: dict = {}

    def cell(i: int, j: int) -> tuple:
        if i == n:
            return False, ((i, j + 1),) if j < m else (), None
        if j == m:
            return False, ((i + 1, j),), None
        diagonal, insert, delete = columns[m - j - 1]
        bit = 1 << (n - i - 1)
        same = src[i] == hyp[j]
        arcs = [] if same or diagonal & bit else [(i + 1, j + 1)]
        if insert & bit:
            arcs.append((i, j + 1))
        if delete & bit:
            arcs.append((i + 1, j))
        if not same or arcs:
            return same, tuple(arcs), None
        d = j - i
        if d not in runs:
            runs[d] = ([min(n, m - d)], [min(n, m - d)])
        firsts, ends = runs[d]
        at = bisect_right(ends, i)
        if firsts[at] > i:
            # The scan stops at the next run down the diagonal and joins it.
            k = _run_end(columns, src, hyp, i, j, firsts[at])
            if k == firsts[at]:
                firsts[at] = i
            else:
                firsts.insert(at, i)
                ends.insert(at, k)
        return True, (), (ends[at], ends[at] + d, None, _EMPTY)

    return cell


def extract_system_edits(
    source_tokens: Sequence[str],
    hypothesis_tokens: Sequence[str],
    gold_sets: Sequence[Iterable[tuple[int, int, str]]],
    params: ScoreParams = ScoreParams(),
) -> list[tuple[tuple[int, int, str], ...]]:
    """For each gold set, the system edits between source and hypothesis
    that best match it, from one walk over the pair's alignments.

    Searches all minimal-cost alignments; adjacent changed regions may
    merge into one edit across runs of up to max_unchanged unchanged
    tokens (the merged correction keeps those tokens). Among all reachable
    edit sets each result maximizes exact overlap with its gold set, then
    has the fewest edits, then the lexicographically smallest spans.
    Corrections are hypothesis tokens joined by single spaces.

    gold_sets hold (start, end, correction) triples; a lone set of triples
    in place of the list of sets is a TypeError. The walk expands each
    state once for all gold sets and keeps one best value per gold set;
    only the gold credits differ between them. A value depends only on its
    own gold set, so each equals what a walk against that set alone finds,
    tie-breaking included.

    The walk goes forward from (0, 0) and reads each cell's arcs as it
    reaches it (`_minimal_arcs`), from 3 bits per source x hypothesis
    token pair; a hypothesis equal to its source needs none. Scoring a
    3,000-token sentence grows the heap by a few MiB.
    """
    src, hyp = list(source_tokens), list(hypothesis_tokens)
    n, m = len(src), len(hyp)
    max_unchanged = params.max_unchanged
    k = len(gold_sets)
    # gains[edit][g] is 1 when gold set g holds the edit; edits that no
    # gold set holds are absent.
    gains: dict = {}
    for g, gold_set in enumerate(gold_sets):
        for start, end, correction in gold_set:
            gains.setdefault((start, end, correction), [0] * k)[g] = 1
    nothing = [0] * k
    if src == hyp:  # after the gold is read, so that bad gold still raises
        return [()] * k
    cell = _minimal_arcs(src, hyp)
    gold_starts = {start for start, _, _ in gains}

    def gold_may_open(i: int, j: int) -> bool:
        """Whether an edit opened at (i, j) may be one a gold set holds:
        a gold edit starts at i, and some hyp[j:l] joins to its correction
        (l - j tokens join to at least l - j - 1 spaces)."""
        for start, _, c in gains:
            if start == i:
                if not c or any(" ".join(hyp[j : j + l]) == c for l in range(1, c.count(" ") + 2)):
                    return True
        return False

    # A state is (i, j, seg, used). seg is None between edits, else
    # (start_i, start_j, trailing matches). Gold matching counts DISTINCT
    # edits, and only pure insertions (which never advance the source
    # index) can repeat a span; `used` carries the corrections already
    # credited at the current source index and resets whenever the walk
    # consumes a source token. One set serves every gold set: a
    # correction joins it when the walk closes an insertion that some gold
    # set holds, and each gold set that holds it is credited right then.

    def moves(i: int, j: int, seg, used: frozenset[str]) -> list:
        """(next state, edit closed on the way or None, its gain per gold
        set or None for no gain)."""
        match, arcs, jump = cell(i, j)
        if seg is None:
            # Between edits a cell whose only arc is the match leads, with
            # nothing closed, to the end of its run of matches.
            if jump is not None:
                return [(jump, None, None)]
            out = [((i + 1, j + 1, None, _EMPTY), None, None)] if match else []
            nseg = (i, j, 0)
        else:
            out = []
            if seg[2] == 0:
                edit = (seg[0], i, " ".join(hyp[seg[1] : j]))
                gain = gains.get(edit)
                # Closing an edit that no gold set holds, where the next edit
                # must open at once and cannot be gold, only splits one edit
                # in two: the unsplit edit crosses the same cells with no
                # less gold and one edit fewer. So that close is left out:
                # a long changed run costs states linear in its length,
                # unless gold edits can start all along it.
                if (
                    gain is not None
                    or match
                    or (i == n and j == m)
                    or (i in gold_starts and gold_may_open(i, j))
                ):
                    next_used = used
                    if gain is not None and seg[0] == i:  # pure insertion; may repeat
                        if edit[2] in used:
                            gain = None
                        else:
                            next_used = used | {edit[2]}
                    out.append(((i, j, None, next_used), edit, gain))
            if match and seg[2] < max_unchanged:
                out.append(((i + 1, j + 1, (seg[0], seg[1], seg[2] + 1), _EMPTY), None, None))
            nseg = (seg[0], seg[1], 0)
        for ni, nj in arcs:
            out.append(((ni, nj, nseg, used if ni == i else _EMPTY), None, None))
        return out

    # memo holds each state's value: per gold set, the best (-(gold
    # matches), edit count, edit tuple) completing the walk from there; or
    # None for a dead end, which no gold set changes. The states form a
    # DAG, walked depth-first with an explicit stack, so the input length
    # is not bounded by the interpreter's recursion limit: a state is
    # expanded once, and valued once all its successors are.
    start = (0, 0, None, _EMPTY)
    memo: dict = {}
    final = ((0, 0, ()),) * k
    stack: list = [(start, None)]
    while stack:
        state, out = stack.pop()
        if out is None:
            if state in memo:
                continue
            if state[0] == n and state[1] == m and state[2] is None:
                memo[state] = final
                continue
            out = moves(*state)
            stack.append((state, out))
            for nxt, _, _ in out:
                if nxt not in memo:
                    stack.append((nxt, None))
            continue
        best = None
        for nxt, edit, gain in out:
            sub = memo[nxt]
            if sub is None:
                continue
            if edit is not None:
                closed = []
                for (tp, count, edits), x in zip(sub, gain or nothing):
                    closed.append((tp - x, count + 1, (edit,) + edits))
                sub = tuple(closed)
            best = sub if best is None else tuple(map(min, best, sub))
        memo[state] = best
    value = memo[start]
    assert value is not None, "alignment walk must reach the end"
    return [best[2] for best in value]


def _counts(
    system: Sequence[tuple[int, int, str]], gold_set: frozenset[tuple[int, int, str]]
) -> tuple[int, int, int]:
    """(tp, fp, fn) of a system edit triple sequence against a gold set.

    Each gold edit can be matched at most once, but the system side is a
    sequence: extraction may emit the same insertion twice (the source
    index does not advance), and every occurrence beyond the single
    credited match is a false positive.
    """
    tp = len(gold_set.intersection(system))
    return tp, len(system) - tp, len(gold_set) - tp


# --- corpus scoring --------------------------------------------------------


class ScoreReport(NamedTuple):
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f_beta: float
    beta: float
    chosen_annotators: tuple[int, ...]

    def to_dict(self) -> dict:
        return {
            "tp": self.tp,
            "fp": self.fp,
            "fn": self.fn,
            "precision": self.precision,
            "recall": self.recall,
            f"f_{self.beta:g}": self.f_beta,
            "chosen_annotators": list(self.chosen_annotators),
        }


def _f_beta_ratio(tp: int, fp: int, fn: int, p2: int, q2: int) -> tuple[int, int]:
    """F_beta of the counts as integers (numerator, denominator > 0), for
    beta = p / q given as p², q². With P = tp / (tp + fp) and
    R = tp / (tp + fn), (1 + b²)PR / (b²P + R) reduces to
    (p² + q²)tp / ((p² + q²)tp + p²fn + q²fp). An empty set has precision
    or recall 1, so all-zero counts score 1 and any other tp = 0 scores 0.
    """
    if tp == 0:
        return (1, 1) if fp == fn == 0 else (0, 1)
    weighted = (p2 + q2) * tp
    return weighted, weighted + p2 * fn + q2 * fp


def _in_step(
    hypotheses: Iterable[str], gold: Iterable[M2Sentence]
) -> Iterator[tuple[int, tuple[str, M2Sentence]]]:
    """(index, (hypothesis, gold sentence)) of each sentence, reading both
    sides in step, eight sentences ahead: reading each one just before its
    walk made scoring about 10% slower, short sentences or long, and eight
    at a time was about as fast as 64. When one side runs out first, the rest of
    the other is counted for the count mismatch error."""
    pairs = enumerate(zip_longest(hypotheses, gold))
    while block := list(islice(pairs, 8)):
        for item in block:
            index, (hypothesis, entry) = item
            if hypothesis is None or entry is None:
                longer = block[-1][0] + 1 + sum(1 for _ in pairs)
                raise ValidationError(
                    f"count mismatch: {longer if entry is None else index} hypotheses, "
                    f"{longer if hypothesis is None else index} gold sentences"
                )
            yield item


def _score_job(
    params: ScoreParams, item: tuple[int, tuple[str, M2Sentence]]
) -> list[tuple[int, tuple[int, int, int]]]:
    """Each annotator's id and (tp, fp, fn) on one sentence, from one walk
    over its alignments: the pure, per-sentence part of `score_corpus`.

    Under char_tokenize every `S` token must be one character: a longer
    one means the gold file was built with another tokenization, and
    scoring would be meaningless.
    """
    index, (hypothesis, entry) = item
    src_tokens = entry.tokens
    # S tokens are never empty, so the lengths differ only if one is
    # longer than a character.
    if params.char_tokenize and len("".join(src_tokens)) != len(src_tokens):
        token = next(t for t in src_tokens if len(t) > 1)
        raise ValidationError(
            f"sentence {index}: gold S token {token!r} is longer than one "
            f"character, so it cannot be scored with character tokens"
        )
    hyp_tokens = list(hypothesis) if params.char_tokenize else hypothesis.split()
    gold_sets = [frozenset(edits) for edits in entry.by_annotator.values()]
    systems = extract_system_edits(src_tokens, hyp_tokens, gold_sets, params)
    return [
        (annotator, _counts(system, gold_set))
        for annotator, system, gold_set in zip(entry.by_annotator, systems, gold_sets)
    ]


def score_corpus(
    hypotheses: Iterable[str],
    gold,
    params: ScoreParams = ScoreParams(),
) -> ScoreReport:
    """Score hypotheses against M2 gold with running-F annotator selection.

    gold is a path, an open file or an iterable of `M2Sentence`s, such as
    `parse_m2` yields; the source of each sentence is its `S` line tokens,
    and hypotheses hold one text per gold sentence, in order. Both are
    read in step, a few sentences ahead (`_in_step`), so either may be a
    one-shot stream, and data errors come in the order the files hold
    them, up to that read-ahead. For every sentence `_score_job` counts
    each annotator's edits; the annotator whose counts maximize the
    corpus F-score so far (ties: the first, which is the lowest id) is
    accumulated.
    """
    if isinstance(gold, (str, os.PathLike)) or hasattr(gold, "read"):
        gold = parse_m2(gold)
    from fractions import Fraction  # only here and in fleiss_kappa, off every run's start-up

    beta = Fraction(str(params.beta))
    p2, q2 = beta.numerator**2, beta.denominator**2
    tp_total = fp_total = fn_total = 0
    chosen: list[int] = []
    for item in _in_step(hypotheses, gold):
        best_id = None
        best_f = (0, 1)
        best_counts = (0, 0, 0)
        for annotator, (tp, fp, fn) in _score_job(params, item):
            f = _f_beta_ratio(tp_total + tp, fp_total + fp, fn_total + fn, p2, q2)
            # Exact comparison of the two ratios, by cross-multiplying.
            if best_id is None or f[0] * best_f[1] > best_f[0] * f[1]:
                best_id, best_f, best_counts = annotator, f, (tp, fp, fn)
        tp_total += best_counts[0]
        fp_total += best_counts[1]
        fn_total += best_counts[2]
        chosen.append(best_id if best_id is not None else 0)
    precision = 1.0 if tp_total + fp_total == 0 else tp_total / (tp_total + fp_total)
    recall = 1.0 if tp_total + fn_total == 0 else tp_total / (tp_total + fn_total)
    # int / int is correctly rounded, as float() of the reduced fraction is.
    f_num, f_den = _f_beta_ratio(tp_total, fp_total, fn_total, p2, q2)
    f_final = f_num / f_den
    return ScoreReport(
        tp=tp_total,
        fp=fp_total,
        fn=fn_total,
        precision=precision,
        recall=recall,
        f_beta=f_final,
        beta=params.beta,
        chosen_annotators=tuple(chosen),
    )


def format_score(report: ScoreReport) -> str:
    """The three-line P/R/F console rendering, 4 decimal places."""
    return (
        f"Precision : {report.precision:.4f}\n"
        f"Recall : {report.recall:.4f}\n"
        f"F_{report.beta:g} : {report.f_beta:.4f}\n"
    )


# --- corpus statistics -----------------------------------------------------


class StatsReport(NamedTuple):
    """Aggregate corpus statistics; to_dict mirrors the report table rows,
    per_type holds the per-coarse-type op table (see corpus_stats)."""

    number_of_sentences: int
    erroneous_sentences: int
    average_length_chars: float
    average_edit_distance_chars: float
    per_type: dict[str, dict[str, float]]

    def to_dict(self) -> dict:
        return {
            "Number of Sentences": self.number_of_sentences,
            "Erroneous Sentences": self.erroneous_sentences,
            # one correct text per pair
            "Number of References": self.number_of_sentences,
            "Average Length (Char.)": self.average_length_chars,
            "Edit Distance (Char.)": self.average_edit_distance_chars,
            "References / Sentence": 1.0 if self.number_of_sentences else 0.0,
        }


def _display_name(coarse: CoarseType) -> str:
    return re.sub(r"(?<=[a-z])(?=[A-Z])", " ", coarse.value)


def corpus_stats(pairs: Iterable[CorpusPair]) -> StatsReport:
    """Sentence counts, average incorrect-text length, average edit distance.

    per_type holds the average Replace/Insert/Delete/Total op counts per
    coarse type, for the edit direction incorrect -> correct. A pair
    carrying several error types counts in each distinct type's row. Each
    pair's edits bound its distance for `levenshtein` (`core._pair_bound`).
    """
    sentences = erroneous = 0
    length_sum = 0
    distance_sum = 0
    sums: dict[CoarseType, list[int]] = {}  # replace, insert, delete, total, pairs
    for pair in pairs:
        sentences += 1
        length_sum += len(pair.incorrect)
        ops = levenshtein(pair.incorrect, pair.correct, _pair_bound(pair))
        distance_sum += ops.distance
        if pair.incorrect != pair.correct:
            erroneous += 1
        for coarse in {et.coarse for et in pair.error_types}:
            row = sums.setdefault(coarse, [0, 0, 0, 0, 0])
            for index, count in enumerate((ops.replace, ops.insert, ops.delete, ops.distance, 1)):
                row[index] += count
    if sentences == 0:
        return StatsReport(0, 0, 0.0, 0.0, {})
    per_type = {
        _display_name(coarse): {
            name: total / sums[coarse][4]
            for name, total in zip(("Replace", "Insert", "Delete", "Total"), sums[coarse])
        }
        for coarse in CoarseType
        if coarse in sums
    }
    return StatsReport(
        number_of_sentences=sentences,
        erroneous_sentences=erroneous,
        average_length_chars=length_sum / sentences,
        average_edit_distance_chars=distance_sum / sentences,
        per_type=per_type,
    )


# --- inter-annotator agreement ----------------------------------------------


def fleiss_kappa(counts: Iterable[Sequence[int]], n: int | None = None) -> float:
    """Fleiss' kappa over an items x categories rating-count matrix, given
    as any iterable of rows and read in one pass.

    Every row must sum to the same number of raters n >= 2 (by default the
    first row's sum). Exact 1.0 when observed agreement is perfect. Of
    several faults, the first bad row's first is reported.

    Raises:
        ConfigError: a given `n` is below 2; checked before any row is read.
        ValidationError: the matrix is malformed.
    """
    if n is not None and n < 2:
        raise ConfigError(f"kappa needs at least 2 raters per item, got {n}")
    items = agreement = 0
    totals: list[int] = []
    for index, row in enumerate(counts):
        if index == 0:
            totals = [0] * len(row)
            n = sum(row) if n is None else n
        if len(row) != len(totals):
            raise ValidationError(
                f"item {index}: expected {len(totals)} categories, got {len(row)}"
            )
        if any(c < 0 for c in row):
            raise ValidationError(f"item {index}: negative rating count")
        if index == 0 and n < 2:
            raise ValidationError(f"kappa needs at least 2 raters per item, got {n}")
        if sum(row) != n:
            raise ValidationError(f"item {index}: row sums to {sum(row)}, expected {n}")
        items += 1
        agreement += sum(c * c for c in row) - n
        for j, c in enumerate(row):
            totals[j] += c
    if not items:
        raise ValidationError("kappa needs at least one item")
    from fractions import Fraction

    p_bar = Fraction(agreement, items * n * (n - 1))
    if p_bar == 1:
        return 1.0
    # p_e is 1 only when one category holds every rating; then every row
    # agrees fully and p_bar is 1, so here 1 - p_e > 0.
    p_e = sum(Fraction(t, items * n) ** 2 for t in totals)
    return float((p_bar - p_e) / (1 - p_e))
