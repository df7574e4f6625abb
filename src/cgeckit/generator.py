"""Corpus-scale pair generation: rule policy, seeding, and random baseline.

Reproducibility scheme: every generate attempt gets its own rng seeded by
sha256(seed, sentence_index, attempt), and every augment line one seeded
by sha256(seed, line_index). Workers therefore never share rng state and
the output is byte-identical for any worker count.

`stream_generate` and `stream_augment_lines` are the one corpus driver of
each: they yield pairs in input order and count every line into the
caller's report, through `GenerationReport.add` or `AugmentReport.add`.
`generate_corpus` and `augment_corpus` collect a stream into a list.

A generated pair's edits are the canonical character diff of its texts;
an augmented pair's are the word operations its noise drew, undone
(`_augment_ops`): exact, but not always minimal.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_right
from functools import cached_property
from itertools import accumulate
from typing import Iterable, Iterator

from cgeckit.core import (
    ConfigError,
    CorpusPair,
    EditSpan,
    ErrorType,
    ParseError,
    TaggedSentence,
    apply_edits,
    check_seed,
    diff_edits,
    finite_number,
    ordered_map,
    trim_edit,
    _FRONT_MIN_CORE,
    _edit_ops,
    _hash_fields,
    _read_only,
    _same_fields,
)
from cgeckit.resources import RuleResources
from cgeckit.rules import RULE_REGISTRY, _choice, apply_fine_rule
from cgeckit.tagging import (
    RoleSpans,
    get_tagger,
    identify_roles,
    parse_pretagged,
    segment_and_tag,
)

_MAX_DRAWS = 5  # weighted rule draws per pair before giving up

# GenConfig's rule_weights default; each config given none gets its own
# new empty dict instead, so no two share one.
_UNWEIGHTED: dict[str, float] = {}


class GenConfig:
    """Generation policy: which rules, how many, how seeded, and whether
    input lines are `surface/TAG` items (pretagged) or raw text.

    Every field holds its one default here and is checked here, so a
    config file loaded as GenConfig(**doc) is checked on its own.
    `enabled_rules` is any list, tuple or set of rule ids and is stored as
    a frozenset.
    """

    _fields = ("seed", "enabled_rules", "per_sentence", "combine_max", "rule_weights", "pretagged")
    seed: int = 0
    enabled_rules: frozenset[str] = frozenset(RULE_REGISTRY)
    per_sentence: int = 1
    combine_max: int = 1
    rule_weights: dict[str, float]  # default: a new empty dict, every rule weighing 1.0
    pretagged: bool = False

    __eq__ = _same_fields  # no hash: rule_weights is a dict
    __setattr__ = __delattr__ = _read_only

    def __init__(
        self,
        seed: int = seed,
        enabled_rules: Iterable[str] = enabled_rules,
        per_sentence: int = per_sentence,
        combine_max: int = combine_max,
        rule_weights: dict[str, float] = _UNWEIGHTED,
        pretagged: bool = pretagged,
    ) -> None:
        if rule_weights is _UNWEIGHTED:
            rule_weights = {}
        self.__dict__.update(
            seed=seed,
            enabled_rules=enabled_rules,
            per_sentence=per_sentence,
            combine_max=combine_max,
            rule_weights=rule_weights,
            pretagged=pretagged,
        )
        check_seed(self.seed)
        if not isinstance(self.enabled_rules, (list, tuple, set, frozenset)) or not all(
            type(rule) is str for rule in self.enabled_rules
        ):
            raise ConfigError(
                f"'enabled_rules' must be a list of rule id strings, got {self.enabled_rules!r}"
            )
        if type(self.pretagged) is not bool:
            raise ConfigError(f"'pretagged' must be true or false, got {self.pretagged!r}")
        unknown = set(self.enabled_rules) - set(RULE_REGISTRY)
        if unknown:
            raise ConfigError(f"unknown rule ids: {sorted(unknown)}")
        if not self.enabled_rules:
            raise ConfigError("enabled_rules must not be empty")
        for name in ("per_sentence", "combine_max"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not isinstance(self.rule_weights, dict):
            raise ConfigError(f"rule_weights must be an object, got {self.rule_weights!r}")
        unknown = set(self.rule_weights) - set(RULE_REGISTRY)
        if unknown:
            raise ConfigError(f"rule_weights for unknown rule ids: {sorted(unknown)}")
        for rule, weight in self.rule_weights.items():
            if finite_number(f"rule weight of {rule}", weight) < 0:
                raise ConfigError("rule weights must be >= 0")
        self.__dict__["enabled_rules"] = frozenset(self.enabled_rules)
        rules, weights = self._rule_pool
        if not rules:
            raise ConfigError(
                "rule_weights give every enabled rule weight 0, so no rule can be drawn"
            )
        total = list(accumulate(weights, initial=0.0))[-1]
        if not math.isfinite(total):
            raise ConfigError(
                f"the enabled rules' weights must have a finite sum, got {total!r}"
            )

    @cached_property
    def _rule_pool(self) -> tuple[tuple[str, ...], tuple[float, ...]]:
        """The drawable rules in sorted order and their weights (1.0 unless
        rule_weights says otherwise); rules weighted 0 are left out."""
        weighted = [
            (rule, self.rule_weights.get(rule, 1.0))
            for rule in sorted(self.enabled_rules)
        ]
        return (
            tuple(rule for rule, w in weighted if w > 0),
            tuple(w for _, w in weighted if w > 0),
        )


class AugmentConfig:
    """Per-word random corruption probabilities for the naive baseline."""

    _fields = ("p_keep", "p_insert", "p_replace", "p_delete", "seed")
    p_keep: float = 0.70
    p_insert: float = 0.10
    p_replace: float = 0.10
    p_delete: float = 0.10
    seed: int = 0

    __eq__ = _same_fields
    __hash__ = _hash_fields
    __setattr__ = __delattr__ = _read_only

    def __init__(
        self,
        p_keep: float = p_keep,
        p_insert: float = p_insert,
        p_replace: float = p_replace,
        p_delete: float = p_delete,
        seed: int = seed,
    ) -> None:
        self.__dict__.update(
            p_keep=p_keep, p_insert=p_insert, p_replace=p_replace, p_delete=p_delete, seed=seed
        )
        names = ("p_keep", "p_insert", "p_replace", "p_delete")
        probs = tuple(finite_number(name, getattr(self, name)) for name in names)
        if any(p < 0 for p in probs):
            raise ConfigError("augment probabilities must be >= 0")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise ConfigError(f"augment probabilities must sum to 1.0, got {sum(probs)!r}")
        check_seed(self.seed)


def derive_seed(seed: int, *parts: int) -> int:
    """Stable per-(sentence, attempt) sub-seed; independent of worker layout."""
    h = hashlib.sha256()
    h.update(str(seed).encode())
    for part in parts:
        h.update(b"\x1f")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:8], "big")


def _weighted_pop(rng: random.Random, rules: list[str], weights: list[float]) -> str:
    """Draw one rule by weight and remove it from both lists.

    The draw is rng.random() times the weights' total; the rule is the
    first whose running sum exceeds it, or else the last rule. The running
    sums are added in float from 0.0, in order: from Python 3.12 on, sum()
    of floats is compensated and can differ in the last bit, which would
    move a draw that lands on a rule boundary.
    """
    sums = list(accumulate(weights, initial=0.0))
    index = min(bisect_right(sums, rng.random() * sums[-1]) - 1, len(weights) - 1)
    del weights[index]
    return rules.pop(index)


def generate_pair(
    sentence: TaggedSentence,
    roles: RoleSpans,
    resources: RuleResources,
    config: GenConfig,
    sentence_index: int,
    attempt: int = 0,
) -> CorpusPair | None:
    """Corrupt one sentence into a pair, or None if no sampled rule fires.

    Up to combine_max distinct rules are drawn by weight without
    replacement (at most five draws total); each fired rule rewrites the
    current text. Before the next rule is applied, its edit is spliced
    into the tagged sentence (`Tagger.splice`): only the window it can
    change is re-tagged with the builtin tagger, so that rule sees valid
    offsets, and the tags of pretagged input outside the window survive.
    A text no further rule is applied to is never re-tagged. A rule whose
    output is the original or an earlier intermediate text undid earlier
    rules and counts as not fired. Gold edits are the canonical character diff of
    the final text against the original, so they always restore it
    exactly. Each fired edit adds to a bound on that distance, which
    `diff_edits` gets: the exact distance of its window when the window
    is long enough for the bound to be used, and otherwise max(removed,
    inserted) characters, which costs nothing to compute.
    """
    if not sentence.tokens:
        return None
    pair_seed = derive_seed(config.seed, sentence_index, attempt)
    rng = random.Random(pair_seed)
    rules, weights = map(list, config._rule_pool)
    fired: list[str] = []
    current, current_roles = sentence, roles
    incorrect = sentence.text
    seen = {incorrect}
    draws = 0
    bound = 0  # each fired edit adds at most its window's distance
    pending = None  # the fired edit that `current` does not hold yet
    while rules and len(fired) < config.combine_max and draws < _MAX_DRAWS:
        rule = _weighted_pop(rng, rules, weights)
        draws += 1
        if pending is not None:
            current = get_tagger().splice(current, pending)
            current_roles = identify_roles(current)
            pending = None
        edit = apply_fine_rule(current, current_roles, resources, rng, rule)
        if edit is None:
            continue
        start, end, piece = edit
        output = incorrect[:start] + piece + incorrect[end:]
        if output in seen:
            continue
        window = max(end - start, len(piece))
        if window >= _FRONT_MIN_CORE:
            # Exact either way; the bound lets a window with few changes take the fronts.
            window = len(_edit_ops(incorrect[start:end], piece, math.isqrt(window)))
        incorrect = output
        seen.add(incorrect)
        fired.append(rule)
        bound += window
        pending = edit
    if not fired:
        return None
    edits = diff_edits(incorrect, sentence.text, bound)
    assert apply_edits(incorrect, edits) == sentence.text
    return CorpusPair(
        id=f"pair-{sentence_index:06d}-{attempt:02d}",
        incorrect=incorrect,
        correct=sentence.text,
        edits=edits,
        error_types=tuple(ErrorType.from_fine(r) for r in fired),
        rule_id="+".join(fired),
        seed=pair_seed,
    )


class GenerationReport:
    """Counters for one generate run."""

    _fields = ("sentences_read", "pairs_emitted", "skipped", "rule_fires")

    __eq__ = _same_fields

    def __init__(
        self,
        sentences_read: int = 0,
        pairs_emitted: int = 0,
        skipped: int = 0,
        rule_fires: dict[str, int] | None = None,
    ) -> None:
        self.sentences_read = sentences_read
        self.pairs_emitted = pairs_emitted
        self.skipped = skipped
        self.rule_fires = {} if rule_fires is None else rule_fires

    def add(self, pairs: list[CorpusPair], attempts: int) -> None:
        """Count one sentence from the pairs its attempts gave."""
        self.sentences_read += 1
        self.pairs_emitted += len(pairs)
        self.skipped += attempts - len(pairs)
        for pair in pairs:
            for rule in pair.rule_id.split("+"):
                self.rule_fires[rule] = self.rule_fires.get(rule, 0) + 1

    def to_dict(self) -> dict:
        return {
            "sentences_read": self.sentences_read,
            "pairs_emitted": self.pairs_emitted,
            "skipped": self.skipped,
            "rule_fires": {k: self.rule_fires[k] for k in sorted(self.rule_fires)},
        }


def _generate_job(
    state: tuple[GenConfig, RuleResources], item: tuple[int, str]
) -> list[CorpusPair]:
    config, resources = state
    index, line = item
    if config.pretagged:
        try:
            sentence = parse_pretagged(line)
        except ParseError as exc:
            raise ParseError(f"sentence {index}: {exc}") from exc
    else:
        sentence = segment_and_tag(line)
    roles = identify_roles(sentence)
    pairs = []
    for attempt in range(config.per_sentence):
        pair = generate_pair(sentence, roles, resources, config, index, attempt)
        if pair is not None:
            pairs.append(pair)
    return pairs


def stream_generate(
    corpus: Iterable[str],
    config: GenConfig,
    resources: RuleResources,
    report: GenerationReport,
    workers: int = 1,
) -> Iterator[CorpusPair]:
    """Yield the pairs of a sentence stream in input order, counting each
    sentence into `report` as its pairs are yielded.

    With config.pretagged input lines are `surface/TAG ...` items. After
    a rule fires, only the window its edit can change is re-tagged with
    the builtin tagger, so the external tags outside it reach the next
    rule. Consumes the corpus lazily so arbitrarily large files process
    in bounded memory. Output is a pure function of (corpus, config):
    worker count only changes wall-clock time, never bytes.
    """
    state = (config, resources)
    for pairs in ordered_map(_generate_job, state, enumerate(corpus), workers):
        report.add(pairs, config.per_sentence)
        yield from pairs


def generate_corpus(
    corpus: Iterable[str],
    config: GenConfig,
    resources: RuleResources,
    workers: int = 1,
) -> tuple[list[CorpusPair], GenerationReport]:
    """The pairs and report of `stream_generate`, as a list."""
    report = GenerationReport()
    return list(stream_generate(corpus, config, resources, report, workers)), report


# --- random-augmentation baseline ---------------------------------------

_OPS = ("keep", "insert", "replace", "delete")


def _augment_ops(
    words: tuple[str, ...], config: AugmentConfig, pool: tuple[str, ...], rng: random.Random
) -> tuple[str, tuple[EditSpan, ...], dict[str, int]]:
    """The noised text of one line's words, the edits that restore the
    words and the per-op draw counts.

    Each changed word gives a span of the noised text: an insert removes
    the word it put before the kept one, a replace puts the original back
    and a delete is an empty span that restores the word. Spans of
    consecutive changed words touch and are merged; a kept word lies
    between any two others. Each span is then cut to the characters it
    changes (`trim_edit`) and dropped if it changes none. The spans are
    not always minimal: a word replaced by a rotation of itself is
    restored whole, where `diff_edits` finds a shorter script.
    """
    counts = dict.fromkeys(_OPS, 0)
    thresholds = (
        config.p_keep,
        config.p_keep + config.p_insert,
        config.p_keep + config.p_insert + config.p_replace,
    )
    pieces: list[str] = []
    spans: list[tuple[int, int, str]] = []
    pos = 0  # the length of the noised text so far
    for surface in words:
        r = rng.random()
        if r < thresholds[0]:
            op = "keep"
        elif r < thresholds[1]:
            op = "insert"
        elif r < thresholds[2]:
            op = "replace"
        else:
            op = "delete"
        counts[op] += 1
        if op != "keep":
            start = pos
            if op != "delete":
                # the pool holds this line's words, so it is not empty
                word = _choice(rng, pool)
                pieces.append(word)
                pos += len(word)
            restore = "" if op == "insert" else surface
            if spans and spans[-1][1] == start:
                start, _, before = spans.pop()
                restore = before + restore
            spans.append((start, pos, restore))
        if op in ("insert", "keep"):
            pieces.append(surface)
            pos += len(surface)
    incorrect = "".join(pieces)
    edits = tuple(filter(None, (trim_edit(incorrect, *span) for span in spans)))
    return incorrect, edits, counts


class AugmentReport:
    """Counters for one augment run."""

    _fields = ("sentences_read", "words_seen", "op_counts")

    __eq__ = _same_fields

    def __init__(
        self,
        sentences_read: int = 0,
        words_seen: int = 0,
        op_counts: dict[str, int] | None = None,
    ) -> None:
        self.sentences_read = sentences_read
        self.words_seen = words_seen
        self.op_counts = dict.fromkeys(_OPS, 0) if op_counts is None else op_counts

    def add(self, counts: dict[str, int]) -> None:
        """Count one augmented sentence from its per-op draw counts."""
        self.sentences_read += 1
        self.words_seen += sum(counts.values())
        for op, count in counts.items():
            self.op_counts[op] += count

    def to_dict(self) -> dict:
        return {
            "sentences_read": self.sentences_read,
            "words_seen": self.words_seen,
            "op_counts": dict(self.op_counts),
        }


def _augment_job(
    state: tuple[AugmentConfig, tuple[str, ...]], item: tuple[int, tuple[str, ...]]
) -> tuple[CorpusPair, dict[str, int]]:
    """Per-word keep/insert/replace/delete corruption of one line's words
    (the naive baseline), drawing inserted and replacing words from the
    pool, with its per-op draw counts.

    The edits are the drawn operations undone, not a character diff, so
    the job is linear in the line. Unlike the rules, this may return an
    identity pair (all words kept, no edits) and may produce an empty
    incorrect text (everything deleted); error_types is empty and rule_id
    is "random-augment".
    """
    config, pool = state
    index, words = item
    correct = "".join(words)
    pair_seed = derive_seed(config.seed, index)
    incorrect, edits, counts = _augment_ops(words, config, pool, random.Random(pair_seed))
    pair = CorpusPair(
        id=f"aug-{index:06d}",
        incorrect=incorrect,
        correct=correct,
        edits=edits,
        error_types=(),
        rule_id="random-augment",
        seed=pair_seed,
    )
    return pair, counts


def stream_augment_lines(
    lines: Iterable[str], config: AugmentConfig, report: AugmentReport, workers: int = 1
) -> Iterator[CorpusPair]:
    """Yield the pair of each raw text line, in input order, and count each
    line into `report` as its pair is yielded.

    The lines are read and segmented with the builtin tagger once, before
    the first pair: that pass collects the word pool (the sorted unique
    token surfaces of the whole input) and spools each line's words to an
    unlinked temporary file, which the pairs are then made from. So memory
    holds the pool, not the lines, and `lines` may be a one-shot stream.
    """
    import pickle  # only augment's spool uses these two
    import tempfile

    with tempfile.TemporaryFile() as spool:
        pool: set[str] = set()
        count = 0
        for line in lines:
            words = tuple(token.surface for token in segment_and_tag(line).tokens)
            pool.update(words)
            pickle.dump(words, spool, pickle.HIGHEST_PROTOCOL)
            count += 1
        spool.seek(0)
        state = (config, tuple(sorted(pool)))
        spooled = (pickle.load(spool) for _ in range(count))
        for pair, counts in ordered_map(_augment_job, state, enumerate(spooled), workers):
            report.add(counts)
            yield pair


def augment_corpus(
    lines: Iterable[str], config: AugmentConfig
) -> tuple[list[CorpusPair], AugmentReport]:
    """The pairs and report of `stream_augment_lines` in this process, as a
    list; they are the same for any worker count."""
    report = AugmentReport()
    return list(stream_augment_lines(lines, config, report)), report
