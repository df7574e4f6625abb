"""Generator tests: seeding, determinism, rule policy, random baseline."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgeckit import core, generator
from cgeckit.core import (
    FINE_TO_COARSE,
    CoarseType,
    ConfigError,
    POSTag,
    SyntacticRole,
    _pair_bound,
    apply_edits,
    diff_edits,
    ordered_map,
    pair_to_json,
    report_json,
)
from cgeckit.generator import (
    AugmentConfig,
    GenConfig,
    augment_corpus,
    derive_seed,
    generate_corpus,
    generate_pair,
)
from cgeckit.generator import _augment_job, _weighted_pop
from cgeckit.metrics import levenshtein
from cgeckit.resources import load_resources
from cgeckit.rules import RULE_REGISTRY, apply_fine_rule
from cgeckit.tagging import Tagger, _shipped, identify_roles, parse_pretagged, segment_and_tag
from tests.oracles import weighted_pop_reference

RES = load_resources()


def fixture_sentences():
    with open(_shipped("fixtures/correct_sentences.txt"), encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def tagged(text):
    sent = segment_and_tag(text)
    return sent, identify_roles(sent)


# --- configuration -------------------------------------------------------


def test_genconfig_defaults_enable_every_rule():
    config = GenConfig()
    assert config.enabled_rules == frozenset(RULE_REGISTRY)
    assert config.per_sentence == 1
    assert config.combine_max == 1
    assert config.rule_weights == {}
    assert config.pretagged is False


def test_genconfig_takes_any_collection_of_rule_ids():
    for rules in (["LackSubject"], ("LackSubject",), {"LackSubject"}):
        assert GenConfig(enabled_rules=rules).enabled_rules == frozenset({"LackSubject"})


# Wrong types that the value checks alone would miss or misread: a bare
# string reads as its characters, and "no" would switch pretagged on.
@pytest.mark.parametrize(
    "cls, kwargs, message",
    [
        (GenConfig, {"enabled_rules": "LackSubject"}, "'enabled_rules' must be"),
        (GenConfig, {"enabled_rules": ["LackSubject", 1]}, "'enabled_rules' must be"),
        (GenConfig, {"enabled_rules": {"LackSubject": 1}}, "'enabled_rules' must be"),
        (GenConfig, {"pretagged": "no"}, "'pretagged' must be"),
        (GenConfig, {"pretagged": 1}, "'pretagged' must be"),
        (GenConfig, {"seed": True}, "seed must be an integer"),
        (GenConfig, {"seed": "1"}, "seed must be an integer"),
        (AugmentConfig, {"seed": True}, "seed must be an integer"),
    ],
)
def test_configs_reject_values_of_the_wrong_type(cls, kwargs, message):
    with pytest.raises(ConfigError, match=message):
        cls(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"enabled_rules": frozenset({"NoSuchRule"})},
        {"enabled_rules": frozenset()},
        {"per_sentence": 0},
        {"combine_max": 0},
        {"rule_weights": {"NoSuchRule": 1.0}},
        {"rule_weights": {"MixedPatterns": -0.5}},
        {"seed": -1},
        {"seed": 2**64},
    ],
)
def test_genconfig_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        GenConfig(**kwargs)


def test_genconfig_rejects_weights_that_leave_no_rule_drawable():
    # Generation would be silently empty: every attempt finds no rule.
    with pytest.raises(ConfigError, match="weight 0"):
        GenConfig(rule_weights=dict.fromkeys(RULE_REGISTRY, 0.0))
    with pytest.raises(ConfigError, match="weight 0"):
        GenConfig(enabled_rules=frozenset({"LackSubject"}), rule_weights={"LackSubject": 0})
    # A zero weight on a rule that is not enabled leaves the others drawable.
    config = GenConfig(
        enabled_rules=frozenset({"LackObject"}), rule_weights={"LackSubject": 0.0}
    )
    assert config._rule_pool == (("LackObject",), (1.0,))


def test_genconfig_rejects_weights_whose_sum_is_not_finite():
    # Each weight is finite, but their sum is inf, so r = random() * inf is
    # inf or nan and the draw would always take the first or the last rule.
    weights = {"LackSubject": 1e308, "LackObject": 1e308}
    with pytest.raises(ConfigError, match="finite sum"):
        GenConfig(rule_weights=weights)
    with pytest.raises(ConfigError, match="finite sum"):
        GenConfig(enabled_rules=frozenset(weights), rule_weights=weights)
    # Only enabled rules count towards the sum.
    config = GenConfig(enabled_rules=frozenset({"LackSubject"}), rule_weights=weights)
    assert config._rule_pool == (("LackSubject",), (1e308,))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"p_keep": 0.5, "p_insert": 0.5, "p_replace": 0.5, "p_delete": 0.5},
        {"p_keep": -0.1, "p_insert": 0.5, "p_replace": 0.3, "p_delete": 0.3},
        {"seed": -3},
        {"p_keep": 0.8, "p_insert": float("nan"), "p_replace": 0.1, "p_delete": 0.1},
    ],
)
def test_augmentconfig_rejects_bad_values(kwargs):
    with pytest.raises(ConfigError):
        AugmentConfig(**kwargs)


def test_derive_seed_is_stable_and_index_sensitive():
    assert derive_seed(7, 3, 0) == derive_seed(7, 3, 0)
    assert derive_seed(7, 3, 0) != derive_seed(7, 4, 0)
    assert derive_seed(7, 3, 0) != derive_seed(7, 3, 1)
    assert derive_seed(7, 3, 0) != derive_seed(8, 3, 0)
    assert 0 <= derive_seed(7, 3, 0) < 2**64


# --- generate_pair -------------------------------------------------------


def test_generate_pair_round_trips_and_labels():
    sent, roles = tagged("他取得了优异的成绩")
    config = GenConfig(seed=11, enabled_rules=frozenset({"ModifierHeadWord"}))
    pair = generate_pair(sent, roles, RES, config, 4, 2)
    assert pair is not None
    assert pair.id == "pair-000004-02"
    assert pair.seed == derive_seed(11, 4, 2)
    assert pair.rule_id == "ModifierHeadWord"
    assert [e.fine for e in pair.error_types] == ["ModifierHeadWord"]
    assert pair.correct == "他取得了优异的成绩"
    assert pair.incorrect != pair.correct
    assert apply_edits(pair.incorrect, pair.edits) == pair.correct


def test_generate_pair_is_deterministic():
    sent, roles = tagged("我非常喜欢苹果")
    config = GenConfig(seed=3)
    a = generate_pair(sent, roles, RES, config, 0)
    b = generate_pair(sent, roles, RES, config, 0)
    assert a == b


def test_generate_pair_returns_none_when_nothing_matches():
    sent, roles = tagged("xyz")
    assert generate_pair(sent, roles, RES, GenConfig(), 0) is None
    empty, empty_roles = tagged("")
    assert generate_pair(empty, empty_roles, RES, GenConfig(), 0) is None


def test_generate_pair_honours_enabled_rule_filter():
    sent, roles = tagged("我非常喜欢苹果")
    config = GenConfig(enabled_rules=frozenset({"MultiWords"}))
    for seed in range(20):
        pair = generate_pair(sent, roles, RES, GenConfig(seed=seed, enabled_rules=config.enabled_rules), 0)
        assert pair is not None and pair.rule_id == "MultiWords"


def test_zero_weight_disables_a_rule():
    sent, roles = tagged("我非常喜欢苹果")
    enabled = frozenset({"MultiWords", "MixedPatterns"})
    weights = {"MixedPatterns": 0.0}
    for seed in range(20):
        pair = generate_pair(
            sent, roles, RES, GenConfig(seed=seed, enabled_rules=enabled, rule_weights=weights), 0
        )
        assert pair is not None and pair.rule_id == "MultiWords"


_weight = st.one_of(
    st.sampled_from([1.0, 1 / 3, 2.7e-5, 1e9, 0.1, 5e-324, 2, 10**20 + 1]),
    st.floats(min_value=1e-12, max_value=1e12),
)


@settings(max_examples=300, deadline=None)
@given(weights=st.lists(_weight, min_size=1, max_size=26), seed=st.integers(0, 2**32 - 1))
def test_weighted_draws_match_running_sum_reference(weights, seed):
    rules = [f"rule{i:02d}" for i in range(len(weights))]
    pool = list(zip(rules, weights))
    rng_ref, rng = random.Random(seed), random.Random(seed)
    expected = [weighted_pop_reference(rng_ref, pool) for _ in range(min(len(rules), 5))]
    got_rules, got_weights = list(rules), list(weights)
    got = [_weighted_pop(rng, got_rules, got_weights) for _ in range(min(len(rules), 5))]
    assert got == expected
    assert got_rules == [rule for rule, _ in pool]
    assert got_weights == [w for _, w in pool]


class _FixedDraw:
    def random(self):
        return 0.5


def test_weighted_draw_scales_by_the_plain_float_total():
    # Ten weights of 0.1 add up to 0.9999999999999999 in plain float but
    # to 1.0 compensated (math.fsum, and sum() from Python 3.12 on). The
    # draw 0.5 then lands in rule 4 or in rule 5, so the total must be
    # the plain one on every Python version.
    rules = [f"rule{i}" for i in range(10)]
    assert _weighted_pop(_FixedDraw(), rules, [0.1] * 10) == "rule4"


def test_rule_pool_is_built_once_per_config():
    config = GenConfig(
        enabled_rules=frozenset({"MultiWords", "MixedPatterns", "LackSubject"}),
        rule_weights={"MixedPatterns": 0.0, "LackSubject": 2.5},
    )
    assert config._rule_pool == (("LackSubject", "MultiWords"), (2.5, 1.0))
    assert config._rule_pool is config._rule_pool


def test_combine_max_two_stacks_rules_and_round_trips():
    # Both rules stay applicable regardless of which fires first.
    sent, roles = tagged("我非常喜欢苹果")
    enabled = frozenset({"MultiWords", "MixedSentences"})
    seen_orders = set()
    for seed in range(12):
        config = GenConfig(seed=seed, enabled_rules=enabled, combine_max=2)
        pair = generate_pair(sent, roles, RES, config, 0)
        assert pair is not None
        parts = pair.rule_id.split("+")
        assert sorted(parts) == ["MixedSentences", "MultiWords"]
        assert [e.fine for e in pair.error_types] == parts
        assert apply_edits(pair.incorrect, pair.edits) == pair.correct
        seen_orders.add(pair.rule_id)
    assert len(seen_orders) == 2  # both orders occur across seeds


def test_stacked_rules_that_undo_each_other_do_not_fire():
    # LackModifier can delete the word MeasureWord inserted, which would bring
    # this pair back to its correct text with no edits and two error types.
    config = GenConfig(seed=1, per_sentence=2, combine_max=2)
    pairs, _ = generate_corpus(fixture_sentences() * 2, config, RES)
    (pair,) = [p for p in pairs if p.id == "pair-000052-00"]
    assert pair.incorrect != pair.correct
    assert pair.edits
    assert len(pair.error_types) == len(pair.rule_id.split("+"))


@pytest.mark.parametrize("combine_max", [2, 3])
def test_stacked_pairs_always_hold_an_edit(combine_max):
    for seed in range(8):
        config = GenConfig(seed=seed, per_sentence=2, combine_max=combine_max)
        pairs, _ = generate_corpus(fixture_sentences(), config, RES)
        assert pairs
        assert [p.id for p in pairs if not p.edits] == []


def test_diff_bounds_are_never_below_the_distance(monkeypatch):
    # generate_pair gives diff_edits the sum of max(removed, inserted) over
    # its fired edits, and stats gives levenshtein the same sum over a
    # pair's edits (_pair_bound, None for a pair under 16 characters).
    bounds = []

    def checked(incorrect, correct, bound):
        assert bound >= levenshtein(incorrect, correct).distance
        bounds.append(bound)
        return diff_edits(incorrect, correct, bound)

    monkeypatch.setattr(generator, "diff_edits", checked)
    pair_bounds = []
    for seed in range(4):
        config = GenConfig(seed=seed, per_sentence=2, combine_max=3)
        pairs, _ = generate_corpus(fixture_sentences(), config, RES)
        assert len(bounds) == len(pairs) > 0
        bounds.clear()
        for pair in pairs:
            bound = _pair_bound(pair)
            assert bound is None or bound >= levenshtein(pair.incorrect, pair.correct).distance
            pair_bounds.append(bound)
    assert None in pair_bounds and any(bound is not None for bound in pair_bounds)


def test_retags_of_long_sentences_scan_at_most_a_fifth_of_the_text(monkeypatch):
    # Work, not time: the characters the tagger scans after a rule fires,
    # against the length of the texts that a whole-text re-tag would scan,
    # on fixture sentences joined into lines of 150 characters or more.
    lines, line = [], ""
    for sentence in fixture_sentences():
        line += sentence
        if len(line) >= 150:
            lines.append(line)
            line = ""
    counts = Counter()
    scan, splice = Tagger._scan, Tagger.splice

    def counting_scan(self, raw, pos, stops):
        tokens, stop = scan(self, raw, pos, stops)
        counts["scanned"] += stop - pos
        return tokens, stop

    def counting_splice(self, sentence, edit):
        spliced = splice(self, sentence, edit)
        counts["retags"] += 1
        counts["whole"] += len(spliced.text)
        return spliced

    monkeypatch.setattr(Tagger, "_scan", counting_scan)
    monkeypatch.setattr(Tagger, "splice", counting_splice)
    seeds = range(4)
    for seed in seeds:
        generate_corpus(lines, GenConfig(seed=seed, per_sentence=2, combine_max=3), RES)
    retag_scanned = counts["scanned"] - len(seeds) * sum(map(len, lines))  # less the first tags
    assert counts["retags"] >= 40
    assert retag_scanned * 5 <= counts["whole"]


@pytest.fixture(scope="module")
def recorded_runs():
    """(source, pair or None, steps) for every generate_pair attempt on the
    fixtures at seeds 0-7, per_sentence 2 and combine_max 1-3. The steps
    are (text, rule, edit), one for each rule that returned an edit."""
    steps = []

    def recording(sentence, roles, resources, rng, rule):
        edit = apply_fine_rule(sentence, roles, resources, rng, rule)
        if edit is not None:
            steps.append((sentence.text, rule, edit))
        return edit

    runs = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "apply_fine_rule", recording)
        for index, text in enumerate(fixture_sentences()):
            sent, roles = tagged(text)
            for seed in range(8):
                for combine_max in (1, 2, 3):
                    config = GenConfig(seed=seed, per_sentence=2, combine_max=combine_max)
                    for attempt in range(config.per_sentence):
                        steps.clear()
                        pair = generate_pair(sent, roles, RES, config, index, attempt)
                        runs.append((text, pair, list(steps)))
    return runs


def splice(text, edit):
    start, end, piece = edit
    return text[:start] + piece + text[end:]


def test_returned_edits_replay_every_pair(recorded_runs):
    # From the source, a step is taken when it edits the current text and
    # its output is a text not seen yet: the pair is those steps' output,
    # labelled with their rules in order.
    pairs = stacked = 0
    for source, pair, steps in recorded_runs:
        current, seen, rules = source, {source}, []
        for text, rule, edit in steps:
            output = splice(text, edit)
            if text == current and output not in seen:
                current = output
                seen.add(output)
                rules.append(rule)
        if pair is None:
            assert rules == []
            continue
        assert (current, "+".join(rules)) == (pair.incorrect, pair.rule_id)
        pairs += 1
        stacked += len(rules) > 1
    assert pairs > 1500 and stacked > 300


def test_single_rule_pairs_have_their_category_shape(recorded_runs):
    # The gold edits restore the correct text from the incorrect one.
    checked = 0
    for _, pair, _ in recorded_runs:
        if pair is None or "+" in pair.rule_id:
            continue
        coarse = FINE_TO_COARSE[pair.rule_id]
        if coarse is CoarseType.MISSING_COMPONENT:
            assert all(e.start == e.end and e.replacement for e in pair.edits), pair
        elif coarse is CoarseType.REDUNDANT_COMPONENT:
            assert all(e.end > e.start and not e.replacement for e in pair.edits), pair
        elif coarse is CoarseType.IMPROPER_WORD_ORDER:
            assert Counter(pair.incorrect) == Counter(pair.correct), pair
        checked += 1
    assert checked > 1000


# --- generate_corpus -----------------------------------------------------


def test_generate_corpus_empty_input_gives_zero_report():
    pairs, report = generate_corpus([], GenConfig(), RES)
    assert pairs == []
    assert report.to_dict() == {
        "sentences_read": 0,
        "pairs_emitted": 0,
        "skipped": 0,
        "rule_fires": {},
    }


def test_generate_corpus_preserves_order_and_counts():
    corpus = fixture_sentences()
    config = GenConfig(seed=5, per_sentence=2)
    pairs, report = generate_corpus(corpus, config, RES)
    indices = [int(p.id.split("-")[1]) for p in pairs]
    assert indices == sorted(indices)
    assert report.sentences_read == len(corpus)
    assert report.pairs_emitted == len(pairs)
    assert report.skipped == len(corpus) * 2 - len(pairs)
    assert sum(report.rule_fires.values()) == sum(len(p.rule_id.split("+")) for p in pairs)
    assert len(pairs) > 0
    for pair in pairs:
        assert apply_edits(pair.incorrect, pair.edits) == pair.correct


def test_generate_corpus_per_sentence_ids_are_distinct_attempts():
    config = GenConfig(seed=1, per_sentence=3, enabled_rules=frozenset({"MultiWords"}))
    pairs, _ = generate_corpus(["我非常喜欢苹果"], config, RES)
    assert [p.id for p in pairs] == ["pair-000000-00", "pair-000000-01", "pair-000000-02"]
    assert len({p.seed for p in pairs}) == 3


def test_generate_corpus_byte_identical_across_runs_and_workers():
    corpus = fixture_sentences() * 3  # over two 64-line chunks, so a real pool runs
    config = GenConfig(seed=42, per_sentence=2)
    first, report_a = generate_corpus(corpus, config, RES, workers=1)
    second, report_b = generate_corpus(corpus, config, RES, workers=1)
    pooled, report_c = generate_corpus(corpus, config, RES, workers=2)
    render = lambda pairs: "".join(pair_to_json(p) + "\n" for p in pairs)
    assert render(first) == render(second) == render(pooled)
    assert (
        report_json(report_a.to_dict())
        == report_json(report_b.to_dict())
        == report_json(report_c.to_dict())
    )


def test_generate_corpus_pretagged_matches_builtin_tagging():
    raw = ["我非常喜欢苹果"]
    pretagged = ["我/PRON 非常/ADV 喜欢/VERB 苹果/NOUN"]
    a, _ = generate_corpus(raw, GenConfig(seed=9), RES)
    b, _ = generate_corpus(pretagged, GenConfig(seed=9, pretagged=True), RES)
    assert a == b


def test_external_tags_outside_the_first_edit_reach_the_second_rule(monkeypatch):
    # The lexicon tags 苹果 NOUN, which makes it the object; the external
    # tagger says VERB. The first edit (LackSubject deleting 我, or
    # MultiWords inserting an adverb) does not reach 苹果, so the second
    # rule still sees its external tag and no object in its RoleSpans.
    sentence = parse_pretagged("我/PRON 非常/ADV 喜欢/VERB 苹果/VERB")
    roles = identify_roles(sentence)
    assert identify_roles(segment_and_tag(sentence.text)).first(SyntacticRole.OBJECT) == (3, 4)
    assert roles.first(SyntacticRole.OBJECT) is None
    seen = []

    def recording(sentence, roles, resources, rng, rule):
        seen.append((sentence, roles))
        return apply_fine_rule(sentence, roles, resources, rng, rule)

    monkeypatch.setattr(generator, "apply_fine_rule", recording)
    later = 0
    for seed in range(8):
        config = GenConfig(
            seed=seed, enabled_rules={"LackSubject", "MultiWords"}, combine_max=2, pretagged=True
        )
        seen.clear()
        pair = generate_pair(sentence, roles, RES, config, 0)
        assert pair is not None
        for text, spans in seen[1:]:
            (apple,) = [token for token in text.tokens if token.surface == "苹果"]
            assert apple.tag is POSTag.VERB
            assert spans.first(SyntacticRole.OBJECT) is None
            later += 1
    assert later >= 4


def test_uniform_selection_among_applicable_rules():
    # Equal weights: whichever rules can fire on a sentence should be hit
    # uniformly. Empirical shares over many seeds, +/-3 points absolute.
    sent, roles = tagged("我非常喜欢苹果")
    counts = {}
    trials = 4000
    for seed in range(trials):
        pair = generate_pair(sent, roles, RES, GenConfig(seed=seed), 0)
        if pair is not None:
            counts[pair.rule_id] = counts.get(pair.rule_id, 0) + 1
    fired = sum(counts.values())
    assert len(counts) >= 3
    expected = 1 / len(counts)
    for rule, count in counts.items():
        assert abs(count / fired - expected) < 0.03, (rule, count / fired, expected)


# --- random augmentation -------------------------------------------------


def augment_line(text, config, index, pool=()):
    """The pair of the augment job for line `index`, drawing from pool."""
    words = tuple(token.surface for token in segment_and_tag(text).tokens)
    return _augment_job((config, pool), (index, words))[0]


def test_random_augment_all_keep_is_identity():
    config = AugmentConfig(p_keep=1.0, p_insert=0.0, p_replace=0.0, p_delete=0.0)
    pair = augment_line("他喜欢苹果", config, 0)
    assert pair.incorrect == pair.correct == "他喜欢苹果"
    assert pair.edits == ()
    assert pair.error_types == ()
    assert pair.rule_id == "random-augment"


def test_random_augment_delete_only_empties_single_word():
    config = AugmentConfig(p_keep=0.0, p_insert=0.0, p_replace=0.0, p_delete=1.0)
    pair = augment_line("苹果", config, 5)
    assert pair.incorrect == ""
    assert pair.correct == "苹果"
    assert [(e.start, e.end, e.replacement) for e in pair.edits] == [(0, 0, "苹果")]
    assert pair.id == "aug-000005"
    assert pair.seed == derive_seed(0, 5)


def test_random_augment_is_deterministic():
    text = "学校采取措施防止事故发生"
    config, pool = AugmentConfig(seed=77), ("的", "了", "很")
    assert augment_line(text, config, 3, pool) == augment_line(text, config, 3, pool)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), index=st.integers(min_value=0, max_value=999))
def test_random_augment_edits_always_restore_correct(seed, index):
    config = AugmentConfig(seed=seed)
    pair = augment_line("学生对这个问题很感兴趣", config, index, ("水果", "了"))
    assert apply_edits(pair.incorrect, pair.edits) == pair.correct


# Words of 1-3 characters from four, so that a replacing or inserted word
# often shares characters with the words around it.
_SHORT_WORDS = st.text(alphabet="ab的了", min_size=1, max_size=3)


@settings(max_examples=300, deadline=None)
@given(
    words=st.lists(_SHORT_WORDS, max_size=12).map(tuple),
    pool=st.lists(_SHORT_WORDS, min_size=1, max_size=4).map(tuple),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    probs=st.sampled_from(
        [
            (0.70, 0.10, 0.10, 0.10),
            (0.10, 0.30, 0.30, 0.30),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 0.5, 0.0, 0.5),
            (0.25, 0.0, 0.5, 0.25),
            (1.0, 0.0, 0.0, 0.0),
        ]
    ),
)
def test_augment_edits_are_sorted_disjoint_and_trimmed(words, pool, seed, probs):
    config = AugmentConfig(*probs, seed=seed)
    pair, _ = _augment_job((config, pool), (0, words))
    assert apply_edits(pair.incorrect, pair.edits) == pair.correct
    if config.p_keep == 1.0:
        assert pair.edits == ()
    end = -1
    for span in pair.edits:
        assert span.start > end, pair.edits  # a character lies between spans
        removed, replacement = pair.incorrect[span.start : span.end], span.replacement
        assert removed != replacement, span
        if removed and replacement:
            assert removed[0] != replacement[0] and removed[-1] != replacement[-1], span
        end = span.end


def test_augment_makes_no_character_diff(monkeypatch):
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("augment aligned a pair")

    monkeypatch.setattr(generator, "diff_edits", refuse)
    monkeypatch.setattr(core, "_delta_columns", refuse)
    pairs, _ = augment_corpus(fixture_sentences() * 3, AugmentConfig(seed=7))
    assert calls == []
    assert len(pairs) == 3 * len(fixture_sentences())
    assert any(pair.edits for pair in pairs)
    for pair in pairs:
        assert apply_edits(pair.incorrect, pair.edits) == pair.correct


def test_augment_corpus_reports_op_frequencies_within_one_percent():
    # 500 copies of a 200-word sentence = 100,000 single-char words.
    corpus = ["字" * 200] * 500
    pairs, report = augment_corpus(corpus, AugmentConfig(seed=12345))
    assert report.sentences_read == 500
    assert report.words_seen == 100_000
    assert sum(report.op_counts.values()) == report.words_seen
    for op, expected in [("keep", 0.70), ("insert", 0.10), ("replace", 0.10), ("delete", 0.10)]:
        assert abs(report.op_counts[op] / report.words_seen - expected) < 0.01, op
    assert len(pairs) == 500
    assert all(p.rule_id == "random-augment" and p.error_types == () for p in pairs)


def test_augment_word_pool_is_sorted_unique_surfaces_of_the_input(monkeypatch):
    states = []

    def recording_map(fn, state, items, workers):
        states.append(state)
        return ordered_map(fn, state, items, workers)

    monkeypatch.setattr(generator, "ordered_map", recording_map)
    lines = ["他喜欢苹果", "苹果很好"]
    augment_corpus(iter(lines), AugmentConfig())
    [(_, pool)] = states
    surfaces = {token.surface for line in lines for token in segment_and_tag(line).tokens}
    assert pool == tuple(sorted(surfaces))
    assert pool.count("苹果") == 1
