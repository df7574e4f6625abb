"""Corruption-rule tests: exact outputs, round-trips, and determinism."""

import random
from collections import Counter
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgeckit.core import FINE_TO_COARSE, CoarseType, apply_edits, diff_edits
from cgeckit.resources import (
    Collocation,
    ConnectivePair,
    MixedPattern,
    RuleResources,
    load_resources,
)
from cgeckit.rules import RULE_REGISTRY, _core_end, apply_fine_rule
from cgeckit.tagging import _shipped, identify_roles, segment_and_tag
from tests.oracles import SCAN_CANDIDATE_FNS, SCAN_FUNCTION_WORD_FNS

RES = load_resources()


def splice(text, edit):
    start, end, piece = edit
    return text[:start] + piece + text[end:]


def rule_edit(text, fine, seed=0):
    """The edit the rule makes to text, or None when it does not fire."""
    sent = segment_and_tag(text)
    return apply_fine_rule(sent, identify_roles(sent), RES, random.Random(seed), fine)


def corrupt(text, fine, seed=0):
    """The text the rule makes of text, or None when it does not fire."""
    edit = rule_edit(text, fine, seed)
    return None if edit is None else splice(text, edit)


def sweep(text, fine, seeds=60):
    """Every text the rule makes of text over the first seeds seeds."""
    outs = {corrupt(text, fine, s) for s in range(seeds)}
    outs.discard(None)
    return outs


def fixture_sentences():
    with open(_shipped("fixtures/correct_sentences.txt"), encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def test_registry_has_exactly_26_rules():
    assert len(RULE_REGISTRY) == 26
    assert set(RULE_REGISTRY) == set(FINE_TO_COARSE)
    assert all(callable(candidates_of) for candidates_of in RULE_REGISTRY.values())


def test_mixed_patterns_splices_competing_structure():
    incorrect = corrupt("食用水果前应该洗净削皮", "MixedPatterns")
    assert incorrect == "食用水果前应该洗净削皮较为安全"
    edits = diff_edits(incorrect, "食用水果前应该洗净削皮")
    assert apply_edits(incorrect, edits) == "食用水果前应该洗净削皮"
    assert len(edits) == 1 and edits[0].replacement == ""


def test_mixed_sentences_appends_run_on_tail():
    incorrect = corrupt("他喜欢苹果", "MixedSentences")
    assert incorrect == "他喜欢苹果是他最喜欢的水果"
    assert apply_edits(incorrect, diff_edits(incorrect, "他喜欢苹果")) == "他喜欢苹果"


def test_mixed_subjects_inserts_competing_subject():
    outs = sweep("学校采取措施防止事故发生", "MixedSubjects")
    assert outs
    for text in outs:
        assert text.startswith("学校")
        inserted = text[2 : len(text) - len("采取措施防止事故发生")]
        assert inserted in ("我们", "大家", "人们")
        edits = diff_edits(text, "学校采取措施防止事故发生")
        assert apply_edits(text, edits) == "学校采取措施防止事故发生"


def test_measure_word_exact_marker_gains_approximation():
    outs = sweep("共有50人", "MeasureWord")
    assert "共有大约50人" in outs
    for text in outs:
        assert text in ("共有大约50人", "共有将近50人")
        edits = diff_edits(text, "共有50人")
        assert apply_edits(text, edits) == "共有50人"
        assert len(edits) == 1 and edits[0].replacement == ""
    # the lexicon keeps each shipped exact marker one token, so each can fire
    for marker in ["整整", "恰好", "总共"]:
        assert sweep(f"这里{marker}五十名学生。", "MeasureWord") == {
            f"这里{marker}大约五十名学生。",
            f"这里{marker}将近五十名学生。",
        }


def test_measure_word_double_approximation():
    outs = sweep("大约五十名学生参加了比赛", "MeasureWord")
    assert outs
    assert outs <= {
        "大约五十名学生左右参加了比赛",
        "大约五十名学生上下参加了比赛",
    }


def test_measure_word_fires_on_cjk_numerals():
    # A run of CJK numerals is one NUM token, as a run of digits is.
    assert rule_edit("大约三十个人来了。", "MeasureWord") == rule_edit("大约30个人来了。", "MeasureWord")
    assert sweep("大约三十个人来了。", "MeasureWord") == {
        "大约三十个左右人来了。",
        "大约三十个上下人来了。",
    }
    assert sweep("共有两千名学生参加了比赛。", "MeasureWord") == {
        "共有大约两千名学生参加了比赛。",
        "共有将近两千名学生参加了比赛。",
    }


def test_unreasonable_inserts_subsumed_concept():
    incorrect = corrupt("集团向社会各界人士表示歉意", "Unreasonable")
    assert incorrect == "集团向社会各界人士、沿途村庄百姓表示歉意"
    edits = diff_edits(incorrect, "集团向社会各界人士表示歉意")
    assert apply_edits(incorrect, edits) == "集团向社会各界人士表示歉意"


def test_improper_negation_after_implicit_negative_verb():
    outs = sweep("学校采取措施防止事故发生", "ImproperNegation")
    assert "学校采取措施防止事故不发生" in outs


def test_improper_negation_double_negative_before_predicate():
    assert corrupt("我们不赞成这种做法", "ImproperNegation") == "我们没有不赞成这种做法"


def test_reverse_host_guest_swaps_noun_phrases():
    incorrect = corrupt("学生对这个问题很感兴趣", "ReverseHostGuest")
    assert incorrect == "这个问题对学生很感兴趣"
    edits = diff_edits(incorrect, "学生对这个问题很感兴趣")
    assert apply_edits(incorrect, edits) == "学生对这个问题很感兴趣"


def test_imposing_cause_and_effect_adds_connectives():
    incorrect = corrupt("他是南方人，不习惯吃面食", "ImposingCauseAndEffect")
    assert incorrect == "因为他是南方人，所以不习惯吃面食"
    edits = diff_edits(incorrect, "他是南方人，不习惯吃面食")
    assert apply_edits(incorrect, edits) == "他是南方人，不习惯吃面食"


def test_returned_edit_is_trimmed_to_the_changed_characters():
    # 优异 -> 优美 keeps its first character, so only 异 is replaced.
    assert rule_edit("他取得了优异的成绩", "ModifierHeadWord") == (5, 6, "美")
    # The clause rewrite starts and ends with an insert: nothing to trim.
    assert rule_edit("他是南方人，不习惯吃面食", "ImposingCauseAndEffect") == (
        0, 6, "因为他是南方人，所以"
    )


def test_imposing_cause_and_effect_needs_comma_and_no_existing_connective():
    assert corrupt("他是南方人不习惯吃面食", "ImposingCauseAndEffect") is None
    # Either connective already present: the causal relation is explicit.
    assert corrupt("他是南方人，所以不习惯吃面食", "ImposingCauseAndEffect") is None
    assert corrupt("因为他是南方人，不习惯吃面食", "ImposingCauseAndEffect") is None


def test_lack_subject_gives_verb_initial_sentence():
    incorrect = corrupt("他喜欢苹果", "LackSubject")
    assert incorrect == "喜欢苹果"
    edits = diff_edits(incorrect, "他喜欢苹果")
    assert edits[0].start == 0 and edits[0].end == 0
    assert edits[0].replacement == "他"


def test_lack_predicate_removes_verb():
    assert corrupt("他喜欢苹果", "LackPredicate") == "他苹果"


def test_lack_object_prefers_removing_de_phrase_head():
    incorrect = corrupt("该节目成功地实现了收视冠军的目标", "LackObject")
    assert incorrect == "该节目成功地实现了收视冠军"
    edits = diff_edits(incorrect, "该节目成功地实现了收视冠军的目标")
    assert apply_edits(incorrect, edits) == "该节目成功地实现了收视冠军的目标"


def test_lack_object_plain_object():
    assert corrupt("他喜欢苹果", "LackObject") == "他喜欢"


def test_lack_modifier_drops_essential_word():
    outs = sweep("我们不赞成这种做法", "LackModifier")
    assert "我们赞成这种做法" in outs


def test_single_token_sentence_has_no_removable_role():
    sent = segment_and_tag("苹果")
    roles = identify_roles(sent)
    for fine, coarse in FINE_TO_COARSE.items():
        if coarse is CoarseType.MISSING_COMPONENT:
            assert apply_fine_rule(sent, roles, RES, random.Random(0), fine) is None


def test_multi_words_inserts_synonym():
    outs = sweep("我非常喜欢苹果", "MultiWords")
    assert "我非常十分喜欢苹果" in outs
    edits = diff_edits("我非常十分喜欢苹果", "我非常喜欢苹果")
    assert len(edits) == 1 and edits[0].replacement == ""
    assert apply_edits("我非常十分喜欢苹果", edits) == "我非常喜欢苹果"


def test_multi_meanings_inserts_covering_word():
    incorrect = corrupt("昨天是转会的最后一天", "MultiMeanings")
    assert incorrect == "昨天是转会截止日期的最后一天"
    edits = diff_edits(incorrect, "昨天是转会的最后一天")
    assert apply_edits(incorrect, edits) == "昨天是转会的最后一天"


def test_subject_predicate_collocation_replacement():
    outs = sweep("学生的汉语水平提高了", "SubjectPredicate")
    assert outs == {"学生的汉语水平增加了", "学生的汉语水平增长了"}


def test_predicate_object_collocation_replacement():
    incorrect = corrupt("丝绸之路谱写了千古传诵的壮美篇章", "PredicateObject")
    assert incorrect == "丝绸之路开拓了千古传诵的壮美篇章"
    edits = diff_edits(incorrect, "丝绸之路谱写了千古传诵的壮美篇章")
    assert apply_edits(incorrect, edits) == "丝绸之路谱写了千古传诵的壮美篇章"


def test_subject_object_collocation_replacement():
    assert corrupt("春节是中国最重要的传统节日", "SubjectObject") == "春节是中国最重要的传统季节"


def test_modifier_head_collocation_replacement():
    assert corrupt("他取得了优异的成绩", "ModifierHeadWord") == "他取得了优美的成绩"


def test_connectives_replace_second_member():
    outs = sweep("只有努力学习，才能取得好成绩", "Connectives")
    assert outs == {
        "只有努力学习，就能取得好成绩",
        "只有努力学习，都能取得好成绩",
    }
    assert sweep("他不但学习好，而且很努力。", "Connectives") == {"他不但学习好，可是很努力。"}


def test_multi_attributives_swap():
    incorrect = corrupt("他是勤劳的善良的农民", "MultiAttributives")
    assert incorrect == "他是善良的勤劳的农民"
    edits = diff_edits(incorrect, "他是勤劳的善良的农民")
    assert apply_edits(incorrect, edits) == "他是勤劳的善良的农民"


def test_multi_adverbials_swap():
    assert corrupt("他已经非常熟悉这里的环境", "MultiAdverbials") == "他非常已经熟悉这里的环境"


def test_attributive_head_word_swap():
    incorrect = corrupt("他是优秀的教师", "AttributiveHeadWord")
    assert incorrect == "他是教师优秀的"
    assert apply_edits(incorrect, diff_edits(incorrect, "他是优秀的教师")) == "他是优秀的教师"


def test_prepositions_move_phrase_before_predicate():
    text = "学校要求每名学生三个月内完成20个小时的义工服务"
    incorrect = corrupt(text, "Prepositions")
    assert incorrect == "学校三个月内要求每名学生完成20个小时的义工服务"
    assert apply_edits(incorrect, diff_edits(incorrect, text)) == text


def test_prepositions_swap_with_preceding_adverbs():
    outs = sweep("我们要把问题解决好", "Prepositions")
    assert "我们把问题要解决好" in outs


def test_prepositions_reproduce_case_study_order_error():
    outs = sweep("请你不要把这件事放在心上", "Prepositions")
    assert "请把这件事你不要放在心上" in outs
    for text in outs:
        edits = diff_edits(text, "请你不要把这件事放在心上")
        assert apply_edits(text, edits) == "请你不要把这件事放在心上"


def test_connectives_subject_swap():
    assert corrupt("他不仅会唱歌，而且会跳舞", "ConnectivesSubject") == "不仅他会唱歌，而且会跳舞"


def test_associated_words_move_adverb_after_verb():
    outs = sweep("我非常喜欢苹果", "AssociatedWords")
    assert "我喜欢非常苹果" in outs


def test_adverbial_attributives_exchange():
    incorrect = corrupt("他认真地读了老师布置的作业", "AdverbialAttributives")
    assert incorrect == "他老师布置的读了认真地作业"
    edits = diff_edits(incorrect, "他认真地读了老师布置的作业")
    assert apply_edits(incorrect, edits) == "他认真地读了老师布置的作业"


def test_no_rule_fires_on_empty_sentence():
    sent = segment_and_tag("")
    roles = identify_roles(sent)
    for fine in RULE_REGISTRY:
        assert apply_fine_rule(sent, roles, RES, random.Random(0), fine) is None


def test_unmatched_sentence_returns_none_not_error():
    sent = segment_and_tag("xyz")
    roles = identify_roles(sent)
    for fine in RULE_REGISTRY:
        assert apply_fine_rule(sent, roles, RES, random.Random(0), fine) is None


def test_unknown_rule_id_rejected():
    # also on an empty sentence, which no known rule fires on
    for text in ("他喜欢苹果", ""):
        sent = segment_and_tag(text)
        with pytest.raises(KeyError):
            apply_fine_rule(sent, identify_roles(sent), RES, random.Random(0), "NoSuchRule")


def test_rules_deterministic_for_fixed_seed():
    for fine in RULE_REGISTRY:
        a = corrupt("学生对这个问题很感兴趣", fine, seed=7)
        b = corrupt("学生对这个问题很感兴趣", fine, seed=7)
        assert a == b


def test_every_fine_rule_fires_somewhere_on_the_fixture_corpus():
    sentences = fixture_sentences()
    unfired = set(RULE_REGISTRY)
    for text in sentences:
        sent = segment_and_tag(text)
        roles = identify_roles(sent)
        for fine in list(unfired):
            if apply_fine_rule(sent, roles, RES, random.Random(0), fine) is not None:
                unfired.discard(fine)
    assert unfired == set()


def test_exhaustive_round_trip_over_fixtures():
    """Every fired edit is minimal, has its category's shape, and its text
    diffs back to the source exactly."""
    sentences = fixture_sentences()
    fired = 0
    for text in sentences:
        sent = segment_and_tag(text)
        roles = identify_roles(sent)
        for fine in RULE_REGISTRY:
            for seed in (0, 1):
                edit = apply_fine_rule(sent, roles, RES, random.Random(seed), fine)
                if edit is None:
                    continue
                fired += 1
                start, end, piece = edit
                old = text[start:end]
                # the window is minimal: no shared first or last character
                assert old != piece
                assert not (old and piece and (old[0] == piece[0] or old[-1] == piece[-1]))
                incorrect = splice(text, edit)
                assert incorrect != text
                edits = diff_edits(incorrect, text)
                assert apply_edits(incorrect, edits) == text
                coarse = FINE_TO_COARSE[fine]
                if coarse is CoarseType.MISSING_COMPONENT:
                    assert piece == ""
                    # something was deleted: restoring edits are pure
                    # insertions totalling the removed length
                    assert all(e.start == e.end and e.replacement for e in edits)
                    assert sum(len(e.replacement) for e in edits) == len(text) - len(incorrect)
                elif coarse is CoarseType.REDUNDANT_COMPONENT:
                    assert start == end
                    # something was inserted: restoring edits are pure
                    # deletions totalling the inserted length
                    assert all(e.end > e.start and not e.replacement for e in edits)
                    assert sum(e.end - e.start for e in edits) == len(incorrect) - len(text)
                elif coarse is CoarseType.IMPROPER_WORD_ORDER:
                    # pieces only move: the characters are the same multiset
                    assert Counter(old) == Counter(piece)
                    assert Counter(incorrect) == Counter(text)
    assert fired > 200  # the corpus gives the rules plenty to do


# --- keyed candidate lookups against whole-table scans ---------------------

TAGGED = [(s, identify_roles(s)) for s in map(segment_and_tag, fixture_sentences())]
SURFACES = sorted({t.surface for s, _ in TAGGED for t in s.tokens})
# every sentence's whole head and its suffixes of 1-5 characters, plus
# strings no sentence ends with: matches of several lengths end together
HEADS = [s.text[: _core_end(s)] for s, _ in TAGGED]
MATCHES = sorted({h[-n:] for h in HEADS for n in range(1, 6)} | set(HEADS) | {"甲乙", "丙丁戊"})
_word = st.sampled_from(SURFACES + ["甲乙"])
_function_words = st.dictionaries(
    st.sampled_from(
        ["subject", "negator", "implicit_negative", "negation_insert", "double_negator",
         "essential_modifier", "exact_marker", "approx_pre", "approx_post"]
    ),
    st.lists(_word, max_size=6),
)
_wrong = st.lists(_word, min_size=1, max_size=3).map(tuple)
_tables = st.fixed_dictionaries(
    {
        "mixed_patterns": st.lists(
            st.builds(MixedPattern, st.sampled_from(["pattern", "sentence"]),
                      st.sampled_from(MATCHES), st.sampled_from(["较为安全", "是他的"])),
            max_size=40,
        ),
        "subsume_pairs": st.lists(st.tuples(_word, _word), max_size=30),
        "hostguest_markers": st.lists(_word, max_size=12),
        "collocations": st.lists(
            st.builds(
                Collocation,
                st.sampled_from(
                    ["subject_predicate", "predicate_object", "subject_object", "modifier_head"]
                ),
                _word, _word, _wrong, st.sampled_from(["left", "right"]),
            ),
            max_size=60,
        ),
        "connective_pairs": st.lists(st.builds(ConnectivePair, _word, _word, _wrong), max_size=40),
    }
)


def _assert_same_candidates(resources, scans=SCAN_CANDIDATE_FNS):
    """Each keyed rule emits the oracle scan's candidate edits, in its order;
    returns how many candidates were compared. Equal edits build equal
    texts at every seed, word pools included."""
    compared = 0
    for sentence, roles in TAGGED:
        for rule, scan in scans.items():
            got = RULE_REGISTRY[rule](sentence, roles, resources)
            assert got == scan(sentence, roles, resources), (rule, sentence.text)
            compared += len(got)
    return compared


def _repeat_rows(tables):
    """The tables with every row list repeated three times, the middle copy
    reversed, so every key has several rows in a new order."""
    repeated = {}
    for f in fields(tables):
        rows = getattr(tables, f.name)
        repeated[f.name] = rows + rows[::-1] + rows if isinstance(rows, list) else rows
    return RuleResources(**repeated)


def test_keyed_candidates_match_scan_on_shipped_tables():
    shipped = _assert_same_candidates(RES)
    assert shipped >= 30
    assert _assert_same_candidates(_repeat_rows(RES)) > 2 * shipped


@settings(max_examples=80, deadline=None)
@given(tables=_tables)
def test_keyed_candidates_match_scan_on_random_tables(tables):
    # Random rows over the fixtures' own words: duplicate keys, repeated
    # rows, matches of several lengths and keys shared across kinds.
    _assert_same_candidates(RuleResources(**tables))


def test_function_word_candidates_match_scan_on_shipped_tables():
    assert _assert_same_candidates(RES, scans=SCAN_FUNCTION_WORD_FNS) >= 10


@settings(max_examples=80, deadline=None)
@given(function_words=_function_words)
def test_function_word_candidates_match_scan_on_random_categories(function_words):
    # Categories over the fixtures' own words, repeats included, so that a
    # subject's own text is in the `subject` category now and then.
    resources = RuleResources(function_words=function_words)
    _assert_same_candidates(resources, scans=SCAN_FUNCTION_WORD_FNS)
