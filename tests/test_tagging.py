"""Segmentation, pre-tagged parsing, and role-identification tests."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cgeckit.core import ConfigError, POSTag, ParseError, SyntacticRole, TaggedSentence, Token
from cgeckit.tagging import (
    RoleSpans,
    Tagger,
    get_tagger,
    identify_roles,
    load_tag_mapping,
    map_tag,
    parse_pretagged,
    segment_and_tag,
    serialize_pretagged,
    _clause_of,
    _shipped,
)
from oracles import clause_of_reference, identify_roles_reference, longest_match_tag


def test_empty_input_yields_empty_sentence():
    sent = segment_and_tag("")
    assert sent.text == ""
    assert sent.tokens == ()


def test_basic_segmentation_with_offsets():
    sent = segment_and_tag("他喜欢苹果")
    assert [t.surface for t in sent.tokens] == ["他", "喜欢", "苹果"]
    assert [t.tag for t in sent.tokens] == [POSTag.PRON, POSTag.VERB, POSTag.NOUN]
    assert [(t.char_start, t.char_end) for t in sent.tokens] == [(0, 1), (1, 3), (3, 5)]


def test_unknown_character_becomes_other():
    sent = segment_and_tag("他Q喜欢")
    assert [t.surface for t in sent.tokens] == ["他", "Q", "喜欢"]
    assert sent.tokens[1].tag is POSTag.OTHER


def test_digit_runs_group_into_num():
    sent = segment_and_tag("学校共有50名学生")
    surfaces = [t.surface for t in sent.tokens]
    assert "50" in surfaces
    assert sent.tokens[surfaces.index("50")].tag is POSTag.NUM
    # fullwidth digits group the same way
    sent2 = segment_and_tag("１２３")
    assert [t.surface for t in sent2.tokens] == ["１２３"]
    assert sent2.tokens[0].tag is POSTag.NUM


def test_longest_match_wins():
    sent = segment_and_tag("五十名学生")
    assert [t.surface for t in sent.tokens] == ["五十名", "学生"]
    sent = segment_and_tag("图书馆里有很多有趣的书")
    assert [t.surface for t in sent.tokens] == ["图书馆", "里", "有", "很多", "有趣", "的", "书"]


def test_cjk_numeral_runs_are_one_num_token():
    tokens = segment_and_tag("大约三十个人来了。").tokens
    assert (tokens[1].surface, tokens[1].tag) == ("三十", POSTag.NUM)
    assert [(t.surface, t.tag) for t in segment_and_tag("两千〇五").tokens] == [
        ("两千〇五", POSTag.NUM)
    ]
    # a lexicon entry that starts at the run's first character still wins
    assert [t.surface for t in segment_and_tag("五十名学生").tokens] == ["五十名", "学生"]


@given(st.text(alphabet="他喜欢苹果学生12５Qab的了，", max_size=40))
def test_tokens_always_tile_the_input(raw):
    sent = segment_and_tag(raw)
    assert "".join(t.surface for t in sent.tokens) == raw


def test_missing_lexicon_is_config_error(tmp_path):
    # Despite the test's name, a missing lexicon or tag mapping is an
    # OSError naming its path.
    from cgeckit.tagging import load_lexicon, load_tag_mapping

    path = str(tmp_path / "missing.tsv")
    for loader in (load_lexicon, load_tag_mapping):
        with pytest.raises(FileNotFoundError) as info:
            loader(path)
        assert info.value.filename == path and repr(path) in str(info.value)


@pytest.mark.parametrize("line", ["苹果 n", "苹果\tn\tmore", "\tn"])
def test_lexicon_and_tag_mapping_lines_are_two_tab_separated_fields(tmp_path, line):
    from cgeckit.tagging import load_lexicon

    path = tmp_path / "table.tsv"
    path.write_text(f"# comment\n苹果\tn\n{line}\n", encoding="utf-8")
    for loader, layout in ((load_lexicon, "surface<TAB>tag"), (load_tag_mapping, "tag<TAB>canonical")):
        with pytest.raises(ConfigError) as info:
            loader(str(path))
        assert str(info.value) == f"{path}:3: expected `{layout}`"


def test_lexicon_and_tag_mapping_drop_a_byte_order_mark(tmp_path):
    from cgeckit.tagging import load_lexicon

    lexicon, mapping = tmp_path / "lexicon.tsv", tmp_path / "mapping.tsv"
    lexicon.write_bytes("\ufeff苹果\tn\n".encode())
    mapping.write_bytes("\ufeffn\tNOUN\n".encode())
    assert load_tag_mapping(str(mapping)) == {"n": "NOUN"}
    assert load_lexicon(str(lexicon), {"n": "NOUN"}) == {"苹果": POSTag.NOUN}


def test_tag_mapping_covers_thulac_style_tags():
    mapping = load_tag_mapping()
    assert map_tag("n", mapping) is POSTag.NOUN
    assert map_tag("v", mapping) is POSTag.VERB
    assert map_tag("r", mapping) is POSTag.PRON
    assert map_tag("vm", mapping) is POSTag.X
    # canonical names pass through, unknowns degrade to OTHER
    assert map_tag("NOUN", mapping) is POSTag.NOUN
    assert map_tag("zz", mapping) is POSTag.OTHER


def test_parse_pretagged_line():
    sent = parse_pretagged("他/r 喜欢/v 苹果/n")
    assert sent.text == "他喜欢苹果"
    assert [t.tag for t in sent.tokens] == [POSTag.PRON, POSTag.VERB, POSTag.NOUN]
    assert [(t.char_start, t.char_end) for t in sent.tokens] == [(0, 1), (1, 3), (3, 5)]


def test_parse_pretagged_empty_line():
    sent = parse_pretagged("")
    assert sent.text == ""
    assert sent.tokens == ()


def test_parse_pretagged_errors_cite_item_index():
    with pytest.raises(ParseError, match="item 2"):
        parse_pretagged("他/r 喜欢 苹果/n")
    with pytest.raises(ParseError, match="item 1"):
        parse_pretagged("/v")


def test_serialize_pretagged_round_trip():
    line = "他/PRON 喜欢/VERB 苹果/NOUN"
    assert serialize_pretagged(parse_pretagged(line)) == line


def _roles_of(text):
    return identify_roles(segment_and_tag(text))


def test_roles_simple_svo():
    roles = _roles_of("他喜欢苹果")
    assert roles.ranges(SyntacticRole.SUBJECT) == ((0, 1),)
    assert roles.ranges(SyntacticRole.PREDICATE) == ((1, 2),)
    assert roles.ranges(SyntacticRole.OBJECT) == ((2, 3),)


def test_roles_bare_noun_has_no_predicate():
    roles = _roles_of("苹果")
    assert roles.ranges(SyntacticRole.SUBJECT) == ((0, 1),)
    assert roles.ranges(SyntacticRole.PREDICATE) == ()
    assert roles.predicate_index() is None


def test_roles_adverb_between_subject_and_predicate():
    roles = _roles_of("他非常喜欢苹果")
    assert roles.ranges(SyntacticRole.ADVERBIAL) == ((1, 2),)
    assert roles.ranges(SyntacticRole.SUBJECT) == ((0, 1),)
    assert roles.ranges(SyntacticRole.PREDICATE) == ((2, 3),)
    assert roles.ranges(SyntacticRole.OBJECT) == ((3, 4),)


def test_roles_relativized_verb_is_not_predicate():
    # 布置 precedes 的, so the predicate must be 读
    roles = _roles_of("他认真地读了老师布置的作业")
    assert roles.predicate_index() == 2
    assert roles.ranges(SyntacticRole.ATTRIBUTE) == ((4, 7),)


def test_roles_complement_after_de():
    roles = _roles_of("他跑得很快")
    assert roles.ranges(SyntacticRole.COMPLEMENT) == ((2, 5),)


def _load_role_fixtures():
    path = _shipped("fixtures/roles.jsonl")
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


@pytest.mark.parametrize("case", _load_role_fixtures(), ids=lambda c: c["text"][:12])
def test_roles_against_hand_labeled_fixtures(case):
    roles = identify_roles(segment_and_tag(case["text"]))
    got = {
        role.value: [list(r) for r in roles.ranges(role)] for role in SyntacticRole
    }
    assert got == case["roles"]


def test_role_spans_never_overlap_across_roles():
    for case in _load_role_fixtures():
        roles = identify_roles(segment_and_tag(case["text"]))
        seen = {}
        for role in SyntacticRole:
            for a, b in roles.ranges(role):
                for i in range(a, b):
                    if i in seen and {role, seen[i]} != {
                        SyntacticRole.ATTRIBUTE,
                        SyntacticRole.ADVERBIAL,
                    }:
                        # attributes may sit inside larger spans of other
                        # roles, but subject/predicate/object never collide
                        assert role in (SyntacticRole.ATTRIBUTE,) or seen[i] in (
                            SyntacticRole.ATTRIBUTE,
                        ), (case["text"], i, role, seen[i])
                    seen[i] = role


def test_fixture_files_align():
    sents = Path(_shipped("fixtures/correct_sentences.txt")).read_text(encoding="utf-8").splitlines()
    labels = [c["text"] for c in _load_role_fixtures()]
    assert sents == labels
    assert len(sents) == 50


# Items of a random tagged sentence: every tag, with the nominal tags and
# VERB, ADV and ADP, which the heuristic tests most, drawn more often; 的
# and 得 as PART (or not); and a comma that breaks clauses as PUNCT.
_ROLE_TAGS = [*POSTag, POSTag.NOUN, POSTag.PRON, POSTag.VERB, POSTag.VERB, POSTag.ADV, POSTag.ADP]
_role_items = st.one_of(
    st.tuples(st.just("书"), st.sampled_from(_ROLE_TAGS)),
    st.tuples(st.sampled_from("的得"), st.sampled_from([POSTag.PART, POSTag.PART, POSTag.ADJ])),
    st.just(("，", POSTag.PUNCT)),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(_role_items, max_size=16))
def test_identify_roles_matches_the_reference(items):
    tokens = tuple(Token(surface, tag, i, i + 1) for i, (surface, tag) in enumerate(items))
    sentence = TaggedSentence("".join(surface for surface, _ in items), tokens)
    roles = identify_roles(sentence)
    expected = identify_roles_reference(sentence)
    assert roles == expected
    assert list(roles.spans.items()) == list(expected.spans.items())
    for index in range(len(tokens)):
        assert _clause_of(sentence, index) == clause_of_reference(sentence, index)


def test_role_spans_helpers():
    spans = RoleSpans({SyntacticRole.PREDICATE: ((3, 4),)})
    assert spans.first(SyntacticRole.PREDICATE) == (3, 4)
    assert spans.predicate_index() == 3
    assert spans.ranges(SyntacticRole.OBJECT) == ()
    assert spans.first(SyntacticRole.OBJECT) is None


# --- the compiled lexicon against the try-every-length loop ------------------

_FIRSTS = "他喜欢学生五"
_CHARS = _FIRSTS + "十名苹果ab"
# ASCII, full-width, Arabic-Indic and Devanagari digits, a superscript
# digit, CJK numerals, and characters no lexicon below contains
_TEXT = _CHARS + "0123４５６٣३²三两〇亿Q，。"
_entries = st.text(alphabet=_CHARS, min_size=1, max_size=6).map(
    lambda s: s if s[0] in _FIRSTS else _FIRSTS[len(s) % len(_FIRSTS)] + s[1:]
)
_lexicons = st.dictionaries(_entries, st.sampled_from(list(POSTag)), max_size=30)


def _as_tuples(sentence):
    return [(t.surface, t.tag, t.char_start, t.char_end) for t in sentence.tokens]


@settings(max_examples=200, deadline=None)
@given(lexicon=_lexicons, raw=st.text(alphabet=_TEXT, max_size=40))
def test_compiled_tagger_matches_longest_match_oracle(lexicon, raw):
    # entries of 1-6 characters, many sharing a first character
    assert _as_tuples(Tagger(lexicon)(raw)) == longest_match_tag(lexicon, raw)


def test_compiled_tagger_ignores_an_empty_entry():
    lexicon = {"": POSTag.NOUN, "学": POSTag.VERB, "学生": POSTag.NOUN, "五十名": POSTag.NUM}
    for raw in ["", "学生学", "五十名学生", "五十", "Q学", "１２学生"]:
        assert _as_tuples(Tagger(lexicon)(raw)) == longest_match_tag(lexicon, raw)
    assert _as_tuples(Tagger({"": POSTag.NOUN})("ab")) == [
        ("a", POSTag.OTHER, 0, 1), ("b", POSTag.OTHER, 1, 2)
    ]


@given(st.text(alphabet="他喜欢苹果学生五十名12５Qab的了，", max_size=40))
def test_tagger_output_equals_its_checked_rebuild(raw):
    # The tagger skips the TaggedSentence check; its output must be what
    # the checked constructor builds from the same fields.
    sentence = segment_and_tag(raw)
    rebuilt = TaggedSentence(
        sentence.text,
        tuple(Token(t.surface, t.tag, t.char_start, t.char_end) for t in sentence.tokens),
    )
    assert rebuilt == sentence
    assert hash(rebuilt) == hash(sentence)
    assert _as_tuples(rebuilt) == _as_tuples(sentence)


def test_compiled_shipped_lexicon_matches_longest_match_oracle():
    tagger = get_tagger()
    with open(_shipped("fixtures/correct_sentences.txt"), encoding="utf-8") as fh:
        lines = [line.strip() for line in fh if line.strip()]
    for raw in lines + ["学校共有50名学生", "１２３个Q"]:
        assert _as_tuples(tagger(raw)) == longest_match_tag(tagger.lexicon, raw)


# --- re-tagging only the window of an edit -----------------------------------

# Digits and CJK numerals start entries too, and texts hold digit runs and
# numeral runs that an edit can join, split or extend.
_SPLICE_CHARS = _CHARS + "12５三"
_SPLICE_TEXT = _SPLICE_CHARS + "0３两千Q，"
_splice_entries = st.text(alphabet=_SPLICE_CHARS, min_size=1, max_size=6)
# Runs of digits or of numerals longer than most entries, among other
# characters.
_splice_chunk = st.one_of(
    st.text(alphabet=_SPLICE_TEXT, min_size=1, max_size=6),
    st.text(alphabet="012３５", min_size=2, max_size=9),
    st.text(alphabet="五十三两千〇", min_size=2, max_size=9),
)


@st.composite
def _edits(draw):
    """(text, (start, end, piece)): inserts, deletes and replaces, with
    offset 0 and the end of the text drawn often."""
    raw = "".join(draw(st.lists(_splice_chunk, max_size=8)))
    start = draw(st.one_of(st.just(0), st.just(len(raw)), st.integers(0, len(raw))))
    end = draw(st.one_of(st.just(start), st.just(len(raw)), st.integers(start, len(raw))))
    piece = "".join(draw(st.lists(_splice_chunk, max_size=2)))
    return raw, (start, end, piece)


@settings(max_examples=400, deadline=None)
@given(case=_edits(), data=st.data())
def test_splice_equals_tagging_the_edited_text_whole(case, data):
    raw, (start, end, piece) = case
    edited = raw[:start] + piece + raw[end:]
    lexicon = data.draw(st.dictionaries(_splice_entries, st.sampled_from(list(POSTag)), max_size=20))
    # Entries of the edited text that straddle the edit's start or its end,
    # so that a token can grow into the edit from either side.
    for anchor in (start, start + len(piece)):
        first = data.draw(st.integers(max(0, anchor - 5), anchor))
        entry = edited[first : data.draw(st.integers(anchor + 1, first + 6))]
        if entry:
            lexicon.setdefault(entry, data.draw(st.sampled_from(list(POSTag))))
    tagger = Tagger(lexicon)
    spliced = tagger.splice(tagger(raw), (start, end, piece))
    assert spliced.text == edited
    assert _as_tuples(spliced) == longest_match_tag(lexicon, edited)
    # It tiles the text as the checked constructors require.
    assert TaggedSentence(edited, tuple(Token(*fields) for fields in _as_tuples(spliced))) == spliced


def test_splice_keeps_external_tags_outside_the_window():
    # The lexicon tags 他 PRON, 喜欢 VERB and 苹果 NOUN. 他 lies within the
    # longest lexicon entry of the edit, so it is re-tagged; the scan then
    # lands on 喜欢's moved boundary, and the tokens from there on keep
    # their external tags.
    sentence = parse_pretagged("他/NOUN 很/ADV 喜欢/ADJ 这个/NUM 苹果/ADJ")
    spliced = get_tagger().splice(sentence, (1, 2, "非常"))
    assert _as_tuples(spliced) == [
        ("他", POSTag.PRON, 0, 1),
        ("非常", POSTag.ADV, 1, 3),
        ("喜欢", POSTag.ADJ, 3, 5),
        ("这个", POSTag.NUM, 5, 7),
        ("苹果", POSTag.ADJ, 7, 9),
    ]
    # An external token that holds the edit is re-tagged with the builtin
    # tagger, with the text around it up to a shared boundary.
    spliced = get_tagger().splice(parse_pretagged("他很喜欢/X 苹果/ADJ"), (1, 2, "不"))
    assert _as_tuples(spliced) == [
        ("他", POSTag.PRON, 0, 1),
        ("不", POSTag.ADV, 1, 2),
        ("喜欢", POSTag.VERB, 2, 4),
        ("苹果", POSTag.ADJ, 4, 6),
    ]
