import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cgeckit import core
from cgeckit.core import (
    CoarseType,
    ConfigError,
    CorpusPair,
    EditSpan,
    ErrorType,
    FINE_TO_COARSE,
    POSTag,
    ParseError,
    TaggedSentence,
    Token,
    ValidationError,
    _delta_columns,
    _edit_ops,
    apply_edits,
    diff_edits,
    ordered_map,
    pair_from_json,
    pair_to_json,
)
from oracles import (
    changed_steps_reference,
    edit_ops_reference,
    full_distance_table,
    levenshtein_recursive,
)

TEXT_ALPHABET = "ab他喜欢苹果最后一天xy ，。"


def test_taxonomy_has_26_fine_types_in_6_categories():
    assert len(FINE_TO_COARSE) == 26
    per_coarse = {}
    for fine, coarse in FINE_TO_COARSE.items():
        per_coarse.setdefault(coarse, []).append(fine)
    assert len(per_coarse) == 6
    sizes = {c.value: len(v) for c, v in per_coarse.items()}
    assert sizes == {
        "StructuralConfusion": 3,
        "ImproperLogicality": 5,
        "MissingComponent": 4,
        "RedundantComponent": 2,
        "ImproperCollocation": 5,
        "ImproperWordOrder": 7,
    }


def test_error_type_rejects_wrong_coarse():
    # The constructor checks nothing; a label read from a record is checked
    # by pair_from_json (test_stats_checks_the_label_that_an_unchecked_error_type_wrote).
    with pytest.raises(ValidationError):
        ErrorType.from_fine("NoSuchRule")
    t = ErrorType.from_fine("MultiWords")
    assert t.coarse is CoarseType.REDUNDANT_COMPONENT


def test_labels_are_shared_and_misses_keep_their_errors():
    # One frozen instance per fine id, for rules and for records read back.
    for fine, coarse in FINE_TO_COARSE.items():
        label = ErrorType.from_fine(fine)
        assert label is ErrorType.from_fine(fine)
        assert label == ErrorType(coarse, fine)
    obj = json.loads(pair_to_json(_sample_pair()))
    first = pair_from_json(json.dumps(obj, ensure_ascii=False))
    second = pair_from_json(json.dumps(obj, ensure_ascii=False))
    assert first.error_types[0] is second.error_types[0] is ErrorType.from_fine("MultiMeanings")
    # Anything else fails with its own error.
    with pytest.raises(ValidationError, match="unknown fine error type: 'NoSuchRule'"):
        ErrorType.from_fine("NoSuchRule")
    with pytest.raises(TypeError, match="unhashable"):
        ErrorType.from_fine(["MultiWords"])
    # In a record, each fails as a ParseError naming the record's line.
    for entry, message in [
        ({"coarse": "MissingComponent", "fine": "MultiMeanings"}, "belongs to"),
        ({"coarse": "RedundantComponent", "fine": "NoSuchRule"}, "unknown fine"),
        (
            {"coarse": "Redundant", "fine": "MultiMeanings"},
            "fine type 'MultiMeanings' belongs to RedundantComponent, not Redundant$",
        ),
        ({"coarse": "RedundantComponent", "fine": ["MultiMeanings"]}, "unhashable"),
        ({"fine": "MultiMeanings"}, "'coarse'"),
        ("MultiMeanings", "string indices"),
    ]:
        obj["error_types"] = [entry]
        with pytest.raises(ParseError, match=f"^bad pair record at line 7: .*{message}"):
            pair_from_json(json.dumps(obj, ensure_ascii=False), 7)


def test_apply_edits_empty_is_identity():
    assert apply_edits("昨天是转会的最后一天", []) == "昨天是转会的最后一天"


def test_apply_edits_deletion_example():
    # Hand-counted offsets: 截止日期 occupies [5, 9).
    edits = [EditSpan(5, 9, "")]
    assert apply_edits("昨天是转会截止日期的最后一天", edits) == "昨天是转会的最后一天"


def test_apply_edits_replacement_example():
    src = "丝绸之路开拓了千古传诵的壮美篇章"
    assert src.index("开拓") == 4
    assert apply_edits(src, [EditSpan(4, 6, "谱写")]) == "丝绸之路谱写了千古传诵的壮美篇章"


def test_apply_edits_rejects_bad_spans():
    with pytest.raises(ValidationError) as exc:
        apply_edits("abc", [EditSpan(1, 9, "x")])
    assert "(1, 9," in str(exc.value)
    with pytest.raises(ValidationError) as exc:
        apply_edits("abcdef", [EditSpan(0, 3, "x"), EditSpan(2, 4, "y")])
    assert "overlaps" in str(exc.value)
    # EditSpan itself does not check; apply_edits refuses these.
    for span, message in [
        (EditSpan(-1, 1, "x"), "edit (-1, 1, 'x') starts before the text"),
        (EditSpan(2, 1, "x"), "edit (2, 1, 'x') ends before it starts"),
    ]:
        with pytest.raises(ValidationError) as exc:
            apply_edits("abc", [span])
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "text,tokens,message",
    [
        ("ab", (Token("", POSTag.NOUN, 0, 0), Token("ab", POSTag.NOUN, 0, 2)), "does not tile"),
        ("ab", (Token("ab", POSTag.NOUN, 0, 1), Token("b", POSTag.NOUN, 1, 2)), "does not tile"),
        ("abc", (Token("a", POSTag.NOUN, 0, 1), Token("c", POSTag.NOUN, 2, 3)), "does not tile"),
        ("ab", (Token("ab", POSTag.NOUN, 0, 2), Token("b", POSTag.NOUN, 1, 2)), "does not tile"),
        ("ab", (), "^tokens do not cover the sentence text$"),
        ("ab", (Token("a", POSTag.NOUN, 0, 1),), "^tokens do not cover the sentence text$"),
    ],
    ids=["empty", "surface-off-span", "gap", "overlap", "none", "short"],
)
def test_tagged_sentence_is_the_check_of_a_token(text, tokens, message):
    # Token itself does not check; the sentence that holds it refuses it.
    with pytest.raises(ValidationError, match=message):
        TaggedSentence(text, tokens)


def test_apply_edits_allows_touching_and_repeated_insertion_points():
    assert apply_edits("abc", [EditSpan(1, 2, "X"), EditSpan(2, 3, "Y")]) == "aXY"
    assert apply_edits("abc", [EditSpan(1, 1, "x"), EditSpan(1, 1, "y")]) == "axybc"


def test_apply_edits_copies_each_character_once():
    # 16,000 one-character edits over 48,000 characters. Every slice and
    # concatenation of the text, and of what they give, counts the
    # characters it copies. A join of the unchanged runs copies 32,000 of
    # them, and the limit is the text's length; a splice per edit copies
    # the whole string each time, about 1.9 billion characters.
    copied = []

    class Counted(str):
        def __getitem__(self, key):
            piece = Counted(str.__getitem__(self, key))
            copied.append(len(piece))
            return piece

        def __add__(self, other):
            joined = Counted(str.__add__(self, other))
            copied.append(len(joined))
            return joined

    text = Counted("abc" * 16_000)
    edits = [EditSpan(k, k + 1, "X") for k in range(0, len(text), 3)]
    assert apply_edits(text, edits) == "Xbc" * 16_000
    assert sum(copied) <= len(text), sum(copied)


def test_diff_edits_examples():
    assert diff_edits("abc", "abc") == ()
    assert diff_edits("昨天是转会截止日期的最后一天", "昨天是转会的最后一天") == (
        EditSpan(5, 9, ""),
    )
    assert diff_edits("ax", "ay") == (EditSpan(1, 2, "y"),)


def test_diff_edits_groups_touching_ops():
    # Replacement followed directly by an insertion collapses into one span.
    (span,) = diff_edits("ab", "axy")
    assert apply_edits("ab", [span]) == "axy"
    assert span.start >= 1  # the matched prefix "a" is never part of the span


@settings(max_examples=300, deadline=None)
@given(
    st.text(TEXT_ALPHABET, max_size=30),
    st.text(TEXT_ALPHABET, max_size=30),
)
def test_diff_edits_round_trip(a, b):
    edits = diff_edits(a, b)
    assert apply_edits(a, edits) == b
    starts = [e.start for e in edits]
    assert starts == sorted(starts)
    for prev, cur in zip(edits, edits[1:]):
        assert prev.end <= cur.start


@settings(max_examples=300, deadline=None)
@given(
    st.text(TEXT_ALPHABET, max_size=12),
    st.text(TEXT_ALPHABET, max_size=12),
)
def test_diff_edits_total_char_cost_is_levenshtein(a, b):
    edits = diff_edits(a, b)
    cost = 0
    for e in edits:
        deleted = e.end - e.start
        inserted = len(e.replacement)
        # Within one span, min(deleted, inserted) chars count as replacements.
        cost += max(deleted, inserted)
    assert cost == levenshtein_recursive(a, b)


WORDS = st.sampled_from(["我", "喜欢", "苹果", "a", "ab", ""])


def _cells_from_columns(a, b):
    """Every cell of the distance table of a and b, rebuilt from the
    diagonal bits of the delta columns (D[i][j] = D[i-1][j-1] + 0 or 1),
    after checking each insert and delete bit against the rebuilt cells."""
    columns = _delta_columns(a, b)
    assert len(columns) == len(b)
    table = [list(range(len(b) + 1))]
    for i in range(1, len(a) + 1):
        row = [i]
        for j, (diagonal, _, _) in enumerate(columns, 1):
            row.append(table[i - 1][j - 1] + (not diagonal >> (i - 1) & 1))
        table.append(row)
    for i in range(1, len(a) + 1):
        for j, (_, insert, delete) in enumerate(columns, 1):
            assert bool(insert >> (i - 1) & 1) == (table[i][j] == table[i][j - 1] + 1)
            assert bool(delete >> (i - 1) & 1) == (table[i][j] == table[i - 1][j] + 1)
    return table


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.tuples(st.text(TEXT_ALPHABET, max_size=10), st.text(TEXT_ALPHABET, max_size=10)),
        st.tuples(st.lists(WORDS, max_size=8), st.lists(WORDS, max_size=8)),
    )
)
def test_distance_table_cells_match_recursive_oracle(pair):
    a, b = pair
    table = _cells_from_columns(a, b)
    assert table == full_distance_table(a, b)
    for i, row in enumerate(table):
        for j, cell in enumerate(row):
            assert cell == levenshtein_recursive(a[:i], b[:j])


@st.composite
def _long_pairs(draw):
    """A 40-150 item string or token list and a copy with a few random
    edits (sometimes many)."""
    items = st.sampled_from("ab他喜欢苹果") if draw(st.booleans()) else WORDS
    a = draw(st.lists(items, min_size=40, max_size=150))
    b = list(a)
    for _ in range(draw(st.integers(0, draw(st.sampled_from([4, 12, 60]))))):
        at = draw(st.integers(0, len(b)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "insert":
            b.insert(at, draw(items))
        elif at < len(b):
            if op == "replace":
                b[at] = draw(items)
            else:
                del b[at]
    if all(len(x) == 1 for x in a + b) and draw(st.booleans()):
        return "".join(a), "".join(b)
    return a, b


def _steps_at_every_bound(a, b):
    """The steps of _edit_ops(a, b), after checking that bounds 0, d - 1
    (too small), d and d + 5 on the distance d give the same steps as no
    bound: a bound chooses the walk, never the result."""
    steps = _edit_ops(a, b)
    d = len(steps)
    for bound in (0, d - 1, d, d + 5):
        assert _edit_ops(a, b, bound) == steps, bound
    return steps


@settings(max_examples=60, deadline=None)
@given(_long_pairs())
def test_edit_ops_on_long_inputs_match_full_table_reference(pair):
    a, b = pair
    assert _steps_at_every_bound(a, b) == changed_steps_reference(a, b)


@settings(max_examples=200, deadline=None)
@given(_long_pairs(), st.integers(0, 3))
def test_front_walk_matches_full_table_reference_or_refuses_a_short_bound(pair, head):
    # Any a and b, not only a trimmed core, and at any bound: the front
    # walk gives the reference's steps, or None exactly when the bound is
    # below the distance. It stops at row or column 0 of the table, where
    # the reference goes on to delete or insert the items left.
    a, b = pair
    steps = changed_steps_reference(a, b)
    d = len(steps)
    for bound in (0, d - 1, d, d + 5):
        walk = core._walk_fronts(a, b, head, bound)
        if bound < d:
            assert walk is None, bound
            continue
        ops, i, j = walk
        rest = [("delete", k, 0) for k in range(i - head)]
        rest += [("insert", 0, k) for k in range(j - head)]
        assert rest + [(op, x - head, y - head) for op, x, y in reversed(ops)] == steps


def test_edit_ops_with_a_short_bound_build_no_columns(monkeypatch):
    # A 200-character core at distance 4: bound 4 (or 14, since
    # 14 ** 2 <= 200) takes the front walk. Bound 3 is too small, so the
    # fronts are dropped and the columns run, with the same steps; bound 15
    # is too large against the core to try the fronts.
    text = "".join(chr(0x4E00 + k % 97) for k in range(200))
    edited = "X" + text[1:100] + text[101:199] + "YZ"
    calls = []
    real = core._delta_columns

    def recorded(a, b):
        calls.append(len(b))
        return real(a, b)

    monkeypatch.setattr(core, "_delta_columns", recorded)
    steps = [("replace", 0, 0), ("delete", 100, 100), ("insert", 199, 198), ("replace", 199, 199)]
    assert changed_steps_reference(text, edited) == steps
    assert _edit_ops(text, edited, 4) == _edit_ops(text, edited, 14) == steps
    assert calls == []
    assert _edit_ops(text, edited, 3) == _edit_ops(text, edited, 15) == steps
    assert calls == [200, 200]


def _distance_from_columns(a, b):
    """D[len(a)][len(b)] read down its diagonal from the delta columns: one
    more than the cell before it wherever the diagonal bit is 0, until the
    walk reaches row or column 0, where D[i][0] = i and D[0][j] = j."""
    columns = _delta_columns(a, b)
    i, j, steps = len(a), len(b), 0
    while i and j:
        steps += not columns[j - 1][0] >> (i - 1) & 1
        i, j = i - 1, j - 1
    return i + j + steps


@settings(max_examples=60, deadline=None)
@given(_long_pairs())
def test_bit_vector_distance_is_the_table_corner(pair):
    a, b = pair
    distance = full_distance_table(a, b)[-1][-1]
    assert _distance_from_columns(a, b) == _distance_from_columns(b, a) == distance


@settings(max_examples=60, deadline=None)
@given(_long_pairs())
def test_delta_columns_rebuild_the_whole_table_on_long_inputs(pair):
    a, b = pair
    assert _cells_from_columns(a, b) == full_distance_table(a, b)


def _pid(state, item):
    return os.getpid()


def test_ordered_map_runs_a_single_chunk_in_the_calling_process():
    assert list(ordered_map(_pid, None, range(10), 8)) == [os.getpid()] * 10
    assert list(ordered_map(_pid, None, [], 4)) == []  # no chunk: no pool either


@pytest.mark.parametrize("workers", [0, -3, 1.0, True])
def test_ordered_map_refuses_a_worker_count_below_one_or_not_an_int(workers):
    # Refused on the first next(), even for no items, before any call runs.
    with pytest.raises(ConfigError, match=r"^workers must be an integer >= 1, got "):
        next(ordered_map(_pid, None, [], workers))


def _sample_pair():
    return CorpusPair(
        id="pair-000001-00",
        incorrect="昨天是转会截止日期的最后一天",
        correct="昨天是转会的最后一天",
        edits=(EditSpan(5, 9, ""),),
        error_types=(ErrorType.from_fine("MultiMeanings"),),
        rule_id="MultiMeanings",
        seed=12345,
    )


def test_pair_json_field_order_and_content():
    line = pair_to_json(_sample_pair())
    keys = list(json.loads(line))
    assert keys == ["id", "incorrect", "correct", "edits", "error_types", "rule_id", "seed"]
    assert "昨天是转会截止日期的最后一天" in line  # ensure_ascii off
    assert pair_from_json(line) == _sample_pair()


# Characters json must escape or must pass through unescaped, plus any others.
_JSON_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\n\x1f\x7f\u2028\u2029\ufeff他\U0001f600\U00020000'),
              st.characters())
)


@given(
    texts=st.tuples(*[_JSON_TEXT] * 4),
    edits=st.lists(
        st.builds(lambda start, width, piece: EditSpan(start, start + width, piece),
                  st.integers(0, 2**40), st.integers(0, 10), _JSON_TEXT),
        max_size=4,
    ),
    fines=st.lists(st.sampled_from(sorted(FINE_TO_COARSE)), max_size=3),
    seed=st.integers(0, 2**64 - 1),
)
def test_pair_to_json_equals_compact_json_dumps(texts, edits, fines, seed):
    pair_id, incorrect, correct, rule_id = texts
    labels = tuple(ErrorType.from_fine(fine) for fine in fines)
    pair = CorpusPair(pair_id, incorrect, correct, tuple(edits), labels, rule_id, seed)
    obj = {
        "id": pair_id,
        "incorrect": incorrect,
        "correct": correct,
        "edits": [{"start": e.start, "end": e.end, "replacement": e.replacement} for e in edits],
        "error_types": [{"coarse": t.coarse.value, "fine": t.fine} for t in labels],
        "rule_id": rule_id,
        "seed": seed,
    }
    assert pair_to_json(pair) == json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def test_pair_from_json_rejects_inconsistent_edits():
    obj = json.loads(pair_to_json(_sample_pair()))
    obj["correct"] = "完全不同的句子"
    with pytest.raises(ParseError):
        pair_from_json(json.dumps(obj, ensure_ascii=False), lineno=7)


@pytest.mark.parametrize(
    "field, value",
    [
        ("id", 5),
        ("incorrect", None),
        ("correct", ["昨天"]),
        ("rule_id", [1]),
        ("seed", True),
        ("seed", "12345"),
        ("start", 5.0),
        ("end", False),
        ("replacement", 0),
    ],
)
def test_pair_from_json_rejects_wrong_field_types(field, value):
    obj = json.loads(pair_to_json(_sample_pair()))
    if field in ("start", "end", "replacement"):
        obj["edits"][0][field] = value
    else:
        obj[field] = value
    with pytest.raises(ParseError) as exc:
        pair_from_json(json.dumps(obj, ensure_ascii=False), lineno=4)
    assert "line 4" in str(exc.value)
    assert repr(field) in str(exc.value)


@pytest.mark.parametrize("line", ["5", "null", '"pair"', "[1]"])
def test_pair_from_json_rejects_records_that_are_not_objects(line):
    with pytest.raises(ParseError) as exc:
        pair_from_json(line, lineno=2)
    assert "line 2" in str(exc.value)
    obj = json.loads(pair_to_json(_sample_pair()))
    obj["edits"] = [json.loads(line)]
    with pytest.raises(ParseError):
        pair_from_json(json.dumps(obj, ensure_ascii=False), lineno=2)


def test_pair_from_json_reports_line_number():
    with pytest.raises(ParseError) as exc:
        pair_from_json("{not json", lineno=31)
    assert "line 31" in str(exc.value)


@settings(max_examples=150, deadline=None)
@given(
    st.text(alphabet="ab他喜欢", max_size=40),
    st.text(alphabet="ab他喜欢", max_size=40),
    st.text(alphabet="ab他喜欢苹果", max_size=150),
)
def test_edit_ops_with_a_shared_suffix_match_full_table_reference(a, b, tail):
    # _edit_ops matches the common suffix without a table
    steps = _steps_at_every_bound(a + tail, b + tail)
    assert steps == changed_steps_reference(a + tail, b + tail)


def test_edit_ops_do_not_trim_the_common_prefix():
    # The canonical script deletes the first "a"; a walk that dropped the
    # common prefix "a" would delete the second.
    assert edit_ops_reference("aab", "ab") == [
        ("delete", 0, 0), ("match", 1, 0), ("match", 2, 1)
    ]
    assert _steps_at_every_bound("aab", "ab") == changed_steps_reference("aab", "ab") == [
        ("delete", 0, 0)
    ]
    assert diff_edits("aab", "ab") == (EditSpan(0, 1, ""),)
    # The same with a core long enough for the front walk.
    a, b = "aab" + "x" * 20 + "y", "ab" + "x" * 20 + "z"
    steps = [("delete", 0, 0), ("replace", 23, 22)]
    assert _steps_at_every_bound(a, b) == changed_steps_reference(a, b) == steps


PERIODIC_UNITS = st.sampled_from(["a", "ab", "的的"])


@st.composite
def _periodic_pairs(draw):
    """A text whose prefix and suffix repeat a unit ("a", "ab" or "的的") up
    to 30 times, and a copy with a few edits anywhere, the ends included,
    that insert or replace an item with a copy of its neighbour or delete
    one: the cases where a common-prefix cut could pick the wrong one of
    several equal items."""
    middle = draw(st.text("ab的", max_size=4))
    text = draw(PERIODIC_UNITS) * draw(st.integers(0, 30)) + middle
    text += draw(PERIODIC_UNITS) * draw(st.integers(0, 30))
    edited = list(text)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.sampled_from([0, len(edited)]) | st.integers(0, len(edited)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        neighbours = edited[max(at - 1, 0) : at + 2] or ["a"]
        if op == "insert":
            edited.insert(at, draw(st.sampled_from(neighbours)))
        elif at < len(edited):
            if op == "replace":
                edited[at] = draw(st.sampled_from(neighbours))
            else:
                del edited[at]
    edited = "".join(edited)
    return (text, edited) if draw(st.booleans()) else (edited, text)


@settings(max_examples=300, deadline=None)
@given(_periodic_pairs())
def test_edit_ops_over_periodic_prefixes_and_suffixes_match_full_table_reference(pair):
    a, b = pair
    steps = _steps_at_every_bound(a, b)
    assert steps == changed_steps_reference(a, b)
    if len(a) + len(b) <= 24:
        assert len(steps) == levenshtein_recursive(a, b)


@pytest.mark.parametrize(
    "op, replacement, removed, cells",
    [("delete", "", 1, 0), ("insert", "X", 0, 0), ("replace", "X", 1, 1)],
)
def test_edit_ops_align_only_the_changed_core(monkeypatch, op, replacement, removed, cells):
    # One edit 50 characters from the end of a 6,000-character text: the
    # bit-vector pass sees only the edit, not the 5,950 shared characters
    # before it (a whole-table pass would take 36 million cells).
    text = "".join(chr(0x4E00 + k % 97) for k in range(6000))
    at = len(text) - 50
    sizes = []
    real = core._delta_columns

    def recorded(a, b):
        sizes.append(len(a) * len(b))
        return real(a, b)

    monkeypatch.setattr(core, "_delta_columns", recorded)
    edited = text[:at] + replacement + text[at + removed :]
    assert _edit_ops(text, edited) == [(op, at, at)]
    assert sizes == [cells]
