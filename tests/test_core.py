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
    ParseError,
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
    with pytest.raises(ValidationError):
        ErrorType(CoarseType.MISSING_COMPONENT, "MultiWords")
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
    # Anything else fails as the checked constructor does.
    with pytest.raises(ValidationError, match="unknown fine error type: 'NoSuchRule'"):
        ErrorType.from_fine("NoSuchRule")
    with pytest.raises(TypeError, match="unhashable"):
        ErrorType.from_fine(["MultiWords"])
    for entry, error, message in [
        ({"coarse": "MissingComponent", "fine": "MultiMeanings"}, ValidationError, "belongs to"),
        ({"coarse": "RedundantComponent", "fine": "NoSuchRule"}, ValidationError, "unknown fine"),
        ({"coarse": "Redundant", "fine": "MultiMeanings"}, ParseError, "not a valid CoarseType"),
        ({"coarse": "RedundantComponent", "fine": ["MultiMeanings"]}, ParseError, "unhashable"),
        ({"fine": "MultiMeanings"}, ParseError, "'coarse'"),
        ("MultiMeanings", ParseError, "string indices"),
    ]:
        obj["error_types"] = [entry]
        with pytest.raises(error, match=message):
            pair_from_json(json.dumps(obj, ensure_ascii=False))


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


def test_apply_edits_allows_touching_and_repeated_insertion_points():
    assert apply_edits("abc", [EditSpan(1, 2, "X"), EditSpan(2, 3, "Y")]) == "aXY"
    assert apply_edits("abc", [EditSpan(1, 1, "x"), EditSpan(1, 1, "y")]) == "axybc"


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


@settings(max_examples=60, deadline=None)
@given(_long_pairs())
def test_edit_ops_on_long_inputs_match_full_table_reference(pair):
    a, b = pair
    assert _edit_ops(a, b) == changed_steps_reference(a, b)


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
    assert _edit_ops(a + tail, b + tail) == changed_steps_reference(a + tail, b + tail)


def test_edit_ops_do_not_trim_the_common_prefix():
    # The canonical script deletes the first "a"; a walk that dropped the
    # common prefix "a" would delete the second.
    assert edit_ops_reference("aab", "ab") == [
        ("delete", 0, 0), ("match", 1, 0), ("match", 2, 1)
    ]
    assert _edit_ops("aab", "ab") == changed_steps_reference("aab", "ab") == [("delete", 0, 0)]
    assert diff_edits("aab", "ab") == (EditSpan(0, 1, ""),)


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
    steps = _edit_ops(a, b)
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
