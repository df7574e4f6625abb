"""Metrics tests: Levenshtein counts, M2 parsing/extraction/scoring, stats, kappa."""

import io
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cgeckit.core import (
    ConfigError,
    CorpusPair,
    ErrorType,
    ParseError,
    ValidationError,
    _edit_ops,
    diff_edits,
)
from cgeckit import metrics
from cgeckit.metrics import (
    GoldEdit,
    ScoreParams,
    _counts,
    corpus_stats,
    extract_system_edits,
    fleiss_kappa,
    format_score,
    levenshtein,
    parse_m2,
    score_corpus,
    write_m2,
)
from tests.oracles import (
    all_alignment_op_counts,
    changed_steps_reference,
    best_edit_set,
    counts_for,
    enumerate_edit_sets,
    f_beta,
    levenshtein_recursive,
    minimal_path_lattice,
    score_oracle,
)


def make_pair(pair_id, incorrect, correct, fines=()):
    return CorpusPair(
        id=pair_id,
        incorrect=incorrect,
        correct=correct,
        edits=diff_edits(incorrect, correct),
        error_types=tuple(ErrorType.from_fine(f) for f in fines),
        rule_id="+".join(fines) if fines else "random-augment",
        seed=0,
    )


# --- levenshtein ----------------------------------------------------------


def test_levenshtein_pure_insertion():
    assert levenshtein("", "abc") == (3, 0, 3, 0)


def test_levenshtein_kitten_sitting():
    assert levenshtein("kitten", "sitting") == (3, 2, 1, 0)


def test_levenshtein_redundant_component_pair():
    ops = levenshtein("昨天是转会的最后一天", "昨天是转会截止日期的最后一天")
    assert ops == (4, 0, 4, 0)


def test_levenshtein_identity():
    assert levenshtein("同样", "同样") == (0, 0, 0, 0)


@settings(max_examples=200, deadline=None)
@given(st.text(alphabet="abcd", max_size=10), st.text(alphabet="abcd", max_size=10))
def test_levenshtein_matches_recursive_oracle(a, b):
    ops = levenshtein(a, b)
    assert ops.distance == levenshtein_recursive(a, b)
    assert ops.replace + ops.insert + ops.delete == ops.distance
    assert (ops.replace, ops.insert, ops.delete) in all_alignment_op_counts(a, b)


# --- M2 parsing -----------------------------------------------------------


def test_parse_m2_sentence_without_annotations():
    got = list(parse_m2(io.StringIO("S a b c\n")))
    assert len(got) == 1
    assert got[0].tokens == ("a", "b", "c")
    assert got[0].by_annotator == {0: ()}


def test_parse_m2_single_edit():
    got = list(parse_m2(io.StringIO("S a b c\nA 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n")))
    assert got[0].by_annotator[0] == (GoldEdit(1, 2, "x", 0),)
    assert got[0].by_annotator[0][0].triple == (1, 2, "x")


def test_parse_m2_noop_registers_empty_annotator():
    # CoNLL-2014 and BEA-2019 gold write a no-op as `A -1 -1|||noop|||-NONE-`.
    for span in ("-1 -1", "0 0"):
        got = list(parse_m2(
            io.StringIO(
                "S a b\n"
                "A 0 1|||R|||x|||REQUIRED|||-NONE-|||0\n"
                f"A {span}|||noop|||-NONE-|||REQUIRED|||-NONE-|||1\n"
            )
        ))
        assert set(got[0].by_annotator) == {0, 1}, span
        assert got[0].by_annotator[1] == (), span


def test_parse_m2_groups_annotators_and_sentences():
    text = (
        "S a b c\n"
        "A 0 1|||R|||x|||REQUIRED|||-NONE-|||1\n"
        "A 1 2|||R|||y|||REQUIRED|||-NONE-|||0\n"
        "\n"
        "S d e\n"
        "A 0 0|||M|||w|||REQUIRED|||-NONE-|||0\n"
    )
    got = list(parse_m2(io.StringIO(text)))
    assert len(got) == 2
    assert [e.triple for e in got[0].by_annotator[0]] == [(1, 2, "y")]
    assert [e.triple for e in got[0].by_annotator[1]] == [(0, 1, "x")]
    assert [e.triple for e in got[1].by_annotator[0]] == [(0, 0, "w")]


def test_parse_m2_empty_correction_is_deletion():
    got = list(parse_m2(io.StringIO("S a b\nA 0 1|||D||||||REQUIRED|||-NONE-|||0\n")))
    assert got[0].by_annotator[0][0].triple == (0, 1, "")


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("S a b\nA 2 1|||R|||x|||REQUIRED|||-NONE-|||0\n", "line 2"),
        ("S a b\nA -1 -1|||R|||x|||REQUIRED|||-NONE-|||0\n", "line 2: invalid span -1 -1"),
        ("S a b\nA -1 -1|||D||||||REQUIRED|||-NONE-|||0\n", "line 2: invalid span -1 -1"),
        ("S a b\nA -1 0|||noop|||-NONE-|||REQUIRED|||-NONE-|||0\n", "line 2: invalid span -1 0"),
        ("S a b\nA 1 5|||R|||x|||REQUIRED|||-NONE-|||0\n", "line 2"),
        ("S a b\nA 1|||R|||x|||REQUIRED|||-NONE-|||0\n", "line 2"),
        ("S a b\nA 0 1|||R|||x|||REQUIRED|||0\n", "line 2"),
        ("S a b\nA q 1|||R|||x|||REQUIRED|||-NONE-|||0\n", "line 2"),
        ("A 0 1|||R|||x|||REQUIRED|||-NONE-|||0\n", "line 1"),
        ("S a b\nwhat is this\n", "line 2"),
    ],
)
def test_parse_m2_rejects_malformed_lines(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        list(parse_m2(io.StringIO(text)))


def test_write_m2_round_trips_pairs():
    pairs = [
        make_pair("p0", "他是教师优秀的", "他是优秀的教师", ["AttributiveHeadWord"]),
        make_pair("p1", "同样的句子", "同样的句子"),
    ]
    buffer = io.StringIO()
    assert write_m2(pairs, buffer) == 2
    parsed = list(parse_m2(io.StringIO(buffer.getvalue())))
    assert parsed[0].tokens == tuple("他是教师优秀的")
    want = [(e.start, e.end, " ".join(e.replacement)) for e in pairs[0].edits]
    assert [g.triple for g in parsed[0].by_annotator[0]] == want
    assert parsed[1].by_annotator == {0: ()}


def test_write_m2_rejects_space_tokens():
    pair = make_pair("p0", "a b", "ab")
    with pytest.raises(ValidationError):
        write_m2([pair], io.StringIO())


# --- MaxMatch extraction ---------------------------------------------------


def test_extract_identical_sequences_is_empty():
    assert extract_system_edits(list("abc"), list("abc"), [frozenset({(0, 1, "z")})])[0] == ()


def test_extract_single_substitution_matches_gold():
    got = extract_system_edits("a b c".split(), "a x c".split(), [frozenset({(1, 2, "x")})])[0]
    assert got == ((1, 2, "x"),)


def test_extract_merges_across_unchanged_token_to_match_gold():
    got = extract_system_edits(
        "a b c d".split(),
        "a x c y".split(),
        [frozenset({(1, 4, "x c y")})],
        ScoreParams(max_unchanged=1),
    )[0]
    assert got == ((1, 4, "x c y"),)


def test_extract_prefers_fewest_edits_without_gold():
    got = extract_system_edits("a b".split(), "x y".split(), [frozenset()])[0]
    assert got == ((0, 2, "x y"),)


def test_extract_max_unchanged_zero_blocks_merging():
    gold = [frozenset({(0, 3, "x b y")})]
    merged = extract_system_edits("a b c".split(), "x b y".split(), gold)[0]
    assert merged == ((0, 3, "x b y"),)
    atomic = extract_system_edits(
        "a b c".split(), "x b y".split(), gold, ScoreParams(max_unchanged=0)
    )[0]
    assert atomic == ((0, 1, "x"), (2, 3, "y"))


@pytest.mark.parametrize(
    "gold",
    [[(1, 2, "x")], [GoldEdit(1, 2, "x", 0)], [[GoldEdit(1, 2, "x", 0)]]],
    ids=["triples", "gold-edits", "set-of-gold-edits"],
)
def test_extract_refuses_gold_that_is_not_a_list_of_triple_sets(gold):
    # One set of triples or of GoldEdits, where a list of sets of triples
    # belongs, is refused rather than read as something else.
    with pytest.raises(TypeError):
        extract_system_edits("a b".split(), "a x".split(), gold)


def test_extract_matches_enumeration_oracle_on_random_cases():
    rng = random.Random(97)
    alphabet = "abxy"
    for case in range(150):
        src = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
        hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
        max_unchanged = rng.randint(0, 2)
        reachable = enumerate_edit_sets(src, hyp, max_unchanged)
        if rng.random() < 0.5 and any(reachable):
            gold = set(rng.choice(reachable))
        else:
            gold = {
                (lo := rng.randint(0, len(src)), rng.randint(lo, len(src)), rng.choice(alphabet))
                for _ in range(rng.randint(0, 2))
            }
        got = extract_system_edits(src, hyp, [frozenset(gold)], ScoreParams(max_unchanged=max_unchanged))[0]
        assert list(got) == best_edit_set(src, hyp, gold, max_unchanged), (
            case,
            src,
            hyp,
            sorted(gold),
            max_unchanged,
        )


def test_extract_with_delta_column_lattice_matches_whole_tables(monkeypatch):
    # The lattice built from the delta columns walks to the same edits as
    # one built from whole forward and reversed tables.
    rng = random.Random(41)
    real_tables = metrics._alignment_tables
    for case in range(40):
        alphabet = "abxy" if case % 2 else "他喜欢苹果最后一天"
        src = [rng.choice(alphabet) for _ in range(rng.randint(20, 90))]
        hyp = list(src)
        for _ in range(rng.randint(0, 6)):
            at = rng.randint(0, len(hyp) - 1)
            hyp[at : at + rng.randint(0, 2)] = rng.choice(alphabet) * rng.randint(0, 2)
        gold = {
            (lo := rng.randint(0, len(src)), min(len(src), lo + rng.randint(0, 2)), rng.choice(alphabet))
            for _ in range(rng.randint(0, 3))
        }
        params = ScoreParams(max_unchanged=rng.randint(0, 2))
        monkeypatch.setattr(metrics, "_alignment_tables", real_tables)
        expected = extract_system_edits(src, hyp, [frozenset(gold)], params)[0]
        monkeypatch.setattr(metrics, "_alignment_tables", minimal_path_lattice)
        got = extract_system_edits(src, hyp, [frozenset(gold)], params)[0]
        assert got == expected, (case, src, hyp, sorted(gold))


@st.composite
def _alignment_pairs(draw):
    """A source of up to 120 characters or tokens and a hypothesis of the
    same kind: an edited copy, the source itself, empty, from a disjoint
    alphabet, or unrelated."""
    if draw(st.booleans()):
        same, other = st.sampled_from("abc"), st.sampled_from("xyz")
        join = "".join
    else:
        same, other = st.sampled_from(["他", "喜欢", "苹果", "a"]), st.sampled_from(["好", "b"])
        join = list
    src = draw(st.lists(same, max_size=120))
    kind = draw(st.sampled_from(["edited", "identical", "empty", "disjoint", "unrelated"]))
    if kind == "edited":
        hyp = list(src)
        for _ in range(draw(st.integers(0, 8))):
            at = draw(st.integers(0, len(hyp)))
            hyp[at : at + draw(st.integers(0, 3))] = draw(st.lists(same, max_size=3))
    elif kind == "identical":
        hyp = list(src)
    elif kind == "empty":
        hyp = []
    else:
        hyp = draw(st.lists(other if kind == "disjoint" else same, max_size=120))
    return join(src), join(hyp)


@settings(max_examples=150, deadline=None)
@given(_alignment_pairs())
def test_lattice_marks_the_cells_and_arcs_of_whole_tables(pair):
    src, hyp = pair
    got = metrics._alignment_tables(src, hyp)
    expected = minimal_path_lattice(src, hyp)
    assert [{j: cell[:2] for j, cell in row.items()} for row in got] == [
        {j: cell[:2] for j, cell in row.items()} for row in expected
    ]
    # A jump leads from a cell whose only arc is the match to the first
    # cell down its diagonal with any other arc or none.
    for i, row in enumerate(got):
        for j, (match, arcs, jump) in row.items():
            k, l = i + 1, j + 1
            while match and not arcs and got[k][l][:2] == (True, ()):
                k, l = k + 1, l + 1
            assert jump == ((k, l, None, frozenset()) if match and not arcs else None)


MULTI_CHAR_WORDS = st.sampled_from(["喜欢", "苹果", "他们", "ab", "abc", "最后一天"])
# Lengths on both sides of 64 and 128 items, so that the delta-column ints
# cross machine-word sizes.
TOKEN_COUNTS = st.sampled_from([0, 1, 5, 63, 64, 65, 127, 128, 129, 190])


@st.composite
def _token_list_pairs(draw):
    """A list of multi-character words, possibly empty, and an edited copy
    of it or another list."""
    src = draw(st.lists(MULTI_CHAR_WORDS, min_size=(n := draw(TOKEN_COUNTS)), max_size=n))
    if draw(st.booleans()):
        hyp = list(src)
        for _ in range(draw(st.integers(0, 12))):
            at = draw(st.integers(0, len(hyp)))
            hyp[at : at + draw(st.integers(0, 3))] = draw(st.lists(MULTI_CHAR_WORDS, max_size=3))
    else:
        hyp = draw(st.lists(MULTI_CHAR_WORDS, min_size=(m := draw(TOKEN_COUNTS)), max_size=m))
    return src, hyp


@settings(max_examples=60, deadline=None)
@given(_token_list_pairs())
def test_token_list_alignments_match_whole_table_oracles(pair):
    src, hyp = pair
    assert _edit_ops(src, hyp) == changed_steps_reference(src, hyp)
    got = metrics._alignment_tables(src, hyp)
    assert [{j: cell[:2] for j, cell in row.items()} for row in got] == [
        {j: cell[:2] for j, cell in row.items()} for row in minimal_path_lattice(src, hyp)
    ]


def test_score_builds_tables_once_per_sentence(monkeypatch):
    text = io.StringIO(
        "S a b c d\nA 1 2|||X|||x|||REQUIRED|||-NONE-|||0\nA 3 4|||X|||y|||REQUIRED|||-NONE-|||0\n"
        "A 3 4|||X|||y|||REQUIRED|||-NONE-|||1\nA 0 0|||X|||-NONE-|||REQUIRED|||-NONE-|||2\n\n"
        "S e f\nA 0 1|||X|||g|||REQUIRED|||-NONE-|||0\n"
        "A 0 1|||X|||h|||REQUIRED|||-NONE-|||1\nA 1 2|||X||||||REQUIRED|||-NONE-|||2\n\n"
    )
    # One lattice and one walk per sentence; the walk serves all three
    # annotators' gold sets.
    built = []
    walked = []
    real_tables, real_walk = metrics._alignment_tables, metrics.extract_system_edits
    monkeypatch.setattr(
        metrics, "_alignment_tables", lambda *a: built.append(a) or real_tables(*a)
    )
    monkeypatch.setattr(
        metrics,
        "extract_system_edits",
        lambda *a, **k: walked.append(a[2]) or real_walk(*a, **k),
    )
    report = score_corpus(["a x c y", "g f"], text)
    assert len(built) == 2
    assert [len(gold_sets) for gold_sets in walked] == [3, 3]
    assert (report.tp, report.fp, report.fn) == (3, 0, 0)
    assert report.chosen_annotators == (0, 0)


def test_edit_counts_basic():
    system = [(0, 1, "x"), (2, 3, "y")]
    gold = [(0, 1, "x"), (4, 5, "z")]
    assert _counts(system, frozenset(gold)) == (1, 1, 1)


def test_edit_counts_duplicate_system_edit_is_false_positive():
    # A gold edit matches once; the repeated occurrence stays unmatched.
    assert _counts([(1, 1, "a"), (1, 1, "a")], frozenset([(1, 1, "a")])) == (1, 1, 0)


def test_duplicate_insertions_scored_against_oracle():
    # b -> a y a a y can only hit all four gold edits by emitting the
    # insertion (1, 1, "a") twice; the extra occurrence is a false positive.
    src, hyp = ["b"], ["a", "y", "a", "a", "y"]
    gold = [(0, 0, "a"), (0, 1, "y"), (1, 1, "a"), (1, 1, "y")]
    system = extract_system_edits(src, hyp, [frozenset(gold)])[0]
    assert sorted(system) == [(0, 0, "a"), (0, 1, "y"), (1, 1, "a"), (1, 1, "a"), (1, 1, "y")]
    assert _counts(system, frozenset(gold)) == (4, 1, 0)


def test_shared_walk_matches_the_oracle_for_every_gold_set():
    # One walk against several gold sets gives, for each, the edits that
    # enumeration finds against that set alone: reachable sets, random
    # ones, the empty set and a repeat of an earlier set side by side.
    rng = random.Random(53)
    alphabet = "abxy"
    for case in range(120):
        src = [rng.choice(alphabet) for _ in range(rng.randint(0, 5))]
        hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 5))]
        max_unchanged = case % 3
        reachable = [edits for edits in enumerate_edit_sets(src, hyp, max_unchanged) if edits]
        gold_sets = [frozenset()]
        for _ in range(rng.randint(1, 3)):
            if reachable and rng.random() < 0.5:
                gold_sets.append(frozenset(rng.choice(reachable)))
            else:
                gold_sets.append(frozenset(
                    (lo := rng.randint(0, len(src)), rng.randint(lo, len(src)), rng.choice(alphabet))
                    for _ in range(rng.randint(1, 2))
                ))
        gold_sets.append(rng.choice(gold_sets))
        rng.shuffle(gold_sets)
        params = ScoreParams(max_unchanged=max_unchanged)
        got = extract_system_edits(src, hyp, gold_sets, params)
        expected = [best_edit_set(src, hyp, gold, max_unchanged) for gold in gold_sets]
        assert [list(edits) for edits in got] == expected, (case, src, hyp, gold_sets)


@pytest.mark.parametrize("max_unchanged", [0, 1, 2])
def test_shared_walk_keeps_each_gold_sets_credited_insertions_apart(max_unchanged):
    # b -> a y a a y: annotator 0 credits the insertion (1, 1, "a") once,
    # though its best edits emit it twice; annotator 1 lacks that edit, so
    # no repeat of it can earn 1 anything. 2 is identical to 0, 3 is a
    # -NONE- no-op and 4 holds one merged span.
    text = (
        "S b\n"
        "A 0 0|||M|||a|||REQUIRED|||-NONE-|||0\nA 0 1|||R|||y|||REQUIRED|||-NONE-|||0\n"
        "A 1 1|||M|||a|||REQUIRED|||-NONE-|||0\nA 1 1|||M|||y|||REQUIRED|||-NONE-|||0\n"
        "A 0 0|||M|||a|||REQUIRED|||-NONE-|||1\nA 0 1|||R|||y|||REQUIRED|||-NONE-|||1\n"
        "A 1 1|||M|||y|||REQUIRED|||-NONE-|||1\n"
        "A 0 0|||M|||a|||REQUIRED|||-NONE-|||2\nA 0 1|||R|||y|||REQUIRED|||-NONE-|||2\n"
        "A 1 1|||M|||a|||REQUIRED|||-NONE-|||2\nA 1 1|||M|||y|||REQUIRED|||-NONE-|||2\n"
        "A 0 0|||noop|||-NONE-|||REQUIRED|||-NONE-|||3\n"
        "A 0 1|||R|||a y a a y|||REQUIRED|||-NONE-|||4\n"
    )
    (entry,) = parse_m2(io.StringIO(text))
    assert entry.by_annotator[3] == ()
    src, hyp = list(entry.tokens), "a y a a y".split()
    gold_sets = [frozenset(e.triple for e in entry.by_annotator[a]) for a in range(5)]
    params = ScoreParams(max_unchanged=max_unchanged)
    got = extract_system_edits(src, hyp, gold_sets, params)
    expected = [best_edit_set(src, hyp, gold, max_unchanged) for gold in gold_sets]
    assert [list(edits) for edits in got] == expected
    assert got[0] == got[2] and got[0].count((1, 1, "a")) == 2
    assert got[1].count((1, 1, "a")) < 2
    for edits, gold in zip(got, gold_sets):
        assert extract_system_edits(src, hyp, [gold], params)[0] == edits


# --- corpus scoring --------------------------------------------------------


def gold_file(text):
    return io.StringIO(text)


def test_score_perfect_system_is_exactly_one():
    gold = "S a b c\nA 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n\nS d e\n"
    report = score_corpus(["a x c", "d e"], gold_file(gold))
    assert (report.tp, report.fp, report.fn) == (1, 0, 0)
    assert report.precision == report.recall == report.f_beta == 1.0
    assert report.chosen_annotators == (0, 0)


def test_score_unchanged_hypotheses_have_precision_one_recall_zero():
    gold = "S a b c\nA 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n"
    report = score_corpus(["a b c"], gold_file(gold))
    assert (report.tp, report.fp, report.fn) == (0, 0, 1)
    assert report.precision == 1.0
    assert report.recall == 0.0
    assert report.f_beta == 0.0


def test_score_half_recall_f_is_five_sixths():
    gold = (
        "S a b c\n"
        "A 0 1|||R|||x|||REQUIRED|||-NONE-|||0\n"
        "A 2 3|||R|||y|||REQUIRED|||-NONE-|||0\n"
    )
    report = score_corpus(["x b c"], gold_file(gold))
    assert (report.tp, report.fp, report.fn) == (1, 0, 1)
    assert report.precision == 1.0
    assert report.recall == 0.5
    assert abs(report.f_beta - 5 / 6) < 1e-12
    assert "f_0.5" in report.to_dict()


def test_score_picks_annotator_maximizing_running_f():
    gold = (
        "S a b\n"
        "A 1 2|||R|||z|||REQUIRED|||-NONE-|||0\n"
        "A 1 2|||R|||x|||REQUIRED|||-NONE-|||1\n"
    )
    report = score_corpus(["a x"], gold_file(gold))
    assert report.chosen_annotators == (1,)
    assert report.f_beta == 1.0


def test_score_tie_breaks_to_lowest_annotator():
    gold = (
        "S a b\n"
        "A 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n"
        "A 1 2|||R|||x|||REQUIRED|||-NONE-|||1\n"
    )
    report = score_corpus(["a x"], gold_file(gold))
    assert report.chosen_annotators == (0,)


def test_score_running_selection_matches_oracle_on_random_counts():
    # Feed both implementations identical per-annotator counts via crafted
    # single-edit sentences where extraction is unambiguous.
    rng = random.Random(5)
    for _ in range(30):
        sentences = []
        hyps, blocks = [], []
        for s in range(rng.randint(1, 5)):
            hit = rng.random() < 0.5
            hyps.append("a x" if hit else "a b")
            annotators = []
            lines = [f"S a b"]
            for a in range(rng.randint(1, 3)):
                wants_x = rng.random() < 0.5
                correction = "x" if wants_x else "z"
                lines.append(f"A 1 2|||R|||{correction}|||REQUIRED|||-NONE-|||{a}")
                if hit:
                    tp = 1 if wants_x else 0
                    annotators.append((tp, 1 - tp, 1 - tp))
                else:
                    annotators.append((0, 0, 1))
            sentences.append(annotators)
            blocks.append("\n".join(lines))
        report = score_corpus(hyps, gold_file("\n\n".join(blocks) + "\n"))
        tp, fp, fn, chosen = score_oracle(sentences)
        assert (report.tp, report.fp, report.fn) == (tp, fp, fn)
        assert list(report.chosen_annotators) == chosen
        assert abs(report.f_beta - float(f_beta(tp, fp, fn))) < 1e-12


_COUNTS = st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(0, 8))


def _sign(x):
    return (x > 0) - (x < 0)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([0.1, 0.3, 0.5, 1.0, 2.0]), _COUNTS, _COUNTS)
@example(0.5, (0, 0, 0), (0, 0, 0))  # both empty: F = 1
@example(0.5, (0, 0, 0), (3, 0, 0))  # empty vs perfect: a tie at 1
@example(1.0, (0, 4, 0), (0, 0, 4))  # P = 0 vs R = 0: a tie at 0
@example(0.5, (0, 4, 0), (1, 8, 8))  # P = 0 vs a small positive F
@example(1.0, (1, 1, 0), (1, 0, 1))  # F1 weighs fp and fn alike
@example(2.0, (2, 1, 1), (4, 2, 2))  # the same ratios at twice the counts
def test_integer_f_orders_counts_as_the_exact_oracle(beta, a, b):
    exact = Fraction(str(beta))
    p2, q2 = exact.numerator**2, exact.denominator**2
    fa, fb = metrics._f_beta_ratio(*a, p2, q2), metrics._f_beta_ratio(*b, p2, q2)
    assert fa[1] > 0 and fb[1] > 0
    assert Fraction(*fa) == f_beta(*a, exact)
    oracle_order = _sign(f_beta(*a, exact) - f_beta(*b, exact))
    assert _sign(fa[0] * fb[1] - fb[0] * fa[1]) == oracle_order


def _m2_block(src, by_annotator):
    lines = ["S " + " ".join(src)]
    for annotator, gold in enumerate(by_annotator):
        if not gold:
            lines.append(f"A 0 0|||X|||-NONE-|||REQUIRED|||-NONE-|||{annotator}")
        for start, end, correction in sorted(gold):
            lines.append(f"A {start} {end}|||X|||{correction}|||REQUIRED|||-NONE-|||{annotator}")
    return "\n".join(lines)


@pytest.mark.parametrize("beta", [1.0, 2.0])
def test_score_matches_oracle_exactly_on_random_corpora(beta):
    # Per-annotator counts come from the enumeration oracle's edit sets;
    # the report's f_beta equals the oracle's exact F rounded once.
    exact = Fraction(str(beta))
    rng = random.Random(int(beta * 10))
    alphabet = "abxy"
    for _ in range(25):
        hyps, blocks, sentences = [], [], []
        for _ in range(rng.randint(1, 6)):
            src = [rng.choice(alphabet) for _ in range(rng.randint(1, 5))]
            hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 5))]
            reachable = enumerate_edit_sets(src, hyp, 2)
            by_annotator = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    gold = set(rng.choice(reachable))
                else:
                    gold = {
                        (lo := rng.randint(0, len(src)), rng.randint(lo, len(src)), rng.choice(alphabet))
                        for _ in range(rng.randint(0, 2))
                    }
                by_annotator.append(gold)
            hyps.append(" ".join(hyp))
            blocks.append(_m2_block(src, by_annotator))
            sentences.append(
                [counts_for(best_edit_set(src, hyp, gold, 2), gold) for gold in by_annotator]
            )
        report = score_corpus(
            hyps, gold_file("\n\n".join(blocks) + "\n"), ScoreParams(beta=beta)
        )
        tp, fp, fn, chosen = score_oracle(sentences, exact)
        assert (report.tp, report.fp, report.fn) == (tp, fp, fn)
        assert list(report.chosen_annotators) == chosen
        assert report.f_beta == float(f_beta(tp, fp, fn, exact))


def test_score_char_tokenize_mode():
    pairs = [make_pair("p0", "他是教师优秀的", "他是优秀的教师", ["AttributiveHeadWord"])]
    buffer = io.StringIO()
    write_m2(pairs, buffer)
    report = score_corpus(
        ["他是优秀的教师"],
        gold_file(buffer.getvalue()),
        ScoreParams(char_tokenize=True),
    )
    assert report.precision == report.recall == report.f_beta == 1.0


def test_score_rejects_count_and_token_mismatches():
    with pytest.raises(ValidationError, match="count mismatch: 2 hypotheses, 1 gold sentences"):
        score_corpus(["a b", "c"], gold_file("S a b\n"))
    # Either side may run out first, in any read-ahead block; the rest of
    # the other side is counted. Both may be one-shot iterators.
    for hyps, golds in [(20, 11), (5, 19), (16, 8), (8, 17)]:
        gold = gold_file("S a\n\n" * golds)
        with pytest.raises(
            ValidationError, match=f"count mismatch: {hyps} hypotheses, {golds} gold sentences"
        ):
            score_corpus(iter(["a"] * hyps), parse_m2(gold))
    # Under char_tokenize an S token longer than one character means the
    # gold was tokenized another way; in word mode the same gold scores.
    gold = "S a bc d\n"
    with pytest.raises(ValidationError, match="sentence 0: gold S token 'bc'"):
        score_corpus(["abcd"], gold_file(gold), ScoreParams(char_tokenize=True))
    assert score_corpus(["a bc d"], gold_file(gold)).f_beta == 1.0


def test_score_reordering_keeps_perfect_score():
    gold_fwd = "S a b\nA 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n\nS c d\nA 0 1|||R|||y|||REQUIRED|||-NONE-|||0\n"
    gold_rev = "S c d\nA 0 1|||R|||y|||REQUIRED|||-NONE-|||0\n\nS a b\nA 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n"
    fwd = score_corpus(["a x", "y d"], gold_file(gold_fwd))
    rev = score_corpus(["y d", "a x"], gold_file(gold_rev))
    assert fwd.f_beta == rev.f_beta == 1.0


def test_f_beta_is_monotone_in_precision():
    def f(p, r):
        return 0.0 if p * r == 0 else 1.25 * p * r / (0.25 * p + r)

    for r_tenths in range(0, 11):
        r = r_tenths / 10
        values = [f(p_tenths / 10, r) for p_tenths in range(0, 11)]
        assert values == sorted(values)


def test_format_score_three_lines():
    gold = "S a b\nA 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n"
    report = score_corpus(["a x"], gold_file(gold))
    assert format_score(report) == "Precision : 1.0000\nRecall : 1.0000\nF_0.5 : 1.0000\n"


def test_score_params_validation():
    with pytest.raises(ConfigError):
        ScoreParams(beta=0)
    with pytest.raises(ConfigError):
        ScoreParams(max_unchanged=-1)


# 1.5 would act as a merge window of 2, True as 1, and "no" would turn
# character mode on.
@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"max_unchanged": 1.5}, "max_unchanged must be an integer"),
        ({"max_unchanged": True}, "max_unchanged must be an integer"),
        ({"char_tokenize": "no"}, "char_tokenize must be true or false"),
        ({"char_tokenize": 1}, "char_tokenize must be true or false"),
    ],
)
def test_score_params_reject_values_of_the_wrong_type(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        ScoreParams(**kwargs)


# --- corpus statistics -----------------------------------------------------


def test_corpus_stats_hand_computed_two_pairs():
    pairs = [
        make_pair("p0", "abcdefghij", "abcdefghxy", ["MultiWords"]),
        make_pair("p1", "一二三四五六七八九十壹贰叁肆伍陆柒捌玖拾", "一二三四五六七八九十壹贰叁肆伍陆", ["MultiWords"]),
    ]
    assert len(pairs[0].incorrect) == 10 and len(pairs[1].incorrect) == 20
    report = corpus_stats(pairs)
    assert report.to_dict() == {
        "Number of Sentences": 2,
        "Erroneous Sentences": 2,
        "Number of References": 2,
        "Average Length (Char.)": 15.0,
        "Edit Distance (Char.)": 3.0,
        "References / Sentence": 1.0,
    }
    assert report.number_of_sentences != 0


def test_corpus_stats_empty_stream_is_flagged():
    report = corpus_stats([])
    assert report.number_of_sentences == 0
    assert report.to_dict() == {
        "Number of Sentences": 0,
        "Erroneous Sentences": 0,
        "Number of References": 0,
        "Average Length (Char.)": 0.0,
        "Edit Distance (Char.)": 0.0,
        "References / Sentence": 0.0,
    }


def test_corpus_stats_identity_pair_not_erroneous():
    report = corpus_stats([make_pair("p0", "同样", "同样")])
    assert report.number_of_sentences == 1
    assert report.erroneous_sentences == 0


def test_per_type_stats_redundant_insertion_is_delete_dominated():
    # The rule inserted four characters; correcting deletes them.
    pair = make_pair("p0", "昨天是转会截止日期的最后一天", "昨天是转会的最后一天", ["MultiMeanings"])
    table = corpus_stats([pair]).per_type
    assert table == {
        "Redundant Component": {"Replace": 0.0, "Insert": 0.0, "Delete": 4.0, "Total": 4.0}
    }


def test_per_type_stats_multi_type_pair_counts_in_each_row():
    pair = make_pair("p0", "他是教师优秀的", "他是优秀的教师", ["AttributiveHeadWord", "MultiWords"])
    table = corpus_stats([pair]).per_type
    assert set(table) == {"Improper Word Order", "Redundant Component"}
    assert table["Improper Word Order"] == table["Redundant Component"]


def test_per_type_stats_empty_and_unlabeled_pairs():
    assert corpus_stats([]).per_type == {}
    assert corpus_stats([make_pair("p0", "abc", "abd")]).per_type == {}


# --- Fleiss' kappa ----------------------------------------------------------


def test_kappa_perfect_agreement_is_exactly_one():
    assert fleiss_kappa([[3, 0], [0, 3], [3, 0]]) == 1.0


def test_kappa_single_category_convention():
    # Observed and chance agreement are both 1; convention says 1.0.
    assert fleiss_kappa([[2, 0], [2, 0]]) == 1.0


def test_kappa_hand_computed_example():
    assert abs(fleiss_kappa([[2, 0], [1, 1]]) + 1 / 3) < 1e-12


@pytest.mark.parametrize(
    "counts,n",
    [
        ([], None),
        ([[1, 0]], None),
        ([[2, 0], [1, 0]], None),
        ([[2, 0], [1, 1, 0]], None),
        ([[2, -1], [1, 0]], None),
        ([[2, 0], [2, 0]], 3),
    ],
)
def test_kappa_rejects_bad_matrices(counts, n):
    with pytest.raises(ValidationError):
        fleiss_kappa(counts, n)


@pytest.mark.parametrize(
    "rows", [[[2, 0], [1, 1]], [[5, 0], [0, 5], [5, 0]], [[4, 1], [2, 3], [3, 2], [5, 0]]]
)
def test_kappa_folds_any_iterable_of_rows(rows):
    assert fleiss_kappa(iter(rows)) == fleiss_kappa(rows)
    assert fleiss_kappa(tuple(row) for row in rows) == fleiss_kappa(rows)


def test_kappa_reports_the_first_bad_rows_first_fault():
    # Row 1's sum is checked before row 2's width is seen.
    with pytest.raises(ValidationError, match="^item 1: row sums to 1, expected 2$"):
        fleiss_kappa([[2, 0], [1, 0], [2, 0, 0]])
