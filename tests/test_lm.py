"""Character n-gram model and perplexity-filter tests."""

import json
import math
import re
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cgeckit.core import ConfigError, ParseError
from cgeckit.lm import (
    BOUNDARY,
    UNK,
    LMConfig,
    filter_percentile,
    keep_indices,
    load_lm,
    perplexity,
    save_lm,
    train_lm,
)
from oracles import perplexity_events, train_lm_events

B = BOUNDARY


def test_config_validation():
    assert LMConfig().n == 3
    assert LMConfig().alpha == 1.0
    with pytest.raises(ConfigError):
        LMConfig(n=0)
    with pytest.raises(ConfigError):
        LMConfig(alpha=0.0)
    with pytest.raises(ConfigError):
        LMConfig(alpha=-1.0)
    for alpha in (math.inf, math.nan, True, "1"):
        with pytest.raises(ConfigError):
            LMConfig(alpha=alpha)
    with pytest.raises(ConfigError):
        LMConfig(n=True)


def test_train_bigram_hand_counts():
    model = train_lm(["ab"], LMConfig(n=2, alpha=1.0))
    assert model.ngrams == {(B, "a"): 1, ("a", "b"): 1, ("b", B): 1}
    assert model.vocab_size == 4  # a, b, UNK, boundary
    assert model.contexts == {(B,): 1, ("a",): 1, ("b",): 1}


def test_train_empty_sentence_only_boundary():
    model = train_lm([""], LMConfig(n=2))
    assert model.ngrams == {(B, B): 1}


def test_train_duplicated_corpus_doubles_counts():
    one = train_lm(["ab"], LMConfig(n=2))
    two = train_lm(["ab", "ab"], LMConfig(n=2))
    assert two.ngrams == {gram: 2 * c for gram, c in one.ngrams.items()}


def test_train_empty_corpus_rejected():
    with pytest.raises(ConfigError):
        train_lm([], LMConfig())


def test_perplexity_hand_computed_bigram():
    # trained on "aaaa": counts (B,a)=1, (a,a)=3, (a,B)=1; V=3 (a, UNK, boundary)
    model = train_lm(["aaaa"], LMConfig(n=2, alpha=1.0))
    assert model.vocab_size == 3
    probs = [
        Fraction(1 + 1, 1 + 3),  # (B, a)
        Fraction(3 + 1, 4 + 3),  # (a, a) x3
        Fraction(3 + 1, 4 + 3),
        Fraction(3 + 1, 4 + 3),
        Fraction(1 + 1, 4 + 3),  # (a, B)
    ]
    expected = math.exp(-sum(math.log(p) for p in probs) / 5)
    assert perplexity(model, "aaaa") == pytest.approx(expected, rel=1e-12)


def test_unseen_characters_raise_perplexity():
    model = train_lm(["aaaa"], LMConfig(n=2))
    assert perplexity(model, "zzzz") > perplexity(model, "aaaa")


def test_perplexity_is_pure():
    model = train_lm(["他喜欢苹果", "我非常喜欢苹果"], LMConfig(n=3))
    assert perplexity(model, "他喜欢苹果") == perplexity(model, "他喜欢苹果")


@pytest.mark.parametrize("n", [1, 2, 3])
def test_probabilities_normalize_over_full_vocab(n):
    corpus = ["他喜欢苹果", "我们不赞成这种做法", "abc", ""]
    model = train_lm(corpus, LMConfig(n=n))
    symbols = sorted(model.chars) + [UNK, BOUNDARY]
    for context in model.contexts:
        total = sum(model.probability(context + (s,)) for s in symbols)
        assert abs(total - 1.0) <= 1e-9, (context, total)


def test_filter_keep_counts():
    model = train_lm(["aaaa"], LMConfig(n=2))
    corpus = [f"a{'b' * i}" for i in range(10)]
    assert len(filter_percentile(corpus, model, 90)) == 9
    assert filter_percentile(corpus, model, 100) == corpus
    assert filter_percentile([], model, 90) == []
    with pytest.raises(ConfigError):
        filter_percentile(corpus, model, 0)
    with pytest.raises(ConfigError):
        filter_percentile(corpus, model, 101)
    # A bool is not a percent; it is refused before it is read as one.
    with pytest.raises(ConfigError, match="keep_percent must be a finite number"):
        filter_percentile(corpus, model, True)


def test_filter_keeps_lowest_ppl_in_original_order():
    model = train_lm(["aaaa"], LMConfig(n=2))
    corpus = ["abbb", "aaaa", "aabb", "bbbb", "aaab"]
    ppls = [perplexity(model, s) for s in corpus]
    assert len(set(ppls)) == 5  # all distinct, sort oracle is unambiguous
    want = sorted(sorted(range(5), key=lambda i: ppls[i])[:3])
    assert filter_percentile(corpus, model, 60) == [corpus[i] for i in want]


def test_filter_ties_resolved_earlier_first():
    model = train_lm(["aaaa"], LMConfig(n=2))
    corpus = ["aa", "aa", "aa", "aa"]
    assert filter_percentile(corpus, model, 50) == ["aa", "aa"]
    # and the kept ones are the earliest indices
    kept = filter_percentile(list(enumerate(corpus)) and corpus, model, 25)
    assert kept == ["aa"]


@given(
    st.lists(st.text(alphabet="ab他果", max_size=6), min_size=1, max_size=20),
    st.integers(min_value=1, max_value=10000),
)
def test_filter_output_is_subsequence(corpus, hundredths):
    # keep is a two-decimal percent, h / 100, so ceil(keep% * N) is
    # ceil(h * N / 10000) in integers.
    model = train_lm(["ab他果ab"], LMConfig(n=2))
    kept = filter_percentile(corpus, model, hundredths / 100)
    assert len(kept) == -(-hundredths * len(corpus) // 10000)
    it = iter(corpus)
    assert all(any(s == c for c in it) for s in kept)


def test_keep_indices_reads_a_decimal_keep_as_written():
    # As binary floats 10.3 and 57.7 lie a little above the decimals, which
    # must not round the count up past ceil(keep% * N).
    assert len(keep_indices([1.0] * 1000, 10.3)) == 103
    assert len(keep_indices([1.0] * 10000, 57.7)) == 5770


def test_save_load_round_trip(tmp_path):
    model = train_lm(["他喜欢苹果", "我非常喜欢苹果"], LMConfig(n=3, alpha=0.5))
    path = str(tmp_path / "model.json")
    save_lm(model, path)
    loaded = load_lm(path)
    for query in ["他喜欢苹果", "你呢", ""]:
        assert perplexity(loaded, query) == perplexity(model, query)


def test_load_rejects_bad_documents(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    with pytest.raises(ParseError):
        load_lm(str(bad))
    bad.write_text('{"format": "something-else", "version": 1}', encoding="utf-8")
    with pytest.raises(ParseError):
        load_lm(str(bad))
    bad.write_text(
        '{"format": "cgeckit-ngram", "version": 99, "n": 2, "alpha": 1.0, "chars": [], "ngrams": []}',
        encoding="utf-8",
    )
    with pytest.raises(ParseError):
        load_lm(str(bad))
    missing = str(tmp_path / "missing.json")
    with pytest.raises(FileNotFoundError) as info:
        load_lm(missing)
    assert info.value.filename == missing and repr(missing) in str(info.value)


def test_unigram_model_works():
    model = train_lm(["ab"], LMConfig(n=1))
    assert model.contexts == {(): 3}
    assert perplexity(model, "ab") > 0


@settings(max_examples=150, deadline=None)
@given(
    corpus=st.lists(st.text(alphabet="ab他果", max_size=8), min_size=1, max_size=8),
    # z and 新 never occur in training: UNK events and unseen n-grams
    queries=st.lists(st.text(alphabet="ab他果z新", max_size=12), min_size=1, max_size=6),
    n=st.integers(min_value=1, max_value=4),
    alpha=st.sampled_from([0.1, 0.5, 1, 2.5]),
)
def test_counts_and_perplexities_equal_the_event_oracle(corpus, queries, n, alpha):
    chars, ngrams, contexts = train_lm_events(corpus, n)
    model = train_lm(corpus, LMConfig(n=n, alpha=alpha))
    assert (model.chars, model.ngrams, model.contexts) == (chars, ngrams, contexts)
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/model.json"
        save_lm(model, path)
        loaded = load_lm(path)
    assert (loaded.chars, loaded.ngrams, loaded.contexts) == (chars, ngrams, contexts)
    for query in queries + corpus:
        want = perplexity_events(n, alpha, chars, ngrams, contexts, query)
        assert perplexity(model, query) == want  # to the bit, not approximately
        assert perplexity(loaded, query) == want


# More cases, each rejected at the CLI, are in test_cli.py.
@pytest.mark.parametrize(
    "change",
    [
        lambda doc: doc.__setitem__("chars", doc["chars"] + ["ab"]),
        lambda doc: doc["ngrams"][0].__setitem__(0, ["a"]),
        lambda doc: doc["ngrams"][0].__setitem__(0, "z"),
        lambda doc: doc["ngrams"].append(list(doc["ngrams"][0])),
        lambda doc: doc.__setitem__("ngrams", {"a": 1}),
        lambda doc: doc.__setitem__("alpha", "1"),
        lambda doc: doc.__setitem__("version", True),
        lambda doc: doc.pop("chars"),
        # a valid int, but no float holds its context's total
        lambda doc: doc["ngrams"][0].__setitem__(-1, 10**400),
    ],
    ids=[
        "chars-multichar", "list-symbol", "symbol-not-in-chars", "duplicate-gram",
        "ngrams-object", "alpha-string", "bool-version", "no-chars", "count-beyond-float",
    ],
)
def test_load_rejects_malformed_fields(tmp_path, change):
    path = tmp_path / "model.json"
    save_lm(train_lm(["他喜欢苹果", "ab"], LMConfig(n=2)), str(path))
    doc = json.loads(path.read_text(encoding="utf-8"))
    change(doc)
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    with pytest.raises(ParseError, match=re.escape(str(path))):
        load_lm(str(path))
