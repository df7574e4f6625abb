"""Resource loader tests: errors that name the file, and duplicate merging."""

import os

import pytest

from cgeckit.core import ConfigError, ParseError, POSTag
from cgeckit.resources import FILE_NAMES, default_resources_dir, load_resources
from cgeckit.tagging import segment_and_tag

# The smallest valid bundle: one row per table.
MINIMAL = {
    "mixed_patterns.tsv": "pattern\t削皮\t较为安全\n",
    "logic_patterns.tsv": "subsume\t水果\t苹果\n",
    "collocations.tsv": "predicate_object\t提高\t水平\t增加\tleft\n",
    "synonyms.tsv": "提高\t增加\n",
    "connectives.tsv": "不但\t而且\t所以\n",
    "function_words.tsv": "subject\t我们\n",
}


def write_bundle(directory, **tables):
    """Write the minimal bundle to `directory`, with `tables` (file stem ->
    text) replacing whole files."""
    for name, text in MINIMAL.items():
        text = tables.get(name[: -len(".tsv")], text)
        (directory / name).write_text(text, encoding="utf-8")
    return str(directory)


def test_minimal_bundle_loads(tmp_path):
    res = load_resources(write_bundle(tmp_path))
    assert res.synonyms == {"提高": ["增加"]}
    assert res.function_words == {"subject": ["我们"]}


@pytest.mark.parametrize("name", FILE_NAMES)
def test_missing_file_is_config_error_naming_it(tmp_path, name):
    # Despite the test's name, a missing table is an OSError naming its path.
    directory = write_bundle(tmp_path)
    path = os.path.join(directory, name)
    os.remove(path)
    with pytest.raises(FileNotFoundError) as info:
        load_resources(directory)
    assert info.value.filename == path and repr(path) in str(info.value)


@pytest.mark.parametrize(
    "table, text, line, why",
    [
        ("mixed_patterns", "pattern\t削皮\t较为安全\nblend\t削皮\t较为安全\n", 2,
         "expected `pattern|sentence<TAB>match<TAB>splice`"),
        ("logic_patterns", "# comment\n\nsubsume\t水果\n", 3,
         "unknown or malformed logic pattern row ['subsume', '水果']"),
        ("logic_patterns", "subsume\t水果\t水果\n", 1, "subsumed concept equals the superset"),
        ("collocations", "predicate_object\t提高\t水平\t\tleft\n", 1,
         "empty collocation member or wrong-candidate list"),
        ("collocations", "predicate_object\t提高\t水平\t提高\tleft\n", 1,
         "wrong candidates contain the correct word '提高'"),
        ("collocations", "predicate_object\t提高\t水平\t增加\n", 1,
         "expected `kind<TAB>left<TAB>right<TAB>wrong,...<TAB>left|right`"),
        ("synonyms", "提高\t增加\n提高\t增加\tcovers\n", 2, "unknown synonym kind 'covers'"),
        ("synonyms", "提高\t提高,增加\n", 1, "synonym list for '提高' contains the word itself"),
        ("synonyms", "提高\t增加\tsynonym\tmore\n", 1,
         "expected `word<TAB>syn,...[<TAB>synonym|subsume]`"),
        ("synonyms", "提高\t,\n", 1, "empty synonym list"),
        ("connectives", "不但\t而且\n", 1, "expected `first<TAB>second<TAB>wrong,...`"),
        ("connectives", "不但\t而且\t,\n", 1, "empty wrong-candidate list"),
        ("connectives", "不但\t而且\t所以,而且\n", 1,
         "wrong candidates contain the correct word '而且'"),
        ("function_words", "subject\t我们\tmore\n", 1, "expected `category<TAB>word`"),
    ],
)
def test_malformed_row_is_parse_error_with_file_and_line(tmp_path, table, text, line, why):
    with pytest.raises(ParseError) as info:
        load_resources(write_bundle(tmp_path, **{table: text}))
    assert str(info.value) == f"{table}.tsv:{line}: {why}"


@pytest.mark.parametrize("table", [name[: -len(".tsv")] for name in FILE_NAMES])
def test_empty_table_is_config_error(tmp_path, table):
    with pytest.raises(ConfigError, match=f"resource table {table} is empty"):
        load_resources(write_bundle(tmp_path, **{table: "# only a comment\n\n"}))


def test_duplicate_keys_merge_in_file_order_keeping_first_occurrence(tmp_path):
    directory = write_bundle(
        tmp_path,
        synonyms=(
            "提高\t增加,提升\n"
            "水平\t程度\n"
            "提高\t增加,加强,提升\n"
            "水果\t鲜果\tsubsume\n"
            "水果\t果品,鲜果,果实\tsubsume\n"
            "提高\t增加,改善,改善\n"
        ),
        logic_patterns=(
            "hostguest\t对\n"
            "causal\t春天\n"
            "hostguest\t给\n"
            "causal\t唱歌\n"
            "hostguest\t对\n"
            "causal\t春天\n"
            "hostguest\t对于\n"
        ),
        function_words=(
            "subject\t我们\n"
            "negator\t不\n"
            "subject\t他们\n"
            "subject\t我们\n"
            "negator\t没\n"
            "negator\t不\n"
        ),
    )
    res = load_resources(directory)
    assert res.synonyms == {"提高": ["增加", "提升", "加强", "改善"], "水平": ["程度"]}
    assert list(res.synonyms) == ["提高", "水平"]
    assert res.meaning_pairs == {"水果": ["鲜果", "果品", "果实"]}
    assert res.hostguest_markers == ["对", "给", "对于"]
    assert res.causal_triggers == ["春天", "唱歌"]
    assert res.function_words == {"subject": ["我们", "他们"], "negator": ["不", "没"]}


def test_row_tables_keep_repeated_rows(tmp_path):
    # Only the merged buckets are deduplicated; a repeated row stays a row.
    row = "predicate_object\t提高\t水平\t增加\tleft\n"
    res = load_resources(write_bundle(tmp_path, collocations=row * 2))
    assert len(res.collocations) == 2


def test_byte_order_mark_is_not_part_of_the_first_field(tmp_path):
    directory = write_bundle(tmp_path)
    shipped = default_resources_dir()
    for name in FILE_NAMES:
        with open(os.path.join(shipped, name), "rb") as fh:
            data = fh.read()
        with open(os.path.join(directory, name), "wb") as fh:
            fh.write(b"\xef\xbb\xbf" + data)
    assert load_resources(directory) == load_resources(shipped)
    # a table whose first line is a data row: 我们 must be filed under `subject`
    (tmp_path / "function_words.tsv").write_bytes("\ufeffsubject\t我们\n".encode())
    assert load_resources(directory).function_words == {"subject": ["我们"]}


def _token_keys(res):
    """(table, word, tag or None) for every word a rule finds by comparing
    token surfaces, with the tag the rule also requires of that token."""
    keys = []
    for pair in res.connective_pairs:
        keys += [("connectives", pair.first, None), ("connectives", pair.second, None)]
    for category in ("exact_marker", "approx_pre", "negator", "implicit_negative",
                     "essential_modifier"):
        keys += [(f"function_words {category}", w, None) for w in res.function_words[category]]
    keys += [("logic_patterns hostguest", w, POSTag.ADP) for w in res.hostguest_markers]
    keys += [("logic_patterns subsume", superset, None) for superset, _ in res.subsume_pairs]
    keys += [("synonyms", w, None) for w in [*res.synonyms, *res.meaning_pairs]]
    for c in res.collocations:
        # the predicate is the right member of subject_predicate, the left of predicate_object
        left_tag = POSTag.VERB if c.kind == "predicate_object" else None
        right_tag = POSTag.VERB if c.kind == "subject_predicate" else None
        keys += [(f"collocations {c.kind}", c.left, left_tag),
                 (f"collocations {c.kind}", c.right, right_tag)]
    return keys


def test_every_shipped_token_keyed_row_can_match():
    # A rule compares token surfaces, so a key word the shipped tagger
    # splits into several tokens, or tags otherwise, can never match.
    keys = _token_keys(load_resources())
    unreachable = []
    for table, word, tag in keys:
        tokens = segment_and_tag(word).tokens
        if len(tokens) != 1 or (tag is not None and tokens[0].tag is not tag):
            unreachable.append((table, word, [f"{t.surface}/{t.tag.name}" for t in tokens]))
    assert unreachable == []
