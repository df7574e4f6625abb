"""End-to-end CLI tests: exit codes, determinism, file formats."""

import errno
import gc
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import threading
import tracemalloc

import pytest

from cgeckit import cli, generator, metrics, rules
from cgeckit.cli import RESOURCES_ENV, run
from cgeckit.core import (
    CoarseType,
    CorpusPair,
    EditSpan,
    ErrorType,
    apply_edits,
    diff_edits,
    pair_to_json,
    read_pairs,
    report_json,
)
from cgeckit.generator import (
    AugmentConfig,
    GenConfig,
    augment_corpus,
    generate_corpus,
)
from cgeckit.lm import keep_indices
from cgeckit.metrics import ScoreParams, format_score, levenshtein, score_corpus, write_m2
from cgeckit.resources import default_resources_dir, load_resources
from cgeckit.tagging import _shipped, load_tag_mapping, segment_and_tag, serialize_pretagged
from oracles import (
    SCAN_FUNCTION_WORD_FNS,
    full_distance_table,
    perplexity_events,
    train_lm_events,
)

RES_DIR = str(default_resources_dir())


@pytest.fixture
def corpus_file(tmp_path):
    with open(_shipped("fixtures/correct_sentences.txt"), encoding="utf-8") as fh:
        sentences = [line.strip() for line in fh if line.strip()][:10]
    path = tmp_path / "corpus.txt"
    path.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    return path


COMMANDS = ["filter", "generate", "augment", "stats", "score", "kappa", "sample"]

# Each subcommand's required flags, with placeholder values.
REQUIRED = {
    "filter": ["--input", "a", "--output", "b", "--keep", "50"],
    "generate": ["--input", "a", "--output", "b"],
    "augment": ["--input", "a", "--output", "b"],
    "stats": ["--input", "a"],
    "score": ["--hyp", "a", "--m2", "b"],
    "kappa": ["--input", "a"],
    "sample": ["--input", "a", "--output", "b", "--size", "3"],
}


def test_help_exits_zero(capsys):
    assert list(cli.COMMANDS) == COMMANDS
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: cgeckit ")
    for command in COMMANDS:
        assert f"    {command} " in out, command
    for command in COMMANDS:
        assert run([command, "--help"]) == 0, command
        out = capsys.readouterr().out
        assert out.startswith(f"usage: cgeckit {command} "), command
        assert "--" in out


def test_a_run_builds_only_its_own_subcommand_parser(tmp_path, corpus_file, monkeypatch, capsys):
    pairs_file = make_pairs_file(tmp_path, corpus_file)
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert run(["stats", "--input", str(pairs_file)]) == 0
    assert built == ["cgeckit", "cgeckit stats"]
    for command in COMMANDS:
        built.clear()
        assert run([command, "--help"]) == 0
        assert built == ["cgeckit", f"cgeckit {command}"]


def test_missing_command_is_usage_error(capsys):
    assert run([]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cgeckit: usage error:")
    assert err.count("\n") == 1


def test_unknown_flag_is_usage_error(capsys):
    assert run(["stats", "--input", "x.jsonl", "--wat"]) == 2
    assert "cgeckit: usage error:" in capsys.readouterr().err
    for command in COMMANDS:
        assert run([command, *REQUIRED[command], "--wat"]) == 2, command
        err = capsys.readouterr().err
        assert err.startswith("cgeckit: usage error: unrecognized") and err.endswith(" --wat\n")
        assert err.count("\n") == 1


# (argv, words its one-line error holds); the exact text varies across
# Python versions, so only the words are pinned.
USAGE_ERRORS = [
    (["wat"], ["invalid choice", "'wat'", *(f"'{c}'" for c in COMMANDS)]),
    (["--wat"], ["required", "COMMAND"]),
    # argparse reaches a subcommand after an unknown top-level flag
    (["--wat", "filter"], ["required", "--input", "--output", "--keep"]),
    (["filter", *REQUIRED["filter"], "--train", "t", "--model", "m"], ["--model", "--train"]),
    *[([c], ["required", *REQUIRED[c][::2]]) for c in COMMANDS],
]


@pytest.mark.parametrize(
    "argv, words", [pytest.param(argv, words, id=" ".join(argv)) for argv, words in USAGE_ERRORS]
)
def test_usage_errors_are_one_line(capsys, argv, words):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cgeckit: usage error:")
    assert captured.err.count("\n") == 1
    for word in words:
        assert word in captured.err, word


# --- generate ---------------------------------------------------------------


def test_generate_requires_resources(tmp_path, corpus_file, monkeypatch, capsys):
    monkeypatch.delenv(RESOURCES_ENV, raising=False)
    code = run(
        ["generate", "--input", str(corpus_file), "--output", str(tmp_path / "p.jsonl")]
    )
    assert code == 2
    assert RESOURCES_ENV in capsys.readouterr().err


def test_generate_end_to_end(tmp_path, corpus_file):
    out = tmp_path / "pairs.jsonl"
    code = run(
        [
            "generate",
            "--input",
            str(corpus_file),
            "--output",
            str(out),
            "--resources",
            RES_DIR,
            "--seed",
            "42",
        ]
    )
    assert code == 0
    pairs = list(read_pairs(str(out)))
    assert pairs
    for pair in pairs:
        assert apply_edits(pair.incorrect, pair.edits) == pair.correct
    report = json.loads((tmp_path / "pairs.jsonl.report.json").read_text(encoding="utf-8"))
    assert report["sentences_read"] == 10
    assert report["pairs_emitted"] == len(pairs)
    assert sum(report["rule_fires"].values()) == sum(len(p.rule_id.split("+")) for p in pairs)


def test_generate_pretagged_reads_external_tags_through_the_shipped_mapping(tmp_path):
    # The same tokens tagged with THULAC names (n, v, ...) and with the
    # canonical names they map to give the same bytes.
    external = {}
    for tag, canonical in load_tag_mapping().items():
        external.setdefault(canonical, tag)
    sentences = [segment_and_tag(line) for line in _fixture_text().splitlines() if line.strip()]
    inputs = {
        "canonical": [serialize_pretagged(s) for s in sentences],
        "external": [
            " ".join(f"{t.surface}/{external[t.tag.value]}" for t in s.tokens) for s in sentences
        ],
    }
    assert inputs["canonical"] != inputs["external"]
    outputs = []
    for name, lines in inputs.items():
        src, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.jsonl"
        src.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["generate", "--input", str(src), "--output", str(out), "--resources", RES_DIR]
        argv += ["--pretagged", "--seed", "1", "--per-sentence", "2", "--combine-max", "2"]
        assert run(argv) == 0
        outputs.append((out.read_bytes(), (tmp_path / f"{name}.jsonl.report.json").read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") > 50


@pytest.mark.parametrize("workers, good", [("1", 1), ("2", 70)])
def test_generate_pretagged_error_names_its_sentence(tmp_path, capsys, workers, good):
    # The index counts non-blank lines from 0, as pair ids do. At 2 workers
    # the bad line lies past the first 64-line chunk, so its error comes
    # back through the pool.
    src, out = tmp_path / "tagged.txt", tmp_path / "pairs.jsonl"
    lines = ["他/PRON 喜欢/VERB 苹果/NOUN"] * good + ["", "他/PRON 喜欢"]
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    argv = ["generate", "--pretagged", "--input", str(src), "--output", str(out),
            "--resources", RES_DIR, "--workers", workers]
    assert run(argv) == 3
    assert capsys.readouterr().err == (
        f"cgeckit: data error: sentence {good}: item 2 ('喜欢'): missing `/TAG` separator\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["generate", "augment"])
def test_generate_is_byte_deterministic_across_workers(tmp_path, command):
    with open(_shipped("fixtures/correct_sentences.txt"), encoding="utf-8") as fh:
        sentences = [line.strip() for line in fh if line.strip()] * 3
    # more than two 64-line chunks, so both pool workers get a share
    assert len(sentences) > 128
    src = tmp_path / "corpus.txt"
    src.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    extra = ["--resources", RES_DIR, "--per-sentence", "3", "--combine-max", "3"]
    outputs = []
    for name, workers in [("a.jsonl", "1"), ("b.jsonl", "1"), ("c.jsonl", "2")]:
        out = tmp_path / name
        argv = [command, "--input", str(src), "--output", str(out), "--seed", "42"]
        argv += ["--workers", workers] + (extra if command == "generate" else [])
        assert run(argv) == 0
        report = tmp_path / (name + ".report.json")
        outputs.append((out.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1] == outputs[2]


def _fixture_text():
    with open(_shipped("fixtures/correct_sentences.txt"), encoding="utf-8") as fh:
        return fh.read()


def _foreign_words(count):
    """Distinct two-character words made of characters no fixture sentence
    contains."""
    used = set(_fixture_text())
    chars = [chr(c) for c in range(0x4E00, 0x9FA0) if chr(c) not in used][:400]
    rng = random.Random(5)
    return rng.sample([a + b for a in chars[:40] for b in chars[40:]], count)


def _padded_tables(directory, scale=20):
    """The shipped tables plus (scale - 1) rows per row whose keys are
    made of characters no fixture sentence contains."""
    w = iter(_foreign_words(8000)).__next__
    pad = {
        "mixed_patterns.tsv": lambda cols: f"{cols[0]}\t{w()}\t{w()}",
        "logic_patterns.tsv": lambda cols: "\t".join([cols[0], w(), w()][: len(cols)]),
        "collocations.tsv": lambda cols: f"{cols[0]}\t{w()}\t{w()}\t{w()},{w()}\t{cols[4]}",
        "synonyms.tsv": lambda cols: "\t".join([w(), f"{w()},{w()}"] + cols[2:]),
        "connectives.tsv": lambda cols: f"{w()}\t{w()}\t{w()},{w()}",
        # a category no rule reads: rules draw whole categories
        "function_words.tsv": lambda cols: f"padding\t{w()}",
    }
    directory.mkdir()
    for name, row in pad.items():
        with open(os.path.join(RES_DIR, name), encoding="utf-8") as fh:
            text = fh.read()
        rows = [line.split("\t") for line in text.splitlines() if line and not line.startswith("#")]
        padding = [row(rows[k % len(rows)]) for k in range((scale - 1) * len(rows))]
        (directory / name).write_text(text + "".join(p + "\n" for p in padding), encoding="utf-8")
    return str(directory)


def test_generate_bytes_do_not_change_with_non_matching_table_rows(tmp_path):
    src = tmp_path / "corpus.txt"
    src.write_text(_fixture_text(), encoding="utf-8")
    padded = _padded_tables(tmp_path / "padded")
    shipped_rows = len(load_resources(RES_DIR).collocations)
    assert len(load_resources(padded).collocations) == 20 * shipped_rows
    outputs = []
    for name, tables in [("shipped.jsonl", RES_DIR), ("padded.jsonl", padded)]:
        out = tmp_path / name
        argv = ["generate", "--input", str(src), "--output", str(out), "--resources", tables]
        assert run(argv + ["--seed", "1", "--per-sentence", "3", "--combine-max", "2"]) == 0
        outputs.append((out.read_bytes(), (tmp_path / (name + ".report.json")).read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"\n") > 100


def test_generate_tags_each_sentence_once_when_rules_do_not_stack(tmp_path, monkeypatch):
    # A rule's output is re-tagged only when another rule is about to be
    # applied to it, so with one rule per pair nothing is re-tagged.
    src = tmp_path / "corpus.txt"
    src.write_text(_fixture_text(), encoding="utf-8")
    lines = [line for line in _fixture_text().splitlines() if line.strip()]
    calls = []

    def counted(raw):
        calls.append(raw)
        return segment_and_tag(raw)

    monkeypatch.setattr(generator, "segment_and_tag", counted)
    out = tmp_path / "pairs.jsonl"
    argv = ["generate", "--input", str(src), "--output", str(out), "--resources", RES_DIR]
    assert run(argv + ["--seed", "1", "--per-sentence", "3", "--combine-max", "1"]) == 0
    assert len(list(read_pairs(str(out)))) > len(lines)
    assert calls == lines


# The function-word categories the rules read: the first four only in
# membership tests, the last two also as pools the rules draw words from.
_MEMBERSHIP_CATEGORIES = ["negator", "implicit_negative", "essential_modifier", "exact_marker"]
_DRAW_CATEGORIES = ["subject", "approx_pre"]


@pytest.mark.parametrize("category", _MEMBERSHIP_CATEGORIES + _DRAW_CATEGORIES)
def test_generate_bytes_with_padded_function_word_categories(tmp_path, monkeypatch, category):
    """3,000 words that match nothing in one category. A membership
    category then gives the same bytes as the shipped tables. A draw
    category gives bytes of its own (the pool the words are drawn from is
    longer), which must equal those of the rules' plain list scans."""
    src = tmp_path / "corpus.txt"
    src.write_text(_fixture_text(), encoding="utf-8")
    padded = tmp_path / "padded"
    shutil.copytree(RES_DIR, padded)
    with open(padded / "function_words.tsv", "a", encoding="utf-8") as fh:
        fh.writelines(f"{category}\t{word}\n" for word in _foreign_words(3000))

    def generate(name, tables):
        out = tmp_path / name
        argv = ["generate", "--input", str(src), "--output", str(out), "--resources", str(tables)]
        assert run(argv + ["--seed", "7", "--per-sentence", "3", "--combine-max", "2"]) == 0
        return out.read_bytes(), (tmp_path / (name + ".report.json")).read_bytes()

    got = generate("padded.jsonl", padded)
    if category in _MEMBERSHIP_CATEGORIES:
        assert got == generate("shipped.jsonl", RES_DIR)
    for rule, scan in SCAN_FUNCTION_WORD_FNS.items():
        monkeypatch.setitem(rules.RULE_REGISTRY, rule, scan)
    assert got == generate("scanned.jsonl", padded)
    assert got[0].count(b"\n") > 100


@pytest.mark.parametrize("command", ["generate", "augment"])
def test_byte_order_mark_is_not_part_of_the_input(tmp_path, command):
    text = _fixture_text()
    outputs = []
    for name, data in [("plain", text.encode()), ("bom", b"\xef\xbb\xbf" + text.encode())]:
        src, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.jsonl"
        src.write_bytes(data)
        argv = [command, "--input", str(src), "--output", str(out), "--seed", "1"]
        assert run(argv + (["--resources", RES_DIR] if command == "generate" else [])) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    # the first sentence gives the first pair, and its text carries no mark
    first = json.loads(outputs[1].splitlines()[0])
    assert first["id"].endswith("000000-00" if command == "generate" else "000000")
    assert first["correct"] == text.splitlines()[0]


def test_generate_resources_env_fallback(tmp_path, corpus_file, monkeypatch):
    monkeypatch.setenv(RESOURCES_ENV, RES_DIR)
    out = tmp_path / "pairs.jsonl"
    assert run(["generate", "--input", str(corpus_file), "--output", str(out)]) == 0
    assert out.exists()


def test_generate_rules_flag_restricts_rule_ids(tmp_path, corpus_file):
    out = tmp_path / "pairs.jsonl"
    code = run(
        [
            "generate",
            "--input",
            str(corpus_file),
            "--output",
            str(out),
            "--resources",
            RES_DIR,
            "--rules",
            "MixedSentences",
        ]
    )
    assert code == 0
    assert {p.rule_id for p in read_pairs(str(out))} == {"MixedSentences"}


def test_generate_config_file_and_unknown_key(tmp_path, corpus_file):
    config = tmp_path / "gen.json"
    config.write_text('{"per_sentence": 2}', encoding="utf-8")
    out = tmp_path / "pairs.jsonl"
    base = [
        "generate",
        "--input",
        str(corpus_file),
        "--output",
        str(out),
        "--resources",
        RES_DIR,
        "--config",
        str(config),
    ]
    assert run(base) == 0
    report = json.loads((tmp_path / "pairs.jsonl.report.json").read_text(encoding="utf-8"))
    assert report["pairs_emitted"] + report["skipped"] == 20
    config.write_text('{"per_sentnce": 2}', encoding="utf-8")
    assert run(base) == 2
    # The seed is set by --seed alone, as for augment.
    config.write_text('{"seed": 1}', encoding="utf-8")
    assert run(base) == 2


def test_generate_unknown_rule_is_usage_error(tmp_path, corpus_file, capsys):
    code = run(
        [
            "generate",
            "--input",
            str(corpus_file),
            "--output",
            str(tmp_path / "p.jsonl"),
            "--resources",
            RES_DIR,
            "--rules",
            "NoSuchRule",
        ]
    )
    assert code == 2
    assert "NoSuchRule" in capsys.readouterr().err


@pytest.mark.parametrize("rules", ["", "LackSubject,"])
def test_generate_empty_rule_id_is_usage_error(tmp_path, corpus_file, capsys, rules):
    output = tmp_path / "p.jsonl"
    argv = ["generate", "--input", str(corpus_file), "--output", str(output),
            "--resources", RES_DIR, "--rules", rules]
    assert "unknown rule ids: ['']" in _assert_one_usage_error(capsys, argv)
    assert not output.exists()


def test_generate_missing_input_is_io_error(tmp_path, capsys):
    code = run(
        [
            "generate",
            "--input",
            str(tmp_path / "absent.txt"),
            "--output",
            str(tmp_path / "p.jsonl"),
            "--resources",
            RES_DIR,
        ]
    )
    assert code == 1
    assert "cgeckit: io error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["filter", "--output", "{out}", "--keep", "50", "--input"],
        ["generate", "--output", "{out}", "--resources", RES_DIR, "--input"],
        ["augment", "--output", "{out}", "--input"],
        ["stats", "--input"],
        ["score", "--hyp", "{bad}", "--m2"],
        ["kappa", "--input"],
        ["sample", "--output", "{out}", "--size", "1", "--input"],
    ],
    ids=lambda argv: argv[0],
)
def test_non_utf8_input_is_data_error(tmp_path, capsys, argv):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe not utf-8\n")
    fill = {"{out}": str(tmp_path / "out"), "{bad}": str(bad)}
    assert run([fill.get(arg, arg) for arg in argv] + [str(bad)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cgeckit: data error:")
    assert err.count("\n") == 1
    assert str(bad) in err
    # no output, no report and no temporary file is left behind
    assert [p.name for p in tmp_path.iterdir()] == ["bad.txt"]


# --- filter -------------------------------------------------------------------


def test_filter_keeps_percentile_in_order(tmp_path):
    sentences = ["你好吗", "今天天气很好", "xqzv", "他喜欢苹果", "学生很多"]
    src = tmp_path / "in.txt"
    src.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert run(["filter", "--input", str(src), "--output", str(out), "--keep", "60"]) == 0
    kept = out.read_text(encoding="utf-8").splitlines()
    assert len(kept) == math.ceil(len(sentences) * 0.6)
    assert [s for s in sentences if s in kept] == kept  # original order


def test_filter_model_save_and_reload_match(tmp_path):
    sentences = [f"句子{ch}" for ch in "甲乙丙丁戊己庚辛壬癸"]
    src = tmp_path / "in.txt"
    src.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    model = tmp_path / "lm.json"
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    code = run(
        [
            "filter", "--input", str(src), "--output", str(out_a),
            "--keep", "50", "--save-model", str(model),
        ]
    )
    assert code == 0
    code = run(
        ["filter", "--input", str(src), "--output", str(out_b), "--keep", "50", "--model", str(model)]
    )
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


@pytest.mark.parametrize("workers", ["0", "-3"])
@pytest.mark.parametrize("command", ["generate", "augment"])
def test_workers_below_one_is_usage_error(tmp_path, corpus_file, capsys, command, workers):
    out = tmp_path / "out.txt"
    argv = [command, "--input", str(corpus_file), "--output", str(out), "--workers", workers]
    if command == "generate":
        argv += ["--resources", RES_DIR]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"cgeckit: usage error: workers must be an integer >= 1, got {workers}\n"
    assert sorted(os.listdir(tmp_path)) == ["corpus.txt"]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_filter_has_no_workers_flag(tmp_path, corpus_file, capsys, workers):
    # filter scores in one process: a pool of spawned workers never beat it.
    argv = ["filter", "--input", str(corpus_file), "--output", str(tmp_path / "out.txt"),
            "--keep", "50", "--save-model", str(tmp_path / "model.json"), "--workers", workers]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"cgeckit: usage error: unrecognized arguments: --workers {workers}\n"
    assert sorted(os.listdir(tmp_path)) == ["corpus.txt"]


@pytest.mark.parametrize("directory", ["output", "model"])
def test_a_failed_filter_writes_neither_output_nor_model(tmp_path, corpus_file, capsys, directory):
    # The model and the kept lines are written together, so a path that
    # cannot be written fails the run as an io error and leaves neither.
    paths = {"output": tmp_path / "out.txt", "model": tmp_path / "model.json"}
    paths[directory].mkdir()
    argv = ["filter", "--input", str(corpus_file), "--output", str(paths["output"]),
            "--keep", "50", "--save-model", str(paths["model"])]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err == f"cgeckit: io error: [Errno {errno.EISDIR}] Is a directory: '{paths[directory]}'\n"
    assert sorted(os.listdir(tmp_path)) == sorted(["corpus.txt", paths[directory].name])


def test_filter_kept_lines_win_over_a_model_saved_to_the_same_path(tmp_path, corpus_file):
    out = tmp_path / "out.txt"
    argv = ["filter", "--input", str(corpus_file), "--output", str(out), "--keep", "50"]
    assert run(argv) == 0
    kept = out.read_bytes()
    os.remove(out)
    assert run([*argv, "--save-model", str(out)]) == 0
    assert out.read_bytes() == kept
    assert sorted(os.listdir(tmp_path)) == ["corpus.txt", "out.txt"]


def test_filter_bad_keep_is_usage_error(tmp_path, corpus_file):
    out = tmp_path / "out.txt"
    code = run(["filter", "--input", str(corpus_file), "--output", str(out), "--keep", "150"])
    assert code == 2


def test_filter_train_and_model_are_exclusive(tmp_path, corpus_file):
    code = run(
        [
            "filter", "--input", str(corpus_file), "--output", str(tmp_path / "o.txt"),
            "--keep", "50", "--train", str(corpus_file), "--model", "m.json",
        ]
    )
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [["--n", "5"], ["--alpha", "0"], ["--save-model", "m2.json"], ["--n", "2", "--alpha", "0.5"]],
    ids=["n", "alpha", "save-model", "n-and-alpha"],
)
def test_filter_model_excludes_training_flags(tmp_path, monkeypatch, capsys, flags):
    # A loaded model keeps its own n and alpha and is not saved again, so
    # these flags would be ignored without a word.
    monkeypatch.chdir(tmp_path)
    argv = _filter_argv(tmp_path, ["他喜欢苹果", "我们不赞成"], "--keep", "50")
    assert run([*argv, "--save-model", "m.json"]) == 0
    os.remove(tmp_path / "out.txt")
    capsys.readouterr()
    assert run([*argv, "--model", "m.json", *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cgeckit: usage error: --model excludes") and err.count("\n") == 1, err
    assert all(flag in err for flag in flags if flag.startswith("--"))
    assert not (tmp_path / "out.txt").exists() and not (tmp_path / "m2.json").exists()


# --- augment ------------------------------------------------------------------


def test_augment_end_to_end_and_determinism(tmp_path, corpus_file):
    out_a, out_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        code = run(
            ["augment", "--input", str(corpus_file), "--output", str(out), "--seed", "7"]
        )
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    pairs = list(read_pairs(str(out_a)))
    assert len(pairs) == 10
    assert all(p.rule_id == "random-augment" for p in pairs)
    report = json.loads((tmp_path / "a.jsonl.report.json").read_text(encoding="utf-8"))
    assert sum(report["op_counts"].values()) == report["words_seen"]


def test_augment_config_overrides_probabilities(tmp_path, corpus_file):
    config = tmp_path / "aug.json"
    config.write_text(
        '{"p_keep": 1.0, "p_insert": 0.0, "p_replace": 0.0, "p_delete": 0.0}',
        encoding="utf-8",
    )
    out = tmp_path / "pairs.jsonl"
    code = run(
        [
            "augment", "--input", str(corpus_file), "--output", str(out),
            "--config", str(config),
        ]
    )
    assert code == 0
    assert all(p.incorrect == p.correct for p in read_pairs(str(out)))


def test_augment_rejects_unknown_config_key(tmp_path, corpus_file):
    config = tmp_path / "aug.json"
    config.write_text('{"p_kep": 1.0}', encoding="utf-8")
    code = run(
        [
            "augment", "--input", str(corpus_file), "--output", str(tmp_path / "p.jsonl"),
            "--config", str(config),
        ]
    )
    assert code == 2


def test_augment_corpus_equals_the_cli_in_two_workers(tmp_path):
    # 150 lines: three 64-line chunks, so both pool workers run
    lines = _fixture_text().splitlines() * 3
    src, out = tmp_path / "in.txt", tmp_path / "out.jsonl"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run(["augment", "--input", str(src), "--output", str(out),
                "--seed", "4", "--workers", "2"]) == 0
    pairs, report = augment_corpus(lines, AugmentConfig(seed=4))
    assert "".join(pair_to_json(pair) + "\n" for pair in pairs) == out.read_text(encoding="utf-8")
    assert report_json(report.to_dict()) == (tmp_path / "out.jsonl.report.json").read_text(
        encoding="utf-8"
    )


def test_augment_reads_a_pipe_like_a_regular_file(tmp_path):
    # The input is read once, so a pipe gives the bytes and report of a file.
    text = _fixture_text() * 3
    src = tmp_path / "in.txt"
    src.write_text(text, encoding="utf-8")
    assert run(["augment", "--input", str(src), "--output", str(tmp_path / "file.jsonl")]) == 0
    read, write = os.pipe()
    writer = threading.Thread(target=_write_and_close, args=(write, text.encode()))
    writer.start()
    try:
        argv = ["augment", "--input", f"/dev/fd/{read}", "--output", str(tmp_path / "pipe.jsonl")]
        assert run(argv) == 0
    finally:
        os.close(read)
        writer.join(timeout=10)
    assert not writer.is_alive()
    for name in ("{}.jsonl", "{}.jsonl.report.json"):
        piped = (tmp_path / name.format("pipe")).read_bytes()
        assert piped == (tmp_path / name.format("file")).read_bytes()


def _write_and_close(fd, data):
    with open(fd, "wb") as fh:
        fh.write(data)


def test_augment_tags_each_input_line_once(tmp_path, corpus_file, monkeypatch):
    calls = []

    def counted(line):
        calls.append(line)
        return segment_and_tag(line)

    # Both names the benchmark's tracer patches.
    monkeypatch.setattr(cli, "segment_and_tag", counted)
    monkeypatch.setattr(generator, "segment_and_tag", counted)
    assert run(["augment", "--input", str(corpus_file), "--output", str(tmp_path / "o.jsonl")]) == 0
    assert calls == corpus_file.read_text(encoding="utf-8").splitlines()


def test_augment_heap_does_not_grow_with_the_input(tmp_path):
    # The words wait in a temporary file, not in memory: eight times the
    # input peaks under 1.5 times the heap of one (1.23 at most on Python
    # 3.10-3.13; 2.1 or more with the words kept in memory). Lines of ten
    # sentences hold more than 20 words, so their tuples skip the free
    # lists, which keep up to 2,000 spent tuples of each shorter length.
    sentences = _fixture_text().split()
    text = "".join("".join(sentences[i:i + 10]) + "\n" for i in range(0, len(sentences), 10))

    def augment(copies):
        src = tmp_path / f"in{copies}.txt"
        src.write_text(text * copies, encoding="utf-8")
        out = str(tmp_path / f"out{copies}.jsonl")
        assert run(["augment", "--input", str(src), "--output", out]) == 0

    augment(1)  # loads the lexicon, which stays cached
    one, eight = _heap_peak(augment, 1), _heap_peak(augment, 8)
    assert eight < 1.5 * one, (one, eight)


def test_augment_heap_is_linear_in_the_line():
    # One line of the fixtures at 2,000 and at 8,000 characters. Augment's
    # edits are its own word operations, so the heap grows with the line:
    # the long line peaks about 3.9 times as high as the short one, near
    # 1.1 MiB (Python 3.11), and the limit is 6. A character diff of each
    # pair held 3 bits per character pair: about 13.5 times, near 28 MiB.
    text = "".join(_fixture_text().split())

    def line(length):
        return [(text * (length // len(text) + 1))[:length]]

    config = AugmentConfig(seed=7)
    augment_corpus(line(2000), config)  # loads the lexicon, which stays cached
    short = _heap_peak(augment_corpus, line(2000), config)
    long = _heap_peak(augment_corpus, line(8000), config)
    assert long < 6 * short, (short, long)


# A file that cannot be opened is an io error whichever flag names it: an
# input, a saved model, or a table of a resource directory (here an empty one).
@pytest.mark.parametrize(
    "command, flag, source, named",
    [
        pytest.param(command, "--input", source, source, id=f"{source}-{command}")
        for source in ["missing.txt", "adir"]
        for command in ["augment", "generate"]
    ]
    + [
        pytest.param("filter", "--model", "missing.json", "missing.json", id="model-filter"),
        pytest.param(
            "generate", "--resources", "adir", os.path.join("adir", "mixed_patterns.tsv"),
            id="resources-generate",
        ),
    ],
)
def test_unreadable_input_is_io_error_and_writes_nothing(
    tmp_path, capsys, command, flag, source, named
):
    (tmp_path / "adir").mkdir()
    (tmp_path / "in.txt").write_text("他喜欢苹果。\n", encoding="utf-8")
    options = {"--input": str(tmp_path / "in.txt"), "--output": str(tmp_path / "o.jsonl")}
    if command == "generate":
        options["--resources"] = RES_DIR
    if command == "filter":
        options["--keep"] = "50"
    options[flag] = str(tmp_path / source)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run([command, *(item for option in options.items() for item in option)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cgeckit: io error:") and err.count("\n") == 1, err
    assert repr(str(tmp_path / named)) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_augment_spool_error_is_io_error_and_writes_nothing(
    tmp_path, corpus_file, monkeypatch, capsys
):
    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(generator.tempfile, "TemporaryFile", full)
    before = sorted(p.name for p in tmp_path.iterdir())
    assert run(["augment", "--input", str(corpus_file), "--output", str(tmp_path / "o.jsonl")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("cgeckit: io error:") and err.count("\n") == 1, err
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("content", ["", "\n \n\u3000\t\n"], ids=["empty", "blank-only"])
def test_augment_input_without_sentences_writes_nothing_and_a_zero_report(
    tmp_path, capsys, content
):
    src, out = tmp_path / "in.txt", tmp_path / "out.jsonl"
    src.write_text(content, encoding="utf-8")
    assert run(["augment", "--input", str(src), "--output", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == ""
    report = json.loads((tmp_path / "out.jsonl.report.json").read_text(encoding="utf-8"))
    assert report == {
        "sentences_read": 0,
        "words_seen": 0,
        "op_counts": {"keep": 0, "insert": 0, "replace": 0, "delete": 0},
    }
    # a malformed config is still refused on such an input
    config = tmp_path / "aug.json"
    config.write_text('{"p_keep": 0.5}', encoding="utf-8")
    out.unlink()
    argv = ["augment", "--input", str(src), "--output", str(out), "--config", str(config)]
    _assert_one_usage_error(capsys, argv)
    assert not out.exists()


# --- stats --------------------------------------------------------------------


def make_pairs_file(tmp_path, corpus_file):
    out = tmp_path / "pairs.jsonl"
    assert (
        run(
            [
                "generate", "--input", str(corpus_file), "--output", str(out),
                "--resources", RES_DIR, "--seed", "1",
            ]
        )
        == 0
    )
    return out


def test_stats_prints_the_six_fields(tmp_path, corpus_file, capsys):
    pairs_file = make_pairs_file(tmp_path, corpus_file)
    assert run(["stats", "--input", str(pairs_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert list(doc) == [
        "Number of Sentences",
        "Erroneous Sentences",
        "Number of References",
        "Average Length (Char.)",
        "Edit Distance (Char.)",
        "References / Sentence",
    ]
    assert doc["References / Sentence"] == 1.0


def test_stats_per_type_table(tmp_path, corpus_file, capsys):
    pairs_file = make_pairs_file(tmp_path, corpus_file)
    assert run(["stats", "--input", str(pairs_file), "--per-type"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"corpus", "per_type"}
    for row in doc["per_type"].values():
        assert list(row) == ["Replace", "Insert", "Delete", "Total"]


def test_stats_per_type_diffs_each_pair_once(tmp_path, corpus_file, monkeypatch):
    pairs_file = make_pairs_file(tmp_path, corpus_file)
    # One more pair whose two edits lie 20 characters apart: its core is
    # long enough for the bound of its edits.
    correct = "他是南方人，不习惯吃面食，也不喜欢北方的冬天"
    incorrect = "我" + correct[:20] + "冷" + correct[21:]
    edits = diff_edits(incorrect, correct)
    pair = CorpusPair("long", incorrect, correct, edits, (), "random-augment", 0)
    with open(pairs_file, "a", encoding="utf-8") as fh:
        fh.write(pair_to_json(pair) + "\n")
    count = len(list(read_pairs(str(pairs_file))))
    calls = []

    def counted(a, b, bound=None):
        ops = levenshtein(a, b, bound)
        assert bound is None or bound >= ops.distance
        calls.append(bound)
        return ops

    monkeypatch.setattr(metrics, "levenshtein", counted)
    out = tmp_path / "stats.json"
    assert run(["stats", "--input", str(pairs_file), "--per-type", "--output", str(out)]) == 0
    assert len(calls) == count > 0
    assert calls[-1] == 2


def test_stats_malformed_pairs_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n', encoding="utf-8")
    assert run(["stats", "--input", str(bad)]) == 3
    assert "cgeckit: data error:" in capsys.readouterr().err


_EDIT_FAULTS = [
    ([(-1, 1, "x")], "edit (-1, 1, 'x') starts before the text"),
    ([(2, 1, "x")], "edit (2, 1, 'x') ends before it starts"),
    ([(1, 9, "x")], "edit (1, 9, 'x') exceeds text length 3"),
    ([(0, 2, "a"), (1, 2, "x")], "edit (1, 2, 'x') overlaps previous edit (0, 2, 'a')"),
    ([(1, 2, "y")], "edits do not reproduce the correct text"),
]


@pytest.mark.parametrize(
    "edits,message",
    _EDIT_FAULTS,
    ids=["negative-start", "end-before-start", "end-past-text", "overlap", "not-reproducing"],
)
def test_stats_pair_record_edit_faults_are_data_errors(tmp_path, capsys, edits, message):
    # The bad record follows a good one, on line 2, and every message
    # names that line.
    record = {"id": "p0", "incorrect": "abc", "correct": "axc", "error_types": [],
              "rule_id": "random-augment", "seed": 0}
    good = dict(record, edits=[{"start": 1, "end": 2, "replacement": "x"}])
    bad = dict(record, edits=[{"start": a, "end": b, "replacement": r} for a, b, r in edits])
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    assert run(["stats", "--input", str(pairs)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cgeckit: data error: pair record at line 2: {message}\n"


@pytest.mark.parametrize(
    "label, message",
    [
        ({"coarse": "MissingComponent", "fine": "Bogus"}, "unknown fine error type: 'Bogus'"),
        (
            {"coarse": "MissingComponent", "fine": "MultiWords"},
            "fine type 'MultiWords' belongs to RedundantComponent, not MissingComponent",
        ),
    ],
    ids=["unknown-fine", "wrong-coarse"],
)
def test_stats_pair_record_error_type_faults_name_their_line(tmp_path, capsys, label, message):
    record = {"id": "p0", "incorrect": "abc", "correct": "abc", "edits": [],
              "rule_id": "MultiWords", "seed": 0}
    good = dict(record, error_types=[{"coarse": "RedundantComponent", "fine": "MultiWords"}])
    bad = dict(record, error_types=[label])
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    assert run(["stats", "--input", str(pairs)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"cgeckit: data error: bad pair record at line 2: {message}\n"


def test_stats_checks_the_label_that_an_unchecked_error_type_wrote(tmp_path, capsys):
    # ErrorType does not check its fields; pair_from_json checks them where
    # a record is read.
    label = ErrorType(CoarseType.MISSING_COMPONENT, "MultiWords")
    pair = CorpusPair("p0", "abc", "abc", (), (label,), "MultiWords", 0)
    pairs, out = tmp_path / "pairs.jsonl", tmp_path / "stats.json"
    pairs.write_text(pair_to_json(pair) + "\n", encoding="utf-8")
    assert run(["stats", "--input", str(pairs), "--output", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "cgeckit: data error: bad pair record at line 1: "
        "fine type 'MultiWords' belongs to RedundantComponent, not MissingComponent\n"
    )
    assert not out.exists()


# --- score ---------------------------------------------------------------------


def score_fixture(tmp_path):
    sentences = ["他是优秀的教师", "我非常喜欢苹果", "他取得了优异的成绩"]
    pairs, _ = generate_corpus(sentences, GenConfig(seed=3), load_resources())
    gold = tmp_path / "gold.m2"
    with open(gold, "w", encoding="utf-8") as fh:
        write_m2(pairs, fh)
    return pairs, gold


def test_score_perfect_system(tmp_path, capsys):
    pairs, gold = score_fixture(tmp_path)
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("".join(p.correct + "\n" for p in pairs), encoding="utf-8")
    code = run(["score", "--hyp", str(hyp), "--m2", str(gold), "--char-tokenize"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Precision : 1.0000" in out
    assert "Recall : 1.0000" in out
    assert "F_0.5 : 1.0000" in out


def test_score_do_nothing_system(tmp_path, capsys):
    pairs, gold = score_fixture(tmp_path)
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("".join(p.incorrect + "\n" for p in pairs), encoding="utf-8")
    report_path = tmp_path / "score.json"
    code = run(
        [
            "score", "--hyp", str(hyp), "--m2", str(gold),
            "--char-tokenize", "--report", str(report_path),
        ]
    )
    assert code == 0
    assert "F_0.5 : 0.0000" in capsys.readouterr().out
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["precision"] == 1.0
    assert report["recall"] == 0.0


def _long_sentence_score_input():
    """A 1,503-token sentence, a hypothesis with a replacement and a
    deletion, and the M2 gold that annotates both."""
    source = "他喜欢苹果最后一天" * 167
    hypothesis = source[:100] + "好" + source[101:700] + source[702:]
    gold = (
        "S " + " ".join(source) + "\n"
        "A 100 101|||X|||好|||REQUIRED|||-NONE-|||0\n"
        "A 700 702|||X||||||REQUIRED|||-NONE-|||0\n\n"
    )
    return source, hypothesis, gold


def test_score_long_char_tokenized_sentence(tmp_path, capsys):
    # 1,500 tokens: deeper than the interpreter's recursion limit, so the
    # MaxMatch walk must not recurse per token.
    source, hypothesis, gold_text = _long_sentence_score_input()
    assert len(source) >= 1500
    gold = tmp_path / "gold.m2"
    gold.write_text(gold_text, encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text(hypothesis + "\n", encoding="utf-8")
    assert run(["score", "--hyp", str(hyp), "--m2", str(gold), "--char-tokenize"]) == 0
    assert "F_0.5 : 1.0000" in capsys.readouterr().out


def _heap_peak(fn, *args):
    """Bytes the traced heap grows by at its peak while fn(*args) runs.

    Cyclic collection is paused during the call. Each CLI run leaves its
    argparse parser as cyclic garbage (each HelpFormatter and its _Section
    refer to each other), which a collection at a random point would free
    in one measured run and not in another. Nothing is collected first: a
    full collection also empties the interpreter's free lists, which a
    caller may have filled on purpose."""
    gc.disable()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
        gc.enable()


def _table_bytes(table):
    """Heap bytes of a table of int cells: its lists, and the ints outside
    the interpreter's cache of small ones. Measured from the finished
    table, since tracing the allocation of millions of cells takes long."""
    cells = sum(sys.getsizeof(cell) for row in table for cell in row if not -5 <= cell <= 256)
    return sys.getsizeof(table) + sum(map(sys.getsizeof, table)) + cells


def test_score_long_sentence_keeps_one_distance_table():
    # A sentence is aligned from bit-vector delta columns, not a table of
    # cells: scoring it peaks well under one whole distance table.
    source, hypothesis, gold = _long_sentence_score_input()
    table = _table_bytes(full_distance_table(source, hypothesis))
    params = ScoreParams(char_tokenize=True)
    score = _heap_peak(score_corpus, [hypothesis], io.StringIO(gold), params)
    assert score < 0.25 * table, (score, table)


def test_diff_of_two_far_edits_with_a_bound_keeps_no_columns():
    # Two 3,006-character texts whose two edits lie 3,000 characters apart:
    # the changed core is 3,001 characters long at distance 2. The
    # bit-vector columns of that core peak near 3.9 MiB (Python 3.11); with
    # the bound the fronts peak near 36 KiB, mostly slices of the texts, and
    # the limit is 128 KiB. A bound below the distance gives the same
    # result by the columns.
    text = "".join(chr(0x4E00 + k % 97) for k in range(3006))
    edited = text[:3] + "X" + text[4:3003] + "Y" + text[3004:]
    spans = (EditSpan(3, 4, "X"), EditSpan(3003, 3004, "Y"))
    assert diff_edits(text, edited, 2) == diff_edits(text, edited, 1) == spans
    assert levenshtein(text, edited, 2) == levenshtein(text, edited, 1) == (2, 2, 0, 0)
    assert _heap_peak(diff_edits, text, edited, 2) < 128 * 1024
    assert _heap_peak(levenshtein, text, edited, 2) < 128 * 1024


def test_score_count_mismatch_is_data_error(tmp_path, capsys):
    # Found when one file runs out first; the rest of the other is counted.
    # Blank hypothesis lines count as hypotheses.
    gold = tmp_path / "gold.m2"
    gold.write_text(WORD_GOLD, encoding="utf-8")
    hyp, report = tmp_path / "hyp.txt", tmp_path / "score.json"
    for text, counts in [("a x c\n", "1 hypotheses, 2"), ("a x c\n\n\n", "3 hypotheses, 2")]:
        hyp.write_text(text, encoding="utf-8")
        argv = ["score", "--hyp", str(hyp), "--m2", str(gold), "--report", str(report)]
        assert run(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cgeckit: data error: count mismatch: {counts} gold sentences\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.m2", "hyp.txt"]


@pytest.mark.parametrize("bad", ["--hyp", "--m2"])
def test_score_decode_error_names_the_file_that_holds_it(tmp_path, capsys, bad):
    # Each file is read by its own generator, so a decode error met while
    # the other is open still names its own file.
    files = {"--hyp": tmp_path / "hyp.txt", "--m2": tmp_path / "gold.m2"}
    files["--hyp"].write_text("a x c\n\n", encoding="utf-8")
    files["--m2"].write_text(WORD_GOLD, encoding="utf-8")
    files[bad].write_bytes(b"\xff\xfe not utf-8\n")
    report = tmp_path / "score.json"
    argv = ["score", "--hyp", str(files["--hyp"]), "--m2", str(files["--m2"])]
    assert run([*argv, "--report", str(report)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cgeckit: data error: {files[bad]}: ")
    assert captured.err.count("\n") == 1
    (good,) = set(files.values()) - {files[bad]}
    assert str(good) not in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gold.m2", "hyp.txt"]


def _fixture_score_input():
    """Character-tokenized M2 gold of 80 pairs generated from the fixture
    sentences, and their correct texts as hypotheses."""
    config = GenConfig(seed=1, per_sentence=2)
    pairs, _ = generate_corpus(_fixture_text().splitlines(), config, load_resources())
    gold = io.StringIO()
    write_m2(pairs, gold)
    return gold.getvalue(), "".join(pair.correct + "\n" for pair in pairs)


def test_score_reads_pipes_like_regular_files(tmp_path, capsys):
    # Both inputs are read once, in step, so pipes give the stdout and
    # report of regular files.
    gold_text, hyp_text = _fixture_score_input()
    gold, hyp = tmp_path / "gold.m2", tmp_path / "hyp.txt"
    gold.write_text(gold_text, encoding="utf-8")
    hyp.write_text(hyp_text, encoding="utf-8")
    argv = ["score", "--hyp", str(hyp), "--m2", str(gold), "--char-tokenize"]
    assert run([*argv, "--report", str(tmp_path / "file.json")]) == 0
    from_files = capsys.readouterr().out
    (hyp_read, hyp_write), (gold_read, gold_write) = os.pipe(), os.pipe()
    writers = [
        threading.Thread(target=_write_and_close, args=(hyp_write, hyp_text.encode())),
        threading.Thread(target=_write_and_close, args=(gold_write, gold_text.encode())),
    ]
    for writer in writers:
        writer.start()
    try:
        argv = ["score", "--hyp", f"/dev/fd/{hyp_read}", "--m2", f"/dev/fd/{gold_read}",
                "--char-tokenize", "--report", str(tmp_path / "pipe.json")]
        assert run(argv) == 0
    finally:
        os.close(hyp_read)
        os.close(gold_read)
        for writer in writers:
            writer.join(timeout=10)
    assert not any(writer.is_alive() for writer in writers)
    assert capsys.readouterr().out == from_files
    assert from_files.startswith("Precision : ")
    assert (tmp_path / "pipe.json").read_bytes() == (tmp_path / "file.json").read_bytes()


def test_score_heap_does_not_grow_with_the_input(tmp_path, capsys):
    # Hypotheses and gold are read in step, a few sentences at a time:
    # eight times the input peaks under 1.5 times the heap of one (1.34 on
    # Python 3.11; 7.4 with both files held in memory). What still grows is
    # one chosen annotator per sentence, and the hypotheses' read chunk,
    # which one copy does not fill. The warm-up imports fractions, and it
    # runs eight copies so that the walk's spent tuples fill the free lists
    # (up to 2,000 tuples of each short length, counted as traced heap)
    # before either measured run.
    gold_text, hyp_text = _fixture_score_input()
    for copies in (1, 8):
        (tmp_path / f"gold{copies}.m2").write_text(gold_text * copies, encoding="utf-8")
        (tmp_path / f"hyp{copies}.txt").write_text(hyp_text * copies, encoding="utf-8")

    def score(copies):
        argv = ["score", "--hyp", str(tmp_path / f"hyp{copies}.txt"),
                "--m2", str(tmp_path / f"gold{copies}.m2"), "--char-tokenize"]
        assert run(argv) == 0

    score(8)
    one, eight = _heap_peak(score, 1), _heap_peak(score, 8)
    assert eight < 1.5 * one, (one, eight)


def test_score_char_tokenize_rejects_a_multi_character_gold_token(tmp_path, capsys):
    # Under --char-tokenize every S token must be one character; a gold
    # file tokenized into words cannot be scored character by character.
    gold = tmp_path / "gold.m2"
    gold.write_text("S 我们 好\nA 1 2|||R|||很好|||REQUIRED|||-NONE-|||0\n\n", encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("我们很好\n", encoding="utf-8")
    assert run(["score", "--hyp", str(hyp), "--m2", str(gold), "--char-tokenize"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cgeckit: data error:")
    assert captured.err.count("\n") == 1


WORD_GOLD = "S a b c\nA 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n\nS d e\n"


@pytest.mark.parametrize(
    "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
)
def test_score_hypothesis_lines_end_only_at_newlines(tmp_path, capsys, separator):
    # A form feed or the like inside a hypothesis is whitespace between
    # its words, not a line end; the blank line is the second hypothesis.
    gold = tmp_path / "gold.m2"
    gold.write_text(WORD_GOLD, encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text(f"a x{separator}c\n\n", encoding="utf-8")
    report = tmp_path / "score.json"
    assert run(["score", "--hyp", str(hyp), "--m2", str(gold), "--report", str(report)]) == 0
    # The blank hypothesis deletes "d e", an edit the gold does not hold.
    expected = score_corpus(["a x c", ""], io.StringIO(WORD_GOLD))
    assert (expected.tp, expected.fp, expected.fn) == (1, 1, 0)
    assert capsys.readouterr().out == format_score(expected)
    assert json.loads(report.read_text(encoding="utf-8")) == json.loads(report_json(expected.to_dict()))


def test_score_reads_crlf_as_lf_and_a_lone_cr_as_a_line_end(tmp_path, capsys):
    # Every text input is read with universal newlines: CRLF files score
    # exactly as their LF copies, and a lone CR ends a hypothesis and an M2
    # line alike.
    def score(hyp_text, gold_text):
        hyp, gold, report = tmp_path / "hyp.txt", tmp_path / "gold.m2", tmp_path / "score.json"
        hyp.write_bytes(hyp_text.encode("utf-8"))
        gold.write_bytes(gold_text.encode("utf-8"))
        code = run(["score", "--hyp", str(hyp), "--m2", str(gold), "--report", str(report)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err, code == 0 and report.read_bytes()

    hyps = "a x c\nd f\n"
    lf = score(hyps, WORD_GOLD)
    assert lf[:3] == (0, "Precision : 0.5000\nRecall : 1.0000\nF_0.5 : 0.5556\n", "")
    for end in ("\r\n", "\r"):
        assert score(hyps.replace("\n", end), WORD_GOLD.replace("\n", end)) == lf, end
    gold = tmp_path / "gold.m2"
    gold.write_bytes(b"S a b c\rS d e\r")
    assert [entry.tokens for entry in metrics.parse_m2(str(gold))] == [("a", "b", "c"), ("d", "e")]
    code, _, err, _ = score("a x\rc\n", "S a b c\nA 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n\n")
    assert code == 3
    assert err == "cgeckit: data error: count mismatch: 2 hypotheses, 1 gold sentences\n"


def test_score_char_tokenized_hypothesis_keeps_a_form_feed_as_a_token(tmp_path, capsys):
    gold = tmp_path / "gold.m2"
    gold.write_text("S a b c\nA 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n\n", encoding="utf-8")
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("ax\x0cc\n", encoding="utf-8")
    report = tmp_path / "score.json"
    argv = ["score", "--hyp", str(hyp), "--m2", str(gold), "--char-tokenize"]
    assert run([*argv, "--report", str(report)]) == 0
    got = json.loads(report.read_text(encoding="utf-8"))
    expected = score_corpus(
        ["ax\x0cc"], io.StringIO(gold.read_text(encoding="utf-8")),
        ScoreParams(char_tokenize=True),
    )
    assert got == json.loads(report_json(expected.to_dict()))
    assert got["chosen_annotators"] == [0] and got["fp"] == 1


def test_score_gold_s_line_with_a_form_feed_between_tokens(tmp_path, capsys):
    gold = tmp_path / "gold.m2"
    gold.write_text("S a\x0cb c\nA 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n\n", encoding="utf-8")
    assert [e.tokens for e in metrics.parse_m2(str(gold))] == [("a", "b", "c")]
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("a x c\n", encoding="utf-8")
    assert run(["score", "--hyp", str(hyp), "--m2", str(gold)]) == 0
    assert capsys.readouterr().out == "Precision : 1.0000\nRecall : 1.0000\nF_0.5 : 1.0000\n"


# --- kappa ----------------------------------------------------------------------


def test_kappa_hand_example(tmp_path, capsys):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("# two items\n2 0\n1 1\n", encoding="utf-8")
    assert run(["kappa", "--input", str(matrix)]) == 0
    assert capsys.readouterr().out == "Fleiss_kappa : -0.3333\n"


def test_kappa_perfect_agreement(tmp_path, capsys):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("3 0\n0 3\n", encoding="utf-8")
    assert run(["kappa", "--input", str(matrix)]) == 0
    assert capsys.readouterr().out == "Fleiss_kappa : 1.0000\n"


def test_kappa_bad_matrix_is_data_error(tmp_path, capsys):
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("2 0\n1 0\n", encoding="utf-8")
    assert run(["kappa", "--input", str(matrix)]) == 3
    matrix.write_text("2 x\n", encoding="utf-8")
    assert run(["kappa", "--input", str(matrix)]) == 3
    matrix.write_text("1 0\n0 1\n", encoding="utf-8")  # a row sum below 2 raters
    assert run(["kappa", "--input", str(matrix)]) == 3


def test_kappa_raters_below_two_is_usage_error(tmp_path, capsys):
    # Checked before any row is read: the bad row never turns it into a data error.
    matrix = tmp_path / "matrix.txt"
    matrix.write_text("1 x\n", encoding="utf-8")
    for raters in ["1", "0", "-2"]:
        assert run(["kappa", "--input", str(matrix), "--raters", raters]) == 2
        assert capsys.readouterr().err == (
            f"cgeckit: usage error: kappa needs at least 2 raters per item, got {raters}\n"
        )


# --- sample ---------------------------------------------------------------------


def test_sample_is_deterministic_ordered_subset(tmp_path):
    src = tmp_path / "lines.txt"
    lines = [f"line-{i:03d}" for i in range(100)]
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out_a, out_b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out_a, out_b):
        assert (
            run(["sample", "--input", str(src), "--output", str(out), "--size", "10", "--seed", "5"])
            == 0
        )
    assert out_a.read_bytes() == out_b.read_bytes()
    picked = out_a.read_text(encoding="utf-8").splitlines()
    assert len(picked) == 10
    assert set(picked) <= set(lines)
    assert picked == [line for line in lines if line in set(picked)]


def test_sample_size_must_be_positive(tmp_path, corpus_file):
    code = run(
        ["sample", "--input", str(corpus_file), "--output", str(tmp_path / "s.txt"), "--size", "0"]
    )
    assert code == 2


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_sample_seed_outside_64_unsigned_bits_is_usage_error(tmp_path, corpus_file, capsys, seed):
    # random.Random seeds an int by its absolute value: -1 would sample as 1.
    out = tmp_path / "s.txt"
    argv = ["sample", "--input", str(corpus_file), "--output", str(out), "--size", "5"]
    assert run(argv + ["--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err == f"cgeckit: usage error: seed must be an integer that fits in 64 unsigned bits, got {seed}\n"
    assert not out.exists()
    assert run(argv + ["--seed", str(2**64 - 1)]) == 0


def test_sample_larger_than_input_returns_everything(tmp_path):
    src = tmp_path / "lines.txt"
    src.write_text("a\nb\nc\n", encoding="utf-8")
    out = tmp_path / "out.txt"
    assert run(["sample", "--input", str(src), "--output", str(out), "--size", "10"]) == 0
    assert out.read_text(encoding="utf-8") == "a\nb\nc\n"


# --- file outputs -----------------------------------------------------------------


def _output_argv(command, tmp_path, corpus_file, target):
    """argv of a run of `command` whose last file output goes to target."""
    if command == "stats":
        return ["stats", "--input", str(make_pairs_file(tmp_path, corpus_file)),
                "--output", target]
    if command == "score":
        pairs, gold = score_fixture(tmp_path)
        hyp = tmp_path / "hyp.txt"
        hyp.write_text("".join(p.correct + "\n" for p in pairs), encoding="utf-8")
        return ["score", "--hyp", str(hyp), "--m2", str(gold), "--char-tokenize",
                "--report", target]
    argv = [command, "--input", str(corpus_file)]
    if command in ("generate", "augment"):
        # the output opens, then the report fails
        argv += ["--output", str(tmp_path / "out.jsonl"), "--report", target]
        return argv + (["--resources", RES_DIR] if command == "generate" else [])
    argv += ["--output", target]
    return argv + (["--keep", "50"] if command == "filter" else ["--size", "3"])


@pytest.mark.parametrize("command", ["filter", "generate", "augment", "stats", "score", "sample"])
@pytest.mark.parametrize("target", ["nodir/out", "taken"])
def test_failed_write_leaves_no_output_and_names_the_path(
    tmp_path, corpus_file, capsys, command, target
):
    # "nodir/out" is in a missing directory; "taken" is an existing
    # directory, which no output may replace.
    (tmp_path / "taken").mkdir()
    target = str(tmp_path / target)
    argv = _output_argv(command, tmp_path, corpus_file, target)
    before = sorted(p.name for p in tmp_path.iterdir())
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("cgeckit: io error:") and err.count("\n") == 1
    assert repr(target) in err and ".tmp" not in err
    # no output, no report and no temporary file is left behind
    assert sorted(p.name for p in tmp_path.iterdir()) == before
    assert not any((tmp_path / "taken").iterdir())


@pytest.mark.parametrize("command", ["generate", "augment"])
@pytest.mark.parametrize("report", ["s.json", "./s.json"])
def test_report_on_the_output_path_is_usage_error(
    tmp_path, corpus_file, monkeypatch, capsys, command, report
):
    # Both files are renamed into place at the end, so the report would
    # replace the output. Refused before the input is read: a missing input
    # gives the same usage error.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.json").write_text("kept\n", encoding="utf-8")
    before = sorted(p.name for p in tmp_path.iterdir())
    for source in (str(corpus_file), "missing.txt"):
        argv = [command, "--input", source, "--output", "s.json", "--report", report]
        if command == "generate":
            argv += ["--resources", RES_DIR]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("cgeckit: usage error:") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == before
        assert (tmp_path / "s.json").read_text(encoding="utf-8") == "kept\n"


def test_filter_may_write_over_its_input(tmp_path, corpus_file):
    path = tmp_path / "corpus.txt"
    lines = path.read_text(encoding="utf-8").splitlines()
    assert run(["filter", "--input", str(path), "--output", str(path), "--keep", "50"]) == 0
    kept = path.read_text(encoding="utf-8").splitlines()
    assert 0 < len(kept) < len(lines) and set(kept) <= set(lines)


# --- numbers in flags and config files --------------------------------------------


def _assert_one_usage_error(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cgeckit: usage error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("beta", ["nan", "inf"])
def test_score_beta_must_be_finite(tmp_path, capsys, beta):
    pairs, gold = score_fixture(tmp_path)
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("".join(p.correct + "\n" for p in pairs), encoding="utf-8")
    argv = ["score", "--hyp", str(hyp), "--m2", str(gold), "--char-tokenize", "--beta", beta]
    _assert_one_usage_error(capsys, argv)


# Numbers in a config must be finite and not booleans, and counts must be
# integers. The boolean cases would pass the range checks alone: they sum
# to 1 or are >= 0.
@pytest.mark.parametrize(
    "command, config",
    [
        ("augment", '{"p_insert": NaN}'),
        ("augment", '{"p_replace": "0.1"}'),
        ("augment", '{"p_keep": true, "p_insert": 0, "p_replace": 0, "p_delete": 0}'),
        ("generate", '{"rule_weights": {"LackSubject": NaN}}'),
        ("generate", '{"rule_weights": {"LackSubject": Infinity}}'),
        ("generate", '{"rule_weights": {"LackSubject": "2"}}'),
        ("generate", '{"rule_weights": {"LackSubject": true}}'),
        ("generate", '{"rule_weights": ["LackSubject"]}'),
        ("generate", '{"per_sentence": "2"}'),
        ("generate", '{"combine_max": 1.5}'),
        # Each weight is valid, but no rule is left to draw, or the weights'
        # sum overflows to inf.
        ("generate", '{"enabled_rules": ["LackSubject"], "rule_weights": {"LackSubject": 0}}'),
        ("generate", '{"rule_weights": {"LackSubject": 1e308, "LackObject": 1e308}}'),
    ],
)
def test_bad_config_numbers_are_usage_errors(tmp_path, corpus_file, capsys, command, config):
    path = tmp_path / "config.json"
    path.write_text(config, encoding="utf-8")
    output = tmp_path / "pairs.jsonl"
    argv = [command, "--input", str(corpus_file), "--output", str(output), "--config", str(path)]
    if command == "generate":
        argv += ["--resources", RES_DIR]
    assert f"config {path}: " in _assert_one_usage_error(capsys, argv)
    assert not output.exists()


@pytest.mark.parametrize("command", ["generate", "augment"])
def test_config_file_that_is_not_a_json_object_is_usage_error(tmp_path, corpus_file, capsys, command):
    path = tmp_path / "config.json"
    path.write_text('[{"per_sentence": 2}]', encoding="utf-8")
    output = tmp_path / "pairs.jsonl"
    argv = [command, "--input", str(corpus_file), "--output", str(output), "--config", str(path)]
    if command == "generate":
        argv += ["--resources", RES_DIR]
    assert _assert_one_usage_error(capsys, argv) == (
        f"cgeckit: usage error: config {path}: expected a JSON object\n"
    )
    assert not output.exists()


def test_augment_config_is_checked_before_the_input_is_read(tmp_path, capsys):
    path = tmp_path / "aug.json"
    path.write_text('{"p_insert": NaN}', encoding="utf-8")
    missing = str(tmp_path / "missing.txt")
    argv = ["augment", "--input", missing, "--output", str(tmp_path / "o.jsonl"),
            "--config", str(path)]
    assert _assert_one_usage_error(capsys, argv) == (
        f"cgeckit: usage error: config {path}: p_insert must be a finite number, got nan\n"
    )


# A config value of the wrong JSON type is a usage error that names its key:
# "no" is not false, and a string is not a list of rule ids.
@pytest.mark.parametrize(
    "config, key",
    [
        ('{"pretagged": "no"}', "pretagged"),
        ('{"pretagged": 1}', "pretagged"),
        ('{"enabled_rules": "LackSubject"}', "enabled_rules"),
        ('{"enabled_rules": ["LackSubject", 1]}', "enabled_rules"),
    ],
)
def test_generate_config_values_of_the_wrong_type(tmp_path, corpus_file, capsys, config, key):
    path = tmp_path / "config.json"
    path.write_text(config, encoding="utf-8")
    output = tmp_path / "pairs.jsonl"
    argv = [
        "generate", "--input", str(corpus_file), "--output", str(output),
        "--resources", RES_DIR, "--config", str(path),
    ]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("cgeckit: usage error:") and err.count("\n") == 1, err
    assert f"'{key}' must be" in err
    assert not output.exists()


# A flag that is given replaces the config file's value of its key: the run
# writes the bytes of the flag alone, which differ from the file's alone.
@pytest.mark.parametrize(
    "doc, flags",
    [
        ({"per_sentence": 2}, ["--per-sentence", "3"]),
        ({"combine_max": 2}, ["--combine-max", "1"]),
        ({"enabled_rules": ["LackSubject"]}, ["--rules", "MixedSentences"]),
        ({"pretagged": False}, ["--pretagged"]),
    ],
    ids=["per_sentence", "combine_max", "enabled_rules", "pretagged"],
)
def test_generate_flags_win_over_the_config_file(tmp_path, corpus_file, doc, flags):
    src = corpus_file
    if "--pretagged" in flags:
        src = tmp_path / "pretagged.txt"
        lines = corpus_file.read_text(encoding="utf-8").splitlines()
        src.write_text(
            "".join(serialize_pretagged(segment_and_tag(line)) + "\n" for line in lines),
            encoding="utf-8",
        )
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "pairs.jsonl"
    base = ["generate", "--input", str(src), "--output", str(out), "--resources", RES_DIR]

    def written(*extra):
        assert run([*base, *extra]) == 0
        return out.read_bytes(), (tmp_path / "pairs.jsonl.report.json").read_bytes()

    flag_alone = written(*flags)
    assert written("--config", str(config)) != flag_alone
    assert written("--config", str(config), *flags) == flag_alone


# The config file must be valid on its own: a value that a flag replaces
# is still checked, and the error names the file. So does the error of a
# file and flags that are each valid alone but not together.
@pytest.mark.parametrize(
    "doc, flags",
    [
        ('{"per_sentence": "2"}', ["--per-sentence", "3"]),
        ('{"enabled_rules": ["LackSubject"], "rule_weights": {"LackSubject": 0}}',
         ["--rules", "LackObject"]),
        ('{"rule_weights": {"LackObject": 0}}', ["--rules", "LackObject"]),
    ],
    ids=["per_sentence", "all-weights-0", "file-and-flags"],
)
def test_generate_checks_config_values_that_flags_replace(
    tmp_path, corpus_file, capsys, doc, flags
):
    config = tmp_path / "config.json"
    config.write_text(doc, encoding="utf-8")
    output = tmp_path / "pairs.jsonl"
    base = ["generate", "--input", str(corpus_file), "--output", str(output), "--resources", RES_DIR]
    err = _assert_one_usage_error(capsys, [*base, "--config", str(config), *flags])
    assert f"config {config}" in err
    assert not output.exists()
    assert run([*base, *flags]) == 0  # the flags alone are valid


def _filter_argv(tmp_path, lines, *flags):
    src = tmp_path / "in.txt"
    src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return ["filter", "--input", str(src), "--output", str(tmp_path / "out.txt"), *flags]


# Smoothing constants whose arithmetic breaks: alpha * V overflows; the
# smallest probability underflows to 0 (a log domain error); or a sentence
# of unseen characters would have a perplexity above the largest float.
@pytest.mark.parametrize(
    "alpha, training, query",
    [
        ("inf", "ab", "ab"),
        ("1e308", "ab", "ab"),
        ("1e-320", "a" * 5000, "ab"),
        ("1e-320", "ab", "c" * 30),
    ],
    ids=["inf", "alpha-v-overflows", "probability-underflows", "perplexity-overflows"],
)
def test_filter_alpha_out_of_range_is_usage_error(tmp_path, capsys, alpha, training, query):
    train = tmp_path / "train.txt"
    train.write_text(training + "\n", encoding="utf-8")
    argv = _filter_argv(
        tmp_path, [query], "--keep", "50", "--n", "1", "--alpha", alpha, "--train", str(train)
    )
    _assert_one_usage_error(capsys, argv)
    assert not (tmp_path / "out.txt").exists()


# Each document loaded and filtered with exit 0 (NaN: a usage error) before
# its fields were type-checked; a bool is not an integer.
@pytest.mark.parametrize(
    "change",
    [
        lambda doc: doc["ngrams"][0].__setitem__(-1, True),
        lambda doc: doc.__setitem__("n", True),
        lambda doc: doc.__setitem__("chars", "".join(doc["chars"])),
        lambda doc: doc["ngrams"][0].__setitem__(0, 5),
        lambda doc: doc.__setitem__("alpha", math.inf),
        lambda doc: doc.__setitem__("alpha", math.nan),
    ],
    ids=["bool-count", "bool-n", "chars-string", "int-symbol", "alpha-inf", "alpha-nan"],
)
def test_filter_mistyped_model_is_data_error(tmp_path, capsys, change):
    model = tmp_path / "lm.json"
    argv = _filter_argv(tmp_path, ["他喜欢苹果", "我们不赞成"], "--keep", "50")
    assert run([*argv, "--n", "1", "--save-model", str(model)]) == 0
    doc = json.loads(model.read_text(encoding="utf-8"))
    change(doc)
    model.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    os.remove(tmp_path / "out.txt")
    assert run([*argv, "--model", str(model)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("cgeckit: data error:") and err.count("\n") == 1, err
    assert str(model) in err
    assert not (tmp_path / "out.txt").exists()


_HUGE = "1" + "0" * 5000  # more digits than int() takes from a string
_BEYOND_FLOAT = "1" + "0" * 400  # an int that no float can hold


# JSON numbers that Python cannot turn into a usable number: an integer
# literal past the int-string digit limit fails in the JSON parser, and an
# int beyond float range fails the finiteness check. A config file is a
# usage error; a pairs or model file is a data error.
@pytest.mark.parametrize(
    "kind, text, code",
    [
        ("augment-config", f'{{"p_keep": {_HUGE}}}', 2),
        ("augment-config", f'{{"p_delete": {_BEYOND_FLOAT}}}', 2),
        ("generate-config", f'{{"rule_weights": {{"LackSubject": {_BEYOND_FLOAT}}}}}', 2),
        ("pairs", _HUGE, 3),
        ("model-n", _HUGE, 3),
        ("model-alpha", _BEYOND_FLOAT, 3),
        ("model-count", _BEYOND_FLOAT, 3),
    ],
    ids=[
        "augment-p_keep-digits", "augment-p_delete-overflow", "generate-weight-overflow",
        "stats-seed-digits", "filter-model-n-digits", "filter-model-alpha-overflow",
        "filter-model-count-overflow",
    ],
)
def test_unconvertible_json_numbers_end_in_one_error_line(
    tmp_path, corpus_file, capsys, kind, text, code
):
    output = tmp_path / "out.txt"
    if kind.endswith("-config"):
        command = kind.split("-")[0]
        config = tmp_path / "config.json"
        config.write_text(text, encoding="utf-8")
        argv = [command, "--input", str(corpus_file), "--output", str(output),
                "--config", str(config)]
        if command == "generate":
            argv += ["--resources", RES_DIR]
    elif kind == "pairs":
        pairs = make_pairs_file(tmp_path, corpus_file)
        line = pairs.read_text(encoding="utf-8").splitlines()[0]
        seed = json.loads(line)["seed"]
        changed = line.replace(f'"seed":{seed}', f'"seed":{text}')
        assert changed != line
        pairs.write_text(changed + "\n", encoding="utf-8")
        argv = ["stats", "--input", str(pairs), "--output", str(output)]
    else:
        model = tmp_path / "lm.json"
        argv = _filter_argv(tmp_path, ["他喜欢苹果", "我们不赞成"], "--keep", "50")
        assert run([*argv, "--n", "1", "--save-model", str(model)]) == 0
        doc = model.read_text(encoding="utf-8")
        field = kind.split("-")[1]
        if field == "count":  # of the first n-gram listed with count 1
            changed = doc.replace(", 1]", f", {text}]", 1)
        else:
            changed = doc.replace(f'"{field}": {json.loads(doc)[field]}', f'"{field}": {text}')
        assert changed != doc
        model.write_text(changed, encoding="utf-8")
        os.remove(output)
        argv += ["--model", str(model)]
    capsys.readouterr()
    assert run(argv) == code
    err = capsys.readouterr().err
    kind_name = "usage" if code == 2 else "data"
    assert err.startswith(f"cgeckit: {kind_name} error:") and err.count("\n") == 1, err
    assert not output.exists()


def test_filter_trained_on_other_text_matches_the_oracle(tmp_path):
    """Characters and n-grams the training text lacks are scored through
    the table's fallback, with the oracle's perplexities."""
    rng = random.Random(9)
    lines = ["".join(rng.choice("他她喜欢苹果香蕉我们不好") for _ in range(rng.randint(1, 12)))
             for _ in range(150)]
    training = ["他喜欢苹果", "我们喜欢香蕉"]
    train = tmp_path / "train.txt"
    train.write_text("".join(line + "\n" for line in training), encoding="utf-8")
    assert run(_filter_argv(tmp_path, lines, "--keep", "30", "--train", str(train))) == 0
    chars, ngrams, contexts = train_lm_events(training, 3)
    ppls = [perplexity_events(3, 1.0, chars, ngrams, contexts, line) for line in lines]
    want = "".join(lines[i] + "\n" for i in keep_indices(ppls, 30))
    assert (tmp_path / "out.txt").read_text(encoding="utf-8") == want


def test_python_m_cgeckit_runs_the_cli():
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run(
        [sys.executable, "-m", "cgeckit", "--help"],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=60, check=False,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: cgeckit")
