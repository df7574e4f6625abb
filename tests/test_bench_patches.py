"""The bench tracer's patch targets exist and are called: every (module,
attribute) in bench/spans.py PATCHES names a callable that the package
defines, and a run of every traced subcommand calls it. A renamed or
dropped target fails here, and so does a call that moved off a patched
name, which a traced bench run would only show as a counter reading 0."""

import importlib
import importlib.util
import io
import pathlib
import sys

import pytest

from cgeckit.cli import run
from cgeckit.core import read_pairs
from cgeckit.metrics import write_m2
from cgeckit.resources import default_resources_dir
from cgeckit.tagging import _shipped

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"

# Targets that no subcommand calls any more: rules.py makes no diff since
# rules return their edit, and augment tags its lines once, inside the
# generator's stream.
UNCALLED = {
    ("cgeckit.rules", "diff_edits"),
    ("cgeckit.cli", "segment_and_tag"),
}


@pytest.fixture
def patches(monkeypatch):
    # Loaded from its file, read-only: no bytecode is written under bench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    return [(module, attribute) for module, attribute, *_ in spans.PATCHES]


def test_every_bench_patch_target_resolves(patches):
    for module, attribute in patches:
        assert callable(getattr(importlib.import_module(module), attribute, None)), (
            module,
            attribute,
        )


def _counted(fn, target, calls):
    def wrapper(*args, **kwargs):
        calls[target] += 1
        return fn(*args, **kwargs)

    return wrapper


def test_every_bench_patch_target_is_called(patches, monkeypatch, tmp_path, capsys):
    assert UNCALLED <= set(patches)
    calls = dict.fromkeys(patches, 0)
    for target in patches:
        module = importlib.import_module(target[0])
        monkeypatch.setattr(module, target[1], _counted(getattr(module, target[1]), target, calls))
    corpus = _shipped("fixtures/correct_sentences.txt")
    pairs, augmented = tmp_path / "pairs.jsonl", tmp_path / "augmented.jsonl"
    gold, hyp = tmp_path / "gold.m2", tmp_path / "hyp.txt"
    assert run(["filter", "--input", corpus, "--output", str(tmp_path / "kept.txt"),
                "--keep", "50"]) == 0
    assert run(["generate", "--input", corpus, "--output", str(pairs),
                "--resources", str(default_resources_dir()),
                "--per-sentence", "2", "--combine-max", "2"]) == 0
    assert run(["augment", "--input", corpus, "--output", str(augmented)]) == 0
    assert run(["stats", "--input", str(pairs), "--output", str(tmp_path / "stats.json")]) == 0
    pair_list = list(read_pairs(str(pairs)))
    m2 = io.StringIO()
    write_m2(pair_list, m2)
    gold.write_text(m2.getvalue(), encoding="utf-8")
    hyp.write_text("".join(pair.correct + "\n" for pair in pair_list), encoding="utf-8")
    assert run(["score", "--hyp", str(hyp), "--m2", str(gold), "--char-tokenize"]) == 0
    assert capsys.readouterr().out.startswith("Precision")
    assert {target for target, count in calls.items() if count == 0} == UNCALLED
