"""Golden output bytes: the sha256 of every file a fixed set of CLI runs writes.

Each case runs the CLI on the shipped fixture sentences, three times over
(150 lines), and hashes what it writes. A `--pretagged` case reads the same
lines as canonical `surface/TAG` items, as `serialize_pretagged` writes them.
The `--pretagged` THULAC case reads them tagged instead, for each canonical
tag, with the first `tag_mapping.tsv` name that maps to it (n, np, m, v, vm,
a, d, r, c, p, u, w, e), so its hashes equal the canonical case's.
The stacked `--pretagged` ADV-as-ADJ case reads the canonical items with
every ADV tagged ADJ, tags that differ from the lexicon's: only the
window of each fired edit is re-tagged, so the ADJ tags outside it reach
the next rule.
A `score` case scores against the M2 gold that `write_m2` writes for the
pairs of `generate --seed 1 --per-sentence 2 --combine-max 2`; its
hypotheses are each pair's correct text on even (0-based) lines and its
incorrect text on odd lines, so some sentences are fixed and some are not.
A `score-3ref` case scores against three annotators per sentence: 0 holds
the `write_m2` edits, 1 one span that merges them, and 2 a `-NONE-` no-op.
Its hypotheses cycle through each pair's correct text, its incorrect text,
and its incorrect text with only the last edit made.
The manifest in tests/golden/manifest.json holds the hashes; test_golden.py
regenerates the cases and compares.

    PYTHONPATH=src python tests/golden.py          # compare; exit 1 on a mismatch
    PYTHONPATH=src python tests/golden.py --write  # rewrite the manifest
    PYTHONPATH=src python tests/golden.py --case augment-seed7  # compare one case

A change that alters output bytes on purpose rewrites the manifest and
names the cases whose hashes changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from cgeckit.cli import run
from cgeckit.core import POSTag, apply_edits, read_pairs
from cgeckit.metrics import write_m2
from cgeckit.resources import default_resources_dir
from cgeckit.rules import RULE_REGISTRY
from cgeckit.tagging import _shipped, load_tag_mapping, segment_and_tag, serialize_pretagged

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"

# case name -> CLI arguments after the subcommand's --input and --output.
# Every generate/augment case is also fed to `stats`, with and without
# `--per-type`.
PAIR_CASES = {
    "generate-seed1-per2-combine2": ["generate", "--seed", "1", "--per-sentence", "2", "--combine-max", "2"],
    "generate-seed42-per3-combine3": ["generate", "--seed", "42", "--per-sentence", "3", "--combine-max", "3"],
    "generate-seed7-per1-combine1": ["generate", "--seed", "7", "--per-sentence", "1", "--combine-max", "1"],
    "generate-pretagged-seed1-per2-combine2": [
        "generate", "--pretagged", "--seed", "1", "--per-sentence", "2", "--combine-max", "2"
    ],
    "generate-pretagged-thulac-seed1-per2-combine2": [
        "generate", "--pretagged", "--seed", "1", "--per-sentence", "2", "--combine-max", "2"
    ],
    "generate-pretagged-adv-as-adj-seed1-per2-combine3": [
        "generate", "--pretagged", "--seed", "1", "--per-sentence", "2", "--combine-max", "3"
    ],
    "augment-seed7": ["augment", "--seed", "7"],
    # One case per rule: the mixed cases draw some rules only a few times,
    # so a one-character change to such a rule's output could slip past them.
    **{
        f"generate-rule-{rule}": ["generate", "--rules", rule, "--seed", "1", "--per-sentence", "3"]
        for rule in RULE_REGISTRY
    },
}
# pair case name -> its input, if not the plain "corpus".
PAIR_INPUTS = {
    "generate-pretagged-seed1-per2-combine2": "pretagged",
    "generate-pretagged-thulac-seed1-per2-combine2": "thulac",
    "generate-pretagged-adv-as-adj-seed1-per2-combine3": "adv-as-adj",
}
# case name -> `filter` arguments after --input and --output.
FILTER_CASES = {f"filter-keep50-n{n}": ["--keep", "50", "--n", str(n)] for n in (1, 2, 3, 4)}
# case name -> `score` arguments after --hyp and --m2. A `score-3ref` case
# reads the three-annotator gold.
SCORE_CASES = {
    **{f"score-char-beta{beta}": ["--char-tokenize", "--beta", beta] for beta in ("0.5", "1", "2")},
    **{
        f"score-3ref-char-beta0.5-unchanged{k}": [
            "--char-tokenize", "--beta", "0.5", "--max-unchanged", k
        ]
        for k in ("0", "2")
    },
}
SCORE_GOLD_CASE = "generate-seed1-per2-combine2"
CASES = [*PAIR_CASES, *FILTER_CASES, *SCORE_CASES]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(name: str, argv: list[str]) -> None:
    if run(argv) != 0:
        raise RuntimeError(f"golden case {name} failed: {argv}")


def _pair_case(name: str, tmp: Path, inputs: dict[str, Path], extra: list[str]) -> dict[str, str]:
    command, *options = PAIR_CASES[name]
    pairs = tmp / f"{name}.jsonl"
    source = inputs[PAIR_INPUTS.get(name, "corpus")]
    argv = [command, "--input", str(source), "--output", str(pairs), *options, *extra]
    if command == "generate":
        argv += ["--resources", str(default_resources_dir())]
    _run(name, argv)
    stats, per_type = tmp / f"{name}.stats.json", tmp / f"{name}.stats-per-type.json"
    _run(name, ["stats", "--input", str(pairs), "--output", str(stats)])
    _run(name, ["stats", "--input", str(pairs), "--per-type", "--output", str(per_type)])
    return {
        "pairs.jsonl": _sha256(pairs),
        "pairs.jsonl.report.json": _sha256(Path(f"{pairs}.report.json")),
        "stats.json": _sha256(stats),
        "stats-per-type.json": _sha256(per_type),
    }


def _filter_case(name: str, tmp: Path, inputs: dict[str, Path]) -> dict[str, str]:
    kept = tmp / f"{name}.txt"
    _run(name, ["filter", "--input", str(inputs["corpus"]), "--output", str(kept), *FILTER_CASES[name]])
    return {"kept.txt": _sha256(kept)}


def _three_annotator_m2(pairs: list, one: str) -> str:
    """`one` (the `write_m2` gold of `pairs`) with two more annotators per
    sentence: 1 replaces the pair's edits by the one span from the first
    edit's start to the last edit's end, 2 registers a `-NONE-` no-op."""
    blocks = one.split("\n\n")
    assert len(blocks) == len(pairs) + 1 and blocks[-1] == ""
    out = []
    for block, pair in zip(blocks, pairs):
        start = min(span.start for span in pair.edits)
        end = max(span.end for span in pair.edits)
        merged = pair.correct[start : len(pair.correct) - (len(pair.incorrect) - end)]
        out.append(
            f"{block}\nA {start} {end}|||Merged|||{' '.join(merged)}|||REQUIRED|||-NONE-|||1"
            "\nA 0 0|||noop|||-NONE-|||REQUIRED|||-NONE-|||2\n\n"
        )
    return "".join(out)


def _score_inputs(tmp: Path, inputs: dict[str, Path], three: bool) -> tuple[Path, Path]:
    """The M2 gold and hypotheses of the one-annotator or the
    three-annotator score cases; each file is written once."""
    gold, hyp = tmp / f"score-gold-{three:d}.m2", tmp / f"score-hyp-{three:d}.txt"
    if gold.exists():
        return gold, hyp
    pairs = tmp / "score-pairs.jsonl"
    if not pairs.exists():
        _run("score gold", [
            "generate", "--input", str(inputs["corpus"]), "--output", str(pairs),
            *PAIR_CASES[SCORE_GOLD_CASE][1:], "--resources", str(default_resources_dir()),
        ])
    pair_list = list(read_pairs(str(pairs)))
    one = io.StringIO()
    write_m2(pair_list, one)
    text = one.getvalue()
    gold.write_text(_three_annotator_m2(pair_list, text) if three else text, encoding="utf-8")
    if three:
        # Correct, incorrect, and incorrect with only the last edit made:
        # the last kind keeps the running F below 1, so that the choice
        # among annotators is not a tie.
        texts = [
            (pair.correct, pair.incorrect, apply_edits(pair.incorrect, pair.edits[-1:]))[index % 3]
            for index, pair in enumerate(pair_list)
        ]
    else:
        texts = [
            pair.correct if index % 2 == 0 else pair.incorrect
            for index, pair in enumerate(pair_list)
        ]
    hyp.write_text("".join(text + "\n" for text in texts), encoding="utf-8")
    return gold, hyp


def _score_case(name: str, tmp: Path, inputs: dict[str, Path]) -> dict[str, str]:
    gold, hyp = _score_inputs(tmp, inputs, name.startswith("score-3ref"))
    report = tmp / f"{name}.report.json"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        _run(name, ["score", "--hyp", str(hyp), "--m2", str(gold), *SCORE_CASES[name], "--report", str(report)])
    return {
        "stdout.txt": hashlib.sha256(stdout.getvalue().encode("utf-8")).hexdigest(),
        "report.json": _sha256(report),
    }


def compute(names: list[str] | None = None, extra: list[str] = ()) -> dict[str, dict[str, str]]:
    """Run the named cases (default: all) in a fresh temporary directory;
    case -> file -> sha256. `extra` is appended to every generate/augment
    run, for options such as `--workers 2` that must not change a byte."""
    with open(_shipped("fixtures/correct_sentences.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines() * 3
    sentences = [segment_and_tag(line) for line in lines]
    thulac_name = {}
    for tag, canonical in load_tag_mapping().items():
        thulac_name.setdefault(canonical, tag)
    tagged = {
        "pretagged": [serialize_pretagged(s) for s in sentences],
        "thulac": [
            " ".join(f"{t.surface}/{thulac_name[t.tag.value]}" for t in s.tokens)
            for s in sentences
        ],
        "adv-as-adj": [
            " ".join(f"{t.surface}/{'ADJ' if t.tag is POSTag.ADV else t.tag.value}" for t in s.tokens)
            for s in sentences
        ],
    }
    hashes: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = {"corpus": tmp / "corpus.txt"}
        inputs["corpus"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        for kind, tagged_lines in tagged.items():
            inputs[kind] = tmp / f"{kind}.txt"
            inputs[kind].write_text("\n".join(tagged_lines) + "\n", encoding="utf-8")
        for name in CASES if names is None else names:
            if name in PAIR_CASES:
                hashes[name] = _pair_case(name, tmp, inputs, list(extra))
            elif name in FILTER_CASES:
                hashes[name] = _filter_case(name, tmp, inputs)
            elif name in SCORE_CASES:
                hashes[name] = _score_case(name, tmp, inputs)
            else:
                raise KeyError(f"unknown golden case: {name}")
    return hashes


def load() -> dict[str, dict[str, str]]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the manifest")
    parser.add_argument(
        "--case", action="append", choices=CASES, help="compare only this case (repeatable)"
    )
    args = parser.parse_args(argv)
    if args.write and args.case:
        parser.error("--write rewrites the whole manifest; it takes no --case")
    hashes = compute(args.case)
    if args.write:
        MANIFEST.parent.mkdir(exist_ok=True)
        MANIFEST.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {MANIFEST}")
        return 0
    expected = load()
    if args.case:
        expected = {case: expected.get(case, {}) for case in args.case}
    changed = sorted(
        f"{case}/{name}"
        for case in expected.keys() | hashes.keys()
        for name in expected.get(case, {}).keys() | hashes.get(case, {}).keys()
        if expected.get(case, {}).get(name) != hashes.get(case, {}).get(name)
    )
    for item in changed:
        print(f"changed: {item}")
    print("golden bytes:", "changed" if changed else "unchanged")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
