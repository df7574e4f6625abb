"""Golden output bytes: the sha256 of every file a fixed set of CLI runs writes.

Each case runs the CLI on the shipped fixture sentences, three times over
(150 lines), and hashes what it writes. A `--pretagged` case reads the same
lines as canonical `surface/TAG` items, as `serialize_pretagged` writes them.
The manifest in tests/golden/manifest.json holds the hashes; test_golden.py
regenerates the cases and compares.

    PYTHONPATH=src python tests/golden.py          # compare; exit 1 on a mismatch
    PYTHONPATH=src python tests/golden.py --write  # rewrite the manifest

A change that alters output bytes on purpose rewrites the manifest and
names the cases whose hashes changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

from cgeckit.cli import run
from cgeckit.resources import default_resources_dir
from cgeckit.rules import RULE_REGISTRY
from cgeckit.tagging import _shipped, segment_and_tag, serialize_pretagged

MANIFEST = Path(__file__).resolve().parent / "golden" / "manifest.json"

# case name -> CLI arguments after the subcommand's --input and --output.
# Every generate/augment case is also fed to `stats --per-type`.
PAIR_CASES = {
    "generate-seed1-per2-combine2": ["generate", "--seed", "1", "--per-sentence", "2", "--combine-max", "2"],
    "generate-seed42-per3-combine3": ["generate", "--seed", "42", "--per-sentence", "3", "--combine-max", "3"],
    "generate-seed7-per1-combine1": ["generate", "--seed", "7", "--per-sentence", "1", "--combine-max", "1"],
    "generate-pretagged-seed1-per2-combine2": [
        "generate", "--pretagged", "--seed", "1", "--per-sentence", "2", "--combine-max", "2"
    ],
    "augment-seed7": ["augment", "--seed", "7"],
    # One case per rule: the mixed cases draw some rules only a few times,
    # so a one-character change to such a rule's output could slip past them.
    **{
        f"generate-rule-{rule}": ["generate", "--rules", rule, "--seed", "1", "--per-sentence", "3"]
        for rule in RULE_REGISTRY
    },
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def compute() -> dict[str, dict[str, str]]:
    """Run every case in a fresh temporary directory; case -> file -> sha256."""
    with open(_shipped("fixtures/correct_sentences.txt"), encoding="utf-8") as fh:
        lines = fh.read().splitlines() * 3
    tagged = [serialize_pretagged(segment_and_tag(line)) for line in lines]
    hashes: dict[str, dict[str, str]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        corpus, pretagged = Path(tmp) / "corpus.txt", Path(tmp) / "pretagged.txt"
        corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
        pretagged.write_text("\n".join(tagged) + "\n", encoding="utf-8")
        for name, (command, *options) in PAIR_CASES.items():
            pairs, stats = Path(tmp) / f"{name}.jsonl", Path(tmp) / f"{name}.stats.json"
            source = pretagged if "--pretagged" in options else corpus
            argv = [command, "--input", str(source), "--output", str(pairs), *options]
            if command == "generate":
                argv += ["--resources", str(default_resources_dir())]
            if run(argv) != 0:
                raise RuntimeError(f"golden case {name} failed: {argv}")
            if run(["stats", "--input", str(pairs), "--per-type", "--output", str(stats)]) != 0:
                raise RuntimeError(f"golden case {name}: stats failed")
            hashes[name] = {
                "pairs.jsonl": _sha256(pairs),
                "pairs.jsonl.report.json": _sha256(Path(f"{pairs}.report.json")),
                "stats-per-type.json": _sha256(stats),
            }
    return hashes


def load() -> dict[str, dict[str, str]]:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the manifest")
    args = parser.parse_args(argv)
    hashes = compute()
    if args.write:
        MANIFEST.parent.mkdir(exist_ok=True)
        MANIFEST.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {MANIFEST}")
        return 0
    expected = load()
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
