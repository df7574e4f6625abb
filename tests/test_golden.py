"""The output bytes of a fixed set of CLI runs match tests/golden/manifest.json.

See golden.py for the cases and for how to rewrite the manifest when a
change alters output bytes on purpose.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden


def test_output_bytes_match_the_golden_manifest():
    assert golden.compute() == golden.load()


def test_thulac_tags_write_the_canonical_tags_bytes():
    # The shipped tag mapping turns the THULAC names into the canonical
    # tags, so both pretagged inputs give the same pairs, report and stats.
    manifest = golden.load()
    assert (
        manifest["generate-pretagged-thulac-seed1-per2-combine2"]
        == manifest["generate-pretagged-seed1-per2-combine2"]
    )


def test_two_workers_write_the_one_worker_bytes():
    # 150 lines make three 64-line chunks, so two pool workers start.
    case = "generate-seed1-per2-combine2"
    assert golden.compute([case], ["--workers", "2"]) == {case: golden.load()[case]}


@pytest.mark.parametrize("hash_seed", ["0", "12345"])
def test_bytes_do_not_depend_on_the_string_hash_seed(hash_seed):
    # A fresh interpreter per seed: str hashes, and with them the order of
    # any hash-ordered container, are fixed when the process starts.
    tests = Path(__file__).resolve().parent
    src = str(tests.parent / "src")
    env = dict(
        os.environ,
        PYTHONHASHSEED=hash_seed,
        PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""),
    )
    cases = ["--case", "generate-seed1-per2-combine2", "--case", "augment-seed7"]
    done = subprocess.run(
        [sys.executable, str(tests / "golden.py"), *cases],
        capture_output=True, text=True, encoding="utf-8", env=env, timeout=300, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.endswith("golden bytes: unchanged\n")
