"""The modules a fresh run loads before its first line of input.

Every CLI run starts a new interpreter, and what it imports is paid on
every run. The worker pool (`multiprocessing`, and `socket` with it) is
imported only when `--workers N>1` starts one; exact fractions (`fractions`,
and `decimal` with it) only where filter, score and kappa compute exact
ratios. Without `site`, finding the shipped data must not load
`importlib.resources` or `pathlib` either; with `site`, a `.pth` file may
load those, so they are checked under `python -S` only.
"""

import json
import os
import subprocess
import sys

import pytest

import cgeckit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cgeckit.__file__)))

# The same set-up a run does: the CLI module, the rule tables, the tagger.
CHILD = """
import json, sys
import cgeckit.cli
from cgeckit.resources import load_resources
from cgeckit.tagging import get_tagger
load_resources()
get_tagger()
print(json.dumps(sorted(sys.modules)))
"""

DEFERRED = ["decimal", "fractions", "multiprocessing"]


def _startup_modules(*flags: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *flags, "-c", CHILD], env=env, capture_output=True,
                          encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


@pytest.mark.parametrize(
    "flags,absent",
    [((), DEFERRED), (("-S",), DEFERRED + ["importlib.resources", "pathlib"])],
    ids=["site", "no-site"],
)
def test_startup_leaves_out_modules_only_some_runs_use(flags, absent):
    loaded = _startup_modules(*flags)
    assert "cgeckit.cli" in loaded
    assert sorted(loaded & set(absent)) == []
