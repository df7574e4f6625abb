"""The modules a fresh run loads before its first line of input, and the
modules each subcommand loads in all.

Every CLI run starts a new interpreter, and what it imports is paid on
every run. The worker pool (`multiprocessing`, and `socket` with it) is
imported only when `--workers N>1` starts one; exact fractions (`fractions`,
and `decimal` with it) only where filter, score and kappa compute exact
ratios. Without `site`, finding the shipped data must not load
`importlib.resources` or `pathlib` either; with `site`, a `.pth` file may
load those, so they are checked under `python -S` only.

`import cgeckit` loads no submodule, and a handler imports what only its
subcommand uses: `generator` and `rules` for generate and augment, `lm`
for filter. Only augment's spool uses `pickle` and `tempfile`, so generate
loads neither (`tempfile` is checked under `python -S` only, as a `.pth`
file may load it). `resources`, `tagging` and `metrics` are still imported
by every run, because `bench/spans.py` patches names of `cgeckit.cli` that
they define; they can go lazy when ROADMAP item 9 moves those targets.

No run loads `dataclasses`, or `inspect`, which it imports along with
`ast`, `dis` and `tokenize`: the package's config, report and table
classes are plain classes.
"""

import json
import os
import subprocess
import sys

import pytest

import cgeckit
from cgeckit.resources import default_resources_dir

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

# One whole run of the subcommand whose arguments are the JSON of argv[1].
# Some subcommands print their result, so the modules are the last line.
RUN_CHILD = """
import json, sys
import cgeckit.cli
code = cgeckit.cli.run(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""

DEFERRED = ["decimal", "fractions", "multiprocessing"]
GENERATOR = ["cgeckit.generator", "cgeckit.rules"]
LM = ["cgeckit.lm"]
NEVER = ["dataclasses", "inspect"]
SPOOL = ["pickle", "tempfile"]
SITE_MAY_LOAD = ["importlib.resources", "pathlib", "tempfile"]


def _child(flags, code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, *flags, "-c", code, *args], env=env,
                          capture_output=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize(
    "flags,absent",
    [((), DEFERRED), (("-S",), DEFERRED + SITE_MAY_LOAD)],
    ids=["site", "no-site"],
)
def test_startup_leaves_out_modules_only_some_runs_use(flags, absent):
    loaded = set(json.loads(_child(flags, CHILD)))
    assert "cgeckit.cli" in loaded
    assert sorted(loaded & set(absent + GENERATOR + LM + NEVER + ["hashlib"])) == []


@pytest.fixture(scope="module")
def argvs(tmp_path_factory) -> dict[str, list[str]]:
    """A tiny run of each subcommand, by name."""
    tmp = tmp_path_factory.mktemp("runs")
    files = {
        "lines.txt": "他喜欢苹果\n我非常喜欢苹果\n",
        "pairs.jsonl": '{"id":"p0","incorrect":"喜欢他喜欢苹果","correct":"他喜欢苹果",'
                       '"edits":[{"start":0,"end":2,"replacement":""}],"error_types":[],'
                       '"rule_id":"random-augment","seed":1}\n',
        "hyp.txt": "a x c\n",
        "gold.m2": "S a b c\nA 1 2|||R|||x|||REQUIRED|||-NONE-|||0\n",
        "ratings.txt": "2 0\n1 1\n",
    }
    for name, text in files.items():
        (tmp / name).write_text(text, encoding="utf-8")
    lines, out = str(tmp / "lines.txt"), str(tmp / "out")
    return {
        "filter": ["filter", "--input", lines, "--output", out, "--keep", "50"],
        "generate": ["generate", "--input", lines, "--output", out,
                     "--resources", default_resources_dir()],
        "augment": ["augment", "--input", lines, "--output", out],
        "stats": ["stats", "--input", str(tmp / "pairs.jsonl")],
        "score": ["score", "--hyp", str(tmp / "hyp.txt"), "--m2", str(tmp / "gold.m2")],
        "kappa": ["kappa", "--input", str(tmp / "ratings.txt")],
        "sample": ["sample", "--input", lines, "--output", out, "--size", "1"],
    }


# Subcommand: (modules its run loads, modules it leaves out besides NEVER).
IMPORTS = {
    "generate": (GENERATOR, LM + SPOOL),
    "augment": (GENERATOR + SPOOL, LM),
    "filter": (LM, GENERATOR),
    "stats": ([], GENERATOR + LM),
    "score": ([], GENERATOR + LM),
    "kappa": ([], GENERATOR + LM),
    "sample": ([], GENERATOR + LM + ["hashlib"]),
}


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
@pytest.mark.parametrize("command", IMPORTS)
def test_each_subcommand_loads_only_the_modules_it_uses(flags, command, argvs):
    code, modules = json.loads(_child(flags, RUN_CHILD, json.dumps(argvs[command])))
    assert code == 0
    loaded, absent = IMPORTS[command]
    absent = set(absent + NEVER) - set(() if flags else SITE_MAY_LOAD)
    assert sorted(set(loaded) - set(modules)) == []
    assert sorted(absent & set(modules)) == []
