"""The error contract of every subcommand, as a property.

A run on valid inputs with some characters or bytes replaced, inserted or
cut off either succeeds or fails with one `cgeckit: <kind> error: ...`
line on stderr, exit code 1, 2 or 3, and no output, report, saved model
or temporary file left behind. No run may raise or leave a `.tmp` file.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import event, given, settings
from hypothesis import strategies as st

from cgeckit.cli import run
from cgeckit.core import pair_to_json
from cgeckit.generator import GenConfig, generate_corpus
from cgeckit.lm import LMConfig, dump_lm, train_lm
from cgeckit.resources import default_resources_dir, load_resources
from cgeckit.tagging import _shipped, segment_and_tag, serialize_pretagged

with open(_shipped("fixtures/correct_sentences.txt"), encoding="utf-8") as _fh:
    _LINES = _fh.read().split()[:8]


def _lm_document() -> str:
    out = io.StringIO()
    dump_lm(train_lm(_LINES[4:], LMConfig(n=2)), out)
    return out.getvalue()


def _pairs() -> str:
    pairs, _ = generate_corpus(_LINES, GenConfig(seed=1), load_resources(default_resources_dir()))
    return "".join(pair_to_json(pair) + "\n" for pair in pairs)


# Valid input files, by the name they get in the run's directory.
INPUTS = {
    "corpus.txt": "".join(line + "\n" for line in _LINES[:6]),
    "tagged.txt": "".join(serialize_pretagged(segment_and_tag(line)) + "\n" for line in _LINES[:4]),
    "train.txt": "".join(line + "\n" for line in _LINES[4:]),
    "model.json": _lm_document(),
    "gen.json": '{"per_sentence": 2, "combine_max": 2}\n',
    "aug.json": '{"p_keep": 0.4, "p_insert": 0.2, "p_replace": 0.2, "p_delete": 0.2}\n',
    "pairs.jsonl": _pairs(),
    "hyp.txt": "他 喜欢 苹果\n我们 不 赞成 这个 做法\n",
    "gold.m2": (
        "S 他 喜欢 吃 苹果\nA 2 3|||R|||-NONE-|||REQUIRED|||-NONE-|||0\n"
        "A -1 -1|||noop|||-NONE-|||REQUIRED|||-NONE-|||1\n\n"
        "S 我们 不 赞成 这种 做法\nA 3 4|||S|||这个|||REQUIRED|||-NONE-|||0\n\n"
    ),
    "ratings.txt": "# three raters\n0 0 3\n1 2 0\n3 0 0\n",
}
RESOURCES = sorted(os.listdir(default_resources_dir()))
for _name in RESOURCES:
    with open(os.path.join(default_resources_dir(), _name), encoding="utf-8") as _fh:
        INPUTS[f"res/{_name}"] = _fh.read()

# Each run: its argv (input names are paths in the run's directory; out,
# report and saved.json are written there), and the inputs to mutate.
RUNS = [
    (["filter", "--input", "corpus.txt", "--output", "out", "--keep", "50"], ["corpus.txt"]),
    (["filter", "--input", "corpus.txt", "--output", "out", "--keep", "50",
      "--train", "train.txt", "--n", "2", "--save-model", "saved.json"], ["corpus.txt", "train.txt"]),
    (["filter", "--input", "corpus.txt", "--output", "out", "--keep", "50",
      "--model", "model.json"], ["model.json"]),
    (["generate", "--input", "corpus.txt", "--output", "out", "--resources", "res",
      "--config", "gen.json", "--report", "report"],
     ["corpus.txt", "gen.json", *(f"res/{name}" for name in RESOURCES)]),
    (["generate", "--input", "tagged.txt", "--output", "out", "--resources", "res",
      "--pretagged", "--report", "report"], ["tagged.txt"]),
    (["augment", "--input", "corpus.txt", "--output", "out", "--config", "aug.json",
      "--report", "report"], ["corpus.txt", "aug.json"]),
    (["stats", "--input", "pairs.jsonl", "--per-type", "--output", "out"], ["pairs.jsonl"]),
    (["score", "--hyp", "hyp.txt", "--m2", "gold.m2", "--report", "report"],
     ["hyp.txt", "gold.m2"]),
    (["score", "--hyp", "hyp.txt", "--m2", "gold.m2", "--char-tokenize", "--report", "report"],
     ["hyp.txt"]),
    (["kappa", "--input", "ratings.txt"], ["ratings.txt"]),
    (["sample", "--input", "corpus.txt", "--output", "out", "--size", "3"], ["corpus.txt"]),
]
# Paths in an argv that name files in the run's directory.
_PATHS = set(INPUTS) | {"res", "out", "report", "saved.json"}

# Edits are made to the text with each undecodable byte as a lone
# surrogate ("\udcff" is the byte 0xff), so most keep the rest valid UTF-8.
INSERTS = [
    "\udcff", "\udcc3", "\x00", "\r", "\ufeff", "1e999", "123456789012345678901", "|||",
    "\n", "\nA 0 1|||R|||x|||REQUIRED|||-NONE-|||0\n", "\nS x y\n", '"', "{", "]", "-",
    "NaN", "0", " ", "\t",
]

_EDITS = st.one_of(
    # Only characters UTF-8 can encode: surrogateescape maps U+DC80-U+DCFF
    # alone, so any other lone surrogate would fail in _mutate itself.
    st.tuples(
        st.just("replace"),
        st.integers(0, 10**6),
        st.characters(codec="utf-8") | st.sampled_from(INSERTS[:2]),
    ),
    st.tuples(st.just("cut"), st.integers(0, 10**6), st.none()),
    st.tuples(st.just("insert"), st.integers(0, 10**6), st.sampled_from(INSERTS)),
)


def _mutate(text: str, edits) -> bytes:
    for kind, position, value in edits:
        at = position % (len(text) + 1)
        if kind == "replace":
            text = text[:at] + value + text[at + 1:]
        elif kind == "cut":
            text = text[:at]
        else:
            text = text[:at] + value + text[at:]
    return text.encode("utf-8", "surrogateescape")


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_a_failed_run_prints_one_error_line_and_writes_nothing(data):
    argv, mutable = data.draw(st.sampled_from(RUNS))
    target = data.draw(st.sampled_from(mutable))
    edits = data.draw(st.lists(_EDITS, min_size=1, max_size=3))
    with tempfile.TemporaryDirectory() as tmp:
        os.mkdir(os.path.join(tmp, "res"))
        for name, text in INPUTS.items():
            with open(os.path.join(tmp, name), "wb") as fh:
                fh.write(_mutate(text, edits if name == target else ()))
        before = sorted(os.listdir(tmp))
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            code = run([os.path.join(tmp, arg) if arg in _PATHS else arg for arg in argv])
        after = sorted(os.listdir(tmp))
    event(f"{argv[0]} exit {code}")
    assert not [name for name in after if name.endswith(".tmp")], after
    if code == 0:
        return
    err = stderr.getvalue()
    kind = {1: "io", 2: "usage", 3: "data"}.get(code)
    assert kind and err.startswith(f"cgeckit: {kind} error: "), (code, err)
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert after == before, after
