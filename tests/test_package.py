"""The package's public names: each is the object its defining module
holds, whether it is read as an attribute, imported by name or bound by
`from cgeckit import *`, although `import cgeckit` loads no submodule."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import cgeckit

# Defining module: the names the package exports from it.
EXPORTS = {
    "cgeckit.core": [
        "CgecError", "ConfigError", "CoarseType", "CorpusPair", "EditSpan", "ErrorType",
        "FINE_TO_COARSE", "POSTag", "ParseError", "SyntacticRole", "TaggedSentence", "Token",
        "ValidationError", "apply_edits", "diff_edits", "pair_from_json", "pair_to_json",
        "read_pairs", "report_json",
    ],
    "cgeckit.generator": [
        "AugmentConfig", "AugmentReport", "GenConfig", "GenerationReport", "augment_corpus",
        "derive_seed", "generate_corpus", "generate_pair", "stream_augment_lines",
        "stream_generate",
    ],
    "cgeckit.lm": [
        "LMConfig", "NGramModel", "filter_percentile", "load_lm", "perplexity", "save_lm",
        "train_lm",
    ],
    "cgeckit.metrics": [
        "EditOps", "GoldEdit", "M2Sentence", "ScoreParams", "ScoreReport", "StatsReport",
        "corpus_stats", "extract_system_edits", "fleiss_kappa", "format_score", "levenshtein",
        "parse_m2", "score_corpus", "write_m2",
    ],
    "cgeckit.resources": ["RuleResources", "default_resources_dir", "load_resources"],
    "cgeckit.rules": ["RULE_REGISTRY", "apply_fine_rule"],
    "cgeckit.tagging": ["identify_roles", "parse_pretagged", "segment_and_tag"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


@pytest.mark.parametrize("module,name", NAMES, ids=[name for _, name in NAMES])
def test_each_export_is_its_defining_modules_object(module, name):
    expected = getattr(importlib.import_module(module), name)
    assert getattr(cgeckit, name) is expected
    assert vars(cgeckit)[name] is expected  # kept after the first access
    namespace = {}
    exec(f"from cgeckit import {name}", namespace)
    assert namespace[name] is expected


def test_all_lists_exactly_the_exports_and_star_binds_them():
    names = [name for _, name in NAMES]
    assert sorted(cgeckit.__all__) == sorted(names)
    namespace = {}
    exec("from cgeckit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(names)
    assert set(names) <= set(dir(cgeckit))
    assert vars(cgeckit)["__version__"] == "0.1.0"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        cgeckit.no_such_name
    assert not hasattr(cgeckit, "no_such_name")
    with pytest.raises(ImportError):
        exec("from cgeckit import no_such_name", {})


def test_importing_the_package_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cgeckit.__file__)))
    child = "import json, sys, cgeckit; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", child], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, encoding="utf-8", timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [m for m in json.loads(proc.stdout) if m.startswith("cgeckit.")] == []
