"""The bench tracer's patch targets exist: every (module, attribute) in
bench/spans.py PATCHES names a callable that the package defines, so
renaming or dropping one fails here and not only in a traced bench run."""

import importlib
import importlib.util
import pathlib
import sys

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_every_bench_patch_target_resolves(monkeypatch):
    # Loaded from its file, read-only: no bytecode is written under bench/.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.PATCHES
    for module, attribute, *_ in spans.PATCHES:
        assert callable(getattr(importlib.import_module(module), attribute, None)), (
            module,
            attribute,
        )
