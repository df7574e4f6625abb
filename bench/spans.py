"""Span tracing of the package's layers, done from outside the package.

`traced(tracer)` swaps the module attributes that callers look up (for
example `cgeckit.rules.diff_edits`) for wrappers that record one span per
call: name, start, end (process CPU seconds) and the index of the
enclosing span. Spans stay in memory; `Tracer.write` dumps them when the
run ends. A layer's self time is its spans' durations minus the time
covered by their direct children.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter
from contextlib import contextmanager
from time import process_time


def _cells(a, b) -> int:
    """Full DP size of one alignment: (len a + 1)(len b + 1)."""
    return (len(a) + 1) * (len(b) + 1)


def _count_diff(tracer, args, result, parent):
    tracer.counts["core.diff_edits.cells"] += _cells(args[0], args[1])
    if parent >= 0 and tracer.spans[parent][0] == "rules.apply_fine_rule":
        tracer.counts["core.diff_edits.wasted"] += 1


def _count_rows(tracer, args, res, parent):
    rows = (
        len(res.mixed_patterns) + len(res.subsume_pairs) + len(res.hostguest_markers)
        + len(res.causal_triggers) + len(res.collocations) + len(res.connective_pairs)
        + sum(len(v) for table in (res.synonyms, res.meaning_pairs, res.function_words)
              for v in table.values())
    )
    tracer.counts["resources.load_resources.rows"] += rows


def _counter(key, fn):
    def count(tracer, args, result, parent):
        tracer.counts[key] += fn(args, result)
    return count


_count_chars = _counter("tagging.segment_and_tag.chars", lambda a, r: len(a[0]))

# (module, attribute, span name, counter). Every caller inside the package
# looks these names up in the listed module at call time.
PATCHES = [
    ("cgeckit.cli", "segment_and_tag", "tagging.segment_and_tag", _count_chars),
    ("cgeckit.generator", "segment_and_tag", "tagging.segment_and_tag", _count_chars),
    ("cgeckit.generator", "identify_roles", "tagging.identify_roles", None),
    ("cgeckit.cli", "load_resources", "resources.load_resources", _count_rows),
    ("cgeckit.generator", "apply_fine_rule", "rules.apply_fine_rule",
     _counter("rules.apply_fine_rule.fired", lambda a, r: r is not None)),
    ("cgeckit.generator", "generate_pair", "generator.generate_pair",
     _counter("generator.generate_pair.none", lambda a, r: r is None)),
    ("cgeckit.generator", "diff_edits", "core.diff_edits", _count_diff),
    ("cgeckit.rules", "diff_edits", "core.diff_edits", _count_diff),
    ("cgeckit.cli", "pair_to_json", "core.pair_to_json", None),
    ("cgeckit.core", "pair_from_json", "core.pair_from_json", None),
    ("cgeckit.lm", "train_lm", "lm.train_lm", None),
    ("cgeckit.lm", "perplexity", "lm.perplexity", None),
    ("cgeckit.metrics", "levenshtein", "metrics.levenshtein",
     _counter("metrics.levenshtein.cells", lambda a, r: _cells(a[0], a[1]))),
    ("cgeckit.cli", "parse_m2", "metrics.parse_m2", None),
    ("cgeckit.metrics", "extract_system_edits", "metrics.extract_system_edits",
     _counter("metrics.extract_system_edits.cells", lambda a, r: _cells(a[0], a[1]))),
    ("cgeckit.cli", "score_corpus", "metrics.score_corpus", None),
]


class Tracer:
    """In-memory span list of one traced pipeline run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.spans.append(record)
        self.stack.append(index)
        record[1] = process_time()
        try:
            yield index
        finally:
            record[2] = process_time()
            self.stack.pop()

    def wrap(self, name: str, fn, count):
        def wrapper(*args, **kwargs):
            with self.span(name) as index:
                result = fn(*args, **kwargs)
            if count is not None:
                count(self, args, result, self.spans[index][3])
            return result

        return wrapper

    def summary(self) -> tuple[Counter, Counter]:
        """(calls per span name, self seconds per span name)."""
        calls: Counter = Counter()
        busy: Counter = Counter()
        children = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for (name, start, end, _), child in zip(self.spans, children):
            calls[name] += 1
            busy[name] += (end - start) - child
        return calls, busy

    def write(self, path: str) -> None:
        """Spans as JSON lines, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name, "start": start - origin,
                                     "end": end - origin, "parent": parent}) + "\n")


@contextmanager
def traced(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved = []
    try:
        for module_name, attr, name, count in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, count))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
