"""Function-body lines of rules.py and tagging.py that the golden grid never runs.

Runs `golden.compute()` under the stdlib `trace` module and lists each
statement inside a function of those two modules that never ran. A
statement is keyed by its module, its function's dotted name and the
stripped text of its first line, so an edit elsewhere in the file does not
move the key.

    PYTHONPATH=src python tests/coverage.py

Exits 1 when an unrun line is not in ALLOWED, or when an ALLOWED line now
runs: the allowlist is the grid's exact gap, and it only ever shrinks.
"""

from __future__ import annotations

import ast
import sys
import trace
from pathlib import Path

import golden
from cgeckit import rules, tagging

MODULES = (rules, tagging)

# (module, function, stripped first line) of every statement the grid does
# not run.
ALLOWED = {
    ("rules", "_cand_adverbial_attributives", "continue"),
    ("rules", "_cand_attributive_head", "continue"),
    ("rules", "_cand_imposing_cause_effect", "return []"),
    ("rules", "_cand_improper_negation", "break"),
    ("rules", "_cand_mixed_subjects", "return []"),
    ("rules", "_cand_predicate_object", "continue"),
    ("rules", "_cand_reverse_host_guest", "continue"),
    ("rules", "_cand_subject_object", "continue"),
    ("rules", "_cand_subject_object", "i = _find_after(sentence, subject[0], subject[1], c.left)"),
    ("rules", "_cand_subject_predicate", "i = _find_after(sentence, subject[0], subject[1], c.left)"),
    ("rules", "_core_end", "return None"),
    ("rules", "_delete_candidate", "return []"),
    ("rules", "_find_after", "return None"),
    ("rules", "_mixed_candidates", "return out"),
    ("rules", "apply_fine_rule", 'raise KeyError(f"unknown rule id: {fine_id}")'),
    ("tagging", "_clause_of", "return 0, len(tokens)"),
    ("tagging", "identify_roles", "continue"),
    ("tagging", "load_lexicon", 'raise ConfigError(f"{path}:{lineno}: expected `surface<TAB>tag`")'),
    ("tagging", "load_tag_mapping", 'raise ConfigError(f"{path}:{lineno}: expected `tag<TAB>canonical`")'),
    ("tagging", "map_tag", "return POSTag.OTHER"),
    ("tagging", "parse_pretagged", 'raise ParseError(f"item {index} ({item!r}): empty surface")'),
    ("tagging", "parse_pretagged", 'raise ParseError(f"item {index} ({item!r}): missing `/TAG` separator")'),
}


def _statements(tree: ast.Module) -> list[tuple[str, range]]:
    """(dotted function name, header lines) of every statement in a function
    body. A statement's header runs to the line before its body, or to its
    end if it has none; it ran if any of those lines did, since a condition
    split over lines may not be traced on its first line. Constant
    expressions such as docstrings compile to nothing, so they are left out."""
    found = []

    def walk(node: ast.AST, name: str, in_function: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if in_function and isinstance(child, ast.stmt) and not (
                isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)
            ):
                body = getattr(child, "body", None)
                last = max(child.lineno, body[0].lineno - 1) if body else child.end_lineno
                found.append((name, range(child.lineno, last + 1)))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{name}.{child.name}" if name else child.name
                walk(child, inner, not isinstance(child, ast.ClassDef))
            else:
                walk(child, name, in_function)

    walk(tree, "", False)
    return found


def unrun_lines() -> set[tuple[str, str, str]]:
    """(module, function, stripped first line) of every statement the grid
    does not run."""
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    tracer.runfunc(golden.compute)
    counts = tracer.results().counts
    unrun = set()
    for module in MODULES:
        path = Path(module.__file__).resolve()
        text = path.read_text(encoding="utf-8")
        source = text.splitlines()
        ran = {line for (filename, line) in counts if Path(filename).resolve() == path}
        for function, lines in _statements(ast.parse(text)):
            if ran.isdisjoint(lines):
                name = module.__name__.rsplit(".", 1)[1]
                unrun.add((name, function, source[lines[0] - 1].strip()))
    return unrun


def main() -> int:
    unrun = unrun_lines()
    new = sorted(unrun - ALLOWED)
    stale = sorted(ALLOWED - unrun)
    for key in new:
        print("unrun and not allowed:", key)
    for key in stale:
        print("allowed but now run (drop it from ALLOWED):", key)
    print(f"{len(unrun)} unrun function-body lines, {len(new)} new, {len(stale)} stale")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
