"""Independent brute-force oracles used to pin expected values in tests.

These are deliberately naive implementations, structured differently from the
library code so that agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache


def levenshtein_recursive(a: str, b: str) -> int:
    """Plain recursive definition of edit distance, memoized."""

    @lru_cache(maxsize=None)
    def d(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        sub = d(i - 1, j - 1) + (0 if a[i - 1] == b[j - 1] else 1)
        return min(sub, d(i - 1, j) + 1, d(i, j - 1) + 1)

    return d(len(a), len(b))


def full_distance_table(a, b) -> list[list[int]]:
    """The whole unit-cost edit distance table, every cell by the textbook
    three-way min: dist[i][j] is the distance from a[:i] to b[:j]."""
    m, n = len(a), len(b)
    dist = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        dist[i][0] = i
    for j in range(n + 1):
        dist[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dist[i][j] = min(
                dist[i - 1][j - 1] + cost, dist[i - 1][j] + 1, dist[i][j - 1] + 1
            )
    return dist


def edit_ops_reference(a, b) -> list[tuple[str, int, int]]:
    """The canonical minimal edit script, backtraced over the whole table.

    Walking back from the far corner, each step takes the first of match,
    replace, insert, delete whose predecessor cell accounts for the current
    cell's value. Steps are (op, i, j) in left-to-right order, with i/j the
    indices into a/b where the step applies.
    """
    dist = full_distance_table(a, b)
    steps: list[tuple[str, int, int]] = []
    i, j = len(a), len(b)
    while (i, j) != (0, 0):
        here = dist[i][j]
        diagonal = dist[i - 1][j - 1] if i and j else None
        if diagonal is not None and a[i - 1] == b[j - 1] and here == diagonal:
            op = "match"
        elif diagonal is not None and here == diagonal + 1:
            op = "replace"
        elif j and here == dist[i][j - 1] + 1:
            op = "insert"
        else:
            op = "delete"
        i -= op != "insert"
        j -= op != "delete"
        steps.append((op, i, j))
    return steps[::-1]


def enumerate_minimal_paths(src: list[str], hyp: list[str]) -> list[list[tuple[str, int, int]]]:
    """All minimal-cost alignment paths as lists of (op, i, j) steps.

    Steps are emitted left to right; i/j are the source/hypothesis indices
    BEFORE the step applies. Ops: match, sub, ins, del.
    """
    m, n = len(src), len(hyp)
    dist = full_distance_table(src, hyp)

    paths: list[list[tuple[str, int, int]]] = []

    def walk(i: int, j: int, acc: list[tuple[str, int, int]]) -> None:
        if i == 0 and j == 0:
            paths.append(list(reversed(acc)))
            return
        if i > 0 and j > 0:
            if src[i - 1] == hyp[j - 1] and dist[i][j] == dist[i - 1][j - 1]:
                acc.append(("match", i - 1, j - 1))
                walk(i - 1, j - 1, acc)
                acc.pop()
            elif src[i - 1] != hyp[j - 1] and dist[i][j] == dist[i - 1][j - 1] + 1:
                acc.append(("sub", i - 1, j - 1))
                walk(i - 1, j - 1, acc)
                acc.pop()
        if j > 0 and dist[i][j] == dist[i][j - 1] + 1:
            acc.append(("ins", i, j - 1))
            walk(i, j - 1, acc)
            acc.pop()
        if i > 0 and dist[i][j] == dist[i - 1][j] + 1:
            acc.append(("del", i - 1, j))
            walk(i - 1, j, acc)
            acc.pop()

    walk(m, n, [])
    return paths


def _groupings(flags: list[bool], max_unchanged: int) -> list[list[tuple[int, int]]]:
    """All ways to group the changed steps of one path into edit groups.

    flags[k] is True when step k is a changed op. A group is a contiguous
    step range [a, b) starting and ending with a changed step, with every
    internal run of unchanged steps no longer than max_unchanged. Every
    changed step must fall in exactly one group; groups cannot overlap.
    Returns lists of (a, b) step ranges.
    """
    changed = [k for k, f in enumerate(flags) if f]
    if not changed:
        return [[]]
    results: list[list[tuple[int, int]]] = []

    def extend(pos: int, acc: list[tuple[int, int]]) -> None:
        # pos indexes into `changed`; start a new group at changed[pos].
        if pos == len(changed):
            results.append(list(acc))
            return
        start = changed[pos]
        last = pos
        while True:
            # close the group after changed[last]
            acc.append((start, changed[last] + 1))
            extend(last + 1, acc)
            acc.pop()
            if last + 1 == len(changed):
                break
            gap = changed[last + 1] - changed[last] - 1
            if gap > max_unchanged:
                break
            last += 1

    extend(0, [])
    return results


def enumerate_edit_sets(
    src: list[str], hyp: list[str], max_unchanged: int
) -> list[list[tuple[int, int, str]]]:
    """Every system edit sequence reachable by path choice plus grouping."""
    seen: set[tuple[tuple[int, int, str], ...]] = set()
    out: list[list[tuple[int, int, str]]] = []
    for path in enumerate_minimal_paths(src, hyp):
        flags = [op != "match" for op, _, _ in path]
        for groups in _groupings(flags, max_unchanged):
            edits: list[tuple[int, int, str]] = []
            for a, b in groups:
                i_start = path[a][1]
                last_op, last_i, last_j = path[b - 1]
                i_end = last_i + (0 if last_op == "ins" else 1)
                j_start = path[a][2]
                j_end = last_j + (0 if last_op == "del" else 1)
                edits.append((i_start, i_end, " ".join(hyp[j_start:j_end])))
            key = tuple(edits)
            if key not in seen:
                seen.add(key)
                out.append(edits)
    return out


def counts_for(edits: list[tuple[int, int, str]], gold: set[tuple[int, int, str]]):
    """tp/fp/fn under the matching contract: each gold edit matches once."""
    tp = len(gold & set(edits))
    fp = len(edits) - tp
    fn = len(gold) - tp
    return tp, fp, fn


def best_edit_set(
    src: list[str], hyp: list[str], gold: set[tuple[int, int, str]], max_unchanged: int
) -> list[tuple[int, int, str]]:
    """The edit sequence MaxMatch extraction must return, by full enumeration.

    Maximize tp, then minimize edit count, then take the lexicographically
    smallest (start, end, correction) sequence.
    """
    best: list[tuple[int, int, str]] | None = None
    best_key = None
    for edits in enumerate_edit_sets(src, hyp, max_unchanged):
        tp, _, _ = counts_for(edits, gold)
        key = (-tp, len(edits), edits)
        if best_key is None or key < best_key:
            best_key = key
            best = edits
    assert best is not None
    return best


def f_beta(tp: int, fp: int, fn: int, beta: Fraction = Fraction(1, 2)) -> Fraction:
    """Exact F_beta with the empty-set conventions (P=1, R=1 when undefined)."""
    p = Fraction(1) if tp + fp == 0 else Fraction(tp, tp + fp)
    r = Fraction(1) if tp + fn == 0 else Fraction(tp, tp + fn)
    if p * r == 0:
        return Fraction(0)
    b2 = beta * beta
    return (1 + b2) * p * r / (b2 * p + r)


def score_oracle(
    sentences: list[list[tuple[int, int, int]]],
) -> tuple[int, int, int, list[int]]:
    """Running-F0.5 annotator selection over (tp, fp, fn) triples per annotator.

    sentences[s][a] is the (tp, fp, fn) a system earned against annotator a's
    gold on sentence s. Returns accumulated totals and chosen annotator ids.
    """
    TP = FP = FN = 0
    chosen: list[int] = []
    for per_annotator in sentences:
        best_a = None
        best_f = None
        best_triple = None
        for a, (tp, fp, fn) in enumerate(per_annotator):
            f = f_beta(TP + tp, FP + fp, FN + fn)
            if best_f is None or f > best_f:
                best_a, best_f, best_triple = a, f, (tp, fp, fn)
        assert best_triple is not None
        TP += best_triple[0]
        FP += best_triple[1]
        FN += best_triple[2]
        chosen.append(best_a)
    return TP, FP, FN, chosen


def all_alignment_op_counts(a: str, b: str) -> set[tuple[int, int, int]]:
    """(replace, insert, delete) triples over all minimal scripts for a -> b."""
    triples = set()
    for path in enumerate_minimal_paths(list(a), list(b)):
        r = sum(1 for op, _, _ in path if op == "sub")
        i = sum(1 for op, _, _ in path if op == "ins")
        d = sum(1 for op, _, _ in path if op == "del")
        triples.add((r, i, d))
    return triples
