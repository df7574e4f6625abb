"""Independent brute-force oracles used to pin expected values in tests.

These are deliberately naive implementations, structured differently from the
library code so that agreement between the two is meaningful evidence.
"""

from __future__ import annotations

import itertools
import math
import unicodedata
from fractions import Fraction
from functools import lru_cache

from cgeckit.core import POSTag, SyntacticRole, TaggedSentence
from cgeckit.lm import BOUNDARY, UNK
from cgeckit.core import SyntacticRole as Role
from cgeckit.rules import (
    _PHRASE_TAGS,
    _core_end,
    _delete_candidate,
    _find_after,
    _replace_word_candidate,
    _span,
    _surfaces_in,
    _swap,
)
from cgeckit.tagging import _ATTR_RUN_TAGS, NOMINAL_TAGS, RoleSpans, _clauses, _is_de


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


def minimal_path_lattice(src, hyp) -> list[dict]:
    """MaxMatch's minimal-path lattice from two whole tables: dstart over
    the sequences and dend over their reversals, read from the far corner.

    Row i maps each j with dstart + dend == distance to (match, arcs, None):
    whether the match arc lies on a minimal path, and the heads of the
    changed arcs (replace, insert, delete) with
    dstart[tail] + 1 + dend[head] == distance. No cell gets a jump, so a
    walk over this lattice steps through every match.
    """
    n, m = len(src), len(hyp)
    dstart = full_distance_table(src, hyp)
    reverse = full_distance_table(src[::-1], hyp[::-1])
    total = dstart[n][m]

    def through(i, j, cost, ni, nj):
        return ni <= n and nj <= m and dstart[i][j] + cost + reverse[n - ni][m - nj] == total

    lattice = []
    for i in range(n + 1):
        cells = {}
        for j in range(m + 1):
            if not through(i, j, 0, i, j):
                continue
            same = i < n and j < m and src[i] == hyp[j]
            arcs = []
            if i < n and j < m and not same and through(i, j, 1, i + 1, j + 1):
                arcs.append((i + 1, j + 1))
            if through(i, j, 1, i, j + 1):
                arcs.append((i, j + 1))
            if through(i, j, 1, i + 1, j):
                arcs.append((i + 1, j))
            cells[j] = (same and through(i, j, 0, i + 1, j + 1), tuple(arcs), None)
        lattice.append(cells)
    return lattice


def lattice_walk_edits(src, hyp, gold_sets, max_unchanged: int) -> list[tuple]:
    """MaxMatch's walk over `minimal_path_lattice`, one match at a time:
    per gold set, the edits that maximize gold matches, then have the
    fewest edits, then the smallest spans, over every minimal alignment
    whose changed regions merge across at most max_unchanged matches.

    The walk is depth-first over states (i, j, seg, used), each valued
    once: seg is None between edits, else (start_i, start_j, trailing
    matches); used holds the insertions already credited at source index
    i, since only a pure insertion can repeat a span.
    """
    n, m = len(src), len(hyp)
    lattice = minimal_path_lattice(src, hyp)
    k = len(gold_sets)
    gains: dict = {}
    for g, gold_set in enumerate(gold_sets):
        for edit in gold_set:
            gains.setdefault(tuple(edit), [0] * k)[g] = 1

    def moves(i, j, seg, used):
        match, arcs, _ = lattice[i][j]
        out = []
        if seg is None:
            if match:
                out.append(((i + 1, j + 1, None, frozenset()), None, None))
            nseg = (i, j, 0)
        else:
            if seg[2] == 0:
                edit = (seg[0], i, " ".join(hyp[seg[1] : j]))
                gain = gains.get(edit)
                next_used = used
                if gain is not None and seg[0] == i:
                    if edit[2] in used:
                        gain = None
                    else:
                        next_used = used | {edit[2]}
                out.append(((i, j, None, next_used), edit, gain))
            if match and seg[2] < max_unchanged:
                out.append(((i + 1, j + 1, (seg[0], seg[1], seg[2] + 1), frozenset()), None, None))
            nseg = (seg[0], seg[1], 0)
        for ni, nj in arcs:
            out.append(((ni, nj, nseg, used if ni == i else frozenset()), None, None))
        return out

    start = (0, 0, None, frozenset())
    memo: dict = {}
    stack: list = [(start, None)]
    while stack:
        state, out = stack.pop()
        if out is None:
            if state in memo:
                continue
            if state[:3] == (n, m, None):
                memo[state] = [(0, 0, ())] * k
                continue
            out = moves(*state)
            stack.append((state, out))
            stack.extend((nxt, None) for nxt, _, _ in out if nxt not in memo)
            continue
        best = None
        for nxt, edit, gain in out:
            sub = memo[nxt]
            if sub is None:
                continue
            if edit is not None:
                sub = [
                    (tp - x, count + 1, (edit,) + edits)
                    for (tp, count, edits), x in zip(sub, gain or [0] * k)
                ]
            best = sub if best is None else [min(a, b) for a, b in zip(best, sub)]
        memo[state] = best
    return [edits for _, _, edits in memo[start]]


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


def changed_steps_reference(a, b) -> list[tuple[str, int, int]]:
    """The non-match steps of `edit_ops_reference`. The matches between them
    follow from the steps, so this list pins the whole canonical script."""
    return [step for step in edit_ops_reference(a, b) if step[0] != "match"]


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
    beta: Fraction = Fraction(1, 2),
) -> tuple[int, int, int, list[int]]:
    """Running-F_beta annotator selection over (tp, fp, fn) triples per annotator.

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
            f = f_beta(TP + tp, FP + fp, FN + fn, beta)
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


# --- the role heuristic, written plainly -----------------------------------


def clause_of_reference(sentence, index):
    """The clause of `_clauses` that holds token index, by a scan of the list."""
    for cs, ce in _clauses(sentence):
        if cs <= index < ce:
            return cs, ce
    return 0, len(sentence.tokens)


def _nominal_runs(sentence: TaggedSentence, lo: int, hi: int) -> list[tuple[int, int]]:
    runs = []
    i = lo
    while i < hi:
        if sentence.tokens[i].tag in NOMINAL_TAGS:
            j = i
            while j < hi and sentence.tokens[j].tag in NOMINAL_TAGS:
                j += 1
            runs.append((i, j))
            i = j
        else:
            i += 1
    return runs


def find_predicate(sentence: TaggedSentence) -> int | None:
    """First VERB token not immediately followed by 的 (which relativizes it)."""
    tokens = sentence.tokens
    for i, tok in enumerate(tokens):
        if tok.tag is POSTag.VERB:
            if i + 1 < len(tokens) and _is_de(tokens[i + 1]):
                continue
            return i
    return None


def _eligible_np(sentence: TaggedSentence, run: tuple[int, int]) -> bool:
    """A bare noun-phrase run: not an attribute (的 follows) and not the
    object of a preposition (ADP precedes)."""
    tokens = sentence.tokens
    i, j = run
    if j < len(tokens) and _is_de(tokens[j]):
        return False
    if i > 0 and tokens[i - 1].tag is POSTag.ADP:
        return False
    return True


def _attribute_ranges(sentence: TaggedSentence, predicate: int | None) -> list[tuple[int, int]]:
    tokens = sentence.tokens
    out = []
    for d, tok in enumerate(tokens):
        if not _is_de(tok) or d == 0:
            continue
        # 的 must introduce a noun phrase: optional ADJ run, then a nominal.
        k = d + 1
        while k < len(tokens) and tokens[k].tag is POSTag.ADJ:
            k += 1
        if k >= len(tokens) or tokens[k].tag not in NOMINAL_TAGS:
            continue
        before = tokens[d - 1]
        if before.tag is POSTag.VERB and d - 1 != predicate:
            # Relative clause `N* V 的`: include the verb and its bare subject.
            s = d - 1
            while s - 1 >= 0 and tokens[s - 1].tag in NOMINAL_TAGS and s - 1 != predicate:
                s -= 1
        elif before.tag is POSTag.PRON:
            # Possessive pronoun directly before 的.
            s = d - 1
        elif before.tag in _ATTR_RUN_TAGS:
            s = d - 1
            while s - 1 >= 0 and tokens[s - 1].tag in _ATTR_RUN_TAGS and s - 1 != predicate:
                s -= 1
        else:
            continue
        out.append((s, d + 1))
    return out


def identify_roles_reference(sentence: TaggedSentence) -> RoleSpans:
    """`tagging.identify_roles` written plainly: it builds every clause,
    finds the predicate's clause with a generator scan, and collects the
    nominal runs before and after the predicate separately. The heuristic
    (documented behavior, validated against the shipped hand-labeled
    fixtures):

    - Predicate: first VERB not immediately followed by 的/PART.
    - Subject: first bare nominal run (NOUN/PRON/PROPN, not followed by 的,
      not preceded by an ADP) before the predicate in its clause; with no
      predicate, the first bare nominal run of the first clause.
    - Object: last bare nominal run after the predicate in its clause.
    - Attribute: modifier run ending in 的 that introduces a noun phrase
      (possessive pronouns and `N* V 的` relative clauses included).
    - Adverbial: ADV runs and ADP-led phrases between clause start and the
      predicate (ADV tokens inside an attribute are not re-reported).
    - Complement: 得/PART-led phrase immediately after the predicate, to the
      end of the clause.

    Sentences with no VERB get an empty Predicate; rules that need one
    simply do not fire.
    """
    tokens = sentence.tokens
    spans: dict[SyntacticRole, tuple[tuple[int, int], ...]] = {}
    predicate = find_predicate(sentence)
    clauses = _clauses(sentence)
    if predicate is not None:
        cs, ce = next((c for c in clauses if c[0] <= predicate < c[1]), (0, len(tokens)))
        spans[SyntacticRole.PREDICATE] = ((predicate, predicate + 1),)
    else:
        cs, ce = clauses[0]

    subject_hi = predicate if predicate is not None else ce
    for run in _nominal_runs(sentence, cs, subject_hi):
        if _eligible_np(sentence, run):
            spans[SyntacticRole.SUBJECT] = (run,)
            break

    if predicate is not None:
        objects = [
            run
            for run in _nominal_runs(sentence, predicate + 1, ce)
            if _eligible_np(sentence, run)
        ]
        if objects:
            spans[SyntacticRole.OBJECT] = (objects[-1],)

    attributes = _attribute_ranges(sentence, predicate)
    if attributes:
        spans[SyntacticRole.ATTRIBUTE] = tuple(attributes)

    if predicate is not None:
        adverbials: list[tuple[int, int]] = []
        in_attr = {
            i for a, b in attributes for i in range(a, b)
        }
        i = cs
        while i < predicate:
            tok = tokens[i]
            if tok.tag is POSTag.ADV and i not in in_attr:
                j = i
                while j < predicate and tokens[j].tag is POSTag.ADV and j not in in_attr:
                    j += 1
                adverbials.append((i, j))
                i = j
            elif tok.tag is POSTag.ADP:
                # NUM covers demonstrative compounds (这个/这位/...), which
                # sit inside prepositional phrases: 对这个问题.
                j = i + 1
                while j < predicate and (
                    tokens[j].tag in NOMINAL_TAGS or tokens[j].tag is POSTag.NUM
                ):
                    j += 1
                adverbials.append((i, j))
                i = j
            else:
                i += 1
        if adverbials:
            spans[SyntacticRole.ADVERBIAL] = tuple(adverbials)

        nxt = predicate + 1
        if nxt < ce and tokens[nxt].surface == "得" and tokens[nxt].tag is POSTag.PART:
            spans[SyntacticRole.COMPLEMENT] = ((nxt, ce),)

    return RoleSpans(spans)


# --- whole-table candidate scans --------------------------------------------
# The table-driven rules' candidate functions written as plain scans: every
# row of the table is tested against the sentence. The library finds its
# rows through lookup maps and must emit the same candidate edits in the
# same order, because `_choice` indexes into the candidate list.

def _scan_mixed(sentence, resources, kind):
    out = []
    end = _core_end(sentence)
    if end is None:
        return out
    head = sentence.text[:end]
    for entry in resources.mixed_patterns:
        if entry.kind != kind or not head.endswith(entry.match):
            continue
        out.append((end, end, entry.splice))
    return out


def _scan_unreasonable(sentence, roles, resources):
    out = []
    for tok in sentence.tokens:
        for superset, subsumed in resources.subsume_pairs:
            if tok.surface == superset and subsumed not in sentence.text:
                out.append((tok.char_end, tok.char_end, "、" + subsumed))
    return out


def _scan_reverse_host_guest(sentence, roles, resources):
    tokens = sentence.tokens
    out = []
    for k, tok in enumerate(tokens):
        if tok.tag is not POSTag.ADP or tok.surface not in resources.hostguest_markers:
            continue
        a = k
        while a - 1 >= 0 and tokens[a - 1].tag in _PHRASE_TAGS:
            a -= 1
        b = k + 1
        while b < len(tokens) and tokens[b].tag in _PHRASE_TAGS:
            b += 1
        if a == k or b == k + 1:
            continue
        left = _span(sentence, a, k)
        right = _span(sentence, k + 1, b)
        out.append(_swap(sentence.text, left, right))
    return out


def _scan_subject_predicate(sentence, roles, resources):
    p = roles.predicate_index()
    subject = roles.first(Role.SUBJECT)
    if p is None or subject is None:
        return []
    subj_words = _surfaces_in(sentence, subject)
    out = []
    for c in (c for c in resources.collocations if c.kind == "subject_predicate"):
        if c.left in subj_words and sentence.tokens[p].surface == c.right:
            if c.side == "right":
                out.append(_replace_word_candidate(sentence, p, c.wrong))
            else:
                i = _find_after(sentence, subject[0], subject[1], c.left)
                if i is not None:
                    out.append(_replace_word_candidate(sentence, i, c.wrong))
    return out


def _scan_predicate_object(sentence, roles, resources):
    p = roles.predicate_index()
    if p is None:
        return []
    cs, ce = clause_of_reference(sentence, p)
    out = []
    for c in (c for c in resources.collocations if c.kind == "predicate_object"):
        if sentence.tokens[p].surface != c.left:
            continue
        m = _find_after(sentence, p + 1, ce, c.right)
        if m is None:
            continue
        index = p if c.side == "left" else m
        out.append(_replace_word_candidate(sentence, index, c.wrong))
    return out


def _scan_subject_object(sentence, roles, resources):
    p = roles.predicate_index()
    subject = roles.first(Role.SUBJECT)
    if p is None or subject is None:
        return []
    cs, ce = clause_of_reference(sentence, p)
    subj_words = _surfaces_in(sentence, subject)
    out = []
    for c in (c for c in resources.collocations if c.kind == "subject_object"):
        if c.left not in subj_words:
            continue
        m = _find_after(sentence, p + 1, ce, c.right)
        if m is None:
            continue
        if c.side == "right":
            out.append(_replace_word_candidate(sentence, m, c.wrong))
        else:
            i = _find_after(sentence, subject[0], subject[1], c.left)
            if i is not None:
                out.append(_replace_word_candidate(sentence, i, c.wrong))
    return out


def _scan_modifier_head(sentence, roles, resources):
    tokens = sentence.tokens
    out = []
    for c in (c for c in resources.collocations if c.kind == "modifier_head"):
        for k, tok in enumerate(tokens):
            if tok.surface != c.left:
                continue
            # head within two tokens so a linking 的 may intervene
            for m in range(k + 1, min(k + 3, len(tokens))):
                if tokens[m].surface == c.right:
                    index = k if c.side == "left" else m
                    out.append(_replace_word_candidate(sentence, index, c.wrong))
                    break
    return out


def _scan_connectives(sentence, roles, resources):
    tokens = sentence.tokens
    out = []
    for pair in resources.connective_pairs:
        for i, tok in enumerate(tokens):
            if tok.surface != pair.first:
                continue
            for j in range(i + 1, len(tokens)):
                if tokens[j].surface == pair.second:
                    out.append(_replace_word_candidate(sentence, j, pair.wrong))
                    break
            break
    return out


# The function-word rules read their categories as plain lists on every
# call; the library compiles each category once into a set and a tuple.


def _scan_mixed_subjects(sentence, roles, resources):
    subject = roles.first(Role.SUBJECT)
    if subject is None or roles.predicate_index() is None:
        return []
    subject_text = sentence.text[slice(*_span(sentence, *subject))]
    words = [w for w in resources.function_words.get("subject", []) if w != subject_text]
    if not words:
        return []
    pos = _span(sentence, *subject)[1]
    return [(pos, pos, tuple(words))]


def _scan_measure_word(sentence, roles, resources):
    tokens = sentence.tokens
    exact = resources.function_words.get("exact_marker", [])
    approx_pre = resources.function_words.get("approx_pre", [])
    approx_post = resources.function_words.get("approx_post", [])
    out = []
    for k, tok in enumerate(tokens):
        if tok.tag is not POSTag.NUM:
            continue
        window = tokens[max(0, k - 2) : k]
        if approx_pre and any(t.surface in exact for t in window):
            out.append((tok.char_start, tok.char_start, tuple(approx_pre)))
        if approx_post and any(t.surface in approx_pre for t in window):
            j = k + 1
            while j < len(tokens) and tokens[j].tag is POSTag.NOUN:
                j += 1
            out.append((tokens[j - 1].char_end, tokens[j - 1].char_end, tuple(approx_post)))
    return out


def _scan_improper_negation(sentence, roles, resources):
    tokens = sentence.tokens
    negators = resources.function_words.get("negator", [])
    implicit = resources.function_words.get("implicit_negative", [])
    inserts = resources.function_words.get("negation_insert", [])
    doubles = resources.function_words.get("double_negator", [])
    out = []
    if inserts:
        for k, tok in enumerate(tokens):
            if tok.surface not in implicit:
                continue
            for m in range(k + 1, len(tokens)):
                if tokens[m].tag is POSTag.PUNCT or tokens[m].surface in negators:
                    break
                if tokens[m].tag is POSTag.VERB:
                    out.append((tokens[m].char_start, tokens[m].char_start, tuple(inserts)))
                    break
    p = roles.predicate_index()
    if doubles and p is not None and p > 0 and tokens[p - 1].surface in negators:
        if p < 2 or tokens[p - 2].surface not in negators:
            out.append((tokens[p - 1].char_start, tokens[p - 1].char_start, tuple(doubles)))
    return out


def _scan_lack_modifier(sentence, roles, resources):
    essential = resources.function_words.get("essential_modifier", [])
    out = []
    if len(sentence.tokens) < 2:
        return out
    for k, tok in enumerate(sentence.tokens):
        if tok.surface in essential:
            out.extend(_delete_candidate(sentence, (k, k + 1)))
    return out


# Rule id -> scan candidate function (sentence, roles, resources), for the
# rules that read function-word categories.
SCAN_FUNCTION_WORD_FNS = {
    "MixedSubjects": _scan_mixed_subjects,
    "MeasureWord": _scan_measure_word,
    "ImproperNegation": _scan_improper_negation,
    "LackModifier": _scan_lack_modifier,
}

# Rule id -> whole-table scan candidate function (sentence, roles, resources).
SCAN_CANDIDATE_FNS = {
    "MixedPatterns": lambda sentence, roles, res: _scan_mixed(sentence, res, "pattern"),
    "MixedSentences": lambda sentence, roles, res: _scan_mixed(sentence, res, "sentence"),
    "Unreasonable": _scan_unreasonable,
    "ReverseHostGuest": _scan_reverse_host_guest,
    "SubjectPredicate": _scan_subject_predicate,
    "PredicateObject": _scan_predicate_object,
    "SubjectObject": _scan_subject_object,
    "ModifierHeadWord": _scan_modifier_head,
    "Connectives": _scan_connectives,
}


def weighted_pop_reference(rng, pool: list[tuple[str, float]]) -> str:
    """One weighted draw without replacement from (rule, weight) pairs: the
    draw scaled by the weights' total added up in float from 0.0 (not
    sum(), which Python 3.12 compensates), then a running sum from 0.0,
    the first rule whose sum exceeds the draw, else the last rule."""
    total = 0.0
    for _, weight in pool:
        total += weight
    r = rng.random() * total
    acc = 0.0
    for index, (rule, weight) in enumerate(pool):
        acc += weight
        if r < acc or index == len(pool) - 1:
            del pool[index]
            return rule
    raise AssertionError("unreachable")


def longest_match_tag(lexicon, raw: str) -> list[tuple[str, POSTag, int, int]]:
    """Greedy longest-match segmentation by trying every length: at each
    position, every length from the longest lexicon entry down to 1; else a
    run of decimal digits, or a run of CJK numeral characters, as one NUM
    token; else the character as OTHER. Tokens are (surface, tag, start, end)."""
    max_len = max((len(s) for s in lexicon), default=1)

    def is_digit(ch):
        return ch.isdigit() or unicodedata.category(ch) == "Nd"

    def is_cjk_numeral(ch):
        return ch in "〇零一二两三四五六七八九十百千万亿"

    tokens = []
    pos = 0
    while pos < len(raw):
        matched = None
        for length in range(min(max_len, len(raw) - pos), 0, -1):
            tag = lexicon.get(raw[pos : pos + length])
            if tag is not None:
                matched = (raw[pos : pos + length], tag)
                break
        for in_run in (is_digit, is_cjk_numeral):
            if matched is None and in_run(raw[pos]):
                end = pos + 1
                while end < len(raw) and in_run(raw[end]):
                    end += 1
                matched = (raw[pos:end], POSTag.NUM)
        if matched is None:
            matched = (raw[pos], POSTag.OTHER)
        surface, tag = matched
        tokens.append((surface, tag, pos, pos + len(surface)))
        pos += len(surface)
    return tokens


# --- character n-gram LM, one event at a time ------------------------------


def lm_events(n: int, chars, sentence: str) -> list[tuple[str, ...]]:
    """The padded n-grams of a sentence, characters outside chars as UNK."""
    padded = [BOUNDARY] * (n - 1) + [ch if ch in chars else UNK for ch in sentence]
    padded.append(BOUNDARY)
    return [tuple(padded[i - n + 1 : i + 1]) for i in range(n - 1, len(padded))]


def train_lm_events(sentences: list[str], n: int):
    """(chars, ngrams, contexts), each count incremented one event at a time."""
    chars = frozenset(ch for s in sentences for ch in s)
    ngrams: dict = {}
    contexts: dict = {}
    for sentence in sentences:
        for gram in lm_events(n, chars, sentence):
            ngrams[gram] = ngrams.get(gram, 0) + 1
            contexts[gram[:-1]] = contexts.get(gram[:-1], 0) + 1
    return chars, ngrams, contexts


def perplexity_events(n: int, alpha, chars, ngrams, contexts, sentence: str) -> float:
    """exp of the mean negative log of each event's smoothed probability."""
    vocab_size = len(chars) + 2

    def probability(gram):
        count = ngrams.get(gram, 0)
        total = contexts.get(gram[:-1], 0)
        return (count + alpha) / (total + alpha * vocab_size)

    events = lm_events(n, chars, sentence)
    log_sum = sum(math.log(probability(gram)) for gram in events)
    return math.exp(-log_sum / len(events))
