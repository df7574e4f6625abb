"""Resource-driven corruption rules: 6 coarse categories, 26 fine types.

Every rule proposes edits of a correct TaggedSentence, one per site it
matches, from the sentence and its RoleSpans. apply_fine_rule picks one
edit and returns it, trimmed to the characters it changes; the caller
splices it into the text and labels the result. Rules never error on
non-matching input; apply_fine_rule returns None.

Randomness discipline: only apply_fine_rule reads the rng, and only
through rng.random() (via _choice): one draw picks the site uniformly, and
one more draws the word when the picked edit carries a word pool. An
edit is therefore fully determined by (sentence, resources, seed) and
never by interpreter details.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable

from cgeckit.core import EditSpan, POSTag, TaggedSentence, trim_edit
from cgeckit.core import diff_edits  # unused; bench/spans.py patches this name
from cgeckit.resources import RuleResources, _matching_rows
from cgeckit.tagging import (
    NOMINAL_TAGS,
    RoleSpans,
    _ADJ,
    _ADP,
    _ADV,
    _CCONJ,
    _NOUN,
    _NUM,
    _PHRASE_TAGS,
    _PRON,
    _PUNCT,
    _VERB,
    _X,
    _clause_of,
    _clauses,
    _is_de,
)
from cgeckit.core import SyntacticRole as Role


# A candidate is one edit of the sentence text, (start, end, piece): replace
# text[start:end] with piece. A tuple piece is a word pool; the word is drawn
# from it when the candidate is picked, so only such a candidate reads the rng.
Candidate = tuple[int, int, str | tuple[str, ...]]


def _choice(rng: random.Random, seq):
    idx = int(rng.random() * len(seq))
    return seq[min(idx, len(seq) - 1)]


def _span(sentence: TaggedSentence, i: int, j: int) -> tuple[int, int]:
    return sentence.tokens[i].char_start, sentence.tokens[j - 1].char_end


def _swap(text: str, r1: tuple[int, int], r2: tuple[int, int]) -> Candidate:
    """The one edit that swaps two disjoint character ranges."""
    (a1, b1), (a2, b2) = sorted([r1, r2])
    return (a1, b2, text[a2:b2] + text[b1:a2] + text[a1:b1])


def _surfaces_in(sentence: TaggedSentence, rng_range: tuple[int, int]) -> set[str]:
    i, j = rng_range
    return {t.surface for t in sentence.tokens[i:j]}


def _adp_phrase(sentence, k):
    """The end of the run of phrase tokens after token k."""
    tokens = sentence.tokens
    j = k + 1
    while j < len(tokens) and tokens[j].tag in _PHRASE_TAGS:
        j += 1
    return j


# --- StructuralConfusion -------------------------------------------------


def _core_end(sentence: TaggedSentence) -> int | None:
    """Character position after the last non-punctuation token."""
    for tok in reversed(sentence.tokens):
        if tok.tag is not _PUNCT:
            return tok.char_end
    return None


def _mixed_candidates(
    sentence: TaggedSentence, roles: RoleSpans, resources: RuleResources, kind: str
) -> list[Candidate]:
    out: list[Candidate] = []
    end = _core_end(sentence)
    if end is None:
        return out
    head = sentence.text[:end]
    lengths, index = resources._mixed_index.get(kind, ((), {}))
    suffixes = {head[len(head) - n :] for n in lengths if n <= len(head)}
    for entry in _matching_rows(resources.mixed_patterns, index, suffixes):
        out.append((end, end, entry.splice))
    return out


def _cand_mixed_subjects(sentence, roles, resources):
    subject = roles.first(Role.SUBJECT)
    if subject is None or roles.predicate_index() is None:
        return []
    start, pos = _span(sentence, *subject)
    subject_text = sentence.text[start:pos]
    words = resources._word_tuples.get("subject", ())
    if subject_text in resources._word_sets.get("subject", ()):
        words = tuple(w for w in words if w != subject_text)
    if not words:
        return []
    return [(pos, pos, words)]


# --- ImproperLogicality --------------------------------------------------


def _cand_measure_word(sentence, roles, resources):
    tokens = sentence.tokens
    exact = resources._word_sets.get("exact_marker", ())
    approx_pre = resources._word_tuples.get("approx_pre", ())
    approx_pre_set = resources._word_sets.get("approx_pre", ())
    approx_post = resources._word_tuples.get("approx_post", ())
    out = []
    for k, tok in enumerate(tokens):
        if tok.tag is not _NUM:
            continue
        window = tokens[max(0, k - 2) : k]
        if approx_pre and any(t.surface in exact for t in window):
            # exact marker + numeral: wedge in an approximate quantifier
            out.append((tok.char_start, tok.char_start, approx_pre))
        if approx_post and any(t.surface in approx_pre_set for t in window):
            # approximate quantifier + numeral: add a trailing 左右/上下 too
            j = k + 1
            while j < len(tokens) and tokens[j].tag is _NOUN:
                j += 1
            pos = tokens[j - 1].char_end
            out.append((pos, pos, approx_post))
    return out


def _cand_unreasonable(sentence, roles, resources):
    index = resources._subsume_index
    out = []
    for tok in sentence.tokens:
        for _, subsumed in _matching_rows(resources.subsume_pairs, index, (tok.surface,)):
            if subsumed not in sentence.text:
                out.append((tok.char_end, tok.char_end, "、" + subsumed))
    return out


def _cand_improper_negation(sentence, roles, resources):
    tokens = sentence.tokens
    negators = resources._word_sets.get("negator", ())
    implicit = resources._word_sets.get("implicit_negative", ())
    inserts = resources._word_tuples.get("negation_insert", ())
    doubles = resources._word_tuples.get("double_negator", ())
    out = []
    if inserts:
        for k, tok in enumerate(tokens):
            if tok.surface not in implicit:
                continue
            for m in range(k + 1, len(tokens)):
                if tokens[m].tag is _PUNCT:
                    break
                if tokens[m].surface in negators:
                    break
                if tokens[m].tag is _VERB:
                    # 防止…发生 → 防止…不发生: the hidden negation doubles up
                    pos = tokens[m].char_start
                    out.append((pos, pos, inserts))
                    break
    p = roles.predicate_index()
    if doubles and p is not None and p > 0 and tokens[p - 1].surface in negators:
        if p < 2 or tokens[p - 2].surface not in negators:
            pos = tokens[p - 1].char_start
            out.append((pos, pos, doubles))
    return out


def _cand_reverse_host_guest(sentence, roles, resources):
    tokens = sentence.tokens
    out = []
    for k, tok in enumerate(tokens):
        if tok.tag is not _ADP or tok.surface not in resources._hostguest_set:
            continue
        a = k
        while a - 1 >= 0 and tokens[a - 1].tag in _PHRASE_TAGS:
            a -= 1
        b = _adp_phrase(sentence, k)
        if a == k or b == k + 1:
            continue
        left = _span(sentence, a, k)
        right = _span(sentence, k + 1, b)
        out.append(_swap(sentence.text, left, right))
    return out


def _cand_imposing_cause_effect(sentence, roles, resources):
    text = sentence.text
    if "因为" in text or "所以" in text or "，" not in text:
        return []
    if not any(trigger in text for trigger in resources.causal_triggers):
        return []
    comma = text.index("，")
    return [(0, comma + 1, "因为" + text[: comma + 1] + "所以")]


# --- MissingComponent ----------------------------------------------------


def _delete_candidate(sentence, token_range):
    a, b = _span(sentence, *token_range)
    if (a, b) == (0, len(sentence.text)):  # the deletion would empty the text
        return []
    return [(a, b, "")]


def _lack_role_candidates(sentence, roles, resources, role):
    first = roles.first(role)
    if first is None:
        return []
    return _delete_candidate(sentence, first)


def _cand_lack_object(sentence, roles, resources):
    obj = roles.first(Role.OBJECT)
    if obj is None:
        return []
    i, j = obj
    if i > 0 and _is_de(sentence.tokens[i - 1]):
        # delete the 的-phrase head, leaving the attribute dangling
        i -= 1
    return _delete_candidate(sentence, (i, j))


def _cand_lack_modifier(sentence, roles, resources):
    essential = resources._word_sets.get("essential_modifier", ())
    out = []
    for k, tok in enumerate(sentence.tokens):
        if tok.surface in essential:
            out.extend(_delete_candidate(sentence, (k, k + 1)))
    return out


# --- RedundantComponent --------------------------------------------------


def _insertion_candidates(sentence, roles, resources, table):
    """Insert after a token a word of its row in `table`, a RuleResources field."""
    rows = getattr(resources, table)
    out = []
    for tok in sentence.tokens:
        words = tuple(w for w in rows.get(tok.surface, []) if w != tok.surface)
        if words:
            out.append((tok.char_end, tok.char_end, words))
    return out


# --- ImproperCollocation -------------------------------------------------


def _replace_word_candidate(sentence, index, wrong):
    tok = sentence.tokens[index]
    return (tok.char_start, tok.char_end, tuple(wrong))


def _side_member(c, left, right):
    """Index of the member that collocation row c's side names: token left
    or token right. A rule that has yet to find the left word passes None."""
    return left if c.side == "left" else right


def _find_after(sentence, start, end, surface):
    for m in range(start, end):
        if sentence.tokens[m].surface == surface:
            return m
    return None


def _cand_subject_predicate(sentence, roles, resources):
    p = roles.predicate_index()
    subject = roles.first(Role.SUBJECT)
    if p is None or subject is None:
        return []
    subj_words = _surfaces_in(sentence, subject)
    index = resources._collocation_index.get("subject_predicate", {})
    out = []
    for c in _matching_rows(resources.collocations, index, (sentence.tokens[p].surface,)):
        if c.left in subj_words:
            i = _side_member(c, None, p)
            if i is None:
                i = _find_after(sentence, subject[0], subject[1], c.left)
            out.append(_replace_word_candidate(sentence, i, c.wrong))
    return out


def _cand_predicate_object(sentence, roles, resources):
    p = roles.predicate_index()
    if p is None:
        return []
    cs, ce = _clause_of(sentence, p)
    index = resources._collocation_index.get("predicate_object", {})
    out = []
    for c in _matching_rows(resources.collocations, index, (sentence.tokens[p].surface,)):
        m = _find_after(sentence, p + 1, ce, c.right)
        if m is None:
            continue
        out.append(_replace_word_candidate(sentence, _side_member(c, p, m), c.wrong))
    return out


def _cand_subject_object(sentence, roles, resources):
    p = roles.predicate_index()
    subject = roles.first(Role.SUBJECT)
    if p is None or subject is None:
        return []
    cs, ce = _clause_of(sentence, p)
    subj_words = _surfaces_in(sentence, subject)
    index = resources._collocation_index.get("subject_object", {})
    out = []
    for c in _matching_rows(resources.collocations, index, subj_words):
        m = _find_after(sentence, p + 1, ce, c.right)
        if m is None:
            continue
        i = _side_member(c, None, m)
        if i is None:
            i = _find_after(sentence, subject[0], subject[1], c.left)
        out.append(_replace_word_candidate(sentence, i, c.wrong))
    return out


def _cand_modifier_head(sentence, roles, resources):
    tokens = sentence.tokens
    index = resources._collocation_index.get("modifier_head", {})
    out = []
    for c in _matching_rows(resources.collocations, index, {t.surface for t in tokens}):
        for k, tok in enumerate(tokens):
            if tok.surface != c.left:
                continue
            # head within two tokens so a linking 的 may intervene
            for m in range(k + 1, min(k + 3, len(tokens))):
                if tokens[m].surface == c.right:
                    out.append(_replace_word_candidate(sentence, _side_member(c, k, m), c.wrong))
                    break
    return out


def _cand_connectives(sentence, roles, resources):
    tokens = sentence.tokens
    index = resources._connective_index
    out = []
    for pair in _matching_rows(resources.connective_pairs, index, {t.surface for t in tokens}):
        for i, tok in enumerate(tokens):
            if tok.surface != pair.first:
                continue
            for j in range(i + 1, len(tokens)):
                if tokens[j].surface == pair.second:
                    out.append(_replace_word_candidate(sentence, j, pair.wrong))
                    break
            break
    return out


# --- ImproperWordOrder ---------------------------------------------------

_MODIFIER_TAGS = frozenset(
    {POSTag.ADJ, POSTag.NOUN, POSTag.PROPN, POSTag.NUM, POSTag.ADV, POSTag.PRON}
)


def _cand_multi_attributives(sentence, roles, resources):
    tokens = sentence.tokens
    out = []
    for k in range(len(tokens) - 4):
        w1, de1, w2, de2, head = tokens[k : k + 5]
        if (
            w1.tag in _MODIFIER_TAGS
            and _is_de(de1)
            and w2.tag in _MODIFIER_TAGS
            and _is_de(de2)
            and head.tag in NOMINAL_TAGS
            and w1.surface != w2.surface
        ):
            out.append(
                _swap(sentence.text, _span(sentence, k, k + 1), _span(sentence, k + 2, k + 3))
            )
    return out


def _cand_multi_adverbials(sentence, roles, resources):
    p = roles.predicate_index()
    if p is None:
        return []
    tokens = sentence.tokens
    out = []
    for k in range(p - 1):
        a, b = tokens[k], tokens[k + 1]
        if a.tag is _ADV and b.tag is _ADV and a.surface != b.surface:
            out.append(
                _swap(sentence.text, _span(sentence, k, k + 1), _span(sentence, k + 1, k + 2))
            )
    return out


def _cand_attributive_head(sentence, roles, resources):
    tokens = sentence.tokens
    out = []
    for a, b in roles.ranges(Role.ATTRIBUTE):
        h = b
        while h < len(tokens) and tokens[h].tag is _ADJ:
            h += 1
        e = h
        while e < len(tokens) and tokens[e].tag in NOMINAL_TAGS:
            e += 1
        if e == h:  # no nominal head follows the attribute
            continue
        out.append(_swap(sentence.text, _span(sentence, a, b), _span(sentence, b, e)))
    return out


def _cand_prepositions(sentence, roles, resources):
    tokens = sentence.tokens
    p = roles.predicate_index()
    if p is None:
        return []
    subject = roles.first(Role.SUBJECT) or (0, 0)
    out = []
    for k, tok in enumerate(tokens):
        if tok.tag is not _ADP:
            continue
        j = _adp_phrase(sentence, k)
        phrase = _span(sentence, k, j)
        if k > p:
            # move a post-predicate ADP phrase in front of the predicate
            out.append(_swap(sentence.text, (tokens[p].char_start, phrase[0]), phrase))
        # swap the phrase with the adverb/auxiliary run just before it
        r = k
        while (
            r - 1 >= 0
            and (
                tokens[r - 1].tag in (_ADV, _X)
                or (
                    tokens[r - 1].tag is _PRON
                    and not subject[0] <= r - 1 < subject[1]
                )
            )
        ):
            r -= 1
        if r < k:
            out.append(_swap(sentence.text, _span(sentence, r, k), phrase))
    return out


def _cand_connectives_subject(sentence, roles, resources):
    tokens = sentence.tokens
    out = []
    for cs, ce in _clauses(sentence):
        if cs >= ce or tokens[cs].tag not in NOMINAL_TAGS:
            continue
        j = cs
        while j < ce and tokens[j].tag in NOMINAL_TAGS:
            j += 1
        if j < ce and tokens[j].tag is _CCONJ:
            out.append(_swap(sentence.text, _span(sentence, cs, j), _span(sentence, j, j + 1)))
    return out


def _cand_associated_words(sentence, roles, resources):
    tokens = sentence.tokens
    out = []
    for k in range(len(tokens) - 1):
        if tokens[k].tag is _ADV and tokens[k + 1].tag is _VERB:
            out.append(
                _swap(sentence.text, _span(sentence, k, k + 1), _span(sentence, k + 1, k + 2))
            )
    return out


def _cand_adverbial_attributives(sentence, roles, resources):
    out = []
    for adv in roles.ranges(Role.ADVERBIAL):
        for attr in roles.ranges(Role.ATTRIBUTE):
            lo, hi = sorted([adv, attr])
            if lo[1] > hi[0]:
                continue
            out.append(_swap(sentence.text, _span(sentence, *adv), _span(sentence, *attr)))
    return out


# Fine rule id -> candidate function (sentence, roles, resources) -> the
# rule's candidate edits, a fresh list in site order. FINE_TO_COARSE gives
# each id's category.
RULE_REGISTRY: dict[str, Callable[..., list[Candidate]]] = {
    "MixedPatterns": partial(_mixed_candidates, kind="pattern"),
    "MixedSubjects": _cand_mixed_subjects,
    "MixedSentences": partial(_mixed_candidates, kind="sentence"),
    "MeasureWord": _cand_measure_word,
    "Unreasonable": _cand_unreasonable,
    "ImproperNegation": _cand_improper_negation,
    "ReverseHostGuest": _cand_reverse_host_guest,
    "ImposingCauseAndEffect": _cand_imposing_cause_effect,
    "LackSubject": partial(_lack_role_candidates, role=Role.SUBJECT),
    "LackPredicate": partial(_lack_role_candidates, role=Role.PREDICATE),
    "LackObject": _cand_lack_object,
    "LackModifier": _cand_lack_modifier,
    "MultiWords": partial(_insertion_candidates, table="synonyms"),
    "MultiMeanings": partial(_insertion_candidates, table="meaning_pairs"),
    "SubjectPredicate": _cand_subject_predicate,
    "PredicateObject": _cand_predicate_object,
    "SubjectObject": _cand_subject_object,
    "ModifierHeadWord": _cand_modifier_head,
    "Connectives": _cand_connectives,
    "MultiAttributives": _cand_multi_attributives,
    "MultiAdverbials": _cand_multi_adverbials,
    "AttributiveHeadWord": _cand_attributive_head,
    "Prepositions": _cand_prepositions,
    "ConnectivesSubject": _cand_connectives_subject,
    "AssociatedWords": _cand_associated_words,
    "AdverbialAttributives": _cand_adverbial_attributives,
}


def apply_fine_rule(
    sentence: TaggedSentence,
    roles: RoleSpans,
    resources: RuleResources,
    rng: random.Random,
    fine_id: str,
) -> EditSpan | None:
    """Apply one fine-grained rule: the edit it made to sentence.text, or
    None when it does not match.

    Picks one of the rule's candidate edits uniformly and draws its word
    when it carries a word pool. The edit is trimmed to its changed window
    (`core.trim_edit`): the characters its slice and its piece share at
    either end are cut off. An edit that leaves the text unchanged counts
    as a non-match, and the pick is made again among the remaining
    candidates.
    """
    if fine_id not in RULE_REGISTRY:
        raise KeyError(f"unknown rule id: {fine_id}")
    candidates = RULE_REGISTRY[fine_id](sentence, roles, resources)
    while candidates:
        start, end, piece = candidates.pop(_choice(rng, range(len(candidates))))
        if isinstance(piece, tuple):
            piece = _choice(rng, piece)
        edit = trim_edit(sentence.text, start, end, piece)
        if edit is not None:
            return edit
    return None
