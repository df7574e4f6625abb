"""Score correction systems against M2 gold annotations.

Builds a small gold file from generated pairs, then scores three
systems: one that fixes everything, one that does nothing, and one
that fixes half. Also shows word-level MaxMatch edit extraction on
its own, including the merge behavior that makes it "max match".
"""

import io

from cgeckit import (
    GenConfig,
    ScoreParams,
    extract_system_edits,
    format_score,
    generate_corpus,
    load_resources,
    score_corpus,
    write_m2,
)

SENTENCES = [
    "食用水果前应该洗净削皮",
    "学校共有五十名学生",
    "集团向社会各界人士表示歉意",
    "学生对这个问题很感兴趣",
    "我非常喜欢苹果",
    "昨天是转会的最后一天",
]

resources = load_resources()
pairs, _ = generate_corpus(SENTENCES, GenConfig(seed=5), resources)

# Step 1: serialize gold annotations. Chinese corpora are scored at the
# character level, so S lines hold one character per token.
gold = io.StringIO()
write_m2(pairs, gold)
print("gold M2 (first block):")
print(gold.getvalue().split("\n\n")[0])

# Step 2: score system outputs, one per gold sentence. The scorer reads
# each source sentence from its S line, so it needs only the outputs.
params = ScoreParams(char_tokenize=True)

# A perfect system outputs the reference corrections.
print("perfect system:")
print(format_score(score_corpus([p.correct for p in pairs], io.StringIO(gold.getvalue()), params)))

# A system that copies its input earns recall 0; precision is 1 by
# convention when no edits are proposed at all.
print("do-nothing system:")
print(format_score(score_corpus([p.incorrect for p in pairs], io.StringIO(gold.getvalue()), params)))

# Fixing only the even sentences: precision stays perfect, recall drops.
half = [p.correct if i % 2 == 0 else p.incorrect for i, p in enumerate(pairs)]
print("half-fixed system:")
print(format_score(score_corpus(half, io.StringIO(gold.getvalue()), params)))

# Step 3: extraction on its own, word-level. The hypothesis differs in
# two places separated by one unchanged token. Extraction gives the
# system the benefit of the doubt: whichever grouping of its changes
# matches gold best is the one that gets scored.
src = "the cat sit on mat".split()
hyp = "the cat sat on the mat".split()
p1 = ScoreParams(max_unchanged=1)
# One walk extracts against each gold set given; here, one set each.
one_span = frozenset({(2, 4, "sat on the")})
two_edits = frozenset({(2, 3, "sat"), (4, 4, "the")})
print("gold annotated as one span :", extract_system_edits(src, hyp, [one_span], p1)[0])
print("gold annotated as two edits:", extract_system_edits(src, hyp, [two_edits], p1)[0])
