"""Walk through corrupting correct sentences into training pairs.

Shows the pieces one at a time: segmentation and tagging, role
identification, a single corruption rule, stacked rules, and the
edit round-trip that every emitted pair satisfies.
"""

import random

from cgeckit import (
    GenConfig,
    apply_edits,
    apply_fine_rule,
    generate_pair,
    identify_roles,
    load_resources,
    segment_and_tag,
)

SENTENCES = [
    "食用水果前应该洗净削皮",
    "他喜欢苹果",
    "学校共有五十名学生",
    "我非常喜欢苹果",
    "集团向社会各界人士表示歉意",
]

resources = load_resources()

# Step 1: segment and tag. The builtin tagger is a longest-match
# segmenter over the shipped lexicon, so no external models are needed.
sentence = segment_and_tag(SENTENCES[3])
print("tokens :", " ".join(f"{t.surface}/{t.tag.value}" for t in sentence.tokens))

# Step 2: identify coarse syntactic roles (subject / predicate / object).
roles = identify_roles(sentence)
print("roles  :", {role.value: spans for role, spans in roles.spans.items() if spans})

# Step 3: apply one corruption rule directly. Rules are deterministic
# given the rng. A rule returns the edit it made, (start, end, piece):
# replace text[start:end] with piece. It returns None when it does not apply.
rng = random.Random(7)
edit = apply_fine_rule(sentence, roles, resources, rng, "MultiWords")
print("\nMultiWords corruption:")
print("  correct  :", sentence.text)
print("  edit     :", edit)
if edit is not None:
    start, end, piece = edit
    print("  corrupted:", sentence.text[:start] + piece + sentence.text[end:])

# Step 4: generate_pair draws rules for us and labels the result.
# combine_max=2 lets two rules stack on the same sentence.
config = GenConfig(seed=11, combine_max=2)
for index, text in enumerate(SENTENCES):
    tagged = segment_and_tag(text)
    pair = generate_pair(tagged, identify_roles(tagged), resources, config, index)
    if pair is None:
        print(f"\n[{index}] no applicable rule fired")
        continue
    print(f"\n[{index}] rule={pair.rule_id}")
    print("  incorrect:", pair.incorrect)
    print("  correct  :", pair.correct)
    print("  types    :", [et.fine for et in pair.error_types])
    print("  edits    :", [(e.start, e.end, e.replacement) for e in pair.edits])
    # Every pair carries the edits that repair it; applying them to the
    # corrupted side must reproduce the original text exactly.
    assert apply_edits(pair.incorrect, pair.edits) == pair.correct
print("\nall pairs round-trip")
