"""Run the synthesis pipeline end to end: filter, generate, report.

A noisy seed corpus is cleaned with a character n-gram language model,
then corrupted into labeled pairs, and finally summarized with the
corpus statistics tables.
"""

import json

from cgeckit import (
    GenConfig,
    LMConfig,
    corpus_stats,
    filter_percentile,
    generate_corpus,
    load_resources,
    pair_to_json,
    perplexity,
    train_lm,
)

CLEAN = [
    "食用水果前应该洗净削皮",
    "他喜欢苹果",
    "学校共有五十名学生",
    "大约五十名学生参加了比赛",
    "集团向社会各界人士表示歉意",
    "学校采取措施防止事故发生",
    "我们不赞成这种做法",
    "学生对这个问题很感兴趣",
    "我非常喜欢苹果",
    "昨天是转会的最后一天",
]
# Web-scraped corpora carry junk lines; the LM filter is how they get
# dropped before corruption.
NOISY = CLEAN + ["qwzx qwzx qwzx", "####%%%%@@@@"]

# Step 1: train a character trigram model on trusted text and rank the
# noisy corpus by perplexity. Junk lines land at the bottom.
model = train_lm(CLEAN, LMConfig(n=3, alpha=1.0))
ranked = sorted(NOISY, key=lambda s: perplexity(model, s))
print("best  :", ranked[0], f"(ppl {perplexity(model, ranked[0]):.1f})")
print("worst :", ranked[-1], f"(ppl {perplexity(model, ranked[-1]):.1f})")

kept = filter_percentile(NOISY, model, keep_percent=80)
print(f"\nkept {len(kept)}/{len(NOISY)} sentences at the 80th percentile")
assert all(junk not in kept for junk in NOISY[-2:])

# Step 2: corrupt the survivors. per_sentence asks for three pairs per
# input; attempts where no rule applies are skipped and counted.
pairs, report = generate_corpus(kept, GenConfig(seed=42, per_sentence=3), load_resources())
print(f"\ngenerated {report.pairs_emitted} pairs from {report.sentences_read} sentences"
      f" ({report.skipped} attempts skipped)")
print("rule fires:", dict(sorted(report.rule_fires.items(), key=lambda kv: -kv[1])[:5]), "...")

print("\nsample pair (JSON line):")
print(pair_to_json(pairs[0]))

# Step 3: summarize. These are the tables used to sanity-check a corpus
# before training on it.
print("\ncorpus statistics:")
stats = corpus_stats(pairs)
for label, value in stats.to_dict().items():
    print(f"  {label:<24} {value}")

print("\nedit-type breakdown (character edit counts per coarse type):")
header = f"  {'':<22}" + "".join(f"{c:>9}" for c in ("Replace", "Insert", "Delete", "Total"))
print(header)
for coarse, row in stats.per_type.items():
    print(f"  {coarse:<22}" + "".join(f"{row[c]:>9.2f}" for c in ("Replace", "Insert", "Delete", "Total")))
