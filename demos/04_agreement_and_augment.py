"""Measure annotator agreement, add random word-level noise, and drive
the same operations through the command-line interface.
"""

import tempfile
from pathlib import Path

from cgeckit import (
    AugmentConfig,
    augment_corpus,
    build_word_pool,
    fleiss_kappa,
    segment_and_tag,
)
from cgeckit.cli import run

# Step 1: Fleiss' kappa over an acceptability study. Rows are items,
# columns are categories (here: acceptable / unacceptable), cells count
# the raters who picked that category.
unanimous = [[5, 0], [0, 5], [5, 0], [0, 5]]
print("unanimous raters  :", fleiss_kappa(unanimous))

split = [[4, 1], [2, 3], [3, 2], [5, 0]]
print(f"disagreeing raters: {fleiss_kappa(split):.4f}")

# Step 2: random augmentation. Each word is kept, duplicated-by-insert,
# replaced, or deleted; replacement words come from a pool built from
# the corpus itself.
lines = [
    "食用水果前应该洗净削皮",
    "学校采取措施防止事故发生",
    "学生对这个问题很感兴趣",
]
pool = build_word_pool(segment_and_tag(line) for line in lines)
config = AugmentConfig(word_pool=pool, seed=9)
pairs, report = augment_corpus(lines, config)
print("\naugmented pairs:")
for pair in pairs:
    print(f"  {pair.correct}  ->  {pair.incorrect}")
print("operation counts:", report.op_counts)

# Step 3: the CLI versions. Every library operation above is a
# subcommand, so pipelines can run without writing Python.
with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    # kappa reads one item per line, category counts separated by spaces
    (tmp / "ratings.txt").write_text(
        "\n".join(" ".join(map(str, row)) for row in split) + "\n", encoding="utf-8"
    )
    print("\n$ cgeckit kappa --input ratings.txt")
    run(["kappa", "--input", str(tmp / "ratings.txt")])

    (tmp / "corpus.txt").write_text(
        "\n".join(f"学生对这个问题很感兴趣{i}" for i in range(100)), encoding="utf-8"
    )
    run(["sample", "--input", str(tmp / "corpus.txt"),
         "--output", str(tmp / "sampled.txt"), "--size", "5", "--seed", "1"])
    print("\n$ cgeckit sample --size 5 --seed 1")
    print((tmp / "sampled.txt").read_text(encoding="utf-8"), end="")
