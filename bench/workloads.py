"""Seeded input builders for the benchmark workloads.

Everything here is a pure function of the seed and of the package's shipped
data files, so the same seed always gives byte-identical inputs. The
program under test only ever sees the files written by `build`.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

# CJK Unified Ideographs; padding words and the gold corruptor's inserted
# characters come from the part of this block the package data never uses.
_CJK = range(0x4E00, 0xA000)

LONG_MIN, LONG_MAX = 100, 300  # char length band of the long sentences


@dataclass(frozen=True)
class Spec:
    """Sizes and settings of one workload."""

    lines: int  # clean synthesis input lines; noise lines come on top
    long_lines: bool  # synthesis input is 100-300 char sentences
    table_scale: int  # resource tables padded to this many times their rows
    gold_short: int  # short sentences in the score corpus
    gold_long: int  # 100-300 char sentences in the score corpus


# Why each workload exists is in README.md; sizes keep one pass at a few
# seconds so a run holds several passes.
WORKLOADS: dict[str, Spec] = {
    "synth-short": Spec(lines=800, long_lines=False, table_scale=100,
                        gold_short=120, gold_long=0),
    "synth-long": Spec(lines=20, long_lines=True, table_scale=1,
                       gold_short=360, gold_long=6),
}


@dataclass
class Inputs:
    """Paths of one workload's generated files plus what the checks need."""

    corpus: str
    tables: str
    m2: str
    hyp: str
    control_m2: str
    control_hyp: str
    n_lines: int
    n_gold: int


def data_dir(src: str) -> str:
    return os.path.join(src, "cgeckit", "data")


def _read_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh if line.strip()]


def foreign_chars(src: str) -> list[str]:
    """CJK characters that occur in no shipped data file (corpus, lexicon,
    resource tables), in code point order."""
    data = data_dir(src)
    paths = [os.path.join(data, "fixtures", "correct_sentences.txt"), os.path.join(data, "lexicon.tsv")]
    res = os.path.join(data, "resources")
    paths += [os.path.join(res, name) for name in sorted(os.listdir(res))]
    used: set[str] = set()
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            used.update(fh.read())
    return [chr(c) for c in _CJK if chr(c) not in used]


def long_sentences(fixtures: list[str], count: int, rng: random.Random) -> list[str]:
    """`count` sentences of LONG_MIN..LONG_MAX chars, fixtures joined by `，`.

    Target lengths are evenly spaced over the band and shuffled, so the
    total diff cost of a draw barely depends on the seed.
    """
    longest = max(len(s) for s in fixtures) + 1
    top = LONG_MAX - longest
    targets = [LONG_MIN + (top - LONG_MIN) * (k + 0.5) / count for k in range(count)]
    rng.shuffle(targets)
    out = []
    for target in targets:
        text = rng.choice(fixtures)
        while len(text) < target:
            text += "，" + rng.choice(fixtures)
        out.append(text)
    return out


# --- padded resource tables ------------------------------------------------


class _Words:
    """Distinct 2-3 character words over the foreign characters."""

    def __init__(self, pool: list[str], rng: random.Random):
        self.pool, self.rng, self.seen = pool, rng, set()

    def __call__(self) -> str:
        while True:
            word = "".join(self.rng.choice(self.pool) for _ in range(self.rng.randint(2, 3)))
            if word not in self.seen:
                self.seen.add(word)
                return word


def _pad_row(name: str, cols: list[str], w: _Words) -> str:
    """A row shaped like `cols` whose match keys no sentence can contain."""
    if name == "mixed_patterns.tsv":
        return f"{cols[0]}\t{w()}\t{w()}"
    if name == "logic_patterns.tsv":
        return f"subsume\t{w()}\t{w()}" if cols[0] == "subsume" else f"{cols[0]}\t{w()}"
    if name == "collocations.tsv":
        return f"{cols[0]}\t{w()}\t{w()}\t{w()},{w()}\t{cols[4]}"
    if name == "synonyms.tsv":
        return "\t".join([w(), f"{w()},{w()}"] + cols[2:])
    if name == "connectives.tsv":
        return f"{w()}\t{w()}\t{w()},{w()}"
    if name == "function_words.tsv":
        # Rules read function words by category and draw insertions from
        # some categories, so padding goes into a category no rule reads.
        return f"benchmark_padding\t{w()}"
    raise ValueError(f"no padding rule for {name}")


def write_tables(src: str, out_dir: str, scale: int, pool: list[str], rng: random.Random) -> None:
    """Copy the shipped tables to out_dir, padded to `scale` times their rows."""
    shipped = os.path.join(data_dir(src), "resources")
    os.makedirs(out_dir, exist_ok=True)
    words = _Words(pool, rng)
    for name in sorted(os.listdir(shipped)):
        with open(os.path.join(shipped, name), encoding="utf-8") as fh:
            text = fh.read()
        rows = [
            line.split("\t")
            for line in text.splitlines()
            if line and not line.startswith("#")
        ]
        padding = [_pad_row(name, rows[k % len(rows)], words) for k in range((scale - 1) * len(rows))]
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
            fh.writelines(row + "\n" for row in padding)


# --- multi-annotator gold --------------------------------------------------


def _distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        row = [i]
        for j, cb in enumerate(b, 1):
            row.append(min(prev[j - 1] + (ca != cb), row[j - 1] + 1, prev[j] + 1))
        prev = row
    return prev[-1]


def corrupt(correct: str, pool: list[str], rng: random.Random):
    """Seeded character corruption of `correct`.

    Returns (source, edits): edits are (start, end, correction) char spans
    of the source that restore `correct`, one per corruption. Corruptions
    sit at least five characters apart and use characters foreign to the
    text, and the draw is repeated until the edit count is the exact edit
    distance, so the edits lie on a minimal alignment that MaxMatch can
    recover from a perfect hypothesis.
    """
    slots = list(range(0, len(correct), 5))
    count = min(len(slots), max(2, round(len(correct) / 25)))
    while True:
        chosen = sorted(rng.sample(slots, count))
        pieces, edits, pos, shift = [], [], 0, 0
        for p in chosen:
            pieces.append(correct[pos:p])
            at = p + shift
            op = rng.choice(("replace", "extra", "missing"))
            if op == "replace":
                pieces.append(rng.choice(pool))
                edits.append((at, at + 1, correct[p]))
                pos = p + 1
            elif op == "extra":
                pieces.append(rng.choice(pool))
                edits.append((at, at + 1, ""))
                pos, shift = p, shift + 1
            else:
                edits.append((at, at, correct[p]))
                pos, shift = p + 1, shift - 1
        pieces.append(correct[pos:])
        source = "".join(pieces)
        if _distance(source, correct) == count:
            return source, edits


def apply_spans(text: str, edits) -> str:
    for start, end, correction in reversed(edits):
        text = text[:start] + correction + text[end:]
    return text


def _m2_block(source: str, edits, annotators: bool) -> str:
    lines = ["S " + " ".join(source)]
    for start, end, corr in edits:
        lines.append(f"A {start} {end}|||R|||{' '.join(corr)}|||REQUIRED|||-NONE-|||0")
    if annotators:
        # Annotator 1: one merged span over all corruptions.
        lo, hi = edits[0][0], edits[-1][1]
        merged = apply_spans(source[lo:hi], [(s - lo, e - lo, c) for s, e, c in edits])
        lines.append(f"A {lo} {hi}|||R|||{' '.join(merged)}|||REQUIRED|||-NONE-|||1")
        # Annotator 2: the source needs no correction.
        lines.append("A 0 0|||noop|||-NONE-|||REQUIRED|||-NONE-|||2")
    return "\n".join(lines) + "\n\n"


def _hyp_kinds(texts: list[str], rng: random.Random) -> list[str]:
    """50% perfect, 20% unchanged, 30% partial hypotheses, in those exact
    shares within every block of ten sentences of similar length, so the
    scorer's cost does not hinge on which lengths the seed makes partial."""
    order = sorted(range(len(texts)), key=lambda i: len(texts[i]))
    kinds = [""] * len(texts)
    for lo in range(0, len(order), 10):
        block = order[lo : lo + 10]
        shares = ["perfect"] * round(len(block) * 0.5) + ["unchanged"] * round(len(block) * 0.2)
        shares += ["partial"] * (len(block) - len(shares))
        rng.shuffle(shares)
        for index, kind in zip(block, shares):
            kinds[index] = kind
    return kinds


def write_gold(correct: list[str], pool, rng, m2: str, hyp: str, control_m2: str, control_hyp: str) -> None:
    """3-annotator char-level M2 gold plus hypotheses.

    The control files hold only the perfect hypotheses, scored against the
    same gold, so a correct scorer must give P = R = F = 1 on them.
    """
    kinds = _hyp_kinds(correct, rng)
    blocks, hyps, control_blocks, control_hyps = [], [], [], []
    for text, kind in zip(correct, kinds):
        source, edits = corrupt(text, pool, rng)
        block = _m2_block(source, edits, annotators=True)
        if kind == "perfect":
            hypothesis = text
            control_blocks.append(block)
            control_hyps.append(text)
        elif kind == "unchanged":
            hypothesis = source
        else:
            keep = sorted(rng.sample(range(len(edits)), math.ceil(len(edits) / 2)))
            hypothesis = apply_spans(source, [edits[k] for k in keep])
        blocks.append(block)
        hyps.append(hypothesis)
    for path, content in ((m2, "".join(blocks)), (hyp, "\n".join(hyps) + "\n"),
                          (control_m2, "".join(control_blocks)),
                          (control_hyp, "\n".join(control_hyps) + "\n")):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


# --- one workload ----------------------------------------------------------


def build(name: str, seed: int, src: str, work: str) -> Inputs:
    """Write every input file of workload `name` under `work`."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}")
    fixtures = _read_lines(os.path.join(data_dir(src), "fixtures", "correct_sentences.txt"))
    pool = foreign_chars(src)
    os.makedirs(work, exist_ok=True)

    if spec.long_lines:
        sentences = long_sentences(fixtures, spec.lines, rng)
    else:
        sentences = [rng.choice(fixtures) for _ in range(spec.lines)]
    # Noise lines of foreign characters make up the 10% that `filter --keep
    # 90` drops (ceil(0.9 * (n + n // 9)) == n), so the sentences the later
    # stages see do not depend on which clean lines the LM happens to rank
    # last.
    sentences += [
        "".join(rng.choice(pool) for _ in range(len(rng.choice(sentences))))
        for _ in range(spec.lines // 9)
    ]
    rng.shuffle(sentences)
    corpus = os.path.join(work, "corpus.txt")
    with open(corpus, "w", encoding="utf-8") as fh:
        fh.writelines(s + "\n" for s in sentences)

    tables = os.path.join(work, "tables")
    write_tables(src, tables, spec.table_scale, pool, rng)

    gold = [rng.choice(fixtures) for _ in range(spec.gold_short)]
    gold += long_sentences(fixtures, spec.gold_long, rng)
    rng.shuffle(gold)
    paths = {k: os.path.join(work, k) for k in ("gold.m2", "hyp.txt", "control.m2", "control.txt")}
    write_gold(gold, pool, rng, *paths.values())
    return Inputs(
        corpus=corpus, tables=tables, m2=paths["gold.m2"], hyp=paths["hyp.txt"],
        control_m2=paths["control.m2"], control_hyp=paths["control.txt"],
        n_lines=len(sentences), n_gold=len(gold),
    )
