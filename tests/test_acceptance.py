"""Acceptance suite: one test per shipping criterion.

Each test emits `ACCEPTANCE <n> <slug>: PASS|FAIL` (shown in the run
summary via conftest, since capture hides per-test prints) and then
asserts, so a red criterion is both visible and fatal.
"""

import io
import random
import time

from cgeckit.cli import run
from cgeckit.core import CorpusPair, ErrorType, apply_edits, diff_edits
from cgeckit.generator import (
    AugmentConfig,
    GenConfig,
    augment_corpus,
    generate_corpus,
)
from cgeckit.lm import BOUNDARY, UNK, LMConfig, filter_percentile, train_lm
from cgeckit.metrics import (
    ScoreParams,
    corpus_stats,
    extract_system_edits,
    fleiss_kappa,
    levenshtein,
    parse_m2,
    score_corpus,
    write_m2,
)
from cgeckit.resources import default_resources_dir, load_resources
from cgeckit.rules import RULE_REGISTRY
from cgeckit.tagging import _shipped
# pytest loads tests/conftest.py as top-level `conftest`; import it the same
# way so verdicts land in the instance the summary hook reads.
from conftest import record_verdict
from tests.oracles import best_edit_set, enumerate_edit_sets, f_beta, levenshtein_recursive, score_oracle

RES = load_resources()


def fixture_sentences():
    with open(_shipped("fixtures/correct_sentences.txt"), encoding="utf-8") as fh:
        return [line.strip() for line in fh if line.strip()]


def verdict(number: int, slug: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {slug}: {'PASS' if ok else 'FAIL'}")
    record_verdict(number, slug, ok)
    assert ok, f"acceptance criterion {number} ({slug}) failed"


def test_acceptance_01_m2_oracle_equivalence():
    rng = random.Random(424242)
    alphabet = "abxy"
    started = time.time()
    ok = True

    def random_gold(src, hyp, max_unchanged, limit):
        reachable = enumerate_edit_sets(src, hyp, max_unchanged)
        if rng.random() < 0.5 and any(reachable):
            picked = rng.choice(reachable)
            if picked and rng.random() < 0.5:
                picked = rng.sample(picked, rng.randint(1, len(picked)))
            return set(picked)
        return {
            (lo := rng.randint(0, len(src)), rng.randint(lo, len(src)), rng.choice(alphabet))
            for _ in range(rng.randint(0, limit))
        }

    # Extraction equals brute-force enumeration on 500 randomized cases.
    for _ in range(500):
        src = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
        max_unchanged = rng.randint(0, 2)
        gold = random_gold(src, hyp, max_unchanged, 3)
        got = extract_system_edits(src, hyp, [frozenset(gold)], ScoreParams(max_unchanged=max_unchanged))[0]
        ok = ok and list(got) == best_edit_set(src, hyp, gold, max_unchanged)

    # Corpus scoring (annotator selection + conventions) equals the oracle.
    for _ in range(40):
        blocks, hyps, per_sentence = [], [], []
        for _ in range(rng.randint(1, 6)):
            src = [rng.choice(alphabet) for _ in range(rng.randint(1, 6))]
            hyp = [rng.choice(alphabet) for _ in range(rng.randint(0, 6))]
            hyps.append(" ".join(hyp))
            lines = ["S " + " ".join(src)]
            annotators = []
            for annotator in range(rng.randint(1, 3)):
                gold = sorted(random_gold(src, hyp, 2, 2))
                if gold:
                    for start, end, corr in gold:
                        lines.append(
                            f"A {start} {end}|||T|||{corr}|||REQUIRED|||-NONE-|||{annotator}"
                        )
                else:
                    lines.append(f"A 0 0|||noop|||-NONE-|||REQUIRED|||-NONE-|||{annotator}")
                system = best_edit_set(src, hyp, set(gold), 2)
                tp = len(set(system) & set(gold))
                annotators.append((tp, len(system) - tp, len(gold) - tp))
            per_sentence.append(annotators)
            blocks.append("\n".join(lines))
        report = score_corpus(hyps, io.StringIO("\n\n".join(blocks) + "\n"))
        tp, fp, fn, chosen = score_oracle(per_sentence)
        ok = ok and (report.tp, report.fp, report.fn) == (tp, fp, fn)
        ok = ok and list(report.chosen_annotators) == chosen
        precision = 1.0 if tp + fp == 0 else tp / (tp + fp)
        recall = 1.0 if tp + fn == 0 else tp / (tp + fn)
        ok = ok and abs(report.precision - precision) < 1e-12
        ok = ok and abs(report.recall - recall) < 1e-12
        ok = ok and abs(report.f_beta - float(f_beta(tp, fp, fn))) < 1e-12

    ok = ok and (time.time() - started) < 60
    verdict(1, "m2-oracle-equivalence", ok)


def test_acceptance_02_perfect_system_scores_one():
    pairs, _ = generate_corpus(fixture_sentences(), GenConfig(seed=42), RES)
    buffer = io.StringIO()
    write_m2(pairs, buffer)
    gold = parse_m2(io.StringIO(buffer.getvalue()))
    report = score_corpus(
        [p.correct for p in pairs],
        gold,
        ScoreParams(char_tokenize=True),
    )
    ok = len(pairs) > 0
    ok = ok and report.precision == 1.0 and report.recall == 1.0 and report.f_beta == 1.0
    ok = ok and f"{report.f_beta:.4f}" == "1.0000"
    verdict(2, "perfect-system-score", ok)


def test_acceptance_03_all_pairs_round_trip():
    pairs, _ = generate_corpus(
        fixture_sentences(), GenConfig(seed=7, per_sentence=26), RES
    )
    ok = len(pairs) > 500
    for pair in pairs:
        ok = ok and apply_edits(pair.incorrect, pair.edits) == pair.correct
    verdict(3, "round-trip", ok)


def test_acceptance_04_every_rule_fires():
    _, report = generate_corpus(
        fixture_sentences(), GenConfig(seed=0, per_sentence=26), RES
    )
    fired = {rule for rule, count in report.rule_fires.items() if count > 0}
    verdict(4, "rule-coverage", fired == set(RULE_REGISTRY))


def test_acceptance_05_cli_generate_determinism(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(fixture_sentences()) + "\n", encoding="utf-8")
    ok = True
    for repetition in range(3):
        outputs = []
        for name, workers in [("a", "1"), ("b", "1"), ("w", "8")]:
            out = tmp_path / f"{repetition}-{name}.jsonl"
            code = run(
                [
                    "generate",
                    "--input", str(corpus),
                    "--output", str(out),
                    "--resources", str(default_resources_dir()),
                    "--seed", "42",
                    "--workers", workers,
                ]
            )
            ok = ok and code == 0
            outputs.append(out.read_bytes())
        ok = ok and outputs[0] == outputs[1] == outputs[2] and len(outputs[0]) > 0
    verdict(5, "generate-determinism", ok)


def test_acceptance_06_levenshtein_oracle():
    rng = random.Random(20260814)
    alphabet = "ab字天气候"
    ok = True
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        ops = levenshtein(a, b)
        ok = ok and ops.distance == levenshtein_recursive(a, b)
        ok = ok and ops.replace + ops.insert + ops.delete == ops.distance
    verdict(6, "levenshtein-oracle", ok)


def test_acceptance_07_lm_normalization_and_filter():
    model = train_lm(fixture_sentences(), LMConfig(n=3, alpha=1.0))
    symbols = sorted(model.chars) + [UNK, BOUNDARY]
    ok = len(model.contexts) > 0
    for context in model.contexts:
        total = sum(model.probability(context + (symbol,)) for symbol in symbols)
        ok = ok and abs(total - 1.0) <= 1e-9
    synthetic = [f"句子{i}好" for i in range(1000)]
    kept = filter_percentile(synthetic, model, 90)
    ok = ok and len(kept) == 900
    verdict(7, "lm-normalization-and-filter", ok)


def test_acceptance_08_augment_frequencies():
    corpus = ["字" * 200] * 500
    _, report = augment_corpus(corpus, AugmentConfig(seed=12345))
    ok = report.words_seen >= 100_000
    for op, expected in [("keep", 0.70), ("insert", 0.10), ("replace", 0.10), ("delete", 0.10)]:
        ok = ok and abs(report.op_counts[op] / report.words_seen - expected) <= 0.01
    verdict(8, "augment-frequencies", ok)


def test_acceptance_09_fleiss_kappa():
    ok = fleiss_kappa([[4, 0], [0, 4], [4, 0]]) == 1.0
    ok = ok and abs(fleiss_kappa([[2, 0], [1, 1]]) + 1 / 3) <= 1e-9
    verdict(9, "fleiss-kappa", ok)


def test_acceptance_10_stats_schema_fidelity():
    def pair(pid, incorrect, correct, fine):
        return CorpusPair(
            id=pid,
            incorrect=incorrect,
            correct=correct,
            edits=diff_edits(incorrect, correct),
            error_types=(ErrorType.from_fine(fine),),
            rule_id=fine,
            seed=0,
        )

    pairs = [
        pair("p0", "天天看书看报看比", "天天看书看报", "MultiWords"),
        pair("p1", "他说的话不太便当", "他说的话不太方便", "MixedPatterns"),
    ]
    stats = corpus_stats(pairs).to_dict()
    ok = list(stats) == [
        "Number of Sentences",
        "Erroneous Sentences",
        "Number of References",
        "Average Length (Char.)",
        "Edit Distance (Char.)",
        "References / Sentence",
    ]
    ok = ok and stats["Number of Sentences"] == 2
    ok = ok and stats["Erroneous Sentences"] == 2
    ok = ok and stats["Number of References"] == 2
    ok = ok and stats["Average Length (Char.)"] == 8.0
    ok = ok and stats["Edit Distance (Char.)"] == 2.0
    ok = ok and stats["References / Sentence"] == 1.0
    table = corpus_stats(pairs).per_type
    ok = ok and set(table) == {"Redundant Component", "Structural Confusion"}
    for row in table.values():
        ok = ok and list(row) == ["Replace", "Insert", "Delete", "Total"]
    ok = ok and table["Redundant Component"] == {
        "Replace": 0.0,
        "Insert": 0.0,
        "Delete": 2.0,
        "Total": 2.0,
    }
    ok = ok and table["Structural Confusion"] == {
        "Replace": 2.0,
        "Insert": 0.0,
        "Delete": 0.0,
        "Total": 2.0,
    }
    verdict(10, "stats-schema-fidelity", ok)
