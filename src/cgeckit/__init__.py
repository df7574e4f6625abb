"""Corpus synthesis and evaluation toolkit for Chinese grammatical error correction."""

from cgeckit.core import (
    CgecError,
    ConfigError,
    CoarseType,
    CorpusPair,
    EditSpan,
    ErrorType,
    FINE_TO_COARSE,
    POSTag,
    ParseError,
    SyntacticRole,
    TaggedSentence,
    Token,
    ValidationError,
    apply_edits,
    diff_edits,
    pair_from_json,
    pair_to_json,
    read_pairs,
    report_json,
)
from cgeckit.generator import (
    AugmentConfig,
    AugmentReport,
    GenConfig,
    GenerationReport,
    augment_corpus,
    derive_seed,
    generate_corpus,
    generate_pair,
    stream_augment_lines,
    stream_generate,
)
from cgeckit.lm import (
    LMConfig,
    NGramModel,
    filter_percentile,
    load_lm,
    perplexity,
    save_lm,
    train_lm,
)
from cgeckit.metrics import (
    EditOps,
    GoldEdit,
    M2Sentence,
    ScoreParams,
    ScoreReport,
    StatsReport,
    corpus_stats,
    extract_system_edits,
    fleiss_kappa,
    format_score,
    levenshtein,
    parse_m2,
    score_corpus,
    write_m2,
)
from cgeckit.resources import RuleResources, default_resources_dir, load_resources
from cgeckit.rules import RULE_REGISTRY, apply_fine_rule
from cgeckit.tagging import identify_roles, parse_pretagged, segment_and_tag

__version__ = "0.1.0"
