"""Corpus synthesis and evaluation toolkit for Chinese grammatical error correction.

The public names load lazily (PEP 562): `import cgeckit` imports no
submodule, and a name imports its defining module on first use, so a CLI
run compiles only the modules its subcommand uses.
"""

__version__ = "0.1.0"

# Each exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "core": (
            "CgecError",
            "ConfigError",
            "CoarseType",
            "CorpusPair",
            "EditSpan",
            "ErrorType",
            "FINE_TO_COARSE",
            "POSTag",
            "ParseError",
            "SyntacticRole",
            "TaggedSentence",
            "Token",
            "ValidationError",
            "apply_edits",
            "diff_edits",
            "pair_from_json",
            "pair_to_json",
            "read_pairs",
            "report_json",
        ),
        "generator": (
            "AugmentConfig",
            "AugmentReport",
            "GenConfig",
            "GenerationReport",
            "augment_corpus",
            "derive_seed",
            "generate_corpus",
            "generate_pair",
            "stream_augment_lines",
            "stream_generate",
        ),
        "lm": (
            "LMConfig",
            "NGramModel",
            "filter_percentile",
            "load_lm",
            "perplexity",
            "save_lm",
            "train_lm",
        ),
        "metrics": (
            "EditOps",
            "GoldEdit",
            "M2Sentence",
            "ScoreParams",
            "ScoreReport",
            "StatsReport",
            "corpus_stats",
            "extract_system_edits",
            "fleiss_kappa",
            "format_score",
            "levenshtein",
            "parse_m2",
            "score_corpus",
            "write_m2",
        ),
        "resources": ("RuleResources", "default_resources_dir", "load_resources"),
        "rules": ("RULE_REGISTRY", "apply_fine_rule"),
        "tagging": ("identify_roles", "parse_pretagged", "segment_and_tag"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import name's module on first access and keep the name here."""
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ rather than importlib.import_module: `importlib` itself is
    # not loaded at start-up without `site`.
    module = __import__(f"{__name__}.{_EXPORTS[name]}", fromlist=[name])
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
