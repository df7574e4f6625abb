"""Command-line surface wiring the library into batch workflows.

Exit codes: 0 success, 1 runtime/IO failure, 2 usage error, 3 malformed
input data. Every error prints one `cgeckit: <kind> error: ...` line to
stderr. All randomness flows from --seed, so every run is reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import os
import random
import sys
from typing import Iterable, Iterator, Sequence, TextIO

from cgeckit import lm as lm_mod
from cgeckit.core import (
    ConfigError,
    CorpusPair,
    ParseError,
    ValidationError,
    open_input,
    pair_to_json,
    read_pairs,
    report_json,
)
from cgeckit.generator import (
    AugmentConfig,
    AugmentReport,
    GenConfig,
    GenerationReport,
    build_word_pool,
    stream_augment_lines,
    stream_generate,
)
from cgeckit.metrics import (
    ScoreParams,
    corpus_stats,
    fleiss_kappa,
    format_score,
    parse_m2,
    score_corpus,
)
from cgeckit.resources import load_resources
from cgeckit.tagging import segment_and_tag

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_DATA = 3

RESOURCES_ENV = "CLG_RESOURCES"


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as ConfigError."""

    def error(self, message):
        raise ConfigError(message)


def _read_lines(path: str) -> Iterator[str]:
    """Non-blank lines of a text file, stripped of the trailing newline."""
    with open_input(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.strip():
                yield line


@contextlib.contextmanager
def _write_on_success(*paths: str) -> Iterator[list[TextIO]]:
    """Yield a temporary file beside each path. They are moved onto their
    paths when the block succeeds and deleted when anything fails, so a
    failed run leaves no half-written output behind. A path that is a
    directory fails before the block runs, so the moves cannot fail part
    way. Errors name the path the caller gave, not the temporary file."""
    temps = [f"{path}.{os.getpid()}.{index}.tmp" for index, path in enumerate(paths)]
    try:
        with contextlib.ExitStack() as stack:
            files = []
            for temp, path in zip(temps, paths):
                with _errors_name(path):
                    if os.path.isdir(path):
                        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
                    files.append(stack.enter_context(open(temp, "w", encoding="utf-8")))
            yield files
        for temp, path in zip(temps, paths):
            with _errors_name(path):
                os.replace(temp, path)
    except BaseException:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)
        raise


@contextlib.contextmanager
def _errors_name(path: str) -> Iterator[None]:
    """Re-raise an OSError of the block as one about path."""
    try:
        yield
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _report_path(args) -> str:
    """The report path of generate/augment: --report, or OUTPUT.report.json.
    Both files are renamed into place at the end, so a report on the
    output's path would silently replace the output; that is refused
    before any input is read."""
    report = args.report or args.output + ".report.json"
    if os.path.realpath(report) == os.path.realpath(args.output):
        raise ConfigError(f"--report {report} is the same file as --output {args.output}")
    return report


def _load_config(path: str | None, allowed_keys: set[str]) -> dict:
    """The JSON object of a --config file (empty without one), holding
    only allowed keys."""
    if path is None:
        return {}
    with open_input(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad JSON, or an int of more digits than int() takes
        raise ConfigError(f"config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    unknown = set(doc) - allowed_keys
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    return doc


def _write_pairs(
    output: str,
    report_path: str,
    pairs: Iterable[CorpusPair],
    report: GenerationReport | AugmentReport,
) -> None:
    """Write pairs as JSON lines, then the report the stream counted them
    into; both files appear only if every pair is written."""
    with _write_on_success(output, report_path) as (out, report_out):
        for pair in pairs:
            out.write(pair_to_json(pair) + "\n")
        report_out.write(report_json(report.to_dict()))


def _given(args, *names: str) -> dict:
    """The named settings whose flags were given. Such flags default to
    None, so each setting's default lives only in its config class."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


# --- subcommands ------------------------------------------------------------

def _cmd_filter(args) -> int:
    if args.model:
        given = _given(args, "n", "alpha", "save_model")
        if given:
            raise ConfigError(
                f"--model excludes {', '.join('--' + name.replace('_', '-') for name in given)}: "
                "a loaded model keeps its own n and alpha and is not saved again"
            )
        model = lm_mod.load_lm(args.model)
        sentences = list(_read_lines(args.input))
    else:
        config = lm_mod.LMConfig(**_given(args, "n", "alpha"))
        sentences = list(_read_lines(args.input))
        model = lm_mod.train_lm(_read_lines(args.train) if args.train else sentences, config)
        if args.save_model:
            lm_mod.save_lm(model, args.save_model)
    kept = lm_mod.filter_percentile(sentences, model, args.keep, args.workers)
    with _write_on_success(args.output) as (out,):
        for sentence in kept:
            out.write(sentence + "\n")
    return EXIT_OK


def _cmd_generate(args) -> int:
    report_path = _report_path(args)
    resources_dir = args.resources or os.environ.get(RESOURCES_ENV)
    if not resources_dir:
        raise ConfigError(f"generate needs --resources or ${RESOURCES_ENV}")
    resources = load_resources(resources_dir)
    doc = _load_config(args.config, {f.name for f in dataclasses.fields(GenConfig)} - {"seed"})
    try:
        config = GenConfig(**doc)
    except ConfigError as exc:
        raise ConfigError(f"config {args.config}: {exc}") from None
    given = _given(args, "seed", "per_sentence", "combine_max", "pretagged")
    if args.rules:
        given["enabled_rules"] = args.rules.split(",")
    try:
        config = dataclasses.replace(config, **given)
    except ConfigError as exc:
        if args.config is None:
            raise
        raise ConfigError(f"config {args.config} with the given flags: {exc}") from None
    report = GenerationReport()
    pairs = stream_generate(_read_lines(args.input), config, resources, report, args.workers)
    _write_pairs(args.output, report_path, pairs, report)
    return EXIT_OK


_AUG_CONFIG_KEYS = {"p_keep", "p_insert", "p_replace", "p_delete"}


def _cmd_augment(args) -> int:
    report_path = _report_path(args)
    if os.path.exists(args.input) and not os.path.isfile(args.input):
        # a pipe or device would be used up by the word-pool pass
        raise ConfigError(
            f"augment reads its input twice (word pool, then pairs), so --input "
            f"must be a regular file: {args.input}"
        )
    overrides = _load_config(args.config, _AUG_CONFIG_KEYS)
    word_pool = build_word_pool(segment_and_tag(line) for line in _read_lines(args.input))
    # An input with no words draws no word; the stand-in pool lets the
    # config be checked all the same.
    config = AugmentConfig(**overrides, word_pool=word_pool or ("",), **_given(args, "seed"))
    report = AugmentReport()
    pairs = stream_augment_lines(_read_lines(args.input), config, report, args.workers)
    _write_pairs(args.output, report_path, pairs, report)
    return EXIT_OK


def _cmd_stats(args) -> int:
    report = corpus_stats(read_pairs(args.input))
    doc = report.to_dict()
    if args.per_type:
        doc = {"corpus": doc, "per_type": report.per_type}
    text = report_json(doc)
    if args.output:
        with _write_on_success(args.output) as (out,):
            out.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_score(args) -> int:
    gold = parse_m2(args.m2)
    params = ScoreParams(**_given(args, "beta", "max_unchanged", "char_tokenize"))
    # One hypothesis per line, blank ones included. Lines end only at
    # "\n", as iterating a text file gives them; str.splitlines would also
    # break at \x0c, \x85, U+2028 and other characters inside a line.
    with open_input(args.hyp) as fh:
        hypotheses = [line.rstrip("\n") for line in fh]
    report = score_corpus(hypotheses, gold, params)
    sys.stdout.write(format_score(report))
    if args.report:
        with _write_on_success(args.report) as (out,):
            out.write(report_json(report.to_dict()))
    return EXIT_OK


def _cmd_kappa(args) -> int:
    rows: list[list[int]] = []
    with open_input(args.input) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                rows.append([int(token) for token in line.split()])
            except ValueError:
                raise ParseError(
                    f"{args.input}:{lineno}: rating counts must be integers"
                ) from None
    value = fleiss_kappa(rows, args.raters)
    print(f"Fleiss_kappa : {value:.4f}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.size < 1:
        raise ConfigError(f"--size must be >= 1, got {args.size}")
    rng = random.Random(args.seed)
    reservoir: list[tuple[int, str]] = []
    for index, line in enumerate(_read_lines(args.input)):
        if index < args.size:
            reservoir.append((index, line))
        else:
            slot = rng.randint(0, index)
            if slot < args.size:
                reservoir[slot] = (index, line)
    reservoir.sort()
    with _write_on_success(args.output) as (out,):
        for _, line in reservoir:
            out.write(line + "\n")
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="cgeckit", description="Corpus synthesis and evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("filter", help="keep the lowest-perplexity percentile of a corpus")
    p.add_argument("--input", required=True, help="corpus to filter, one sentence per line")
    p.add_argument("--output", required=True, help="kept sentences, original order")
    p.add_argument("--keep", required=True, type=float, help="percent to keep, in (0, 100]")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--train", help="training corpus (default: the input itself)")
    source.add_argument("--model", help="load a saved model instead of training")
    p.add_argument("--save-model", help="save the trained model as JSON")
    p.add_argument("--n", type=int, help=f"n-gram order when training (default {lm_mod.LMConfig.n})")
    p.add_argument("--alpha", type=float, help=f"additive smoothing when training (default {lm_mod.LMConfig.alpha})")
    p.add_argument("--workers", type=int, default=1, help="parallel perplexity workers")
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("generate", help="corrupt correct sentences into labeled pairs")
    p.add_argument("--input", required=True, help="correct sentences, one per line")
    p.add_argument("--output", required=True, help="pairs as JSON lines")
    p.add_argument("--resources", help=f"rule resources directory (or ${RESOURCES_ENV})")
    p.add_argument("--seed", type=int, help=f"master seed (default {GenConfig.seed})")
    p.add_argument("--per-sentence", type=int, dest="per_sentence", help=f"pairs to attempt per sentence (default {GenConfig.per_sentence})")
    p.add_argument("--combine-max", type=int, dest="combine_max", help=f"max rules stacked per pair (default {GenConfig.combine_max})")
    p.add_argument("--rules", help="comma-separated fine rule ids to enable")
    p.add_argument("--config", help="JSON config of enabled_rules, per_sentence, combine_max, rule_weights, pretagged; valid on its own, and given flags win over it")
    p.add_argument("--report", help="report path (default: OUTPUT.report.json)")
    p.add_argument("--workers", type=int, default=1, help="parallel workers")
    p.add_argument("--pretagged", action="store_true", default=None, help="input lines are surface/TAG items")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("augment", help="random word-level corruption baseline")
    p.add_argument("--input", required=True, help="correct sentences, one per line")
    p.add_argument("--output", required=True, help="pairs as JSON lines")
    p.add_argument("--seed", type=int, help=f"master seed (default {AugmentConfig.seed})")
    p.add_argument("--config", help="JSON config: p_keep/p_insert/p_replace/p_delete")
    p.add_argument("--report", help="report path (default: OUTPUT.report.json)")
    p.add_argument("--workers", type=int, default=1, help="parallel workers")
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("stats", help="corpus statistics tables from a pairs file")
    p.add_argument("--input", required=True, help="pairs as JSON lines")
    p.add_argument("--per-type", action="store_true", dest="per_type", help="add per-error-type op counts")
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("score", help="MaxMatch P/R/F against an M2 gold file")
    p.add_argument("--hyp", required=True, help="hypotheses, one per line, aligned with the gold file")
    p.add_argument("--m2", required=True, help="gold annotations in M2 format")
    p.add_argument("--beta", type=float, help=f"F-measure beta (default {ScoreParams.beta})")
    p.add_argument("--max-unchanged", type=int, dest="max_unchanged", help=f"merge window (default {ScoreParams.max_unchanged})")
    p.add_argument("--char-tokenize", action="store_true", default=None, dest="char_tokenize", help="split hypotheses into characters")
    p.add_argument("--report", help="also write a JSON score report")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("kappa", help="Fleiss' kappa from a rating-count matrix")
    p.add_argument("--input", required=True, help="one item per line: per-category rating counts")
    p.add_argument("--raters", type=int, help="raters per item (default: inferred from row sums)")
    p.set_defaults(func=_cmd_kappa)

    p = sub.add_parser("sample", help="reproducible random sample of lines")
    p.add_argument("--input", required=True, help="file to sample from")
    p.add_argument("--output", required=True, help="sampled lines, original order")
    p.add_argument("--size", required=True, type=int, help="sample size")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.set_defaults(func=_cmd_sample)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch one invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return exc.code if isinstance(exc.code, int) else 0
    except ConfigError as exc:
        return _fail(EXIT_USAGE, "usage", exc)
    except (ValidationError, ParseError, UnicodeDecodeError) as exc:
        return _fail(EXIT_DATA, "data", exc)
    except OSError as exc:
        return _fail(EXIT_IO, "io", exc)


def _fail(code: int, kind: str, exc: Exception) -> int:
    print(f"cgeckit: {kind} error: {exc}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
