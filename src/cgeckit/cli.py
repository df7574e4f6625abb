"""Command-line surface wiring the library into batch workflows.

Exit codes: 0 success, 1 runtime/IO failure, 2 usage error, 3 malformed
input data. Every error prints one `cgeckit: <kind> error: ...` line to
stderr. All randomness flows from --seed, so every run is reproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import random
import sys
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, TextIO

# What only some subcommands use is imported in their handlers (generator,
# and rules with it, for generate and augment; lm for filter), so other runs
# never compile it. metrics, resources and tagging stay here because
# bench/spans.py patches their names in this module.
from cgeckit.core import (
    ConfigError,
    CorpusPair,
    ParseError,
    ValidationError,
    check_seed,
    open_input,
    pair_to_json,
    read_pairs,
    report_json,
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
from cgeckit.tagging import segment_and_tag  # unused; bench/spans.py patches this name

if TYPE_CHECKING:
    from cgeckit.generator import AugmentReport, GenerationReport

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


def _config(cls, path: str | None, given: dict):
    """A cls config from the JSON object of a --config file, which may
    hold every field of cls but seed (no file: the class defaults), with
    the given flags laid over it. The file is checked on its own first,
    and its errors name it."""
    if path is None:
        return cls(**given)
    with open_input(path) as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad JSON, or an int of more digits than int() takes
        raise ConfigError(f"config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path}: expected a JSON object")
    unknown = set(doc) - (set(cls._fields) - {"seed"})
    if unknown:
        raise ConfigError(f"config {path}: unknown keys {sorted(unknown)}")
    try:
        config = cls(**doc)
    except ConfigError as exc:
        raise ConfigError(f"config {path}: {exc}") from None
    # A new instance, not an edited one, so that the checks run again.
    fields = {name: getattr(config, name) for name in cls._fields}
    try:
        return cls(**{**fields, **given})
    except ConfigError as exc:
        raise ConfigError(f"config {path} with the given flags: {exc}") from None


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
    from cgeckit import lm

    if args.model:
        given = _given(args, "n", "alpha", "save_model")
        if given:
            raise ConfigError(
                f"--model excludes {', '.join('--' + name.replace('_', '-') for name in given)}: "
                "a loaded model keeps its own n and alpha and is not saved again"
            )
        model = lm.load_lm(args.model)
    else:
        config = lm.LMConfig(**_given(args, "n", "alpha"))
    sentences = list(_read_lines(args.input))
    if not args.model:
        model = lm.train_lm(_read_lines(args.train) if args.train else sentences, config)
    # Filter first, then write the model and the kept lines (last, so they
    # win on a shared path) together: a failed run leaves neither behind.
    kept = lm.filter_percentile(sentences, model, args.keep)
    models = [args.save_model] if args.save_model else []
    with _write_on_success(*models, args.output) as (*model_out, out):
        for fh in model_out:
            lm.dump_lm(model, fh)
        out.writelines(sentence + "\n" for sentence in kept)
    return EXIT_OK


def _cmd_generate(args) -> int:
    from cgeckit.generator import GenConfig, GenerationReport, stream_generate

    report_path = _report_path(args)
    resources_dir = args.resources or os.environ.get(RESOURCES_ENV)
    if not resources_dir:
        raise ConfigError(f"generate needs --resources or ${RESOURCES_ENV}")
    resources = load_resources(resources_dir)
    given = _given(args, "seed", "per_sentence", "combine_max", "pretagged")
    if args.rules is not None:
        given["enabled_rules"] = args.rules.split(",")
    config = _config(GenConfig, args.config, given)
    report = GenerationReport()
    pairs = stream_generate(_read_lines(args.input), config, resources, report, args.workers)
    _write_pairs(args.output, report_path, pairs, report)
    return EXIT_OK


def _cmd_augment(args) -> int:
    from cgeckit.generator import AugmentConfig, AugmentReport, stream_augment_lines

    report_path = _report_path(args)
    config = _config(AugmentConfig, args.config, _given(args, "seed"))
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
    params = ScoreParams(**_given(args, "beta", "max_unchanged", "char_tokenize"))
    # One hypothesis per line, blank ones included. Lines end where
    # open_input's universal newlines end them, as for every text input:
    # at "\n", "\r\n" or a lone "\r", never at the \x0b, \x0c, \x1c-\x1e,
    # \x85, U+2028 or U+2029 that str.splitlines would also break at. Each
    # file is opened in its own generator, so a decode error names its file.
    def hypotheses() -> Iterator[str]:
        with open_input(args.hyp) as fh:
            for line in fh:
                yield line.rstrip("\n")

    report = score_corpus(hypotheses(), parse_m2(args.m2), params)
    sys.stdout.write(format_score(report))
    if args.report:
        with _write_on_success(args.report) as (out,):
            out.write(report_json(report.to_dict()))
    return EXIT_OK


def _cmd_kappa(args) -> int:
    def rows(fh: TextIO) -> Iterator[list[int]]:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                row = [int(token) for token in line.split()]
            except ValueError:
                raise ParseError(
                    f"{args.input}:{lineno}: rating counts must be integers"
                ) from None
            yield row

    with open_input(args.input) as fh:
        value = fleiss_kappa(rows(fh), args.raters)
    print(f"Fleiss_kappa : {value:.4f}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    if args.size < 1:
        raise ConfigError(f"--size must be >= 1, got {args.size}")
    check_seed(args.seed)
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
#
# One argparse parser costs a gettext catalog lookup, and each argument a
# HelpFormatter that reads the terminal size. A run uses one subcommand, so
# it builds only that one's parser (see _build_parser).


def _filter_arguments(p: _Parser) -> None:
    from cgeckit.lm import LMConfig

    p.add_argument("--input", required=True, help="corpus to filter, one sentence per line")
    p.add_argument("--output", required=True, help="kept sentences, original order")
    p.add_argument("--keep", required=True, type=float, help="percent to keep, in (0, 100]")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--train", help="training corpus (default: the input itself)")
    source.add_argument("--model", help="load a saved model instead of training")
    p.add_argument("--save-model", help="save the trained model as JSON")
    p.add_argument("--n", type=int, help=f"n-gram order when training (default {LMConfig.n})")
    p.add_argument("--alpha", type=float, help=f"additive smoothing when training (default {LMConfig.alpha})")


def _generate_arguments(p: _Parser) -> None:
    from cgeckit.generator import GenConfig

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


def _augment_arguments(p: _Parser) -> None:
    from cgeckit.generator import AugmentConfig

    p.add_argument("--input", required=True, help="correct sentences, one per line")
    p.add_argument("--output", required=True, help="pairs as JSON lines")
    p.add_argument("--seed", type=int, help=f"master seed (default {AugmentConfig.seed})")
    p.add_argument("--config", help="JSON config: p_keep/p_insert/p_replace/p_delete")
    p.add_argument("--report", help="report path (default: OUTPUT.report.json)")
    p.add_argument("--workers", type=int, default=1, help="parallel workers")


def _stats_arguments(p: _Parser) -> None:
    p.add_argument("--input", required=True, help="pairs as JSON lines")
    p.add_argument("--per-type", action="store_true", dest="per_type", help="add per-error-type op counts")
    p.add_argument("--output", help="write JSON here instead of stdout")


def _score_arguments(p: _Parser) -> None:
    p.add_argument("--hyp", required=True, help="hypotheses, one per line, aligned with the gold file")
    p.add_argument("--m2", required=True, help="gold annotations in M2 format")
    p.add_argument("--beta", type=float, help=f"F-measure beta (default {ScoreParams.beta})")
    p.add_argument("--max-unchanged", type=int, dest="max_unchanged", help=f"merge window (default {ScoreParams.max_unchanged})")
    p.add_argument("--char-tokenize", action="store_true", default=None, dest="char_tokenize", help="split hypotheses into characters")
    p.add_argument("--report", help="also write a JSON score report")


def _kappa_arguments(p: _Parser) -> None:
    p.add_argument("--input", required=True, help="one item per line: per-category rating counts")
    p.add_argument("--raters", type=int, help="raters per item, at least 2 (default: inferred from row sums)")


def _sample_arguments(p: _Parser) -> None:
    p.add_argument("--input", required=True, help="file to sample from")
    p.add_argument("--output", required=True, help="sampled lines, original order")
    p.add_argument("--size", required=True, type=int, help="sample size")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")


# name: (help line, function that adds its arguments, handler), in help order.
COMMANDS = {
    "filter": ("keep the lowest-perplexity percentile of a corpus", _filter_arguments, _cmd_filter),
    "generate": ("corrupt correct sentences into labeled pairs", _generate_arguments, _cmd_generate),
    "augment": ("random word-level corruption baseline", _augment_arguments, _cmd_augment),
    "stats": ("corpus statistics tables from a pairs file", _stats_arguments, _cmd_stats),
    "score": ("MaxMatch P/R/F against an M2 gold file", _score_arguments, _cmd_score),
    "kappa": ("Fleiss' kappa from a rating-count matrix", _kappa_arguments, _cmd_kappa),
    "sample": ("reproducible random sample of lines", _sample_arguments, _cmd_sample),
}


def _build_parser(argv: Sequence[str]) -> _Parser:
    """The top-level parser with the subparser that argv[0] names, or with
    all of them when it names none (help, a typo, no argv). All of them get
    their arguments too, since argparse may still reach one later in argv:
    `cgeckit --wat filter` reports filter's missing flags."""
    parser = _Parser(prog="cgeckit", description="Corpus synthesis and evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    for name in names:
        help_line, add_arguments, handler = COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        add_arguments(p)
        p.set_defaults(func=handler)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Dispatch one invocation; returns the process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse --help
        return exc.code if isinstance(exc.code, int) else 0
    except ConfigError as exc:
        return _fail(EXIT_USAGE, "usage", exc)
    except ValidationError as exc:
        return _fail(EXIT_DATA, "data", exc)
    except OSError as exc:
        return _fail(EXIT_IO, "io", exc)


def _fail(code: int, kind: str, exc: Exception) -> int:
    print(f"cgeckit: {kind} error: {exc}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))
