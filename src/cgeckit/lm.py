"""Character n-gram language model and perplexity-percentile corpus filter.

The model is intentionally small: additive-α smoothed character n-grams
with a single sentence-boundary symbol used for both start padding and the
end-of-sentence event. It exists to *rank* sentences, not to model language
well, so there is no backoff and no discounting.

Persistence format (versioned JSON, one document per file):

    {"format": "cgeckit-ngram", "version": 1,
     "n": 3, "alpha": 1.0,
     "chars": ["a", "b", ...],
     "ngrams": [["<b>", "<b>", "a", 1], ...]}

`chars` is the sorted training character inventory; context totals are
recomputed on load. The boundary and unknown sentinels are multi-character
strings so they can never collide with a real single-character vocabulary
entry.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import add, itemgetter, truediv
from typing import Iterable, Iterator, Sequence, TextIO

from cgeckit.core import ConfigError, ParseError, finite_number, open_input

BOUNDARY = "<b>"
UNK = "<unk>"

_FORMAT = "cgeckit-ngram"
_VERSION = 1

@dataclass(frozen=True)
class LMConfig:
    """Model order and additive smoothing constant."""

    n: int = 3
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if type(self.n) is not int or self.n < 1:
            raise ConfigError(f"n-gram order must be an integer >= 1, got {self.n!r}")
        if not finite_number("smoothing alpha", self.alpha) > 0:
            raise ConfigError(f"smoothing alpha must be > 0, got {self.alpha!r}")


def _grams(n: int, symbols: Iterable[str]) -> Iterator[tuple[str, ...]]:
    """The padded n-grams of a symbol sequence, in event order: one per
    symbol plus one final boundary event."""
    padded = (BOUNDARY,) * (n - 1) + tuple(symbols) + (BOUNDARY,)
    return zip(*(padded[k:] for k in range(n)))


def _contexts(ngrams: dict[tuple[str, ...], int]) -> dict[tuple[str, ...], int]:
    """The (n-1)-length prefixes of the n-grams, each with the sum of its
    continuations' counts."""
    contexts: dict[tuple[str, ...], int] = {}
    for gram, count in ngrams.items():
        context = gram[:-1]
        contexts[context] = contexts.get(context, 0) + count
    return contexts


@dataclass
class NGramModel:
    """Count tables over padded character sequences.

    `ngrams` maps n-length symbol tuples to counts; `contexts` maps the
    (n-1)-length prefixes to the sum of their continuations, so smoothed
    probabilities normalize exactly. Both are read, not copied, when the
    log-probability table is built on first use, so they must not change
    after a perplexity has been computed.
    """

    n: int
    alpha: float
    chars: frozenset[str]
    ngrams: dict[tuple[str, ...], int] = field(default_factory=dict)
    contexts: dict[tuple[str, ...], int] = field(default_factory=dict)

    @property
    def vocab_size(self) -> int:
        # training characters plus UNK plus the boundary symbol
        return len(self.chars) + 2

    def symbol(self, ch: str) -> str:
        return ch if ch in self.chars else UNK

    def probability(self, gram: tuple[str, ...]) -> float:
        count = self.ngrams.get(gram, 0)
        total = self.contexts.get(gram[:-1], 0)
        return (count + self.alpha) / (total + self.alpha * self.vocab_size)

    @cached_property
    def log_probabilities(self) -> _LogProbabilities:
        """math.log(self.probability(gram)) for every n-gram, bit for bit.

        Raises:
            ConfigError: if alpha makes a probability or a perplexity
                overflow or underflow for this model's counts.
        """
        return _LogProbabilities(self)


class _LogProbabilities(dict):
    """log P(gram) of one model: stored for each seen n-gram, computed on
    lookup (and not stored) for an unseen one.

    Every value is the same float expression as `NGramModel.probability`,
    (count + alpha) / (context total + alpha * V), so perplexities read
    from the table equal those from `probability` exactly.
    """

    def __init__(self, model: NGramModel) -> None:
        self.alpha = model.alpha
        self.alpha_v = model.alpha * model.vocab_size
        self.contexts = model.contexts
        largest = max(self.contexts.values(), default=0)
        # The smallest probability is an unseen gram's in the largest
        # context, alpha / (largest + alpha * V). Its reciprocal bounds
        # every perplexity, so both must be finite and nonzero.
        if not (
            math.isfinite(self.alpha_v) and math.isfinite((largest + self.alpha_v) / self.alpha)
        ):
            raise ConfigError(
                f"smoothing alpha {self.alpha!r} is out of range for a model with "
                f"{model.vocab_size} symbols and a context seen {largest} times: "
                "a probability or a perplexity would not be a finite nonzero float"
            )
        grams = model.ngrams
        numerators = map(add, grams.values(), repeat(self.alpha))
        totals = map(self.contexts.get, map(itemgetter(slice(None, -1)), grams), repeat(0))
        denominators = map(add, totals, repeat(self.alpha_v))
        super().__init__(zip(grams, map(math.log, map(truediv, numerators, denominators))))

    def __missing__(self, gram: tuple[str, ...]) -> float:
        return math.log(self.alpha / (self.contexts.get(gram[:-1], 0) + self.alpha_v))


def train_lm(corpus: Iterable[str], config: LMConfig | None = None) -> NGramModel:
    """Count the padded n-grams of a sentence stream in one pass.

    Raises:
        ConfigError: if the corpus contains no sentences.
    """
    config = config or LMConfig()
    counts = Counter(chain.from_iterable(_grams(config.n, sentence) for sentence in corpus))
    if not counts:
        raise ConfigError("cannot train a language model on an empty corpus")
    # each character is the last symbol of the event it closes
    chars = frozenset(map(itemgetter(-1), counts)).difference((BOUNDARY,))
    ngrams = dict(counts)
    return NGramModel(
        n=config.n, alpha=config.alpha, chars=chars, ngrams=ngrams, contexts=_contexts(ngrams)
    )


def perplexity(model: NGramModel, sentence: str) -> float:
    """exp of the mean negative log-probability over the padded events."""
    symbols = sentence if model.chars.issuperset(sentence) else map(model.symbol, sentence)
    log_sum = sum(map(model.log_probabilities.__getitem__, _grams(model.n, symbols)))
    return math.exp(-log_sum / (len(sentence) + 1))


def keep_indices(perplexities: Sequence[float], keep_percent: float) -> list[int]:
    """Indices of the ceil(keep_percent% * N) lowest values, ascending.

    Ties at the threshold resolve in favor of earlier input, so the result
    is deterministic no matter how the perplexities were computed.
    """
    if not 0 < finite_number("keep_percent", keep_percent) <= 100:
        raise ConfigError(f"keep_percent must be in (0, 100], got {keep_percent!r}")
    if not perplexities:
        return []
    from fractions import Fraction  # only here, to keep it off every run's start-up

    # Read as the decimal the caller wrote: Fraction(10.3) is a little
    # above 10.3 and would round 10.3% of 1,000 lines up to 104.
    keep = math.ceil(Fraction(str(keep_percent)) * len(perplexities) / 100)
    ranked = sorted(range(len(perplexities)), key=lambda i: (perplexities[i], i))
    return sorted(ranked[:keep])


def filter_percentile(corpus: Iterable[str], model: NGramModel, keep_percent: float) -> list[str]:
    """Keep the ceil(keep_percent% * N) lowest-perplexity sentences, in
    corpus order; ties at the threshold go to earlier input. An empty
    corpus yields an empty list (not an error)."""
    sentences = list(corpus)
    model.log_probabilities  # checked even when there is no sentence to score
    ppls = [perplexity(model, sentence) for sentence in sentences]
    return [sentences[i] for i in keep_indices(ppls, keep_percent)]


def dump_lm(model: NGramModel, fh: TextIO) -> None:
    """Write the model's document and a newline to an open text file."""
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "n": model.n,
        "alpha": model.alpha,
        "chars": sorted(model.chars),
        "ngrams": [[*gram, count] for gram, count in sorted(model.ngrams.items())],
    }
    json.dump(doc, fh, ensure_ascii=False)
    fh.write("\n")


def save_lm(model: NGramModel, path: str) -> None:
    """Write the model to path; a path that cannot be written raises OSError."""
    with open(path, "w", encoding="utf-8") as fh:
        dump_lm(model, fh)


def load_lm(path: str) -> NGramModel:
    """Load a persisted model, recomputing context totals.

    Raises:
        OSError: the file cannot be opened or read.
        ParseError: malformed document, unsupported version, or counts
            whose context total no float can hold.
    """
    with open_input(path) as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw)
    except ValueError as exc:  # bad JSON, or an int of more digits than int() takes
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ParseError(f"{path}: not a {_FORMAT} document")
    version = doc.get("version")
    if type(version) is not int or version != _VERSION:
        raise ParseError(f"{path}: unsupported version {version!r}")
    try:
        config = LMConfig(n=doc["n"], alpha=doc["alpha"])
        chars, entries = doc["chars"], doc["ngrams"]
    except KeyError as exc:
        raise ParseError(f"{path}: malformed model document: missing {exc}") from None
    except ConfigError as exc:
        raise ParseError(f"{path}: {exc}") from None
    if type(chars) is not list or not all(type(ch) is str and len(ch) == 1 for ch in chars):
        raise ParseError(f"{path}: 'chars' must be a list of single characters")
    if type(entries) is not list:
        raise ParseError(f"{path}: 'ngrams' must be a list")
    chars = frozenset(chars)
    symbols = chars.union((BOUNDARY,))
    ngrams: dict[tuple[str, ...], int] = {}
    for entry in entries:
        # symbols outside `chars` (a non-string among them) could never be
        # scored, but their counts would still skew the context totals
        try:
            ok = (
                type(entry) is list
                and len(entry) == config.n + 1
                and type(entry[-1]) is int
                and entry[-1] >= 1
                and symbols.issuperset(entry[:-1])
            )
        except TypeError:  # an unhashable symbol
            ok = False
        if not ok:
            raise ParseError(f"{path}: malformed n-gram entry {entry!r}")
        ngrams[tuple(entry[:-1])] = entry[-1]
    if len(ngrams) != len(entries):
        raise ParseError(f"{path}: an n-gram is listed more than once")
    contexts = _contexts(ngrams)
    try:
        float(max(contexts.values(), default=0))
    except OverflowError:
        raise ParseError(f"{path}: a context's n-gram counts sum beyond float range") from None
    return NGramModel(n=config.n, alpha=config.alpha, chars=chars, ngrams=ngrams, contexts=contexts)
