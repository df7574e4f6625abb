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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from cgeckit.core import ConfigError, ParseError, open_input, ordered_map

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
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigError(f"n-gram order must be an integer >= 1, got {self.n!r}")
        if not self.alpha > 0:
            raise ConfigError(f"smoothing alpha must be > 0, got {self.alpha!r}")


@dataclass
class NGramModel:
    """Count tables over padded character sequences.

    `ngrams` maps n-length symbol tuples to counts; `contexts` maps the
    (n-1)-length prefixes to the sum of their continuations, so smoothed
    probabilities normalize exactly.
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

    def events(self, sentence: str) -> list[tuple[str, ...]]:
        """The padded n-grams scored for `sentence`: one per character
        plus one final boundary event."""
        padded = [BOUNDARY] * (self.n - 1)
        padded.extend(self.symbol(ch) for ch in sentence)
        padded.append(BOUNDARY)
        return [
            tuple(padded[i - self.n + 1 : i + 1]) for i in range(self.n - 1, len(padded))
        ]

    def probability(self, gram: tuple[str, ...]) -> float:
        count = self.ngrams.get(gram, 0)
        total = self.contexts.get(gram[:-1], 0)
        return (count + self.alpha) / (total + self.alpha * self.vocab_size)


def train_lm(corpus: Iterable[str], config: LMConfig | None = None) -> NGramModel:
    """Accumulate smoothed-count tables over a sentence stream.

    Raises:
        ConfigError: if the corpus contains no sentences.
    """
    config = config or LMConfig()
    sentences = list(corpus)
    if not sentences:
        raise ConfigError("cannot train a language model on an empty corpus")
    chars = frozenset(ch for s in sentences for ch in s)
    model = NGramModel(n=config.n, alpha=config.alpha, chars=chars)
    for sentence in sentences:
        for gram in model.events(sentence):
            model.ngrams[gram] = model.ngrams.get(gram, 0) + 1
            model.contexts[gram[:-1]] = model.contexts.get(gram[:-1], 0) + 1
    return model


def perplexity(model: NGramModel, sentence: str) -> float:
    """exp of the mean negative log-probability over the padded events."""
    events = model.events(sentence)
    log_sum = sum(math.log(model.probability(gram)) for gram in events)
    return math.exp(-log_sum / len(events))


def keep_indices(perplexities: Sequence[float], keep_percent: float) -> list[int]:
    """Indices of the ceil(keep_percent% * N) lowest values, ascending.

    Ties at the threshold resolve in favor of earlier input, so the result
    is deterministic no matter how the perplexities were computed.
    """
    if not 0 < keep_percent <= 100:
        raise ConfigError(f"keep_percent must be in (0, 100], got {keep_percent!r}")
    if not perplexities:
        return []
    keep = math.ceil(Fraction(keep_percent) * len(perplexities) / 100)
    ranked = sorted(range(len(perplexities)), key=lambda i: (perplexities[i], i))
    return sorted(ranked[:keep])


def filter_percentile(
    corpus: Iterable[str], model: NGramModel, keep_percent: float, workers: int = 1
) -> list[str]:
    """Keep the ceil(keep_percent% * N) lowest-perplexity sentences.

    Output preserves the original corpus order; ties at the threshold are
    resolved in favor of earlier input. An empty corpus yields an empty
    list (not an error). `workers` > 1 scores the sentences in parallel
    processes without changing the result.
    """
    sentences = list(corpus)
    ppls = list(ordered_map(perplexity, model, sentences, workers))
    return [sentences[i] for i in keep_indices(ppls, keep_percent)]


def save_lm(model: NGramModel, path: str) -> None:
    doc = {
        "format": _FORMAT,
        "version": _VERSION,
        "n": model.n,
        "alpha": model.alpha,
        "chars": sorted(model.chars),
        "ngrams": [[*gram, count] for gram, count in sorted(model.ngrams.items())],
    }
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, ensure_ascii=False)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write model {path}: {exc}") from exc


def load_lm(path: str) -> NGramModel:
    """Load a persisted model, recomputing context totals.

    Raises:
        ConfigError: unreadable file.
        ParseError: malformed document or unsupported version.
    """
    try:
        with open_input(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read model {path}: {exc}") from exc
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != _FORMAT:
        raise ParseError(f"{path}: not a {_FORMAT} document")
    if doc.get("version") != _VERSION:
        raise ParseError(f"{path}: unsupported version {doc.get('version')!r}")
    try:
        config = LMConfig(n=doc["n"], alpha=doc["alpha"])
        model = NGramModel(n=config.n, alpha=config.alpha, chars=frozenset(doc["chars"]))
        for entry in doc["ngrams"]:
            *gram, count = entry
            if len(gram) != model.n or not isinstance(count, int) or count < 1:
                raise ParseError(f"{path}: malformed n-gram entry {entry!r}")
            gram = tuple(gram)
            model.ngrams[gram] = count
            model.contexts[gram[:-1]] = model.contexts.get(gram[:-1], 0) + count
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed model document: {exc}") from exc
    return model
