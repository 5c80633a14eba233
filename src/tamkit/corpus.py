"""Labeled sentence corpora: file format, category labels, fold planning.

A corpus file is UTF-8 text whose lines end at LF, CRLF or CR (no other
character ends a line). Each data line has two or three TAB-separated fields::

    label <TAB> sentence [<TAB> space-separated tokens]

Blank lines and lines starting with ``#`` are skipped. Labels are opaque
strings to every classifier.

Datasets and fold plans are immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass


class CorpusError(ValueError):
    """Malformed corpus document or unserializable example."""


# The twelve auxiliary markers, spelled with underscores so each descriptor
# token is a single word. perfbench's workloads spell their labels with
# AUXILIARIES, CategorySpec and category_label.
AUXILIARIES = (
    "be_able_to",
    "be_going_to",
    "can",
    "had_better",
    "have_to",
    "may",
    "must",
    "need",
    "ought",
    "shall",
    "used_to",
    "will",
)

_TAB_OR_BREAK = re.compile("[\t\n\r]")


@dataclass(frozen=True)
class Example:
    """One labeled sentence, optionally pre-tokenized: one corpus line that
    :func:`parse_corpus` reads back as this example."""

    label: str
    sentence: str
    tokens: tuple[str, ...] | None = None

    def __post_init__(self):
        # a blank or "#" label would make a blank or comment line
        if not self.label.strip() or self.label.startswith("#"):
            raise ValueError("label must not be blank or start with '#'")
        if _TAB_OR_BREAK.search(self.label):
            raise ValueError("label must not contain tabs or line breaks")
        if _TAB_OR_BREAK.search(self.sentence):
            raise ValueError("sentence must not contain tabs or line breaks")
        if self.tokens is not None:
            object.__setattr__(self, "tokens", tuple(self.tokens))
            # what the corpus format's space join and whitespace split keep
            if " ".join(self.tokens).split() != list(self.tokens):
                raise ValueError("tokens must be non-empty and contain no whitespace")


class Dataset:
    """Ordered, immutable collection of examples with a label inventory."""

    def __init__(self, examples):
        self.examples: tuple[Example, ...] = tuple(examples)
        self.label_counts = Counter(ex.label for ex in self.examples)

    def __len__(self):
        return len(self.examples)

    def __iter__(self):
        return iter(self.examples)

    def __getitem__(self, i):
        return self.examples[i]

    def __eq__(self, other):
        return isinstance(other, Dataset) and self.examples == other.examples

    @property
    def labels(self) -> list[str]:
        """Distinct labels in lexicographic order."""
        return sorted(self.label_counts)

    def subset(self, indices) -> "Dataset":
        return Dataset(self.examples[i] for i in indices)

    def held_out(self, indices, train) -> list[Example]:
        """The examples ``self[i]`` for ``i`` in ``indices``, to be predicted
        by a model trained on ``train``. ``features.EncodedDataset``
        overrides this to attach their CSR rows against the columns of
        ``train``, indexed out on each call, not memoised."""
        return [self.examples[i] for i in indices]


def best_label(votes, label_counts) -> str:
    """The label with the most ``votes``; ties break by global training
    frequency (``label_counts``, a Counter), then by label text."""
    return min(votes, key=lambda lab: (-votes[lab], -label_counts[lab], lab))


def is_label(value) -> bool:
    """Whether ``value``, read from a model file, can be a label."""
    return isinstance(value, str) and value != ""


def is_positive_int(value) -> bool:
    """Whether ``value``, read from a model file, is an integer >= 1."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def read_list(payload, key: str) -> list:
    """``payload[key]`` of a model file. Raises ValueError unless it is a
    JSON list: a string would read as a list of characters."""
    if not isinstance(value := payload[key], list):
        raise ValueError(f"{key} must be a list, not {type(value).__name__}")
    return value


def read_label_counts(pairs) -> dict[str, int]:
    """Label counts from the ``[label, count]`` pairs of a model file.
    Raises ValueError unless each label is a non-empty string, listed once,
    with a positive integer count."""
    counts: dict[str, int] = {}
    for label, count in pairs:
        if not (is_label(label) and is_positive_int(count)) or label in counts:
            raise ValueError(f"label count {[label, count]!r} is not a new "
                             f"label with a positive integer count")
        counts[label] = count
    return counts


def split_lines(text: str) -> list[str]:
    """``text`` split at universal newlines (LF, CRLF, CR), ends dropped."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_corpus(text: str) -> Dataset:
    """Parse a corpus document into a Dataset, preserving file order; it
    reads back every dataset that :func:`serialize_corpus` writes."""
    examples = []
    for lineno, line in enumerate(split_lines(text), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) not in (2, 3):
            raise CorpusError(
                f"line {lineno}: expected 2 or 3 tab-separated fields, got {len(fields)}"
            )
        tokens = tuple(fields[2].split()) if len(fields) == 3 else None
        try:
            examples.append(Example(fields[0], fields[1], tokens))
        except ValueError as exc:
            raise CorpusError(f"line {lineno}: {exc}") from exc
    return Dataset(examples)


def read_text(path) -> str:
    """A file's text; invalid UTF-8 raises ValueError naming the path."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8 ({exc})") from exc


def parse_json(text: str, where: str):
    """One JSON document. Text that is not JSON raises ValueError with a
    one-line message that begins with ``where`` (a path, or a path and line
    number)."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        at = (f"line {exc.lineno} column {exc.colno}" if exc.lineno > 1
              else f"column {exc.colno}")
        raise ValueError(f"{where}: not JSON ({exc.msg} at {at})") from None
    except RecursionError:  # the decoder recurses once per level
        raise ValueError(f"{where}: not JSON (nested too deeply)") from None


def load_corpus(path) -> Dataset:
    """Read and parse a corpus file. Invalid UTF-8, a malformed line or a
    file with no examples raises CorpusError naming the path."""
    try:
        dataset = parse_corpus(read_text(path))
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8; read_text names the path
        raise CorpusError(str(exc)) from exc
    if len(dataset) == 0:
        raise CorpusError(f"{path}: no examples")
    return dataset


def serialize_corpus(dataset: Dataset) -> str:
    """Render a Dataset back into corpus-file text (inverse of parse_corpus)."""
    lines = []
    for ex in dataset:
        if ex.tokens is None:
            lines.append(f"{ex.label}\t{ex.sentence}")
        else:
            lines.append(f"{ex.label}\t{ex.sentence}\t{' '.join(ex.tokens)}")
    return "".join(line + "\n" for line in lines)


@dataclass(frozen=True)
class CategorySpec:
    """The parts of a descriptor-grammar label (``aux+...+tense``). No
    learner reads labels this way; tests and benchmarks build labels from it."""

    auxiliaries: frozenset[str] = frozenset()
    tense: str = "present"
    progressive: bool = False
    perfect: bool = False
    imperative: bool = False


def category_label(spec: CategorySpec) -> str:
    """Canonical descriptor string for a CategorySpec: sorted auxiliaries,
    tense, progressive, perfect, joined by ``+``; or ``imperative`` alone."""
    if spec.imperative:
        return "imperative"
    parts = sorted(spec.auxiliaries)
    parts.append(spec.tense)
    if spec.progressive:
        parts.append("progressive")
    if spec.perfect:
        parts.append("perfect")
    return "+".join(parts)


_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    """One step of the splitmix64 stream; returns (next_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class FoldPlan:
    """Deterministic assignment of examples to cross-validation folds."""

    n_folds: int
    assignment: tuple[int, ...]
    seed: int

    def fold_indices(self, fold: int) -> tuple[list[int], list[int]]:
        """(train indices, test indices) for one fold, in dataset order."""
        test = [i for i, f in enumerate(self.assignment) if f == fold]
        train = [i for i, f in enumerate(self.assignment) if f != fold]
        return train, test


def split_folds(dataset: Dataset, n_folds: int, seed: int = 0) -> FoldPlan:
    """Shuffle example indices with a seeded Fisher-Yates pass, then deal
    them round-robin into ``n_folds`` folds (sizes differ by at most one).

    The assignment depends only on (dataset order, n_folds, seed); no
    ambient randomness is consulted.
    """
    n = len(dataset)
    if n == 0:
        raise ValueError("cannot split an empty dataset")
    if not 2 <= n_folds <= n:
        raise ValueError(f"n_folds must be in [2, {n}], got {n_folds}")
    order = list(range(n))
    state = seed & _MASK64
    for i in range(n - 1, 0, -1):
        state, r = _splitmix64(state)
        j = r % (i + 1)
        order[i], order[j] = order[j], order[i]
    assignment = [0] * n
    for pos, idx in enumerate(order):
        assignment[idx] = pos % n_folds
    return FoldPlan(n_folds=n_folds, assignment=tuple(assignment), seed=seed)
