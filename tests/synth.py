"""Synthetic corpus builders shared by the test modules, and the
descriptor grammar their labels are written in.

All builders are deterministic given their seed; labels use the descriptor
grammar so they double as parser fixtures. Every learner treats a label as
an opaque string, so the grammar's parser lives here, beside its tests.
"""

import random

from tamkit.corpus import AUXILIARIES, CategorySpec, Dataset, Example


class DescriptorError(ValueError):
    """Category label does not follow the descriptor grammar."""


_TENSES = ("present", "past")
_DESCRIPTOR_TOKENS = frozenset(AUXILIARIES) | set(_TENSES) | {
    "progressive",
    "perfect",
    "imperative",
}


def parse_category_descriptor(label: str) -> CategorySpec:
    """Parse a ``+``-joined descriptor label into a CategorySpec.

    Tokens come from the twelve auxiliaries plus present/past/progressive/
    perfect/imperative. At most one tense may appear (default present);
    imperative combines with nothing. ``tamkit.corpus.category_label`` is
    the inverse.
    """
    parts = label.split("+")
    seen = set()
    for part in parts:
        if part not in _DESCRIPTOR_TOKENS:
            raise DescriptorError(f"unknown descriptor token {part!r} in {label!r}")
        if part in seen:
            raise DescriptorError(f"duplicate descriptor token {part!r} in {label!r}")
        seen.add(part)
    if "imperative" in seen:
        if len(seen) > 1:
            raise DescriptorError(f"imperative cannot combine with other tokens: {label!r}")
        return CategorySpec(imperative=True)
    if "present" in seen and "past" in seen:
        raise DescriptorError(f"at most one tense token allowed: {label!r}")
    return CategorySpec(
        auxiliaries=frozenset(seen & set(AUXILIARIES)),
        tense="past" if "past" in seen else "present",
        progressive="progressive" in seen,
        perfect="perfect" in seen,
    )

KANA = list(
    "あいうえおかきくけこさしすせそなにぬねのはひふへほまみむめもやゆよらりるれろわ"
)

MODAL_ADVERB = "かならず"  # sentence-initial token that flips modality


def _stem(rng, length=10):
    return "".join(rng.choice(KANA) for _ in range(length))


def random_token_corpus(rng, max_examples=100, n_labels=3, pool_size=8,
                        max_tokens=4):
    """Random token-bag corpus: labels A.., tokens t0..; token choice is
    label-biased so the learners have something to find."""
    labels = [chr(ord("A") + i) for i in range(n_labels)]
    pool = [f"t{i}" for i in range(pool_size)]
    n = rng.randint(1, max_examples)
    examples = []
    for _ in range(n):
        label = rng.choice(labels)
        bias = pool[labels.index(label) % pool_size]
        k = rng.randint(1, max_tokens)
        tokens = {bias} if rng.random() < 0.7 else set()
        while len(tokens) < k:
            tokens.add(rng.choice(pool))
        tokens = sorted(tokens)
        examples.append(Example(label, " ".join(tokens), tuple(tokens)))
    return Dataset(examples)


def modality_corpus(n=2000, flip_rate=0.2, seed=0, n_stems=50):
    """Suffix determines tense; a sentence-initial adverb token flips the
    label to its "must" variant for ``flip_rate`` of the sentences.

    Stems are 10 characters long, so the adverb never enters the final
    10-gram window: suffix features alone cannot see modality.
    """
    rng = random.Random(seed)
    stems = [_stem(rng) for _ in range(n_stems)]
    endings = {"past": ["ました", "ていた", "だった"],
               "present": ["ます", "ている", "だろう"]}
    examples = []
    for _ in range(n):
        tense = rng.choice(["past", "present"])
        ending = rng.choice(endings[tense])
        stem = rng.choice(stems)
        modal = rng.random() < flip_rate
        tokens = ([MODAL_ADVERB] if modal else []) + [stem, ending]
        sentence = "".join(tokens)
        label = f"must+{tense}" if modal else tense
        examples.append(Example(label, sentence, tuple(tokens)))
    return Dataset(examples)


def domain_corpus(n=400, seed=0, swapped=False, n_stems=30):
    """Suffix-to-tense corpus; with ``swapped=True`` the same suffixes carry
    the opposite labels (a conflicting domain)."""
    rng = random.Random(seed)
    stems = [_stem(rng, 6) for _ in range(n_stems)]
    mapping = {"った": "past", "ります": "present"}
    if swapped:
        mapping = {"った": "present", "ります": "past"}
    examples = []
    suffixes = sorted(mapping)
    for _ in range(n):
        suffix = rng.choice(suffixes)
        stem = rng.choice(stems)
        examples.append(Example(mapping[suffix], stem + suffix))
    return Dataset(examples)


# label -> (occurrence rate, sentence ending); only "past" ends with the
# past-tense particle so the baseline outcome is exact by construction
TABLE1_SHAPE = (
    ("present", 0.42, "る"),
    ("past", 0.36, "た"),
    ("imperative", 0.05, "ろ"),
    ("perfect", 0.04, "てしまう"),
    ("will", 0.03, "だろう"),
    ("progressive", 0.03, "ている"),
    ("can", 0.02, "できる"),
    ("must", 0.05, "ねばならない"),
)


def table1_corpus(n=2000, seed=0):
    """Corpus drawn to the published category proportions, with
    suffix-consistent sentences."""
    rng = random.Random(seed)
    examples = []
    for label, rate, ending in TABLE1_SHAPE:
        count = round(n * rate)
        for _ in range(count):
            examples.append(Example(label, _stem(rng, 6) + ending))
    rng.shuffle(examples)
    return Dataset(examples)
