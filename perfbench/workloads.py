"""The benchmark's workloads: inputs built from a seed, and the tamkit
command sequence each one runs.

Every workload is a closed loop with one client: one process runs its
commands one after another through ``tamkit.cli.main``, each command
starting when the previous one returned. Commands run with the work
directory as the current directory and name their files by relative path,
so reports (which embed the input paths) do not depend on where the
checkout lives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from tamkit.corpus import (
    AUXILIARIES,
    CategorySpec,
    Dataset,
    Example,
    category_label,
    serialize_corpus,
)

from synth import modality_corpus

WORKLOADS = ("cv-grid", "many-labels", "train-eval")

# Corpus sizes per workload. "full" is what a measured run uses; "smoke"
# only checks that every workload, check and metric still runs.
SIZES = {
    "full": {
        "grid_n": 160, "grid_folds": 3,
        "labels": 46, "per_label": 4, "label_folds": 2,
        "train_n": 400, "eval_n": 1200, "overlap_n": 100, "cross_folds": 4,
    },
    "smoke": {
        "grid_n": 40, "grid_folds": 2,
        "labels": 6, "per_label": 3, "label_folds": 2,
        "train_n": 40, "eval_n": 60, "overlap_n": 10, "cross_folds": 2,
    },
}

# a short morpheme per descriptor token; the sentence ending of a
# label is its morphemes in descriptor order, so related labels share
# suffixes and the pairwise problems are not all trivially separable
_MORPHEMES = dict(zip(
    AUXILIARIES + ("present", "past", "progressive", "perfect", "imperative"),
    ("べき", "つも", "でき", "ほう", "ねば", "かも", "ない", "よう", "はず",
     "まし", "もの", "だろ", "ます", "ました", "てい", "てし", "なさ"),
))
_KANA = "あいうえおかきくけこさしすせそなにぬねのはひふへほまみむめもやゆよらりるれろわ"


def descriptor_labels(n: int) -> list[str]:
    """The first ``n`` labels of a fixed enumeration of descriptor-grammar
    categories: no auxiliary or one, either tense, with and without the
    progressive."""
    labels = []
    for aux in ((),) + tuple((a,) for a in AUXILIARIES):
        for tense in ("present", "past"):
            for progressive in (False, True):
                labels.append(category_label(CategorySpec(
                    auxiliaries=frozenset(aux), tense=tense,
                    progressive=progressive)))
    if n > len(labels):
        raise ValueError(f"at most {len(labels)} descriptor labels")
    return labels[:n]


def many_label_corpus(n_labels: int, per_label: int, seed: int) -> Dataset:
    """``per_label`` sentences for each of ``n_labels`` descriptor labels.

    A sentence is a random 6-character stem followed by the label's
    morphemes, and carries the stem and morphemes as tokens. The first
    sentence of every label with more than one morpheme drops one of them
    at random, which makes it ambiguous between related labels. Examples
    are laid out round by round (every label once, then again), so the
    seed changes the sentences but not which label sits where.
    """
    rng = random.Random(seed)
    labels = descriptor_labels(n_labels)
    examples = []
    for round_ in range(per_label):
        for label in labels:
            morphs = [_MORPHEMES[p] for p in label.split("+")]
            if round_ == 0 and len(morphs) > 1:
                del morphs[rng.randrange(len(morphs))]
            stem = "".join(rng.choice(_KANA) for _ in range(6))
            examples.append(Example(label, stem + "".join(morphs),
                                    (stem, *morphs)))
    return Dataset(examples)


def stratified_modality_corpus(n: int, seed: int) -> Dataset:
    """``modality_corpus`` cut to fixed label counts (40% past, 40%
    present, 10% of each "must" label), keeping the builder's order. The
    label mix, and with it most of the learners' work, is then the same
    for every seed."""
    quota = {"past": n * 4 // 10, "present": n * 4 // 10,
             "must+past": n // 10, "must+present": n // 10}
    quota["past"] += n - sum(quota.values())
    examples = []
    for ex in modality_corpus(4 * n, seed=seed):
        if quota[ex.label]:
            quota[ex.label] -= 1
            examples.append(ex)
    if any(quota.values()):
        raise ValueError(f"seed {seed}: pool too small for the label quota")
    return Dataset(examples)


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the files it writes.

    ``reports`` are precision reports (fold / prediction / summary
    records); ``outputs`` are every result file compared byte for byte;
    ``models`` are model files, checked by the commands that load them.
    """

    argv: tuple[str, ...]
    outputs: tuple[str, ...] = ()
    reports: tuple[str, ...] = ()
    models: tuple[str, ...] = ()
    corpus: str | None = None  # the corpus the outputs describe


def build_inputs(workload: str, seed: int, size: str) -> dict[str, Dataset]:
    """Corpus file name -> dataset. The same seed gives the same corpora."""
    s = SIZES[size]
    if workload == "cv-grid":
        return {"grid.tsv": stratified_modality_corpus(s["grid_n"], seed)}
    if workload == "many-labels":
        return {"labels.tsv": many_label_corpus(s["labels"], s["per_label"],
                                                seed)}
    if workload == "train-eval":
        train = modality_corpus(s["train_n"], seed=seed)
        # another seed draws other stems, so the evaluation sentences are
        # unseen in training; the filter makes that exact
        seen = set(train.examples)
        test = Dataset(ex for ex in modality_corpus(s["eval_n"], seed=seed + 1)
                       if ex not in seen)
        # half training sentences, half unseen: cross-domain runs both its
        # overlap (cross-validated) and disjoint (single model) paths
        half = s["overlap_n"] // 2
        mixed = Dataset(train.examples[:half] + test.examples[:half])
        return {"train.tsv": train, "test.tsv": test, "mixed.tsv": mixed}
    raise ValueError(f"unknown workload {workload!r}")


def commands(workload: str, seed: int, size: str) -> list[Command]:
    s = SIZES[size]
    if workload == "cv-grid":
        return [Command(
            ("cv", "--all", "-i", "grid.tsv", "--folds", str(s["grid_folds"]),
             "--seed", str(seed), "-o", "matrix.txt"),
            outputs=("matrix.txt",))]
    if workload == "many-labels":
        # a fixed fold seed over the fixed label layout trains the same
        # label pairs in every fold for every seed; the number of pairs,
        # and so the work, does not depend on the seed
        return [Command(
            ("cv", "-i", "labels.tsv", "--method", "svm", "--features", "1",
             "--d", str(d), "--folds", str(s["label_folds"]), "--seed", "0",
             "-o", f"svm_d{d}.report"),
            outputs=(f"svm_d{d}.report",), reports=(f"svm_d{d}.report",),
            corpus="labels.tsv")
            for d in (1, 2)]
    if workload == "train-eval":
        learners = (("knn", "2", ()), ("dlist", "1", ()), ("maxent", "1", ()),
                    ("svm", "1", ("--d", "2")))
        cmds = [Command(("train", "-i", "train.tsv", "--method", m,
                         "--features", fs, *extra, "-o", f"{m}.model"),
                        models=(f"{m}.model",))
                for m, fs, extra in learners]
        cmds += [Command(("eval", "--model", f"{m}.model", "-i", "test.tsv",
                          "-o", f"{m}.report"),
                         outputs=(f"{m}.report",), reports=(f"{m}.report",),
                         corpus="test.tsv")
                 for m, _, _ in learners]
        cmds.append(Command(
            ("cross-domain", "--train", "train.tsv", "--test", "mixed.tsv",
             "--method", "dlist", "--features", "1", "--folds",
             str(s["cross_folds"]), "--seed", str(seed), "-o", "cross.report"),
            outputs=("cross.report",), reports=("cross.report",),
            corpus="mixed.tsv"))
        cmds.append(Command(
            ("analyze", "-i", "test.tsv", "--report-a", "knn.report",
             "--report-b", "svm.report", "-o", "analyze.out"),
            outputs=("analyze.out",), corpus="test.tsv"))
        cmds.append(Command(("distribution", "-i", "test.tsv", "-o", "dist.out"),
                            outputs=("dist.out",), corpus="test.tsv"))
        return cmds
    raise ValueError(f"unknown workload {workload!r}")


def corpus_bytes(dataset: Dataset) -> bytes:
    return serialize_corpus(dataset).encode("utf-8")
