"""Structural checks on what a command wrote.

Each check raises ``CheckFailed`` with a one-line reason. Byte-level
comparison against reference digests is done by the worker; the other
checks hold for every seed.
"""

from __future__ import annotations

import json
import re
from pathlib import Path


# seeds whose inputs and outputs reference.json pins at full size
DEFAULT_SEEDS = range(32)


class CheckFailed(Exception):
    pass


def reference_entry(table: dict, size: str, workload: str, seed: int):
    """The recorded fingerprints and digests of one run, or None for a
    seed that gets structural checks only. A default seed at full size
    must have an entry, so a lost one cannot turn off the byte checks."""
    entry = table.get(size, {}).get(workload, {}).get(str(seed))
    if entry is None and size == "full" and seed in DEFAULT_SEEDS:
        raise CheckFailed(f"reference.json has no entry for {workload} "
                          f"seed {seed}")
    return entry


def _records(path: Path) -> list[dict]:
    try:
        text = path.read_text(encoding="utf-8")
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path.name}: does not parse ({exc})") from exc


def precision_report(path: Path, n_examples: int) -> None:
    """Fold and summary counts agree with the prediction records, and the
    predictions cover each corpus example exactly once."""
    records = _records(path)
    folds = [r for r in records if r.get("record") == "fold"]
    preds = [r for r in records if r.get("record") == "prediction"]
    summaries = [r for r in records if r.get("record") == "summary"]
    if len(summaries) != 1 or records[-1] is not summaries[0]:
        raise CheckFailed(f"{path.name}: expected one summary, last")
    if len(folds) + len(preds) + 1 != len(records):
        raise CheckFailed(f"{path.name}: unknown record kinds")
    summary = summaries[0]
    if sorted(p["index"] for p in preds) != list(range(n_examples)):
        raise CheckFailed(f"{path.name}: predictions do not cover the corpus")
    correct = sum(p["gold"] == p["predicted"] for p in preds)
    fold_total = sum(f["total"] for f in folds)
    fold_correct = sum(f["correct"] for f in folds)
    if not (fold_total == summary["total"] == len(preds)):
        raise CheckFailed(f"{path.name}: fold/summary totals disagree with "
                          f"{len(preds)} predictions")
    if not (fold_correct == summary["correct"] == correct):
        raise CheckFailed(f"{path.name}: fold/summary correct counts disagree "
                          f"with the predictions ({correct})")
    if summary["precision"] != correct / len(preds):
        raise CheckFailed(f"{path.name}: summary precision is not correct/total")


_CELL = r"(\s*\d+\.\d\d% \(\s*\d+\.\d\d%\)|\s*--- \( --- \))"
_ROW = re.compile(r"^(knn \(k=\d\)|dlist|maxent|svm \(d=[12]\))\s+"
                  + _CELL * 3 + r"$")


def grid_matrix(path: Path, n_rows: int = 9) -> None:
    """Header, one row per learner with three open (closed) cells, the
    baseline line and the run line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if len(lines) != n_rows + 3 or not lines[0].startswith("method"):
        raise CheckFailed(f"{path.name}: expected {n_rows + 3} lines")
    for line in lines[1:n_rows + 1]:
        if not _ROW.match(line):
            raise CheckFailed(f"{path.name}: malformed row {line!r}")
    if not re.match(r"^baseline = \d+\.\d\d%$", lines[n_rows + 1]):
        raise CheckFailed(f"{path.name}: malformed baseline line")


def analyze_output(path: Path) -> None:
    records = _records(path)
    if not records or records[0].get("record") != "sign_test":
        raise CheckFailed(f"{path.name}: first record is not the sign test")
    if not 0.0 <= records[0]["p_value"] <= 1.0:
        raise CheckFailed(f"{path.name}: p-value out of range")
    if any(r.get("record") != "effective_feature" for r in records[1:]):
        raise CheckFailed(f"{path.name}: unexpected record after the sign test")


def distribution(path: Path, n_examples: int) -> None:
    records = _records(path)
    if sum(r["count"] for r in records) != n_examples:
        raise CheckFailed(f"{path.name}: category counts do not sum to "
                          f"{n_examples}")
    if abs(sum(r["rate"] for r in records) - 1.0) > 1e-9:
        raise CheckFailed(f"{path.name}: rates do not sum to 1")


def model_file(path: Path) -> None:
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"{path.name}: does not parse ({exc})") from exc
    if document.get("format") != "tamkit-model" or "payload" not in document:
        raise CheckFailed(f"{path.name}: not a tamkit model file")


def command_outputs(cmd, workdir: Path, corpus_sizes: dict[str, int]) -> None:
    """Run every structural check that applies to one command's files."""
    n = corpus_sizes.get(cmd.corpus)
    for name in cmd.models:
        model_file(workdir / name)
    for name in cmd.reports:
        precision_report(workdir / name, n)
    if cmd.argv[:2] == ("cv", "--all"):
        grid_matrix(workdir / cmd.outputs[0])
    elif cmd.argv[0] == "analyze":
        analyze_output(workdir / cmd.outputs[0])
    elif cmd.argv[0] == "distribution":
        distribution(workdir / cmd.outputs[0], n)
