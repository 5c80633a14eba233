"""Command-line entry point for reproducible classification experiments.

Commands::

    train         fit one model and write it to a file
    eval          evaluate a method (or a saved model) on a corpus
    cv            k-fold cross-validation; --all runs the whole method grid
    cross-domain  train on one corpus, test on another
    analyze       compare two reports: sign test plus effective features
    distribution  category occurrence rates of a corpus

All randomness flows from --seed; rerunning a command with the same
configuration and seed produces byte-identical reports. Reports are
line-delimited JSON records (folds, per-example predictions, then one
summary embedding the resolved configuration).

Exit codes: 0 success, 1 usage error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from .corpus import CorpusError, Dataset, load_corpus, split_folds
from .evaluate import (
    BaselineModel,
    ConfigError,
    LearnerSpec,
    PrecisionReport,
    SignTestResult,
    category_distribution,
    closed_test,
    compare_predictions,
    cross_domain_eval,
    cross_validate,
    effective_features,
    evaluate_model,
    fit,
    sign_test,
)
from .features import FeatureSet
from .svm import TrainingError
from .storage import load_model, model_method, save_model

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3

KNN_GRID = (1, 3, 5, 7, 9)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; usage errors here are exit 1
    def error(self, message):
        raise UsageError(message)


@dataclass
class ExperimentConfig:
    """Fully resolved experiment parameters, embedded in every report."""

    command: str
    method: str | None = None
    feature_set: int | None = None
    k: int = 3
    d: int = 1
    C: float = 1.0
    folds: int = 10
    seed: int = 0
    level: float = 0.01
    input: str | None = None
    train_path: str | None = None
    test_path: str | None = None
    model_path: str | None = None
    out: str | None = None
    report_a: str | None = None
    report_b: str | None = None
    run_all: bool = False

    def resolve(self):
        if self.feature_set is None and self.method is not None:
            self.feature_set = 2 if self.method == "knn" else 1
        self.spec().check(self.feature_set)
        if self.command == "cv" and self.folds < 2:
            raise ConfigError("cross-validation needs at least 2 folds")
        if self.k < 1:
            raise ConfigError("k must be >= 1")
        return self

    def spec(self) -> LearnerSpec:
        return LearnerSpec(method=self.method, k=self.k, d=self.d, C=self.C)

    def to_dict(self) -> dict:
        d = {
            "command": self.command,
            "method": self.method,
            "feature_set": self.feature_set,
            "seed": self.seed,
        }
        if self.method == "knn":
            d["k"] = self.k
        if self.method == "svm":
            d["d"] = self.d
            d["C"] = self.C
        if self.command in ("cv", "cross-domain"):
            d["folds"] = self.folds
        if self.input is not None:
            d["input"] = self.input
        if self.train_path is not None:
            d["train"] = self.train_path
        if self.test_path is not None:
            d["test"] = self.test_path
        if self.model_path is not None:
            d["model"] = self.model_path
        return d


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def report_lines(report: PrecisionReport, config: ExperimentConfig) -> list[str]:
    lines = []
    for fold, (correct, total) in enumerate(report.fold_results):
        lines.append(_json_line(
            {"record": "fold", "fold": fold, "correct": correct, "total": total}))
    for index, gold, predicted in report.predictions:
        lines.append(_json_line(
            {"record": "prediction", "index": index, "gold": gold,
             "predicted": predicted}))
    lines.append(_json_line({
        "record": "summary",
        "precision": report.precision,
        "correct": report.correct,
        "total": report.total,
        "closed": report.closed,
        "config": config.to_dict(),
    }))
    return lines


def _emit(lines: list[str], out: str | None) -> None:
    text = "".join(line + "\n" for line in lines)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_REPORT_FIELDS = {"fold": ("correct", "total"),
                  "prediction": ("index", "gold", "predicted")}


def load_report_predictions(path) -> PrecisionReport:
    """Rebuild a PrecisionReport from a line-delimited report file."""
    folds, predictions, closed = [], [], False
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: not JSON ({exc.msg} "
                                 f"at column {exc.colno})") from None
            if not isinstance(record, dict):
                raise ValueError(f"{path}: line {lineno}: not a JSON object")
            kind = record.get("record")
            fields = _REPORT_FIELDS.get(kind, ()) if isinstance(kind, str) else ()
            missing = [f for f in fields if f not in record]
            if missing:
                raise ValueError(f"{path}: line {lineno}: {kind} record without "
                                 f"{', '.join(missing)}")
            if kind == "fold":
                folds.append((record["correct"], record["total"]))
            elif kind == "prediction":
                predictions.append((record["index"], record["gold"],
                                    record["predicted"]))
            elif kind == "summary":
                closed = record.get("closed", False)
    if not predictions:
        raise ValueError(f"{path}: no prediction records found")
    return PrecisionReport(tuple(folds), tuple(predictions), closed)


def _summary_line(config: ExperimentConfig, report: PrecisionReport) -> str:
    kind = "closed" if report.closed else "open"
    spec = config.spec()
    return (f"{config.command} {spec.describe()} feature-set {config.feature_set}: "
            f"{kind} precision {report.precision:.4f} "
            f"({report.correct}/{report.total})")


def _cmd_train(config: ExperimentConfig) -> int:
    dataset = load_corpus(config.input)
    model = _fit_for_config(config, dataset)
    save_model(config.out, model)
    print(f"trained {config.spec().describe()} feature-set {config.feature_set} "
          f"on {len(dataset)} examples -> {config.out}")
    return EXIT_OK


def _fit_for_config(config: ExperimentConfig, dataset: Dataset):
    return fit(config.spec(), dataset, FeatureSet(config.feature_set))


def _cmd_eval(config: ExperimentConfig) -> int:
    dataset = load_corpus(config.input)
    if config.model_path:
        model = load_model(config.model_path)
        config.method = model_method(model)
        mode = getattr(model, "mode", None)
        config.feature_set = int(mode) if mode is not None else 2
        report = evaluate_model(model, dataset, closed=False)
    elif config.method == "baseline":
        report = evaluate_model(_fit_for_config(config, dataset), dataset,
                                closed=False)
    else:
        report = closed_test(config.spec(), dataset, FeatureSet(config.feature_set))
    _emit(report_lines(report, config), config.out)
    print(_summary_line(config, report), file=sys.stderr)
    return EXIT_OK


def _cmd_cv(config: ExperimentConfig) -> int:
    dataset = load_corpus(config.input)
    plan = split_folds(dataset, config.folds, config.seed)
    if config.run_all:
        return _cmd_cv_all(config, dataset, plan)
    report = cross_validate(config.spec(), dataset, plan,
                            FeatureSet(config.feature_set))
    _emit(report_lines(report, config), config.out)
    print(_summary_line(config, report), file=sys.stderr)
    return EXIT_OK


def _grid_rows():
    rows = [LearnerSpec("knn", k=k) for k in KNN_GRID]
    rows.append(LearnerSpec("dlist"))
    rows.append(LearnerSpec("maxent"))
    rows.append(LearnerSpec("svm", d=1))
    rows.append(LearnerSpec("svm", d=2))
    return rows


def _cmd_cv_all(config: ExperimentConfig, dataset: Dataset, plan) -> int:
    """Run the whole method-by-feature-set grid and print an aligned matrix
    of open (closed) precisions."""
    cells: dict[tuple[str, int], str] = {}
    for spec in _grid_rows():
        modes = (FeatureSet.FS2,) if spec.method == "knn" else tuple(FeatureSet)
        for mode in modes:
            open_rep = cross_validate(spec, dataset, plan, mode)
            closed_rep = closed_test(spec, dataset, mode)
            cells[(spec.describe(), int(mode))] = (
                f"{open_rep.precision * 100:6.2f}% ({closed_rep.precision * 100:6.2f}%)")
    baseline_rep = evaluate_model(BaselineModel(), dataset, closed=False)
    lines = [f"{'method':<18} {'feature-set 1':>20} {'feature-set 2':>20} "
             f"{'feature-set 3':>20}"]
    for spec in _grid_rows():
        row = [f"{spec.describe():<18}"]
        for fs in (1, 2, 3):
            row.append(f"{cells.get((spec.describe(), fs), '--- ( --- )'):>20}")
        lines.append(" ".join(row))
    lines.append(f"baseline = {baseline_rep.precision * 100:.2f}%")
    lines.append(f"(folds={config.folds}, seed={config.seed}, "
                 f"n={len(dataset)}, open closed)")
    _emit(lines, config.out)
    return EXIT_OK


def _cmd_cross_domain(config: ExperimentConfig) -> int:
    train_ds = load_corpus(config.train_path)
    test_ds = load_corpus(config.test_path)
    report = cross_domain_eval(train_ds, test_ds, config.spec(),
                               FeatureSet(config.feature_set),
                               folds=config.folds, seed=config.seed)
    _emit(report_lines(report, config), config.out)
    print(_summary_line(config, report), file=sys.stderr)
    return EXIT_OK


def _cmd_analyze(config: ExperimentConfig) -> int:
    dataset = load_corpus(config.input)
    report_a = load_report_predictions(config.report_a)
    report_b = load_report_predictions(config.report_b)
    _check_report_corpus(report_a, config.report_a, dataset, config.input)
    _check_report_corpus(report_b, config.report_b, dataset, config.input)
    a_only, b_only = compare_predictions(report_a, report_b)
    if a_only or b_only:
        test = sign_test(len(a_only), len(b_only), config.level)
    else:
        # the two runs never disagree: no evidence either way
        test = SignTestResult(0, 0, 1.0, None)
    flips = [dataset[i] for i in b_only]  # wrong under A, correct under B
    feats = effective_features(flips, dataset.examples,
                               FeatureSet(config.feature_set), config.level)
    lines = [_json_line({
        "record": "sign_test",
        "a_only_correct": test.n_plus,
        "b_only_correct": test.n_minus,
        "p_value": test.p_value,
        "significant_at": test.significant_at,
        "config": config.to_dict(),
    })]
    for feat, count in feats:
        lines.append(_json_line({
            "record": "effective_feature",
            "count": count,
            "kind": feat.kind,
            "feature": feat.text,
        }))
    _emit(lines, config.out)
    verdict = (f"significant at {test.significant_at}" if test.significant_at
               else "not significant")
    print(f"sign test: {test.n_plus} vs {test.n_minus}, "
          f"p = {test.p_value:.3g} ({verdict}); "
          f"{len(feats)} effective features", file=sys.stderr)
    return EXIT_OK


def _check_report_corpus(report: PrecisionReport, report_path, dataset: Dataset,
                         corpus_path) -> None:
    """Every prediction of ``report`` must name an example of ``dataset``
    by index and carry that example's gold label."""
    for index, gold, _ in report.predictions:
        if (not isinstance(index, int) or isinstance(index, bool)
                or not 0 <= index < len(dataset)):
            raise ValueError(f"{report_path}: example index {index!r} is not in "
                             f"{corpus_path} ({len(dataset)} examples)")
        if gold != dataset[index].label:
            raise ValueError(f"{report_path}: gold label {gold!r} of example "
                             f"{index} differs from {corpus_path} "
                             f"({dataset[index].label!r})")


def _cmd_distribution(config: ExperimentConfig) -> int:
    dataset = load_corpus(config.input)
    lines = []
    for label, rate in category_distribution(dataset):
        lines.append(_json_line({
            "record": "category",
            "label": label,
            "count": dataset.label_counts[label],
            "rate": rate,
        }))
    _emit(lines, config.out)
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "eval": _cmd_eval,
    "cv": _cmd_cv,
    "cross-domain": _cmd_cross_domain,
    "analyze": _cmd_analyze,
    "distribution": _cmd_distribution,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="tamkit", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, method=True, corpus=True):
        if corpus:
            p.add_argument("--input", "-i", required=True, help="corpus file")
        if method:
            p.add_argument("--method", choices=("knn", "dlist", "maxent", "svm",
                                                "baseline"))
            p.add_argument("--features", type=int, choices=(1, 2, 3), default=None,
                           help="feature set (default: 2 for knn, else 1)")
            p.add_argument("--k", type=int, default=3, help="knn neighborhood size")
            p.add_argument("--d", type=int, default=1, help="svm kernel degree")
            p.add_argument("--C", type=float, default=1.0, help="svm box constant")
        p.add_argument("--out", "-o", help="output file (default: stdout)")

    p = sub.add_parser("train", help="fit a model and save it")
    add_common(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="evaluate on a corpus (closed test, "
                                    "or a saved model / the baseline)")
    add_common(p)
    p.add_argument("--model", dest="model_path", help="saved model to evaluate")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("cv", help="k-fold cross-validation")
    add_common(p)
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--all", action="store_true", dest="run_all",
                   help="run the full method/feature-set grid and print a matrix")

    p = sub.add_parser("cross-domain", help="train on one corpus, test on another")
    add_common(p, corpus=False)
    p.add_argument("--train", dest="train_path", required=True)
    p.add_argument("--test", dest="test_path", required=True)
    p.add_argument("--folds", type=int, default=10,
                   help="folds for the overlapping part")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("analyze", help="sign test and effective features "
                                       "between two reports")
    p.add_argument("--input", "-i", required=True, help="the evaluated corpus")
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--features", type=int, choices=(1, 2, 3), default=3,
                   help="feature set for the effective-feature scan")
    p.add_argument("--level", type=float, default=0.01)
    p.add_argument("--out", "-o")

    p = sub.add_parser("distribution", help="category occurrence rates")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--out", "-o")

    return parser


def config_from_args(args) -> ExperimentConfig:
    config = ExperimentConfig(command=args.command)
    for name in ("method", "k", "d", "C", "folds", "seed", "level", "input",
                 "train_path", "test_path", "model_path", "out", "report_a",
                 "report_b", "run_all"):
        if hasattr(args, name):
            setattr(config, name, getattr(args, name))
    if getattr(args, "features", None) is not None:
        config.feature_set = args.features
    if args.command == "analyze":
        config.feature_set = args.features
    return config


def run(config: ExperimentConfig) -> int:
    """Execute one experiment; returns the process exit code."""
    config.resolve()
    if config.command in ("train", "eval", "cv", "cross-domain"):
        if config.method is None and not config.model_path and not config.run_all:
            raise UsageError("--method is required (or --model for eval)")
        if config.command == "train" and not config.out:
            raise UsageError("train requires --out for the model file")
        if config.command == "train" and config.method == "baseline":
            raise UsageError("the baseline has nothing to train")
    return _COMMANDS[config.command](config)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return run(config_from_args(args))
    except (UsageError, ConfigError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CorpusError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
