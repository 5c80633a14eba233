"""Command-line entry point for reproducible classification experiments.

Commands::

    train         fit one model and write it to a file
    eval          evaluate a method (or a saved model) on a corpus
    cv            k-fold cross-validation; --all runs the whole method grid
    cross-domain  train on one corpus, test on another
    analyze       compare two reports: sign test plus effective features
    distribution  category occurrence rates of a corpus

Only cv and cross-domain draw at random, their folds from --seed; rerunning
a command with the same configuration and seed gives byte-identical
reports. Reports are line-delimited JSON records (folds, per-example
predictions, then one summary embedding the resolved configuration).

Exit codes: 0 success, 1 usage error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .corpus import (Dataset, load_corpus, parse_json, read_text, split_folds,
                     split_lines)
from .evaluate import (
    ConfigError,
    LearnerSpec,
    METHODS,
    PrecisionReport,
    category_distribution,
    closed_test,
    compare_predictions,
    cross_domain_eval,
    cross_validate,
    effective_features,
    evaluate_grid,
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

# the rows of the cv --all matrix
GRID = (*(LearnerSpec("knn", k=k) for k in (1, 3, 5, 7, 9)), LearnerSpec("dlist"),
        LearnerSpec("maxent"), LearnerSpec("svm", d=1), LearnerSpec("svm", d=2))


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; usage errors here are exit 1
    def error(self, message):
        raise ConfigError(message)


def _spec(args) -> LearnerSpec:
    return LearnerSpec(args.method, k=args.k, d=args.d, C=args.C)


def _resolve(args) -> None:
    """Check what argparse cannot express, before any file is read, and
    fill in the learner defaults. Raises ConfigError."""
    if getattr(args, "run_all", False):
        given = [f"--{flag}" for flag in ("features", "k", "d", "C")
                 if getattr(args, flag) is not None]
        if given:
            raise ConfigError(f"cv --all runs a fixed grid of learners and "
                              f"feature sets; it takes no {', '.join(given)}")
    elif hasattr(args, "k"):  # a command that runs a learner
        # for eval --model (no method) the model's feature set replaces this
        defaults = LearnerSpec(args.method)
        if args.features is None:
            args.features = int(defaults.feature_sets[0])
        for flag in ("k", "d", "C"):
            if getattr(args, flag) is None:
                setattr(args, flag, getattr(defaults, flag))
        _spec(args).check(args.features)
    if args.command == "cv" and args.folds < 2:
        raise ConfigError("cross-validation needs at least 2 folds")
    if args.command == "cross-domain" and args.folds < 1:
        raise ConfigError("cross-domain needs at least 1 fold")
    if args.command == "analyze" and not 0.0 < args.level < 1.0:
        raise ConfigError("--level must be in (0, 1)")


def _config(args) -> dict:
    """The resolved configuration that a report embeds."""
    config = {"command": args.command, "method": args.method,
              "feature_set": args.features, "seed": args.seed}
    if args.method is not None:  # analyze names no learner
        config.update(_spec(args).hyperparameters)
    if args.command in ("cv", "cross-domain"):
        config["folds"] = args.folds
    for key in ("input", "train", "test", "model"):
        if getattr(args, key, None) is not None:
            config[key] = getattr(args, key)
    return config


def _json_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def report_lines(report: PrecisionReport, config: dict) -> list[str]:
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
        "config": config,
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


def load_report_predictions(path, dataset: Dataset, corpus_path) -> PrecisionReport:
    """Rebuild a PrecisionReport of an evaluation of ``dataset`` (read from
    ``corpus_path``) from a line-delimited report file. Raises ValueError
    naming the report unless each example has exactly one prediction
    record, carrying its index and gold label; each is checked as read."""
    folds, closed, predictions = [], False, [None] * len(dataset)
    for lineno, line in enumerate(split_lines(read_text(path)), 1):
        line = line.strip()
        if not line:
            continue
        record = parse_json(line, f"{path}: line {lineno}")
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
            index, gold = record["index"], record["gold"]
            if (not isinstance(index, int) or isinstance(index, bool)
                    or not 0 <= index < len(dataset)):
                raise ValueError(f"{path}: example index {index!r} is not in "
                                 f"{corpus_path} ({len(dataset)} examples)")
            if gold != dataset[index].label:
                raise ValueError(f"{path}: gold label {gold!r} of example "
                                 f"{index} differs from {corpus_path} "
                                 f"({dataset[index].label!r})")
            if predictions[index] is not None:
                raise ValueError(f"{path}: line {lineno}: example {index} "
                                 f"is predicted twice")
            predictions[index] = (index, gold, record["predicted"])
        elif kind == "summary":
            closed = record.get("closed", False)
    if None in predictions:
        raise ValueError(f"{path}: example {predictions.index(None)} of "
                         f"{corpus_path} has no prediction record")
    return PrecisionReport(tuple(folds), tuple(predictions), closed)


def _report(args, report: PrecisionReport) -> int:
    """Write ``report`` and print its one-line summary to stderr."""
    _emit(report_lines(report, _config(args)), args.out)
    kind = "closed" if report.closed else "open"
    print(f"{args.command} {_spec(args).describe()} feature-set {args.features}: "
          f"{kind} precision {report.precision:.4f} "
          f"({report.correct}/{report.total})", file=sys.stderr)
    return EXIT_OK


def _cmd_train(args) -> int:
    dataset = load_corpus(args.input)
    spec = _spec(args)
    save_model(args.out, fit(spec, dataset, FeatureSet(args.features)))
    print(f"trained {spec.describe()} feature-set {args.features} "
          f"on {len(dataset)} examples -> {args.out}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    dataset = load_corpus(args.input)
    if args.model:
        model = load_model(args.model)
        args.method, args.features = model_method(model), int(model.mode)
        report = evaluate_model(model, dataset)
    else:
        report = closed_test(_spec(args), dataset, FeatureSet(args.features))
    return _report(args, report)


def _cmd_cv(args) -> int:
    dataset = load_corpus(args.input)
    plan = split_folds(dataset, args.folds, args.seed)
    if args.run_all:
        return _cmd_cv_all(args, dataset, plan)
    return _report(args, cross_validate(_spec(args), dataset, plan,
                                        FeatureSet(args.features)))


def _cmd_cv_all(args, dataset: Dataset, plan) -> int:
    """Run the whole method-by-feature-set grid and print an aligned matrix
    of open (closed) precisions.

    ``evaluate_grid`` extracts every example once, under feature set 1, and
    runs one feature set at a time, on that set's columns of the encoding:
    its folds' training slices, their held-out rows and the closed set are
    built once, read by every learner, and freed before the next feature
    set; both SVM degrees train in one solve."""
    cells = evaluate_grid([(spec, mode) for mode in FeatureSet for spec in GRID
                           if mode in spec.feature_sets], dataset, plan)
    lines = [f"{'method':<18} {'feature-set 1':>20} {'feature-set 2':>20} "
             f"{'feature-set 3':>20}"]
    for spec in GRID:
        row = [f"{spec.describe():<18}"]
        for mode in FeatureSet:
            cell = "--- ( --- )"
            if (spec, mode) in cells:
                open_rep, closed_rep = cells[spec, mode]
                cell = (f"{open_rep.precision * 100:6.2f}% "
                        f"({closed_rep.precision * 100:6.2f}%)")
            row.append(f"{cell:>20}")
        lines.append(" ".join(row))
    baseline = LearnerSpec("baseline")
    baseline_rep = closed_test(baseline, dataset, baseline.feature_sets[0])
    lines.append(f"baseline = {baseline_rep.precision * 100:.2f}%")
    lines.append(f"(folds={args.folds}, seed={args.seed}, "
                 f"n={len(dataset)}, open closed)")
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_cross_domain(args) -> int:
    train_ds = load_corpus(args.train)
    test_ds = load_corpus(args.test)
    return _report(args, cross_domain_eval(train_ds, test_ds, _spec(args),
                                           FeatureSet(args.features),
                                           folds=args.folds, seed=args.seed))


def _cmd_analyze(args) -> int:
    dataset = load_corpus(args.input)
    report_a = load_report_predictions(args.report_a, dataset, args.input)
    report_b = load_report_predictions(args.report_b, dataset, args.input)
    a_only, b_only = compare_predictions(report_a, report_b)
    test = sign_test(len(a_only), len(b_only), args.level)
    flips = [dataset[i] for i in b_only]  # wrong under A, correct under B
    feats = effective_features(flips, dataset.examples,
                               FeatureSet(args.features), args.level)
    lines = [_json_line({
        "record": "sign_test",
        "a_only_correct": test.n_plus,
        "b_only_correct": test.n_minus,
        "p_value": test.p_value,
        "significant_at": test.significant_at,
        "config": _config(args),
    })]
    for feat, count in feats:
        lines.append(_json_line({
            "record": "effective_feature",
            "count": count,
            "kind": feat.kind,
            "feature": feat.text,
        }))
    _emit(lines, args.out)
    verdict = (f"significant at {test.significant_at}" if test.significant_at
               else "not significant")
    print(f"sign test: {test.n_plus} vs {test.n_minus}, "
          f"p = {test.p_value:.3g} ({verdict}); "
          f"{len(feats)} effective features", file=sys.stderr)
    return EXIT_OK


def _cmd_distribution(args) -> int:
    dataset = load_corpus(args.input)
    lines = []
    for label, rate in category_distribution(dataset):
        lines.append(_json_line({
            "record": "category",
            "label": label,
            "count": dataset.label_counts[label],
            "rate": rate,
        }))
    _emit(lines, args.out)
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

    def learner_command(name, summary, corpus=True):
        p = sub.add_parser(name, help=summary)
        if corpus:
            p.add_argument("--input", "-i", required=True, help="corpus file")
        first = ", ".join(f"{m} {int(LearnerSpec(m).feature_sets[0])}"
                          for m in METHODS)
        p.add_argument("--features", type=int, choices=(1, 2, 3), default=None,
                       help=f"feature set (default: {first})")
        spec = LearnerSpec("svm")  # field defaults are the same for each method
        p.add_argument("--k", type=int, help=f"knn neighborhood size (default: {spec.k})")
        p.add_argument("--d", type=int, help=f"svm kernel degree (default: {spec.d})")
        p.add_argument("--C", type=float, help=f"svm box constant (default: {spec.C})")
        p.add_argument("--out", "-o", required=name == "train",
                       help="model file" if name == "train"
                       else "output file (default: stdout)")
        return p

    p = learner_command("train", "fit a model and save it")
    p.add_argument("--method", required=True,
                   choices=tuple(m for m in METHODS if m != "baseline"))

    p = learner_command("eval", "evaluate on a corpus (closed test, "
                                "or a saved model / the baseline)")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--method", choices=METHODS)
    which.add_argument("--model", help="saved model to evaluate")
    p.set_defaults(seed=0)  # eval draws nothing at random; its config says 0

    p = learner_command("cv", "k-fold cross-validation")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--method", choices=METHODS)
    which.add_argument("--all", action="store_true", dest="run_all",
                       help="run the full method/feature-set grid and print "
                            "a matrix (takes no --features, --k, --d or --C)")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--seed", type=int, default=0, help="fold assignment seed")

    p = learner_command("cross-domain", "train on one corpus, test on another",
                        corpus=False)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--folds", type=int, default=10,
                   help="folds for the overlapping part")
    p.add_argument("--seed", type=int, default=0, help="fold assignment seed")

    p = sub.add_parser("analyze", help="sign test and effective features "
                                       "between two reports")
    p.add_argument("--input", "-i", required=True, help="the evaluated corpus")
    p.add_argument("--report-a", required=True)
    p.add_argument("--report-b", required=True)
    p.add_argument("--features", type=int, choices=(1, 2, 3), default=3,
                   help="feature set for the effective-feature scan")
    p.add_argument("--level", type=float, default=0.01)
    p.add_argument("--out", "-o")
    # analyze draws nothing at random; its report's config record names no
    # learner and seed 0
    p.set_defaults(method=None, seed=0)

    p = sub.add_parser("distribution", help="category occurrence rates")
    p.add_argument("--input", "-i", required=True)
    p.add_argument("--out", "-o")

    return parser


def main(argv=None) -> int:
    """Run one command and return its exit code. Every error maps to a code
    here, with one stderr line: a ConfigError (a malformed command line or
    a setting a learner refuses) is a usage error, a TrainingError a
    training failure, and any other ValueError (a malformed corpus, model
    or report file) or OSError a data error."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve(args)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:  # a ValueError, so it goes first
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except (OSError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
