"""Which tamkit functions get a span, and the per-layer metrics read from
the spans and counts of one traced pass.

A wrap target that no longer exists in ``src/`` fails the traced run.
Skipping it would make its metrics read 0, and most of them are
lower-is-better, so a rename would read as a gain. A change that moves a
target updates the tables below.
"""

from __future__ import annotations

import importlib

from spans import Tracer

FEATURE_SETS = (1, 2, 3)


def _fit_name(spec, dataset, mode, *rest, **kwargs) -> str:
    method = spec.method + (f"_d{spec.d}" if spec.method == "svm" else "")
    return f"fit.{method}.fs{int(mode)}"


def _predict_name(method):
    def name(model, *args, **kwargs):
        mode = getattr(model, "mode", 2)
        if method == "svm":
            return f"predict.svm_d{model.d}.fs{int(mode)}"
        return f"predict.{method}.fs{int(mode)}"
    return name


def _count_encoding(tracer, args, result):
    example, mode, *rest = args
    tracer.encodings.add((example, int(mode), *rest))


def _count_kernel_evals(tracer, args, result):
    tracer.counts["svm.kernel_evals"] += len(args[0].support_vectors)


def _count_binary_fit(tracer, args, result):
    info = getattr(result, "info", {})
    tracer.counts["svm.smo_iterations"] += info.get("iterations", 0)
    tracer.counts["svm.pair_examples"] += info.get("n_train", 0)
    tracer.counts["svm.support_vectors"] += len(result.support_vectors)


def _count_maxent_fit(tracer, args, result):
    info = getattr(result, "info", {})
    tracer.counts["maxent.gis_iterations"] += info.get("iterations", 0)
    tracer.counts["maxent.fits_at_max_iters"] += info.get("stopped_by") == "max_iters"
    tracer.counts["maxent.clamped_fits"] += bool(info.get("clamped"))


def _count_fallback(tracer, args, result):
    tracer.counts["declist.fallbacks"] += bool(getattr(result, "fallback", False))


def _count_candidates(tracer, args, result):
    tracer.counts["knn.candidates_scanned"] += len(args[0].sentences)


# (module, function, span name, count hook)
FUNCTIONS = (
    ("tamkit.cli", "main", "cli.main", None),
    ("tamkit.cli", "report_lines", "cli.report_lines", None),
    ("tamkit.cli", "load_report_predictions", "cli.load_report_predictions", None),
    ("tamkit.corpus", "load_corpus", "corpus.load_corpus", None),
    ("tamkit.corpus", "parse_corpus", "corpus.parse_corpus", None),
    ("tamkit.corpus", "split_folds", "corpus.split_folds", None),
    ("tamkit.features", "example_features", "features.example_features",
     _count_encoding),
    ("tamkit.features", "extract", "features.extract", None),
    ("tamkit.features", "to_csr", "features.to_csr", None),
    ("tamkit.evaluate", "fit", _fit_name, None),
    ("tamkit.evaluate", "cross_validate", "evaluate.cross_validate", None),
    ("tamkit.evaluate", "closed_test", "evaluate.closed_test", None),
    ("tamkit.evaluate", "evaluate_model", "evaluate.evaluate_model", None),
    ("tamkit.evaluate", "cross_domain_eval", "evaluate.cross_domain_eval", None),
    ("tamkit.evaluate", "compare_predictions", "evaluate.compare_predictions", None),
    ("tamkit.evaluate", "sign_test", "evaluate.sign_test", None),
    ("tamkit.evaluate", "effective_features", "evaluate.effective_features", None),
    ("tamkit.evaluate", "category_distribution", "evaluate.category_distribution",
     None),
    ("tamkit.knn", "train_knn", "knn.train_knn", None),
    ("tamkit.knn", "classify_knn", "knn.classify_knn", _count_candidates),
    ("tamkit.declist", "train_declist", "declist.train_declist", None),
    ("tamkit.declist", "decide", "declist.decide", _count_fallback),
    ("tamkit.maxent", "train_maxent", "maxent.train_maxent", _count_maxent_fit),
    ("tamkit.maxent", "classify_maxent", "maxent.classify_maxent", None),
    ("tamkit.svm", "train_pairwise", "svm.train_pairwise", None),
    ("tamkit.svm", "train_binary_svm", "svm.binary_fit", _count_binary_fit),
    ("tamkit.svm", "decide", "svm.decide", _count_kernel_evals),
    ("tamkit.svm", "classify_pairwise", "svm.classify_pairwise", None),
    ("tamkit.storage", "save_model", "storage.save_model", None),
    ("tamkit.storage", "load_model", "storage.load_model", None),
)

# (module, class, method, span name)
METHODS = (
    ("tamkit.features", "Vocabulary", "from_dataset", "features.vocab_build"),
    ("tamkit.knn", "KnnModel", "predict", _predict_name("knn")),
    ("tamkit.declist", "DecisionListModel", "predict", _predict_name("dlist")),
    ("tamkit.maxent", "MaxEntModel", "predict", _predict_name("maxent")),
    ("tamkit.svm", "PairwiseModel", "predict", _predict_name("svm")),
)


def install(tracer: Tracer) -> None:
    """Wrap every target. Raises ``LookupError``, wrapping nothing, if a
    target is missing from ``src/``."""
    missing = [f"{module}.{attr}" for module, attr, _, _ in FUNCTIONS
               if not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    missing += [f"{module}.{cls_name}.{attr}"
                for module, cls_name, attr, _ in METHODS
                if attr not in vars(getattr(importlib.import_module(module),
                                            cls_name, object))]
    if missing:
        raise LookupError(f"wrap targets missing from src/: {missing}")
    for module, attr, name, after in FUNCTIONS:
        tracer.function(module, attr, name, after)
    for module, cls_name, attr, name in METHODS:
        tracer.method(getattr(importlib.import_module(module), cls_name),
                      attr, name)


def _fit_and_predict_names():
    names = ["knn.fs2"]
    for method in ("svm_d1", "svm_d2", "maxent", "dlist"):
        names += [f"{method}.fs{fs}" for fs in FEATURE_SETS]
    return names


# per-layer metric -> unit; the order is the order of the output
PER_LAYER = {
    "features.example_features.calls": "count",
    "features.unique_encode_ratio": "ratio",
    "features.extract.calls": "count",
    "features.extract.s": "s",
    "features.vocab_build.s": "s",
    "features.to_csr.s": "s",
    "svm.pair_decisions": "count",
    "svm.kernel_evals": "count",
    "svm.decide.s": "s",
    "svm.binary_fits": "count",
    "svm.binary_fit.s": "s",
    "svm.smo_iterations": "count",
    "svm.support_vectors": "count",
    "svm.sv_ratio": "ratio",
    "svm.train_pairwise.self_s": "s",
    "knn.candidates_scanned": "count",
    "maxent.gis_iterations": "count",
    "maxent.fits_at_max_iters": "count",
    "maxent.clamped_fits": "count",
    "declist.fallbacks": "count",
    **{f"fit.{n}.s": "s" for n in _fit_and_predict_names()},
    **{f"predict.{n}.us": "us" for n in _fit_and_predict_names()},
    "evaluate.fit.calls": "count",
    "evaluate.score.self_s": "s",
    "evaluate.sign_test.s": "s",
    "evaluate.effective_features.s": "s",
    "storage.save_model.s": "s",
    "storage.load_model.s": "s",
    "model_bytes": "bytes",
    "corpus.load_corpus.s": "s",
    "corpus.split_folds.s": "s",
    "cli.report_lines.s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}

_SCORING = ("evaluate.cross_validate", "evaluate.evaluate_model",
            "evaluate.cross_domain_eval")


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except those measured outside
    the spans (``model_bytes``, ``cli.output_bytes``, ``trace.overhead_s``)."""
    spans = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "features.example_features.calls": calls("features.example_features"),
        "features.unique_encode_ratio": ratio(
            len(tracer.encodings), calls("features.example_features")),
        "features.extract.calls": calls("features.extract"),
        "features.extract.s": total("features.extract"),
        "features.vocab_build.s": total("features.vocab_build"),
        "features.to_csr.s": total("features.to_csr"),
        "svm.pair_decisions": calls("svm.decide"),
        "svm.kernel_evals": counts["svm.kernel_evals"],
        "svm.decide.s": total("svm.decide"),
        "svm.binary_fits": calls("svm.binary_fit"),
        "svm.binary_fit.s": total("svm.binary_fit"),
        "svm.smo_iterations": counts["svm.smo_iterations"],
        "svm.support_vectors": counts["svm.support_vectors"],
        "svm.sv_ratio": ratio(counts["svm.support_vectors"],
                              counts["svm.pair_examples"]),
        "svm.train_pairwise.self_s": self_s("svm.train_pairwise"),
        "knn.candidates_scanned": counts["knn.candidates_scanned"],
        "maxent.gis_iterations": counts["maxent.gis_iterations"],
        "maxent.fits_at_max_iters": counts["maxent.fits_at_max_iters"],
        "maxent.clamped_fits": counts["maxent.clamped_fits"],
        "declist.fallbacks": counts["declist.fallbacks"],
    }
    for n in _fit_and_predict_names():
        m[f"fit.{n}.s"] = total(f"fit.{n}")
        m[f"predict.{n}.us"] = ratio(total(f"predict.{n}") * 1e6,
                                     calls(f"predict.{n}"))
    m["evaluate.fit.calls"] = sum(c for name, (c, _, _) in spans.items()
                                  if name.startswith("fit."))
    m["evaluate.score.self_s"] = sum(self_s(name) for name in _SCORING)
    for name in ("evaluate.sign_test", "evaluate.effective_features",
                 "storage.save_model", "storage.load_model",
                 "corpus.load_corpus", "corpus.split_folds", "cli.report_lines"):
        m[f"{name}.s"] = total(name)
    return m
