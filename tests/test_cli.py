import copy
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from synth import modality_corpus, random_token_corpus, table1_corpus
from tamkit.cli import GRID, main
from tamkit.corpus import Dataset, Example, serialize_corpus
from tamkit.evaluate import METHODS, LearnerSpec
from tamkit.features import FeatureSet
from tamkit.storage import load_model, save_model
import tamkit

import random


@pytest.fixture
def corpus_file(tmp_path):
    ds = random_token_corpus(random.Random(14), max_examples=60, n_labels=3)
    path = tmp_path / "corpus.tsv"
    path.write_text(serialize_corpus(ds), encoding="utf-8")
    return path


@pytest.fixture
def suffix_corpus_file(tmp_path):
    ds = table1_corpus(300, seed=4)
    path = tmp_path / "table1.tsv"
    path.write_text(serialize_corpus(ds), encoding="utf-8")
    return path


def read(path):
    return path.read_bytes()


class TestExitCodes:
    def test_knn_with_feature_set_one_is_usage_error(self, corpus_file, capsys):
        code = main(["cv", "--input", str(corpus_file), "--method", "knn",
                     "--features", "1", "--folds", "3"])
        assert code == 1
        assert "feature-set 2" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        code = main(["cv", "--input", str(tmp_path / "absent.tsv"),
                     "--method", "dlist"])
        assert code == 2

    def test_malformed_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("justonefield\n", encoding="utf-8")
        code = main(["distribution", "--input", str(bad)])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_single_label_svm_is_training_error(self, tmp_path):
        path = tmp_path / "one.tsv"
        path.write_text("only\tあった\nonly\tいった\nonly\tうった\n",
                        encoding="utf-8")
        code = main(["eval", "--input", str(path), "--method", "svm"])
        assert code == 3

    def test_train_baseline_is_usage_error(self, corpus_file, tmp_path):
        code = main(["train", "--input", str(corpus_file), "--method",
                     "baseline", "--out", str(tmp_path / "m.json")])
        assert code == 1

    def test_unknown_flag_is_usage_error(self, capsys):
        assert main(["cv", "--bogus"]) == 1

    def test_cross_domain_without_method_is_usage_error(self, corpus_file,
                                                        capsys):
        code = main(["cross-domain", "--train", str(corpus_file),
                     "--test", str(corpus_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: ") and "--method" in err
        assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["train", "--input", "absent.tsv", "--method", "dlist"],
    ["train", "--input", "absent.tsv", "--out", "m.json"],
    ["train", "--input", "absent.tsv", "--method", "baseline", "--out", "m.json"],
    ["cross-domain", "--train", "absent.tsv", "--test", "absent.tsv"],
    # --folds 1 withholds the whole overlap at once; fewer is no plan
    ["cross-domain", "--train", "absent.tsv", "--test", "absent.tsv",
     "--method", "dlist", "--folds", "0"],
    ["cross-domain", "--train", "absent.tsv", "--test", "absent.tsv",
     "--method", "dlist", "--folds", "-3"],
    ["eval", "--input", "absent.tsv"],
    ["eval", "--input", "absent.tsv", "--model", "m.json", "--method", "svm"],
    ["cv", "--input", "absent.tsv"],
    ["cv", "--input", "absent.tsv", "--all", "--method", "svm"],
    # neither draws anything at random
    ["train", "--input", "absent.tsv", "--method", "dlist", "--out", "m.json",
     "--seed", "1"],
    ["eval", "--input", "absent.tsv", "--method", "dlist", "--seed", "3"],
])
def test_parse_time_usage_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["cv", "--method", "dlist", "--k", "0"], "k must be >= 1"),
    (["eval", "--method", "knn", "--k", "0"], "k must be >= 1"),
    (["eval", "--method", "knn", "--features", "1"], "feature-set 2"),
    (["eval", "--method", "svm", "--d", "3"], "degree must be 1 or 2"),
    (["eval", "--method", "svm", "--C", "0"], "C must be positive and finite"),
    (["eval", "--method", "svm", "--C", "-1"], "C must be positive and finite"),
    (["eval", "--method", "svm", "--C", "nan"], "C must be positive and finite"),
    (["eval", "--method", "svm", "--C", "inf"], "C must be positive and finite"),
    (["train", "--method", "svm", "--C", "nan", "--out", "m.json"],
     "C must be positive and finite"),
    (["cv", "--method", "dlist", "--folds", "1"], "at least 2 folds"),
])
def test_bad_settings_are_rejected_before_reading(tmp_path, capsys, argv,
                                                  message):
    missing = tmp_path / "absent.tsv"
    assert main(argv + ["--input", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1
    assert message in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("flags", [["--features", "1"], ["--k", "0"],
                                   ["--k", "3"], ["--d", "2"], ["--C", "5"],
                                   ["--C", "nan", "--features", "3"]])
def test_cv_all_rejects_learner_flags(tmp_path, capsys, flags):
    # the grid fixes every learner and feature set, so these flags would be
    # silently ignored
    missing = tmp_path / "absent.tsv"
    assert main(["cv", "--all", "--input", str(missing)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: cv --all ") and err.count("\n") == 1
    assert all(flag in err for flag in flags[::2])


NO_EXAMPLES = "empty.tsv: no examples"


@pytest.mark.parametrize("argv, problem", [
    (["train", "--input", "empty.tsv", "--method", "svm", "--out", "new.json"],
     NO_EXAMPLES),
    *((["eval", "--input", "empty.tsv", "--method", m], NO_EXAMPLES)
      for m in METHODS),
    (["eval", "--input", "empty.tsv", "--model", "knn.json"], NO_EXAMPLES),
    (["cv", "--input", "empty.tsv", "--method", "dlist"], NO_EXAMPLES),
    (["cv", "--input", "empty.tsv", "--all"], NO_EXAMPLES),
    (["cross-domain", "--train", "empty.tsv", "--test", "one.tsv",
      "--method", "dlist"], NO_EXAMPLES),
    (["cross-domain", "--train", "one.tsv", "--test", "empty.tsv",
      "--method", "dlist"], NO_EXAMPLES),
    (["analyze", "--input", "empty.tsv", "--report-a", "r.jsonl",
      "--report-b", "r.jsonl"], NO_EXAMPLES),
    (["distribution", "--input", "empty.tsv"], NO_EXAMPLES),
    # the one training example is also the one test example, so its model
    # trains with it withheld: on nothing
    *((["cross-domain", "--train", "one.tsv", "--test", "one.tsv", "--method", m],
       "cannot train on an empty dataset") for m in ("knn", "dlist", "maxent", "svm")),
])
def test_nothing_to_learn_from_is_data_error(tmp_path, monkeypatch, capsys, argv,
                                             problem):
    # an empty corpus crashed eval of the baseline or of a model file with a
    # ZeroDivisionError traceback, other commands named no file, and the svm
    # exited 3 where every other learner exits 2
    monkeypatch.chdir(tmp_path)
    Path("empty.tsv").write_text("# comments only\n\n", encoding="utf-8")
    Path("one.tsv").write_text("past\tあった\n", encoding="utf-8")
    assert main(["train", "--input", "one.tsv", "--method", "knn",
                 "--out", "knn.json"]) == 0
    assert main(["eval", "--input", "one.tsv", "--method", "baseline",
                 "--out", "r.jsonl"]) == 0
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"data error: {problem}\n"


def test_train_help_names_the_learner_defaults(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    for method in METHODS:
        assert f"{method} {int(LearnerSpec(method).feature_sets[0])}" in text
    assert f"knn neighborhood size (default: {LearnerSpec('knn').k})" in text
    assert f"svm kernel degree (default: {LearnerSpec('svm').d})" in text
    assert f"svm box constant (default: {LearnerSpec('svm').C})" in text


@pytest.mark.parametrize("level", ["0", "1", "1.5", "nan"])
def test_bad_analyze_level_is_usage_error(tmp_path, capsys, level):
    missing = str(tmp_path / "absent")
    assert main(["analyze", "--input", missing, "--report-a", missing,
                 "--report-b", missing, "--level", level]) == 1
    err = capsys.readouterr().err
    assert err == "usage error: --level must be in (0, 1)\n"


def _config_record(path, first=False):
    lines = path.read_text(encoding="utf-8").splitlines()
    return json.loads(lines[0 if first else -1])["config"]


@pytest.mark.parametrize("flags, expected", [
    (["--method", "maxent", "--features", "2"],
     {"method": "maxent", "feature_set": 2, "seed": 0}),
    (["--method", "knn", "--k", "5"],
     {"method": "knn", "feature_set": 2, "seed": 0, "k": 5}),
    (["--method", "baseline"],
     {"method": "baseline", "feature_set": 1, "seed": 0}),
])
def test_eval_config_record(corpus_file, tmp_path, flags, expected):
    out = tmp_path / "r.jsonl"
    assert main(["eval", "--input", str(corpus_file), "--out", str(out)]
                + flags) == 0
    assert _config_record(out) == {"command": "eval",
                                   "input": str(corpus_file), **expected}


@pytest.mark.parametrize("argv, values", [
    (["cv", "--method", "svm", "--folds", "3"], '"C": 1.0, "command": "cv", "d": 1, '),
    (["cv", "--method", "knn", "--folds", "3"], '"k": 3, '),
    (["eval", "--method", "svm"], '"C": 1.0, "command": "eval", "d": 1, '),
    (["cross-domain", "--method", "svm", "--folds", "3"],
     '"C": 1.0, "command": "cross-domain", "d": 1, '),
    # without --features a learner runs on its first feature set: k-NN on
    # feature set 2, the only one it has, every other learner on 1
    *((["eval", "--method", m], f'"feature_set": {2 if m == "knn" else 1}, ')
      for m in METHODS),
    *((["cv", "--method", m, "--folds", "3"],
       f'"feature_set": {2 if m == "knn" else 1}, "folds"') for m in METHODS),
])
def test_learner_defaults_in_config_records(corpus_file, tmp_path, argv, values):
    corpus = (["--train", str(corpus_file), "--test", str(corpus_file)]
              if argv[0] == "cross-domain" else ["--input", str(corpus_file)])
    out = tmp_path / "r.jsonl"
    assert main(argv + corpus + ["--out", str(out)]) == 0
    assert values in out.read_text(encoding="utf-8").splitlines()[-1]


def test_eval_model_config_record(corpus_file, tmp_path, capsys):
    # a model is evaluated on the feature set it was trained on; train
    # without --features trains on the learner's first
    for method, flags, expected in (
            ("svm", ["--features", "3"], {"feature_set": 3, "d": 1, "C": 1.0}),
            ("knn", [], {"feature_set": 2, "k": 3}),
            ("dlist", [], {"feature_set": 1}),
            ("maxent", [], {"feature_set": 1})):
        model = tmp_path / f"{method}.json"
        assert main(["train", "--input", str(corpus_file), "--method", method,
                     *flags, "--out", str(model)]) == 0
        assert f" feature-set {expected['feature_set']} on " in capsys.readouterr().out
        out = tmp_path / f"{method}.jsonl"
        assert main(["eval", "--input", str(corpus_file), "--model", str(model),
                     "--out", str(out)]) == 0
        assert _config_record(out) == {"command": "eval", "method": method,
                                       "seed": 0, "input": str(corpus_file),
                                       "model": str(model), **expected}


def test_cv_and_analyze_config_records(corpus_file, tmp_path):
    report_a, report_b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["cv", "--input", str(corpus_file), "--method", "svm",
                 "--C", "2", "--folds", "3", "--seed", "5",
                 "--out", str(report_a)]) == 0
    assert _config_record(report_a) == {
        "command": "cv", "method": "svm", "feature_set": 1, "seed": 5,
        "d": 1, "C": 2.0, "folds": 3, "input": str(corpus_file)}
    assert main(["eval", "--input", str(corpus_file), "--method", "baseline",
                 "--out", str(report_b)]) == 0
    out = tmp_path / "analysis.jsonl"
    assert main(["analyze", "--input", str(corpus_file), "--report-a",
                 str(report_a), "--report-b", str(report_b),
                 "--out", str(out)]) == 0
    assert _config_record(out, first=True) == {
        "command": "analyze", "method": None, "feature_set": 3, "seed": 0,
        "input": str(corpus_file)}


def test_cross_domain_accepts_its_flags(corpus_file, tmp_path):
    out = tmp_path / "r.jsonl"
    code = main(["cross-domain", "--train", str(corpus_file), "--test",
                 str(corpus_file), "--method", "svm", "--features", "3",
                 "--k", "5", "--d", "2", "--C", "0.5", "--folds", "3",
                 "--seed", "4", "-o", str(out)])
    assert code == 0
    config = json.loads(out.read_text().splitlines()[-1])["config"]
    assert config == {"command": "cross-domain", "method": "svm",
                      "feature_set": 3, "seed": 4, "d": 2, "C": 0.5,
                      "folds": 3, "train": str(corpus_file),
                      "test": str(corpus_file)}


class TestDeterminism:
    def test_cv_reports_are_byte_identical(self, corpus_file, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code = main(["cv", "--input", str(corpus_file), "--method", "dlist",
                         "--features", "3", "--folds", "5", "--seed", "11",
                         "--out", str(out)])
            assert code == 0
            outs.append(read(out))
        assert outs[0] == outs[1]

    def test_svm_eval_reports_are_byte_identical(self, corpus_file, tmp_path):
        outs = []
        for name in ("a.jsonl", "b.jsonl"):
            out = tmp_path / name
            code = main(["eval", "--input", str(corpus_file), "--method", "svm",
                         "--d", "2", "--out", str(out)])
            assert code == 0
            outs.append(read(out))
        assert outs[0] == outs[1]

    def test_different_seed_changes_fold_records(self, corpus_file, tmp_path):
        outs = []
        for seed in ("1", "2"):
            out = tmp_path / f"s{seed}.jsonl"
            main(["cv", "--input", str(corpus_file), "--method", "dlist",
                  "--features", "3", "--folds", "5", "--seed", seed,
                  "--out", str(out)])
            outs.append(read(out))
        assert outs[0] != outs[1]


class TestReports:
    def test_report_structure(self, corpus_file, tmp_path):
        out = tmp_path / "r.jsonl"
        main(["cv", "--input", str(corpus_file), "--method", "maxent",
              "--features", "3", "--folds", "4", "--seed", "0",
              "--out", str(out)])
        records = [json.loads(line) for line in out.read_text().splitlines()]
        kinds = [r["record"] for r in records]
        assert kinds.count("fold") == 4
        assert kinds[-1] == "summary"
        summary = records[-1]
        assert summary["config"]["seed"] == 0
        assert summary["config"]["method"] == "maxent"
        assert summary["config"]["feature_set"] == 3
        assert summary["closed"] is False
        n_predictions = kinds.count("prediction")
        assert n_predictions == summary["total"]

    def test_eval_closed_flag(self, corpus_file, tmp_path):
        out = tmp_path / "r.jsonl"
        main(["eval", "--input", str(corpus_file), "--method", "dlist",
              "--out", str(out)])
        summary = json.loads(out.read_text().splitlines()[-1])
        assert summary["closed"] is True

    def test_eval_baseline_without_training(self, suffix_corpus_file, tmp_path):
        out = tmp_path / "r.jsonl"
        code = main(["eval", "--input", str(suffix_corpus_file), "--method",
                     "baseline", "--out", str(out)])
        assert code == 0
        summary = json.loads(out.read_text().splitlines()[-1])
        assert summary["precision"] == pytest.approx(0.78, abs=0.02)

    def test_distribution_output(self, suffix_corpus_file, tmp_path):
        out = tmp_path / "d.jsonl"
        assert main(["distribution", "--input", str(suffix_corpus_file),
                     "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["label"] == "present"
        assert abs(sum(r["rate"] for r in records) - 1.0) < 1e-9


class TestModelFiles:
    def test_train_then_eval_model(self, corpus_file, tmp_path):
        model_path = tmp_path / "model.json"
        assert main(["train", "--input", str(corpus_file), "--method", "svm",
                     "--features", "1", "--out", str(model_path)]) == 0
        out = tmp_path / "r.jsonl"
        assert main(["eval", "--input", str(corpus_file), "--model",
                     str(model_path), "--out", str(out)]) == 0
        summary = json.loads(out.read_text().splitlines()[-1])
        assert summary["config"]["method"] == "svm"
        assert summary["precision"] > 0.5

    def test_model_round_trip_all_methods(self, tmp_path):
        ds = random_token_corpus(random.Random(6), max_examples=30, n_labels=2)
        from tamkit.evaluate import LearnerSpec, fit
        from tamkit.features import FeatureSet
        for method, mode in (("knn", FeatureSet.FS2), ("dlist", FeatureSet.FS1),
                             ("maxent", FeatureSet.FS3), ("svm", FeatureSet.FS1)):
            model = fit(LearnerSpec(method, k=3), ds, mode)
            path = tmp_path / f"{method}.json"
            save_model(path, model)
            again = load_model(path)
            for ex in ds:
                assert model.predict(ex) == again.predict(ex)

    def test_bad_model_file(self, tmp_path, corpus_file):
        path = tmp_path / "m.json"
        path.write_text('{"format": "something-else"}', encoding="utf-8")
        assert main(["eval", "--input", str(corpus_file), "--model",
                     str(path)]) == 2

    def test_deeply_nested_model_file_is_data_error(self, tmp_path,
                                                    corpus_file, capsys):
        # the JSON decoder raised RecursionError, a traceback
        path = tmp_path / "m.json"
        path.write_text("[" * 100000, encoding="utf-8")
        assert main(["eval", "--input", str(corpus_file), "--model",
                     str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {path}: not JSON (nested too deeply)\n"

    @pytest.mark.parametrize("text, problem", [
        ("not json", "Expecting value at column 1"),
        ('{\n  "format":\n}\n', "Expecting value at line 3 column 1"),
    ])
    def test_model_file_that_is_not_json_is_data_error(self, tmp_path,
                                                       corpus_file, capsys,
                                                       text, problem):
        path = tmp_path / "m.json"
        path.write_text(text, encoding="utf-8")
        assert main(["eval", "--input", str(corpus_file), "--model",
                     str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {path}: not JSON ({problem})\n"

    def test_invalid_utf8_model_file_is_data_error(self, tmp_path,
                                                   corpus_file, capsys):
        path = tmp_path / "m.json"
        assert main(["train", "--input", str(corpus_file), "--method", "dlist",
                     "--out", str(path)]) == 0
        raw = path.read_bytes()
        path.write_bytes(raw[:20] + b"\xff" + raw[20:])
        capsys.readouterr()
        assert main(["eval", "--input", str(corpus_file), "--model",
                     str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: not valid UTF-8 (")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("method", ["knn", "dlist", "maxent", "svm"])
    def test_empty_payload_is_data_error(self, tmp_path, corpus_file, capsys,
                                         method):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"format": "tamkit-model", "method": method,
                                    "payload": {}}), encoding="utf-8")
        assert main(["eval", "--input", str(corpus_file), "--model",
                     str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(path) in err and method in err

    def _train_svm_file(self, corpus_file, tmp_path):
        path = tmp_path / "model.json"
        assert main(["train", "--input", str(corpus_file), "--method", "svm",
                     "--features", "1", "--out", str(path)]) == 0
        return path, json.loads(path.read_text(encoding="utf-8"))

    def _predictions(self, corpus_file, model_path, out):
        assert main(["eval", "--input", str(corpus_file), "--model",
                     str(model_path), "--out", str(out)]) == 0
        return [line for line in out.read_text().splitlines()
                if '"prediction"' in line]

    def test_other_suffix_length_is_data_error(self, tmp_path, corpus_file,
                                                capsys):
        _, document = self._train_svm_file(corpus_file, tmp_path)
        document["payload"]["max_n"] = 5
        path = tmp_path / "n5.json"
        path.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "--input", str(corpus_file), "--model",
                     str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and err.count("\n") == 1
        assert str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("mode", 7),
        ("vocab", ["bogus", "x"]),
        ("vocab", ["suffix", ""]),
        ("vocab", ["token"]),
    ])
    def test_malformed_dlist_payload_is_data_error(self, tmp_path, corpus_file,
                                                   capsys, field, value):
        path = tmp_path / "model.json"
        assert main(["train", "--input", str(corpus_file), "--method", "dlist",
                     "--features", "1", "--out", str(path)]) == 0
        document = json.loads(path.read_text(encoding="utf-8"))
        if field == "mode":
            document["payload"]["mode"] = value
        else:
            document["payload"]["vocab"][0] = value
        path.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "--input", str(corpus_file), "--model",
                     str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: malformed dlist model payload (")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("method, table, change", [
        ("maxent", "weights", "remove row"),
        ("maxent", "weights", "add row"),
        ("maxent", "weights", "remove column"),
        ("dlist", "counts", "remove row"),
        ("dlist", "counts", "add row"),
    ])
    def test_table_must_fit_the_vocabulary(self, tmp_path, corpus_file, capsys,
                                           method, table, change):
        # a table off by one row would score each feature with its
        # neighbour's row
        path = tmp_path / "model.json"
        assert main(["train", "--input", str(corpus_file), "--method", method,
                     "--out", str(path)]) == 0
        document = json.loads(path.read_text(encoding="utf-8"))
        rows = document["payload"][table]
        if change == "remove row":
            del rows[0]
        elif change == "add row":
            rows.append(rows[-1])
        else:
            for row in rows:
                del row[-1]
        path.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "--input", str(corpus_file), "--model",
                     str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"data error: {path}: malformed {method} model payload (")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("case", ["negative id", "id past vocabulary",
                                      "float id", "label 3", "short alpha",
                                      "short sv_ids", "ghost pair label",
                                      "pair degree", "nan alpha",
                                      "infinite b", "no models",
                                      "deleted pair", "d 2.5", "d true",
                                      "d '2'", "d 0", "d -1", "d 60",
                                      "pair d true", "C -1", "C 0", "C 1e400",
                                      "pair C 0", "mode true", "mode 1.0",
                                      "mode 2", "negative alpha", "label true",
                                      "alpha true", "pair C 2",
                                      "pair listed twice",
                                      "pair listed reversed"])
    def test_malformed_svm_payload_is_data_error(self, tmp_path, corpus_file,
                                                 capsys, case):
        # a negative id corrupted the heap in the sparse-matrix build, a
        # label of 3, a NaN multiplier or a missing pair changed predictions
        # without any error, and a pair label outside the model's labels
        # raised a KeyError traceback; a degree, C or mode that the command
        # line refuses loaded, a degree of 0 or -1 halving precision; a
        # negative multiplier, a label of true and a pair listed twice
        # loaded, the last one silently overriding, or, reversed, casting
        # an extra vote
        path, document = self._train_svm_file(corpus_file, tmp_path)
        payload = document["payload"]
        pair = payload["models"][0][2]
        value = {"d 2.5": 2.5, "d true": True, "d '2'": "2", "d 0": 0,
                 "d -1": -1, "d 60": 60, "C -1": -1, "C 0": 0,
                 "C 1e400": "1e400", "mode true": True, "mode 1.0": 1.0,
                 "mode 2": 2}.get(case)
        if case[:2] in ("d ", "C "):  # the model's value and every pair's
            for owner in [payload] + [m for _, _, m in payload["models"]]:
                owner[case[0]] = value
        elif case == "pair d true":
            pair["d"] = True
        elif case == "pair C 0":
            pair["C"] = 0
        elif case == "pair C 2":
            pair["C"] = payload["C"] * 2
        elif case == "negative alpha":
            pair["alpha"][0] = -5.0
        elif case == "label true":
            pair["y"][pair["y"].index(1)] = True
        elif case == "alpha true":
            pair["alpha"][0] = True
        elif case.startswith("pair listed"):
            a, b, _ = payload["models"][0]
            if case.endswith("reversed"):
                a, b = b, a
            payload["models"].append([a, b, copy.deepcopy(pair)])
        elif case.startswith("mode "):  # 2 drops the tokens of feature set 1
            payload["mode"] = value
        elif case == "no models":
            payload["models"] = []
        elif case == "deleted pair":
            del payload["models"][1]
        elif case == "ghost pair label":
            payload["models"][0][0] = "ghost"
        elif case == "pair degree":
            pair["d"] = payload["d"] + 1
        elif case == "nan alpha":
            pair["alpha"][0] = float("nan")
        elif case == "infinite b":
            pair["b"] = float("inf")
        elif case == "negative id":
            pair["sv_ids"][0].append(-1)
        elif case == "id past vocabulary":
            pair["sv_ids"][0].append(len(payload["vocab"]))
        elif case == "float id":
            pair["sv_ids"][0].append(1.5)
        elif case == "label 3":
            pair["y"][0] = 3.0
        elif case == "short alpha":
            del pair["alpha"][-1]
        else:
            del pair["sv_ids"][-1]
        # JSON has no infinity; 1e400 overflows to one when read
        path.write_text(json.dumps(document).replace('"1e400"', "1e400"),
                        encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "--input", str(corpus_file), "--model",
                     str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}: malformed svm model payload (")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_svm_multiplier_above_C_loads(self, tmp_path, corpus_file):
        # merged duplicate examples may carry multipliers up to m * C
        path, document = self._train_svm_file(corpus_file, tmp_path)
        pair = document["payload"]["models"][0][2]
        pair["alpha"][0] = 5 * document["payload"]["C"]
        above = tmp_path / "above.json"
        above.write_text(json.dumps(document), encoding="utf-8")
        assert load_model(above).models[tuple(document["payload"]["models"][0][:2])
                                        ].sv_alpha[0] == 5 * document["payload"]["C"]
        self._predictions(corpus_file, above, tmp_path / "above.jsonl")

    @pytest.mark.parametrize("method, case", [
        ("knn", "sentence 5"), ("knn", "k 2.5"), ("knn", "k true"),
        ("knn", "label 7"), ("knn", "empty label"), ("knn", "string lists"),
        ("maxent", "labels string"), ("svm", "labels string"),
        ("dlist", "count 0"), ("dlist", "count -3"), ("dlist", "count 1.5"),
        ("dlist", "repeated count label"), ("dlist", "no label counts"),
        ("maxent", "nan weight"), ("maxent", "infinite weight"),
        ("maxent", "repeated label"), ("maxent", "label count x"),
        ("svm", "label count 0"),
        ("dlist", "mode true"), ("dlist", "mode 1.0"), ("dlist", "mode 2"),
        ("dlist", "mode 3"), ("maxent", "mode true"), ("maxent", "mode 2"),
        ("maxent", "mode 3"),
    ])
    def test_malformed_payload_values_are_data_error(self, tmp_path,
                                                     corpus_file, capsys,
                                                     method, case):
        # unchecked, a knn sentence 5, k = 2.5 or a dlist count of 0 raised
        # a traceback, a "nan" weight exited 2 with a message naming no
        # file, and a knn label 7, a dlist count of -3 or a repeated maxent
        # label loaded and predicted with exit 0; so did a mode of true or
        # 1.0 (as feature set 1) and a mode whose features the vocabulary
        # lacks, which predicted the majority label throughout; so did
        # knn sentences and labels, or maxent labels, given as JSON strings
        # (read as lists of characters)
        path = tmp_path / "model.json"
        assert main(["train", "--input", str(corpus_file), "--method", method,
                     "--out", str(path)]) == 0
        document = json.loads(path.read_text(encoding="utf-8"))
        payload = document["payload"]
        value = {"sentence 5": 5, "k 2.5": 2.5, "k true": True, "label 7": 7,
                 "empty label": "", "count 0": 0, "count -3": -3,
                 "count 1.5": 1.5, "nan weight": "nan",
                 "infinite weight": "inf", "label count x": "x",
                 "label count 0": 0, "mode true": True, "mode 1.0": 1.0,
                 "mode 2": 2, "mode 3": 3}.get(case)
        if case == "sentence 5":
            payload["sentences"][0] = value
        elif case == "string lists":
            payload.update(k=1, sentences="abc", labels="xyz")
        elif case == "labels string":
            payload["labels"] = "xyz"[:len(payload["labels"])]
        elif case.startswith("k "):
            payload["k"] = value
        elif method == "knn":
            payload["labels"][0] = value
        elif case.startswith("count "):
            payload["counts"][0][0][1] = value
        elif case == "repeated count label":
            payload["counts"][0].append(payload["counts"][0][0])
        elif case == "no label counts":
            payload["label_counts"] = []
        elif case.endswith(" weight"):
            payload["weights"][0][0] = value
        elif case == "repeated label":
            payload["labels"][1] = payload["labels"][0]
        elif case.startswith("mode "):  # trained on feature set 1
            payload["mode"] = value
        else:
            payload["label_counts"][0][1] = value
        path.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(["eval", "--input", str(corpus_file), "--model",
                     str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(
            f"data error: {path}: malformed {method} model payload (")
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("ghost", [False, True])
    def test_older_svm_file_loads_and_predicts(self, tmp_path, corpus_file,
                                               ghost):
        # older svm files carry "max_n" and "degenerate" (pairs with one side
        # absent from training, each voting for its present side)
        path, document = self._train_svm_file(corpus_file, tmp_path)
        payload = document["payload"]
        payload["max_n"] = 10
        payload["degenerate"] = []
        if ghost:
            payload["degenerate"] = [[lab, "ghost", lab]
                                     for lab in payload["labels"]]
            payload["labels"] = sorted(payload["labels"] + ["ghost"])
        older = tmp_path / "older.json"
        older.write_text(json.dumps(document), encoding="utf-8")
        expected = self._predictions(corpus_file, path, tmp_path / "a.jsonl")
        assert self._predictions(corpus_file, older,
                                 tmp_path / "b.jsonl") == expected


@pytest.fixture(scope="module")
def trained_documents(tmp_path_factory):
    """A corpus file and one trained model document per method."""
    folder = tmp_path_factory.mktemp("models")
    corpus = folder / "corpus.tsv"
    corpus.write_text(serialize_corpus(random_token_corpus(
        random.Random(14), max_examples=60, n_labels=3)), encoding="utf-8")
    documents = {}
    for method in ("knn", "dlist", "maxent", "svm"):
        path = folder / f"{method}.json"
        assert main(["train", "--input", str(corpus), "--method", method,
                     "--out", str(path)]) == 0
        documents[method] = json.loads(path.read_text(encoding="utf-8"))
    return corpus, documents


PAYLOAD_VALUES = (None, True, 0, -1, 2.5, "x", "nan", "", [], {})


# the fixtures are only read and overwritten, so they may serve every example
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(("knn", "dlist", "maxent", "svm")), st.data())
def test_edited_model_file_is_read_or_refused(trained_documents, tmp_path,
                                              capsys, method, data):
    # one payload value at depth 1 to 3 replaced: the file loads and
    # evaluates, or it is refused with one line, never a traceback
    corpus, documents = trained_documents
    document = copy.deepcopy(documents[method])
    node = document["payload"]
    for depth in (1, 2, 3):
        key = data.draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
        child = node[key]
        if (depth == 3 or not isinstance(child, (list, dict)) or not child
                or data.draw(st.booleans())):
            break
        node = child
    node[key] = data.draw(st.sampled_from(PAYLOAD_VALUES))
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    capsys.readouterr()
    # outside pytest, a warning would print more lines to stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["eval", "--input", str(corpus), "--model", str(path),
                     "--out", str(tmp_path / "report.jsonl")])
    assert code in (0, 2)
    assert capsys.readouterr().err.count("\n") <= 1
    assert not caught


# the field and line separators of the corpus format, characters that
# str.splitlines also takes for a line break (\r, \x1c), and a few of text
CORPUS_CHARS = "ab\t\r #\x1c\u00e9"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_edited_corpus_file_is_read_or_refused(trained_documents, tmp_path,
                                               capsys, caplog, data):
    # one line replaced, sometimes with an invalid UTF-8 byte: each command
    # reads the file or refuses it with one line, never a traceback
    corpus, _ = trained_documents
    lines = corpus.read_bytes().split(b"\n")
    line = data.draw(st.text(alphabet=CORPUS_CHARS, max_size=12)).encode("utf-8")
    if data.draw(st.booleans()):
        at = data.draw(st.integers(0, len(line)))
        line = line[:at] + b"\xff" + line[at:]
    lines[data.draw(st.integers(0, len(lines) - 1))] = line
    path = tmp_path / "edited.tsv"
    path.write_bytes(b"\n".join(lines))
    for command in (["distribution"],
                    ["eval", "--method", "dlist", "--features", "3"],
                    ["eval", "--method", "maxent", "--features", "3"]):
        capsys.readouterr()
        caplog.clear()
        code = main(command + ["--input", str(path),
                               "--out", str(tmp_path / "out")])
        assert code in (0, 2)
        assert capsys.readouterr().err.count("\n") <= 1
        # pytest captures log records; outside it, each is one more line
        assert not caplog.records


@pytest.fixture(scope="module")
def dlist_report(trained_documents, tmp_path_factory):
    """The report of a decision-list evaluation of the trained corpus."""
    corpus, _ = trained_documents
    report = tmp_path_factory.mktemp("reports") / "dlist.jsonl"
    assert main(["eval", "--input", str(corpus), "--method", "dlist",
                 "--features", "3", "--out", str(report)]) == 0
    return report


REPORT_KEYS = ("record", "index", "gold", "predicted", "correct", "total",
               "closed")
json_leaves = (st.none() | st.booleans() | st.integers(-2, 12) | st.floats()
               | st.sampled_from(("fold", "prediction", "summary", "A", "B", "C"))
               | st.text(max_size=4))
json_values = st.recursive(
    json_leaves,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)
report_records = st.dictionaries(st.sampled_from(REPORT_KEYS), json_values,
                                 max_size=5)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_edited_report_file_is_read_or_refused(trained_documents, dlist_report,
                                               tmp_path, capsys, data):
    # one record replaced by drawn JSON, mostly record-like, or by text that
    # may not be JSON, repeated or dropped: analyze reads the report or
    # refuses it with one line, and refuses it whenever an example is then
    # predicted twice or never
    corpus, _ = trained_documents
    lines = dlist_report.read_text(encoding="utf-8").splitlines()
    at = data.draw(st.integers(0, len(lines) - 1))
    prediction = json.loads(lines[at])["record"] == "prediction"
    edit = data.draw(st.sampled_from(("replace", "repeat", "drop")))
    if edit == "replace":
        lines[at] = data.draw(report_records.map(json.dumps)
                              | json_values.map(json.dumps) | st.text(max_size=20))
    elif edit == "repeat":
        lines.insert(at, lines[at])
    else:
        del lines[at]
    path = tmp_path / "edited.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    capsys.readouterr()
    code = main(["analyze", "--input", str(corpus), "--report-a", str(path),
                 "--report-b", str(dlist_report),
                 "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert err.count("\n") <= 1
    if edit != "replace":
        # a fold or summary record repeated or dropped changes no prediction
        assert code == (2 if prediction else 0)
        assert err.startswith(f"data error: {path}: ") == prediction


class TestAnalyze:
    def test_sign_test_and_effective_features(self, tmp_path):
        # method A sees only suffixes, method B additionally sees the flip
        # token, built exactly like the modality construction
        from synth import modality_corpus
        ds = modality_corpus(240, flip_rate=0.25, seed=9, n_stems=12)
        corpus_path = tmp_path / "c.tsv"
        corpus_path.write_text(serialize_corpus(ds), encoding="utf-8")
        report_a = tmp_path / "a.jsonl"
        report_b = tmp_path / "b.jsonl"
        base = ["cv", "--input", str(corpus_path), "--method", "svm",
                "--d", "1", "--folds", "4", "--seed", "3"]
        assert main(base + ["--features", "2", "--out", str(report_a)]) == 0
        assert main(base + ["--features", "1", "--out", str(report_b)]) == 0
        out = tmp_path / "analysis.jsonl"
        code = main(["analyze", "--input", str(corpus_path),
                     "--report-a", str(report_a), "--report-b", str(report_b),
                     "--features", "3", "--out", str(out)])
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert records[0]["record"] == "sign_test"
        features = [r["feature"] for r in records[1:]]
        from synth import MODAL_ADVERB
        assert MODAL_ADVERB in features

    def test_reports_from_another_corpus_are_data_error(self, tmp_path,
                                                        suffix_corpus_file,
                                                        capsys):
        reports = []
        for name, method in (("a.jsonl", "dlist"), ("b.jsonl", "baseline")):
            reports.append(tmp_path / name)
            args = (["cv", "--folds", "3"] if method == "dlist" else ["eval"])
            assert main(args + ["--input", str(suffix_corpus_file), "--method",
                                method, "--out", str(reports[-1])]) == 0
        small = tmp_path / "small.tsv"
        # the first 20 examples: gold labels agree, indices run past the end
        small.write_text(serialize_corpus(Dataset(
            table1_corpus(300, seed=4).examples[:20])), encoding="utf-8")
        capsys.readouterr()
        code = main(["analyze", "--input", str(small), "--report-a",
                     str(reports[0]), "--report-b", str(reports[1])])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "index" in err

    @pytest.mark.parametrize("line, problem", [
        ("not json", "not JSON (Expecting value at column 1)"),
        ("[1, 2]", "not a JSON object"),
        ('{"record": "prediction", "gold": "past"}',
         "prediction record without index, predicted"),
        ('{"record": "fold", "correct": 1}', "fold record without total"),
        pytest.param("[" * 100000, "not JSON (nested too deeply)",
                     id="deep nesting"),
    ])
    def test_malformed_report_record_is_data_error(self, tmp_path, corpus_file,
                                                   capsys, line, problem):
        report = tmp_path / "r.jsonl"
        report.write_text('{"record": "fold", "correct": 1, "total": 1}\n'
                          + line + "\n", encoding="utf-8")
        code = main(["analyze", "--input", str(corpus_file), "--report-a",
                     str(report), "--report-b", str(report)])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"data error: {report}: line 2: {problem}\n"

    @pytest.mark.parametrize("edit", ["repeat a prediction", "drop a prediction",
                                      "concatenate two copies"])
    def test_report_must_predict_each_example_once(self, trained_documents,
                                                   dlist_report, tmp_path,
                                                   capsys, edit):
        # a repeated prediction record was counted twice by the sign test,
        # and a whole report given twice was read, both with exit 0
        corpus, _ = trained_documents
        lines = dlist_report.read_text(encoding="utf-8").splitlines()
        first = next(i for i, line in enumerate(lines) if '"prediction"' in line)
        if edit == "repeat a prediction":
            lines.insert(first, lines[first])
            problem = f"line {first + 2}: example 0 is predicted twice"
        elif edit == "drop a prediction":
            del lines[first]
            problem = f"example 0 of {corpus} has no prediction record"
        else:
            problem = f"line {len(lines) + first + 1}: example 0 is predicted twice"
            lines += lines
        report = tmp_path / "edited.jsonl"
        report.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        capsys.readouterr()
        code = main(["analyze", "--input", str(corpus), "--report-a",
                     str(dlist_report), "--report-b", str(report)])
        assert code == 2
        assert capsys.readouterr().err == f"data error: {report}: {problem}\n"

    def test_invalid_utf8_report_is_data_error(self, tmp_path, corpus_file,
                                               capsys):
        report = tmp_path / "r.jsonl"
        report.write_bytes(b'{"record": "fold", "correct": 1, "total": 1}\n'
                           b'{"record": "\xff"}\n')
        code = main(["analyze", "--input", str(corpus_file), "--report-a",
                     str(report), "--report-b", str(report)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {report}: not valid UTF-8 (")
        assert err.count("\n") == 1

    def test_report_gold_labels_must_match_corpus(self, tmp_path,
                                                  suffix_corpus_file, capsys):
        report = tmp_path / "r.jsonl"
        assert main(["eval", "--input", str(suffix_corpus_file), "--method",
                     "baseline", "--out", str(report)]) == 0
        relabeled = tmp_path / "relabeled.tsv"
        ds = table1_corpus(300, seed=4)
        first = ds[0]
        other = "past" if first.label != "past" else "present"
        relabeled.write_text(serialize_corpus(Dataset(
            [Example(other, first.sentence, first.tokens), *ds.examples[1:]])),
            encoding="utf-8")
        code = main(["analyze", "--input", str(relabeled), "--report-a",
                     str(report), "--report-b", str(report)])
        assert code == 2
        assert "gold label" in capsys.readouterr().err


def test_cv_all_grid(tmp_path):
    ds = random_token_corpus(random.Random(30), max_examples=36, n_labels=2)
    # guarantee enough examples per fold
    while len(ds) < 18:
        ds = random_token_corpus(random.Random(31), max_examples=36, n_labels=2)
    path = tmp_path / "c.tsv"
    path.write_text(serialize_corpus(ds), encoding="utf-8")
    out = tmp_path / "table.txt"
    code = main(["cv", "--input", str(path), "--all", "--folds", "3",
                 "--seed", "0", "--out", str(out)])
    assert code == 0
    table = out.read_text()
    assert "knn (k=1)" in table
    assert "svm (d=2)" in table
    assert "baseline =" in table
    assert table.count("%") >= 2 * (5 + 3 * 4) + 1  # open+closed per grid cell
    # a row is blank in exactly the feature sets its learner does not run on
    rows = table.splitlines()[1:1 + len(GRID)]
    assert [row[:18].rstrip() for row in rows] == [s.describe() for s in GRID]
    for row in rows:
        for i, mode in enumerate(FeatureSet):
            cell = row[19 + 21 * i:39 + 21 * i]
            runs = mode == FeatureSet.FS2 or not row.startswith("knn")
            assert (cell == f"{'--- ( --- )':>20}") != runs


def test_cli_import_leaves_out_scipy(tmp_path):
    # tamkit runs on numpy alone: scipy.sparse would add about 0.15 s and
    # 20 MB to every tamkit process, scipy.stats about 0.5 s and 50 MB
    src = str(Path(tamkit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, tamkit.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
    # a grid large enough for maxent's sparse path, with scipy unimportable,
    # writes the matrix that the same command writes in this process
    corpus = tmp_path / "c.tsv"
    corpus.write_text(serialize_corpus(modality_corpus(160, seed=3)), encoding="utf-8")
    argv = ["cv", "--all", "-i", str(corpus), "--folds", "3", "--seed", "0", "-o"]
    assert main(argv + [str(tmp_path / "here.txt")]) == 0
    child = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['scipy'] = None; from tamkit.cli import main; "
         "sys.exit(main(sys.argv[1:]))", *argv, str(tmp_path / "child.txt")],
        env=env, capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    assert (tmp_path / "child.txt").read_bytes() == (tmp_path / "here.txt").read_bytes()
