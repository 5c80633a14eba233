import random
from itertools import combinations

import pytest

from synth import DescriptorError, parse_category_descriptor
from tamkit.corpus import (
    AUXILIARIES,
    CategorySpec,
    CorpusError,
    Dataset,
    Example,
    category_label,
    load_corpus,
    parse_corpus,
    serialize_corpus,
    split_folds,
)


class TestParseCorpus:
    def test_single_line(self):
        ds = parse_corpus("past\tきた")
        assert len(ds) == 1
        assert ds[0].label == "past"
        assert ds[0].sentence == "きた"
        assert ds[0].tokens is None

    def test_empty_document(self):
        assert len(parse_corpus("")) == 0

    def test_token_column(self):
        ds = parse_corpus("c\t走れる\t走れ る")
        assert ds[0].tokens == ("走れ", "る")
        assert ds[0].label == "c"

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\npast\tきた\n   \n# tail\npresent\tくる\n"
        ds = parse_corpus(text)
        assert [ex.label for ex in ds] == ["past", "present"]

    def test_wrong_field_count_names_line(self):
        with pytest.raises(CorpusError, match="line 2"):
            parse_corpus("past\tきた\nonly-one-field\n")
        with pytest.raises(CorpusError, match="line 1"):
            parse_corpus("a\tb\tc\td\n")

    def test_empty_label(self):
        with pytest.raises(CorpusError, match="line 1"):
            parse_corpus("\tsentence")
        with pytest.raises(CorpusError, match="line 2: label must not be blank"):
            parse_corpus("past\tきた\n \tsentence\n")

    def test_invalid_utf8(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"past\t\xff\xfe\n")
        with pytest.raises(CorpusError, match="UTF-8"):
            load_corpus(path)

    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "ok.tsv"
        path.write_text("past\tきた\n", encoding="utf-8")
        assert load_corpus(path)[0].label == "past"

    def test_inventory_counts(self):
        ds = parse_corpus("a\tx\na\ty\nb\tz\n")
        assert ds.label_counts == {"a": 2, "b": 1}
        assert sum(ds.label_counts.values()) == len(ds)


class TestExample:
    def test_rejects_tab_in_label(self):
        # and the labels that would write a blank or comment line
        for label in ("a\tb", "", " \u2028", "#a"):
            with pytest.raises(ValueError):
                Example(label, "x")

    def test_rejects_newline_in_sentence(self):
        with pytest.raises(ValueError):
            Example("a", "x\ny")

    def test_rejects_whitespace_token(self):
        with pytest.raises(ValueError):
            Example("a", "x", ("a b",))

    def test_empty_sentence_legal(self):
        assert Example("a", "").sentence == ""

    def test_tokens_normalized_to_tuple(self):
        assert Example("a", "x", ["t"]).tokens == ("t",)


def _random_dataset(rng):
    letters = "あいうかきた走れるなabcxyz"
    # only LF, CRLF and CR end a corpus line; every other line separator is
    # an ordinary (whitespace) character of a sentence or label
    chars = letters + " \v\f\x1c\x1d\x1e\x85\u2028\u2029"
    examples = []
    for _ in range(rng.randint(0, 30)):
        label = rng.choice(["past", "present", "can+past", "c", "a\u2028b"])
        sentence = "".join(rng.choice(chars) for _ in range(rng.randint(0, 12)))
        if rng.random() < 0.5:
            tokens = tuple(
                "".join(rng.choice(letters) for _ in range(rng.randint(1, 3)))
                for _ in range(rng.randint(0, 4)))
        else:
            tokens = None
        examples.append(Example(label, sentence, tokens))
    return Dataset(examples)


def test_serialize_parse_round_trip():
    rng = random.Random(42)
    for _ in range(50):
        ds = _random_dataset(rng)
        assert parse_corpus(serialize_corpus(ds)) == ds


class TestDescriptor:
    def test_can_past(self):
        spec = parse_category_descriptor("can+past")
        assert spec == CategorySpec(auxiliaries=frozenset({"can"}), tense="past")

    def test_present_is_all_defaults(self):
        assert parse_category_descriptor("present") == CategorySpec()

    def test_imperative(self):
        assert parse_category_descriptor("imperative") == CategorySpec(imperative=True)

    def test_unknown_token(self):
        with pytest.raises(DescriptorError):
            parse_category_descriptor("maybe")

    def test_imperative_combines_with_nothing(self):
        with pytest.raises(DescriptorError):
            parse_category_descriptor("imperative+past")

    def test_two_tenses_rejected(self):
        with pytest.raises(DescriptorError):
            parse_category_descriptor("present+past")

    def test_duplicate_rejected(self):
        with pytest.raises(DescriptorError):
            parse_category_descriptor("can+can")

    def test_label_round_trip(self):
        for label in ("can+past", "present", "imperative",
                      "must+shall+past+progressive+perfect"):
            assert category_label(parse_category_descriptor(label)) == label

    def test_accepts_exactly_2_15_plus_1(self):
        # brute force over all token combinations
        specs = set()
        total = 0
        for r in range(len(AUXILIARIES) + 1):
            for aux in combinations(AUXILIARIES, r):
                for tense in ("present", "past"):
                    for prog in (False, True):
                        for perf in (False, True):
                            parts = list(aux) + [tense]
                            if prog:
                                parts.append("progressive")
                            if perf:
                                parts.append("perfect")
                            specs.add(parse_category_descriptor("+".join(parts)))
                            total += 1
        specs.add(parse_category_descriptor("imperative"))
        total += 1
        assert total == 2 ** 15 + 1
        assert len(specs) == 2 ** 15 + 1


class TestSplitFolds:
    def _dataset(self, n):
        return Dataset(Example("x", str(i)) for i in range(n))

    def test_one_per_fold(self):
        plan = split_folds(self._dataset(10), 10, seed=1)
        sizes = [plan.assignment.count(f) for f in range(10)]
        assert sizes == [1] * 10

    def test_remainder_distribution(self):
        plan = split_folds(self._dataset(11), 10, seed=1)
        sizes = sorted(plan.assignment.count(f) for f in range(10))
        assert sizes == [1] * 9 + [2]

    def test_deterministic(self):
        ds = self._dataset(37)
        a = split_folds(ds, 5, seed=123)
        b = split_folds(ds, 5, seed=123)
        assert a == b
        c = split_folds(ds, 5, seed=124)
        assert c.assignment != a.assignment

    def test_folds_partition_dataset(self):
        ds = self._dataset(23)
        for seed in range(10):
            plan = split_folds(ds, 4, seed=seed)
            seen = []
            for fold in range(4):
                train, test = plan.fold_indices(fold)
                assert sorted(train + test) == list(range(23))
                seen.extend(test)
            assert sorted(seen) == list(range(23))

    def test_bad_n_folds(self):
        ds = self._dataset(5)
        with pytest.raises(ValueError):
            split_folds(ds, 1)
        with pytest.raises(ValueError):
            split_folds(ds, 6)
        with pytest.raises(ValueError):
            split_folds(Dataset([]), 2)
