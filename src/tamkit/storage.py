"""Model files: JSON with floats as text decimals, stable key order."""

from __future__ import annotations

import json

from .corpus import parse_json, read_text
from .declist import DecisionListModel
from .features import MAX_NGRAM
from .knn import KnnModel
from .maxent import MaxEntModel
from .svm import PairwiseModel

FORMAT = "tamkit-model"

_CLASSES = {
    "knn": KnnModel,
    "dlist": DecisionListModel,
    "maxent": MaxEntModel,
    "svm": PairwiseModel,
}
_METHODS = {cls: name for name, cls in _CLASSES.items()}


def model_method(model) -> str:
    return _METHODS[type(model)]


def save_model(path, model) -> None:
    document = {
        "format": FORMAT,
        "method": model_method(model),
        "payload": model.to_dict(),
    }
    # one dumps string: json.dump streams through the pure-Python encoder
    text = json.dumps(document, sort_keys=True, ensure_ascii=False)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_model(path):
    """Read a model file. A file that is not a well-formed model document
    raises ``ValueError`` with a one-line message naming the path."""
    document = parse_json(read_text(path), path)
    if not isinstance(document, dict) or document.get("format") != FORMAT:
        raise ValueError(f"{path}: not a {FORMAT} file")
    method = document.get("method")
    if not isinstance(method, str) or method not in _CLASSES:
        raise ValueError(f"{path}: unknown model method {method!r}")
    payload = document.get("payload")
    # older files record the suffix length; one other than MAX_NGRAM means
    # the model was trained on features this version does not extract
    if isinstance(payload, dict) and payload.get("max_n", MAX_NGRAM) != MAX_NGRAM:
        raise ValueError(f"{path}: {method} model uses suffix n-grams up to "
                         f"{payload['max_n']!r}, not {MAX_NGRAM}")
    try:
        return _CLASSES[method].from_dict(payload)
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"{path}: malformed {method} model payload "
                         f"({type(exc).__name__}: {exc})") from exc
