"""The benchmark's tracer wraps tamkit functions and methods by name, so a
change in ``src/`` that drops or renames one of them must fail here, not
only under ``perfbench/run.py --trace 1``."""

import importlib
from pathlib import Path

from tamkit import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_wrap_target_resolves_and_unwraps(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    spans = importlib.import_module("spans")

    def bound():
        # class attributes are read from the class dict, so that a
        # classmethod is compared as the object the tracer replaces
        return ([getattr(importlib.import_module(module), attr)
                 for module, attr, _, _ in layers.FUNCTIONS]
                + [vars(getattr(importlib.import_module(module), cls))[attr]
                   for module, cls, attr, _ in layers.METHODS])

    originals = bound()
    tracer = spans.Tracer()
    layers.install(tracer)  # LookupError if a target has left src/
    try:
        assert all(now is not then for now, then in zip(bound(), originals))
    finally:
        tracer.uninstall()
    assert all(now is then for now, then in zip(bound(), originals))


def test_every_workload_builds_and_its_commands_parse(monkeypatch):
    # the workloads import tamkit names to write their corpora and pass
    # flags to tamkit commands, so moving such a name or dropping such a
    # flag must fail here too
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for workload in workloads.WORKLOADS:
        for dataset in workloads.build_inputs(workload, 0, "smoke").values():
            assert workloads.corpus_bytes(dataset)
        for command in workloads.commands(workload, 0, "smoke"):
            cli._resolve(cli.build_parser().parse_args(command.argv))
