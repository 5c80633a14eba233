"""One pass of one workload in a fresh process: build the inputs, run the
command sequence once through ``tamkit.cli.main`` and check every output.
Started by ``run.py``, once per pass, so no pass sees what an earlier one
left in the process; prints one JSON object as its last line of standard
output.

With ``--trace 1`` the pass runs with the layers wrapped and also reports
the per-layer metrics. With ``--record`` the outputs are not compared with
``reference.json``; that is how the reference is written.
"""

import time

_T0 = time.perf_counter()  # before the imports that setup_s includes

import argparse  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy  # noqa: E402
import scipy  # noqa: E402

import tamkit.cli  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

REFERENCE = HERE / "reference.json"


def fingerprint(data: bytes, dataset) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "examples": len(dataset), "labels": len(dataset.label_counts)}


def write_inputs(workload: str, seed: int, size: str, workdir: Path):
    """Write the corpora; returns (fingerprints, example count per file)."""
    prints, sizes = {}, {}
    for name, dataset in workloads.build_inputs(workload, seed, size).items():
        data = workloads.corpus_bytes(dataset)
        (workdir / name).write_bytes(data)
        prints[name] = fingerprint(data, dataset)
        sizes[name] = len(dataset)
    return prints, sizes


def _cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_commands(cmds, workdir: Path) -> tuple[list, float, float]:
    """Run every command once; returns the (exit code, error) of each and
    the wall and CPU seconds of the commands alone. CPU time counts this
    process and any process it started, so work moved to a child process
    still shows."""
    for cmd in cmds:
        for name in cmd.outputs + cmd.models:
            (workdir / name).unlink(missing_ok=True)
    codes = []
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    children0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall0 = time.perf_counter()
    for cmd in cmds:
        out, err = io.StringIO(), io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                codes.append((tamkit.cli.main(list(cmd.argv)), ""))
        except Exception as exc:  # a traceback is a failed command
            codes.append((None, f"{type(exc).__name__}: {exc}"))
    wall = time.perf_counter() - wall0
    cpu = (_cpu_s(resource.getrusage(resource.RUSAGE_SELF)) - _cpu_s(self0)
           + _cpu_s(resource.getrusage(resource.RUSAGE_CHILDREN))
           - _cpu_s(children0))
    return codes, wall, cpu


def check_commands(cmds, codes, workdir: Path, corpus_sizes, reference):
    """Per command, the sha256 of its outputs, or None if a check failed;
    and the reasons of the failures."""
    digests, failures = [], []
    for i, (cmd, (code, error)) in enumerate(zip(cmds, codes)):
        try:
            if code != 0:
                raise checks.CheckFailed(f"exit code {code} {error}".strip())
            checks.command_outputs(cmd, workdir, corpus_sizes)
            h = hashlib.sha256()
            for name in cmd.outputs:
                h.update(name.encode() + b"\0" + (workdir / name).read_bytes())
            if reference is not None and h.hexdigest() != reference[i]:
                raise checks.CheckFailed("output differs from the reference")
            digests.append(h.hexdigest())
        except (checks.CheckFailed, OSError, KeyError, TypeError,
                ValueError) as exc:
            digests.append(None)
            failures.append(f"{' '.join(cmd.argv)}: {exc}")
    return digests, failures


def _bytes(workdir: Path, names) -> int:
    """Total size of the files that exist; a missing one is already counted
    as a failed command."""
    paths = [workdir / name for name in names]
    return sum(p.stat().st_size for p in paths if p.exists())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--record", action="store_true")
    ap.add_argument("--spans", type=Path, help="where the traced pass writes spans")
    args = ap.parse_args(argv)

    args.workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.workdir)  # commands name their files relative to it
    prints, corpus_sizes = write_inputs(args.workload, args.seed, args.size,
                                        args.workdir)
    setup_s = time.perf_counter() - _T0

    reference = None
    if not args.record:
        try:
            reference = checks.reference_entry(
                json.loads(REFERENCE.read_text(encoding="utf-8")), args.size,
                args.workload, args.seed)
        except (OSError, ValueError, checks.CheckFailed) as exc:
            print(f"reference: {exc}", file=sys.stderr)
            return 2
    if reference is not None:
        if reference["inputs"] != prints:
            print(f"input fingerprints of {args.workload} seed {args.seed} "
                  f"differ from the reference: {prints} != "
                  f"{reference['inputs']}", file=sys.stderr)
            return 2
        reference = reference["outputs"]

    cmds = workloads.commands(args.workload, args.seed, args.size)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        try:
            layers.install(tracer)
        except LookupError as exc:
            print(exc, file=sys.stderr)
            return 2
        try:
            codes, wall, cpu = run_commands(cmds, args.workdir)
        finally:
            tracer.uninstall()
        tracer.write(args.spans)
    else:
        codes, wall, cpu = run_commands(cmds, args.workdir)
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    digests, failures = check_commands(cmds, codes, args.workdir,
                                       corpus_sizes, reference)
    result = {
        "setup_s": setup_s, "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": peak / 1024, "digests": digests, "failures": failures,
        "fingerprints": prints,
        "model_bytes": _bytes(args.workdir, (n for c in cmds for n in c.models)),
        "output_bytes": _bytes(args.workdir,
                               (n for c in cmds for n in c.outputs)),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if tracer is not None:
        result.update(layer_metrics=layers.span_metrics(tracer),
                      layer_units=layers.PER_LAYER)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
