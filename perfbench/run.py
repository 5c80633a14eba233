"""tamkit benchmark.

    python3 perfbench/run.py --workload cv-grid --seed 1 --seconds 40 --trace 0

runs one workload (see README.md in this directory), each pass in a fresh
worker process, and prints, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Earlier lines give the same numbers as a table, the error rate, the input
fingerprints and the environment.

    --workload all   runs every workload and prints every metric of each
    --smoke          runs every workload on tiny inputs, traced and
                     untraced, and checks that each metric is reported
    --record-reference
                     rewrites reference.json: input fingerprints and output
                     digests of the default seeds 0-31, taken from the
                     current sources

Run it from anywhere inside a checkout; it reads ``src/`` and
``tests/synth.py`` and writes only under ``.bench_build/`` of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import DEFAULT_SEEDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
# the same names as workloads.WORKLOADS; this file imports no tamkit code
WORKLOADS = ("cv-grid", "many-labels", "train-eval")
RUN_LIMIT_S = 170  # the whole run must end within 180 s
MAX_FAILURES_SHOWN = 5

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT,
            capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(versions: dict) -> dict:
    """Informational: where and on what code the numbers were taken."""
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu_model": cpu, "git_commit": commit,
            "src_lines": src_lines}


def _passes(args: list[str], seconds: float, deadline: float) -> list[dict]:
    """Fresh worker processes, one pass each, until the next one would end
    after ``seconds``; at least one."""
    results, spent = [], []
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results.append(_worker(args, deadline))
        spent.append(time.monotonic() - t0)
        if time.monotonic() - start + statistics.median(spent) > seconds:
            return results


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str = "full") -> dict:
    """One measured run. Returns the result line's fields plus an ``info``
    block (samples, fingerprints, failures, environment)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = BUILD / f"{workload}-seed{seed}-{os.getpid()}"
    args = ["--workload", workload, "--seed", str(seed), "--size", size,
            "--workdir", str(workdir)]
    BUILD.mkdir(parents=True, exist_ok=True)
    try:
        # with --trace 1, half the time runs untraced passes, which the
        # traced ones are compared with
        passes = _passes(args, seconds / 2 if trace else seconds, deadline)
        traced = _passes(args + ["--trace", "1", "--spans",
                                 str(BUILD / f"spans-{workload}.tsv")],
                         seconds / 2, deadline) if trace else []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # every pass must write the bytes of the first: traced passes too
    first = passes[0]["digests"]
    attempted, failed, failures = 0, 0, []
    for res in passes + traced:
        attempted += len(res["digests"])
        failures += res["failures"]
        for i, (digest, expected) in enumerate(zip(res["digests"], first)):
            if digest is None:
                failed += 1
            elif expected is not None and digest != expected:
                failed += 1
                failures.append(f"command {i + 1}: output differs from the "
                                f"first pass")

    walls = [res["wall_s"] for res in passes]
    if trace:
        units = traced[0]["layer_units"]
        per_pass = [res["layer_metrics"] for res in traced]
        values = {name: statistics.median(p[name] for p in per_pass)
                  for name in per_pass[0]}
        values["model_bytes"] = traced[-1]["model_bytes"]
        values["cli.output_bytes"] = traced[-1]["output_bytes"]
        values["trace.overhead_s"] = (
            statistics.median(res["wall_s"] for res in traced)
            - statistics.median(walls))
    else:
        units = END_TO_END
        values = {name: statistics.median(res[name] for res in passes)
                  for name in END_TO_END}
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "passes": len(passes), "walls": walls,
        "cpus": [res["cpu_s"] for res in passes],
        "setups": [res["setup_s"] for res in passes],
        "peak_rss_mbs": [res["peak_rss_mb"] for res in passes],
        "error_rate": failed / attempted,
        "failures": failures[:MAX_FAILURES_SHOWN],
        "model_bytes": passes[0]["model_bytes"],
        "inputs": passes[0]["fingerprints"],
        "environment": environment(passes[0]["versions"]),
    }
    if trace:
        info["traced_walls"] = [res["wall_s"] for res in traced]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}


def print_result(result: dict) -> None:
    info = result["info"]
    print(f"# {info['workload']} seed {info['seed']} trace {info['trace']}: "
          f"{info['passes']} untraced passes, error_rate "
          f"{info['error_rate']:g} ({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{name:<36} {m['value']:>16.6f} {m['unit']}")
    for failure in info["failures"]:
        print(f"FAILED {failure}")
    print(json.dumps(info, sort_keys=True))
    with open(BUILD / f"result-{info['workload']}-trace{info['trace']}.json",
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


def result_line(result: dict) -> str:
    return json.dumps({key: result[key]
                       for key in ("correct", "attempted", "failed", "metrics")})


def smoke(seconds: float) -> None:
    """Every workload on tiny inputs, untraced and traced: each metric
    BENCHMARK.json names is reported with its unit, and nothing fails."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(
        encoding="utf-8"))
    expect = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
              1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    if [w["name"] for w in declared["workloads"]] != list(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from the benchmark's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_workload(workload, 0, seconds, trace, size="smoke")
            print_result(result)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expect[trace]:
                raise BenchError(f"{workload} trace {trace}: metrics differ "
                                 f"from BENCHMARK.json: {got} != {expect[trace]}")
            if not result["correct"] or result["info"]["error_rate"] != 0:
                raise BenchError(f"{workload} trace {trace}: "
                                 f"{result['info']['failures']}")
    print("smoke ok")


def record_reference() -> None:
    """Rewrite reference.json for every workload and default seed."""
    table = {"full": {}}
    for workload in WORKLOADS:
        for seed in DEFAULT_SEEDS:
            workdir = BUILD / f"record-{workload}-{seed}"
            try:
                res = _worker(["--workload", workload, "--seed", str(seed),
                               "--workdir", str(workdir), "--record"],
                              time.monotonic() + RUN_LIMIT_S)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if res["failures"]:
                raise BenchError(f"{workload} seed {seed}: {res['failures']}")
            table["full"].setdefault(workload, {})[str(seed)] = {
                "inputs": res["fingerprints"], "outputs": res["digests"]}
            print(f"{workload} seed {seed}: recorded", flush=True)
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    missing = [p for p in ("src/tamkit/cli.py", "tests/synth.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found under {ROOT}; run the "
              f"benchmark from a tamkit checkout", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            smoke(min(args.seconds, 1.0))
        elif args.record_reference:
            record_reference()
        elif args.workload == "all":
            total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
            for workload in WORKLOADS:
                result = run_workload(workload, args.seed, args.seconds,
                                      args.trace)
                print_result(result)
                total["correct"] &= result["correct"]
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
                total["metrics"].update(
                    {f"{workload}.{k}": v for k, v in result["metrics"].items()})
            print(result_line(total))
        elif args.workload:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  args.trace)
            print_result(result)
            print(result_line(result))
        else:
            ap.error("give --workload, --smoke or --record-reference")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
