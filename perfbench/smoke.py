"""Smoke test of the benchmark harness itself, at minimal input sizes.

Runs every workload through ``run.py --smoke``, untraced and traced, and
asserts for each run that the last stdout line names exactly the metrics of
``BENCHMARK.json`` with their units, that every output check executed and
passed, and that the environment block is present.  It also asserts that
the harness refuses to run, without printing a result, in a directory that
holds only ``BENCHMARK.json`` and the harness.  Run from anywhere::

    python3 perfbench/smoke.py

Exits 0 when every assertion holds and 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "serve", "follow")
ENVIRONMENT_KEYS = {"commit", "src_sha256", "cpu_count", "python", "numpy", "seed", "sizes"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(workload: str, trace: int, spec: dict) -> list[str]:
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit status {proc.returncode}: {proc.stderr[-1500:]}"]
    lines = proc.stdout.strip().splitlines()
    info = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    printed = {name: metric.get("unit") for name, metric in result["metrics"].items()}
    if printed != wanted:
        problems.append(f"metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(wanted) - set(printed))}, "
                        f"extra {sorted(set(printed) - set(wanted))}, "
                        f"units {[n for n in wanted if printed.get(n, wanted[n]) != wanted[n]]}")
    for name, metric in result["metrics"].items():
        if not isinstance(metric.get("value"), (int, float)):
            problems.append(f"{name} has no numeric value")
    if not info["checks"]:
        problems.append("no output checks reported")
    for name, (executed, failed) in info["checks"].items():
        if executed == 0:
            problems.append(f"output check {name} never executed")
        if failed:
            problems.append(f"output check {name} failed {failed} times")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} "
                        f"failed={result['failed']}")
    missing = ENVIRONMENT_KEYS - set(info["environment"])
    if missing:
        problems.append(f"environment block lacks {sorted(missing)}")
    if trace and not (ROOT / info["trace_file"]).is_file():
        problems.append("traced run wrote no span file")
    return problems


def check_bare() -> list[str]:
    """Without the pipeline's sources the harness must fail and print nothing."""
    bare = ROOT / ".perfbench" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = _run(bare, "train", 0)
    finally:
        shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"exit status {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cases = [(f"{workload} trace={trace}", lambda w=workload, t=trace: check_run(w, t, spec))
             for workload in WORKLOADS for trace in (0, 1)]
    cases.append(("bare checkout", check_bare))
    failures = 0
    for name, case in cases:
        problems = case()
        failures += bool(problems)
        print(f"{'FAIL' if problems else 'ok  '} {name}")
        for problem in problems:
            print(f"     {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
