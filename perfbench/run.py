"""End-to-end benchmark of the DBG4ETH pipeline: ledger in, scores out.

Run from the repository root::

    python3 perfbench/run.py --workload train --seed 1 --seconds 16 --trace 0

Workloads (each runs in its own process; see the module of the same name):

* ``train``  — fit nine heads over a ~8.3k-tx ledger; quality gate on held-out F1;
* ``serve``  — open-loop Poisson traffic into ``ScoringService``;
* ``follow`` — a ~1M-tx persisted chain with blocks appended between rescores.

Every workload reports the same end-to-end metrics, each measured on its own
path: ``fit_s`` and ``heldout_f1`` for the heads it trains (``serve`` and
``follow`` train their served model in set-up), ``cold_start_s`` (open the
persisted ledger, load and warm a saved model), ``batch_score_aps`` (a
batched ``score`` with an empty sample cache), ``latency_p50_ms`` /
``latency_p90_ms`` / ``slo_ok_frac`` over the workload's unit of work (a
single-address score, a request, an append→rescore round; the limit is stated
in the output), ``fresh_frac`` (share of re-served answers equal to a cold
pipeline's after blocks landed; 1 where no block lands), ``ok_frac``
(1 − failed ÷ attempted), ``setup_s`` (median of repeated set-ups, half of
them run after the measurement) and ``peak_rss_mb``.

``--trace 1`` instead runs set-up once under the tracer, measures once
untraced and once traced, each from its own copy of the set-up, and prints
the per-layer metrics of the traced spans plus ``trace.overhead_pct``: how
much slower the workload's primary metric was under tracing.  Spans are
written to ``.perfbench/traces/``.

Output checks run before any metric is printed.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment block, the checks and the validity fields.  The exit status is
1 when a check failed and 2 when the pipeline's sources are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import shutil
import statistics
import sys
import tempfile
import time

from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train", "serve", "follow")

#: Per-layer metrics that sum the durations of one span name.
SPAN_MS = {
    "chain.open_ms": "chain.open", "chain.append_ms": "chain.append",
    "chain.sync_ms": "chain.sync", "graph.build_ms": "graph.build",
    "graph.ingest_ms": "graph.ingest", "graph.ego_ms": "graph.ego",
    "data.dataset_build_ms": "data.dataset_build",
    "data.extract_ms": "data.extract", "data.truncate_ms": "data.truncate",
    "core.gsg_fit_ms": "core.gsg_fit", "core.ldg_fit_ms": "core.ldg_fit",
    "core.calib_fit_ms": "core.calib_fit", "core.gsg_predict_ms": "core.gsg_predict",
    "core.ldg_predict_ms": "core.ldg_predict",
    "core.calib_transform_ms": "core.calib_transform",
    "ensemble.fit_ms": "ensemble.fit", "ensemble.predict_ms": "ensemble.predict",
    "api.load_ms": "api.load", "api.warm_ms": "api.warm", "api.refresh_ms": "api.refresh",
}
#: Per-layer metrics that count the calls of one span name.
SPAN_CALLS = {
    "graph.ingest_calls": "graph.ingest", "graph.ego_calls": "graph.ego",
    "data.extract_calls": "data.extract", "core.predict_calls": "core.predict",
    "api.score_calls": "api.score",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal input sizes (for the harness smoke test)")
    return parser.parse_args(argv)


def _per_layer(tracer, measured: dict, overhead_pct: float) -> dict:
    from tracing import layer_times

    values = {name: sum(tracer.durations(span)) * 1e3 for name, span in SPAN_MS.items()}
    values.update({name: len(tracer.durations(span)) for name, span in SPAN_CALLS.items()})
    rows = tracer.rows.get("core.predict", [])
    values["core.rows_per_predict"] = sum(rows) / len(rows) if rows else 0.0
    for layer, (busy, own) in layer_times(tracer.spans).items():
        if layer != "bench":
            values[f"{layer}.busy_ms"] = busy * 1e3
            values[f"{layer}.self_ms"] = own * 1e3
    # Service figures a workload does not exercise stay 0.
    values.update({"api.cache_hit_ratio": 0.0, "api.service_batch_mean": 0.0,
                   "api.queue_wait_p50_ms": 0.0, "api.invalidations": 0})
    values.update(measured["layer"])
    values["trace.overhead_pct"] = overhead_pct
    values["trace.spans"] = len(tracer.spans)
    return values


def _environment(args, sizes, state) -> dict:
    import common

    return common.environment(args.seed, {
        **{k: v for k, v in vars(sizes).items() if k != "setup_repeats"},
        **state["inputs"]})


def _merge(first: dict, second: dict) -> dict:
    """Both phases of a traced run: their operations and checks add up."""
    checks = {name: [a + b for a, b in zip(first["checks"][name], counts)]
              for name, counts in second["checks"].items()}
    return {**second, "checks": checks,
            "attempted": first["attempted"] + second["attempted"],
            "failed": first["failed"] + second["failed"]}


def _run(args, spec) -> tuple[dict, dict]:
    import common
    import tracing

    workload = importlib.import_module(args.workload)
    sizes = common.SMOKE if args.smoke else common.FULL
    common.WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=common.WORKDIR))
    info = {"workload": args.workload, "trace": args.trace}
    try:
        if args.trace:
            tracer = tracing.Tracer()
            targets = tracing.pipeline_targets()
            with tracing.install(tracer, targets), tracer.span("bench.setup", "bench"):
                state = workload.setup(sizes, args.seed, workdir / "setup")
            # Both passes start from the same set-up: ``follow`` grows its chain.
            shutil.copytree(workdir / "setup", workdir / "traced")
            plain = workload.measure(state, args.seconds)
            with tracing.install(tracer, targets), tracer.span("bench.measure", "bench"):
                measured = workload.measure({**state, "workdir": workdir / "traced"},
                                            args.seconds, tracer=tracer)
            primary = measured["primary"]
            overhead = (measured["metrics"][primary] / plain["metrics"][primary] - 1) * 100
            values = _per_layer(tracer, measured, overhead)
            trace_path = common.WORKDIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path, {"workload": args.workload,
                                      "environment": _environment(args, sizes, state)})
            info["trace_file"] = str(trace_path.relative_to(ROOT))
            info["untraced"] = plain["metrics"]
            info["traced"] = measured["metrics"]
            measured = _merge(plain, measured)
            wanted = spec["per_layer"]
        else:
            setup_times, setup_metrics = [], []

            def set_up(repeat: int, keep: bool = False):
                target = workdir / f"setup{repeat}"
                seconds, state = common.timed(workload.setup, sizes, args.seed, target)
                setup_times.append(seconds)
                setup_metrics.append(state.get("setup_metrics", {}))
                if not keep:
                    shutil.rmtree(target)
                return state

            # The measurement uses the first set-up.  Half of the repeats run
            # after it, so the medians span the run rather than its start.
            state = set_up(0, keep=True)
            for repeat in range(1, (sizes.setup_repeats + 1) // 2):
                set_up(repeat)
            measured = workload.measure(state, args.seconds)
            for repeat in range((sizes.setup_repeats + 1) // 2, sizes.setup_repeats):
                set_up(repeat)
            values = dict(measured["metrics"])
            # Metrics taken during set-up (the served model's fit) are medians too.
            values.update({name: statistics.median(m[name] for m in setup_metrics)
                           for name in setup_metrics[0]})
            values["setup_s"] = statistics.median(setup_times)
            values["peak_rss_mb"] = common.peak_rss_mb()
            values["ok_frac"] = 1.0 - measured["failed"] / measured["attempted"]
            info["setup_runs_s"] = setup_times
            wanted = spec["end_to_end"]
        info["environment"] = _environment(args, sizes, state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["checks"] = measured["checks"]
    info["validity"] = measured["validity"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    checks_ran = all(executed > 0 for executed, _ in measured["checks"].values())
    result = {"correct": measured["failed"] == 0 and checks_ran,
              "attempted": measured["attempted"], "failed": measured["failed"],
              "metrics": metrics}
    return info, result


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no pipeline sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    start = time.perf_counter()
    info, result = _run(args, spec)
    info["wall_s"] = time.perf_counter() - start
    print(json.dumps({"perfbench": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
