"""Perf harness: the scenario synthesis engine at 10M-transaction scale.

Measures, at several transaction-count scales, the full synthetic-data path
the scenario engine rewrote:

* ``synthesize`` — account registration + per-category vectorised scenario
  synthesis (columnar ``RawTxBlock`` output, zero per-tx Python objects),
* ``assemble``   — timestamp sort + bulk columnar append into the ledger,
* ``graph``      — global transaction-graph construction.

The headline configuration generates and graphs a ten-million-transaction
ledger; ``--max-total-seconds`` turns the ISSUE's under-60-s budget into a
hard failure, and ``--min-throughput`` floors the generation throughput
(transactions per second over synthesize + assemble) so CI catches
regressions at reduced scale.  Per-scenario synthesis timings are recorded at
the largest scale, every scenario's statistical self-check runs once on
healthy pools, and a classification smoke verifies the three post-paper
attack families (wash-trading, airdrop-farming, mixer) survive the full
pipeline, with per-category precision/recall/F1 stored alongside the timing
rows in ``BENCH_synth.json``.

Run::

    PYTHONPATH=src python benchmarks/perf_synth.py                 # 100k/1M/10M
    PYTHONPATH=src python benchmarks/perf_synth.py --scales 50000 \
        --min-throughput 200000 --skip-classify                    # CI smoke
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.chain import Ledger, LedgerConfig, LedgerGenerator
from repro.chain.scenarios import registered_scenarios
from repro.data.pipeline import build_transaction_graph

#: Transactions generated per unit of LedgerConfig scale with seed 7
#: (measured on the nine-scenario engine at scale 100).
_TXS_PER_UNIT_SCALE = 8316.0

DEFAULT_SCALES = (100_000, 1_000_000, 10_000_000)
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_synth.json"


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def bench_scale(target_txs: int, seed: int = 7, build_graph: bool = True) -> dict:
    """Generate (and optionally graph) one scale; returns the result record."""
    config = LedgerConfig().scaled(target_txs / _TXS_PER_UNIT_SCALE)
    config.seed = seed
    gen = LedgerGenerator(config)
    rng = np.random.default_rng(config.seed)
    ledger = Ledger(genesis_timestamp=config.start_timestamp)

    synthesize_time, raw = _timed(lambda: gen.synthesize(ledger, rng))
    assemble_time, _ = _timed(lambda: gen._assemble_blocks(ledger, raw, rng))
    generation_time = synthesize_time + assemble_time
    record = {
        "target_transactions": target_txs,
        "num_transactions": ledger.num_transactions,
        "num_accounts": ledger.num_accounts,
        "synthesize_seconds": synthesize_time,
        "assemble_seconds": assemble_time,
        "generation_seconds": generation_time,
        "generation_txs_per_second": ledger.num_transactions / generation_time,
    }
    if build_graph:
        graph_time, graph = _timed(lambda: build_transaction_graph(ledger))
        record.update(
            graph_seconds=graph_time,
            num_nodes=graph.num_nodes,
            num_edges=graph.num_edges,
            total_seconds=generation_time + graph_time,
        )
    return record


def bench_per_scenario(target_txs: int, seed: int = 7) -> dict[str, dict]:
    """Time each registered scenario's synthesis in isolation.

    Pools mirror what the generator would hand the scenario at this scale:
    the scaled config's per-category centre count and background/contract
    populations (as plain id ranges — synthesis only touches ids).
    """
    config = LedgerConfig().scaled(target_txs / _TXS_PER_UNIT_SCALE)
    users = np.arange(config.num_background_users, dtype=np.int64)
    contracts = np.arange(len(users), len(users) + config.num_contracts,
                          dtype=np.int64)
    next_id = len(users) + len(contracts)
    timings: dict[str, dict] = {}
    for category, scenario in registered_scenarios().items():
        count = config.labeled_per_category[category]
        centers = np.arange(next_id, next_id + count, dtype=np.int64)
        next_id += count
        rng = np.random.default_rng(seed)
        elapsed, block = _timed(lambda: scenario.synthesize(
            centers, users, contracts, rng, config.start_timestamp,
            config.timespan))
        timings[category.value] = {
            "centers": count,
            "transactions": len(block),
            "seconds": elapsed,
            "txs_per_second": len(block) / elapsed if elapsed > 0 else None,
        }
    return timings


def run_self_checks(seed: int = 7) -> dict[str, int]:
    """Every scenario's statistical envelope must hold on healthy pools."""
    users = np.arange(400, dtype=np.int64)
    contracts = np.arange(400, 440, dtype=np.int64)
    start, span = 1_438_900_000.0, 3600.0 * 24 * 365
    checked: dict[str, int] = {}
    next_id = 440
    for category, scenario in registered_scenarios().items():
        centers = np.arange(next_id, next_id + 12, dtype=np.int64)
        next_id += 12
        block = scenario.synthesize(centers, users, contracts,
                                    np.random.default_rng(seed), start, span)
        scenario.self_check(block, centers, start, span)
        checked[category.value] = len(block)
    return checked


def bench_classification(seed: int = 7, scale: float = 0.35,
                         epochs: int = 6) -> dict[str, dict[str, float]]:
    """End-to-end classification of the three new attack families."""
    from repro.chain import AccountCategory
    from repro.core import DBG4ETH
    from repro.experiments import ExperimentConfig, build_experiment_dataset, \
        run_category_experiment
    from repro.experiments.runner import fast_dbg4eth_config

    dataset, _ledger = build_experiment_dataset(
        ExperimentConfig(scale=scale, top_k=40, max_nodes_per_subgraph=40,
                         seed=seed))
    results: dict[str, dict[str, float]] = {}
    for category in AccountCategory.attack_families():
        results[category.value] = run_category_experiment(
            dataset, category,
            model_factory=lambda: DBG4ETH(fast_dbg4eth_config(epochs=epochs)),
            seed=seed)
    return results


def run(scales=DEFAULT_SCALES, output: Path | None = DEFAULT_OUTPUT,
        seed: int = 7, classify: bool = True,
        classify_scale: float = 0.35) -> dict:
    results = {"config": {"seed": seed, "scales": list(scales),
                          "txs_per_unit_scale": _TXS_PER_UNIT_SCALE},
               "scales": []}

    results["self_check_rows"] = run_self_checks(seed=seed)
    print(f"[self-check] all {len(results['self_check_rows'])} scenarios "
          f"within statistical envelopes")

    for target in scales:
        record = bench_scale(target, seed=seed)
        results["scales"].append(record)
        print(f"[{record['num_transactions']:>9} txs] "
              f"synthesize {record['synthesize_seconds']:7.2f} s | "
              f"assemble {record['assemble_seconds']:7.2f} s | "
              f"graph {record['graph_seconds']:7.2f} s | "
              f"total {record['total_seconds']:7.2f} s | "
              f"{record['generation_txs_per_second']:,.0f} txs/s generated")

    if scales:
        headline = max(scales)
        results["per_scenario"] = bench_per_scenario(headline, seed=seed)
        width = max(len(name) for name in results["per_scenario"])
        for name, row in sorted(results["per_scenario"].items(),
                                key=lambda kv: -kv[1]["seconds"]):
            print(f"[scenario] {name:<{width}} {row['transactions']:>9} txs "
                  f"in {row['seconds']*1e3:8.1f} ms")

    if classify:
        results["classification"] = bench_classification(
            seed=seed, scale=classify_scale)
        for name, report in results["classification"].items():
            print(f"[classify] {name:<16} f1 {report['f1']:.3f} "
                  f"precision {report['precision']:.3f} "
                  f"recall {report['recall']:.3f} "
                  f"accuracy {report['accuracy']:.3f}")

    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", type=int, nargs="+",
                        default=list(DEFAULT_SCALES),
                        help="target transaction counts "
                             "(default: 100000 1000000 10000000)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="path of the JSON results file")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--skip-classify", action="store_true",
                        help="skip the new-family classification smoke")
    parser.add_argument("--classify-scale", type=float, default=0.35,
                        help="ledger scale for the classification smoke")
    parser.add_argument("--min-throughput", type=float, default=None,
                        help="fail unless every scale generates at least this "
                             "many transactions per second")
    parser.add_argument("--max-total-seconds", type=float, default=None,
                        help="fail if the largest scale's generate+graph "
                             "wall-clock exceeds this budget")
    parser.add_argument("--min-f1", type=float, default=None,
                        help="fail unless every new family's classification "
                             "F1 reaches this floor")
    args = parser.parse_args()
    results = run(scales=tuple(args.scales), output=args.output,
                  seed=args.seed, classify=not args.skip_classify,
                  classify_scale=args.classify_scale)
    if args.min_throughput is not None:
        for record in results["scales"]:
            got = record["generation_txs_per_second"]
            assert got >= args.min_throughput, (
                f"generation throughput {got:,.0f} txs/s below "
                f"{args.min_throughput:,.0f} at "
                f"{record['num_transactions']} txs")
    if args.max_total_seconds is not None and results["scales"]:
        largest = max(results["scales"], key=lambda r: r["num_transactions"])
        got = largest["total_seconds"]
        assert got <= args.max_total_seconds, (
            f"generate+graph took {got:.1f} s at "
            f"{largest['num_transactions']} txs, over the "
            f"{args.max_total_seconds:.0f} s budget")
    if args.min_f1 is not None:
        reports = results.get("classification")
        assert reports, "--min-f1 needs the classification smoke"
        for name, report in reports.items():
            assert report["f1"] >= args.min_f1, (
                f"{name} classification F1 {report['f1']:.3f} below "
                f"{args.min_f1:.2f}")


if __name__ == "__main__":
    main()
