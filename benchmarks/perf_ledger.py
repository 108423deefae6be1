"""Perf harness: columnar ledger + graph build vs the per-object seed paths.

Measures, at several transaction-count scales, the two stages that the
columnar transaction store rewrote:

* ``assemble`` — block assembly + ledger registration from the behaviours'
  raw transaction tuples (``LedgerGenerator._assemble_blocks`` vs the
  per-``Transaction`` object path preserved in
  ``tests/reference/object_paths.py``), and
* ``graph``    — global transaction-graph construction
  (``build_transaction_graph`` columnar bulk ingest vs the per-object loop).

Scenario raw-tx synthesis is timed separately (``synthesize_seconds``): it
is identical for both paths — the same vectorised RNG stream — so it is
excluded from the headline speedup but included in the end-to-end times.
Both paths must produce bit-identical ledgers and graphs; parity is asserted
before any timing is recorded.  Results land in ``BENCH_ledger.json``,
including a million-transaction row in the default configuration.

On top of the scale sweep, the **follow-the-chain** demo exercises the
durable backend end to end: persist a ~100k-tx ledger, restart it from disk
via ``Ledger.open`` (memory-mapped — no rebuild), score a batch of addresses,
append ~10k transactions through the columnar path, and rescore the touched
addresses incrementally (graph ``ingest`` + lazy feature-table refresh + an
O(new rows) ``sync``).  The incremental samples must be bit-identical to a
cold pipeline rebuilt over the grown ledger before any timing is recorded;
the record lands next to the scale rows in ``BENCH_ledger.json``.

Run::

    PYTHONPATH=src:. python benchmarks/perf_ledger.py              # 10k/100k/1M + follow-chain
    PYTHONPATH=src:. python benchmarks/perf_ledger.py --scales 20000 --min-speedup 2
    PYTHONPATH=src:. python benchmarks/perf_ledger.py --skip-scales \
        --base-txs 100000 --append-txs 10000 --min-open-speedup 5
"""

from __future__ import annotations

import argparse
import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.chain import LedgerConfig, Ledger, LedgerGenerator, generate_ledger
from repro.data.dataset import DatasetConfig, SubgraphDatasetBuilder
from repro.data.features import DeepFeatureExtractor
from repro.data.pipeline import build_transaction_graph

from tests.reference.object_paths import (assemble_blocks_objects,
                                          build_transaction_graph_objects)

#: Transactions generated per unit of LedgerConfig scale with seed 7
#: (measured on the nine-scenario engine at scale 100).
_TXS_PER_UNIT_SCALE = 8316.0

DEFAULT_SCALES = (10_000, 100_000, 1_000_000)
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_ledger.json"


def _timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return time.perf_counter() - t0, result


def _assert_ledger_parity(columnar: Ledger, objects: Ledger) -> None:
    cc, co = columnar.tx_columns(), objects.tx_columns()
    for name in ("sender_id", "receiver_id", "value", "gas_price", "gas_used",
                 "timestamp", "is_contract_call", "submitted", "block_number"):
        assert np.array_equal(getattr(cc, name), getattr(co, name)), \
            f"ledger parity violated on column {name}"
    assert columnar.store.addresses == objects.store.addresses, \
        "ledger parity violated on the interning table"
    assert columnar.num_blocks == objects.num_blocks


def _assert_graph_parity(columnar, objects) -> None:
    assert columnar.nodes == objects.nodes, "graph parity violated on nodes"
    feats_c = columnar.edge_feature_matrix()
    feats_o = objects.edge_feature_matrix()
    assert np.array_equal(feats_c, feats_o), "graph parity violated on edges"
    ts_c = np.array([e.timestamp for e in columnar.edges])
    ts_o = np.array([e.timestamp for e in objects.edges])
    assert np.array_equal(ts_c, ts_o), "graph parity violated on timestamps"


def bench_scale(target_txs: int, seed: int = 7, skip_object: bool = False) -> dict:
    """Benchmark one transaction-count scale; returns the result record."""
    config = LedgerConfig().scaled(target_txs / _TXS_PER_UNIT_SCALE)
    config.seed = seed
    gen = LedgerGenerator(config)

    # Both assembly paths start from identical synthesized raw columns and
    # RNG state (synthesis registers accounts/labels and pre-interns ids into
    # the ledger it is given, so each path gets its own identically-seeded run).
    rng_col = np.random.default_rng(config.seed)
    columnar_ledger = Ledger(genesis_timestamp=config.start_timestamp)
    synthesize_time, raw = _timed(lambda: gen.synthesize(columnar_ledger, rng_col))
    assemble_col, _ = _timed(lambda: gen._assemble_blocks(
        columnar_ledger, raw, rng_col))
    record = {
        "target_transactions": target_txs,
        "num_transactions": columnar_ledger.num_transactions,
        "num_accounts": columnar_ledger.num_accounts,
        "synthesize_seconds": synthesize_time,
        "assemble_seconds": {"columnar": assemble_col},
        "graph_seconds": {},
    }

    if not skip_object:
        rng_obj = np.random.default_rng(config.seed)
        object_ledger = Ledger(genesis_timestamp=config.start_timestamp)
        raw_obj = gen.synthesize(object_ledger, rng_obj)
        assemble_obj, _ = _timed(lambda: assemble_blocks_objects(
            config, object_ledger, raw_obj, rng_obj))
        _assert_ledger_parity(columnar_ledger, object_ledger)
        record["assemble_seconds"].update(
            object=assemble_obj, speedup=assemble_obj / assemble_col)

    graph_col_time, graph_col = _timed(
        lambda: build_transaction_graph(columnar_ledger))
    record["graph_seconds"]["columnar"] = graph_col_time
    record["num_nodes"] = graph_col.num_nodes
    record["num_edges"] = graph_col.num_edges

    if not skip_object:
        graph_obj_time, graph_obj = _timed(
            lambda: build_transaction_graph_objects(columnar_ledger))
        _assert_graph_parity(graph_col, graph_obj)
        record["graph_seconds"].update(
            object=graph_obj_time, speedup=graph_obj_time / graph_col_time)
        record["ledger_graph_speedup"] = ((assemble_obj + graph_obj_time)
                                          / (assemble_col + graph_col_time))
        record["end_to_end_seconds"] = {
            "columnar": synthesize_time + assemble_col + graph_col_time,
            "object": synthesize_time + assemble_obj + graph_obj_time,
            "speedup": ((synthesize_time + assemble_obj + graph_obj_time)
                        / (synthesize_time + assemble_col + graph_col_time)),
        }

    # Single-pass feature table straight from the column arrays (info only).
    extractor = DeepFeatureExtractor(columnar_ledger)
    extract_time, _ = _timed(lambda: extractor.extract_many(graph_col.nodes[:100]))
    record["extract_table_seconds"] = extract_time
    return record


def _append_follow_up_txs(ledger: Ledger, n: int, touch: list[str],
                          seed: int) -> None:
    """Append ``n`` submitted transactions via the columnar bulk path.

    Every address in ``touch`` sends/receives part of the traffic, so the
    scored batch demonstrably gains transactions; the rest is background
    churn over existing accounts.
    """
    rng = np.random.default_rng(seed)
    existing = ledger.store.addresses
    picks = rng.integers(0, len(existing), size=2 * n)
    senders = [existing[picks[2 * i]] for i in range(n)]
    receivers = [existing[picks[2 * i + 1]] for i in range(n)]
    for i, address in enumerate(touch):
        senders[i % n] = address
        receivers[(i + len(touch)) % n] = address
    start_ts = ledger.timespan()[1] + ledger.block_interval
    ledger.append_blocks_columnar(
        senders, receivers,
        values=rng.uniform(0.5, 20.0, n),
        gas_prices=rng.uniform(10.0, 60.0, n),
        gas_used=np.full(n, 21_000, dtype=np.int64),
        timestamps=start_ts + np.arange(n, dtype=np.float64) * 0.2,
        is_contract_call=np.zeros(n, dtype=bool),
        submitted=np.ones(n, dtype=bool),
        transactions_per_block=50)


def bench_follow_chain(base_txs: int = 100_000, append_txs: int = 10_000,
                       seed: int = 7, score_batch: int = 16) -> dict:
    """The durable-backend demo: persist, restart from disk, score, append,
    rescore incrementally — bit-identical to a cold rebuild.

    Returns the timing record (all stages, plus the derived
    ``restart_speedup_vs_regenerate`` and ``append_rescore_ms`` headline
    numbers).  Raises ``AssertionError`` if the incremental samples diverge
    from the cold pipeline by a single bit.
    """
    config = LedgerConfig().scaled(base_txs / _TXS_PER_UNIT_SCALE)
    config.seed = seed
    generate_time, ledger = _timed(lambda: generate_ledger(config))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "chain"
        sync_time, manifest = _timed(lambda: ledger.sync(path))
        assert manifest["num_rows"] == ledger.num_transactions

        # Restart from disk: O(metadata) open, columns memory-mapped.
        open_time, reopened = _timed(lambda: Ledger.open(path))
        assert reopened.num_transactions == ledger.num_transactions
        assert reopened.data_version == ledger.data_version
        assert reopened.store.addresses == ledger.store.addresses

        dataset_config = DatasetConfig(top_k=30, max_nodes_per_subgraph=40, seed=3)
        builder = SubgraphDatasetBuilder(reopened, dataset_config)
        warm_time, _ = _timed(lambda: builder.warm())
        graph = builder.graph
        batch = [address for address, _ in reopened.labels.items()
                 if graph.has_node(address)][:score_batch]
        assert batch, "no scoreable labelled addresses in the generated ledger"
        score_time, _ = _timed(
            lambda: [builder.build_sample(a) for a in batch])

        # Follow the chain: new blocks land through the columnar path.
        append_time, _ = _timed(
            lambda: _append_follow_up_txs(reopened, append_txs, batch, seed + 1))
        inc_sync_time, inc_manifest = _timed(lambda: reopened.sync())
        assert inc_manifest["num_rows"] == reopened.num_transactions
        refresh_time, touched = _timed(lambda: builder.refresh())
        targets = [a for a in batch if a in set(touched)]
        assert targets, "the appended traffic must touch scored addresses"
        rescore_time, fresh_samples = _timed(
            lambda: [builder.build_sample(a) for a in targets])

        # Cold reference: a brand-new pipeline over the grown ledger.
        def cold_rebuild():
            cold_builder = SubgraphDatasetBuilder(reopened, dataset_config)
            cold_builder.warm()
            return [cold_builder.build_sample(a) for a in targets]

        cold_time, cold_samples = _timed(cold_rebuild)
        for fresh, cold in zip(fresh_samples, cold_samples):
            assert fresh.graph.nodes == cold.graph.nodes, \
                "follow-chain parity violated on subgraph nodes"
            assert np.array_equal(fresh.graph.edge_feature_matrix(),
                                  cold.graph.edge_feature_matrix()), \
                "follow-chain parity violated on subgraph edges"
            assert np.array_equal(fresh.node_features, cold.node_features), \
                "follow-chain parity violated on node features"

    incremental = append_time + inc_sync_time + refresh_time + rescore_time
    return {
        "base_transactions": ledger.num_transactions - append_txs,
        "append_transactions": append_txs,
        "generate_seconds": generate_time,
        "initial_sync_seconds": sync_time,
        "open_seconds": open_time,
        "restart_speedup_vs_regenerate": generate_time / open_time,
        "warm_seconds": warm_time,
        "score_batch": len(batch),
        "score_seconds": score_time,
        "append_seconds": append_time,
        "incremental_sync_seconds": inc_sync_time,
        "refresh_seconds": refresh_time,
        "rescored_addresses": len(targets),
        "rescore_seconds": rescore_time,
        "append_rescore_ms": incremental * 1e3,
        "cold_rebuild_seconds": cold_time,
        "rescore_speedup_vs_cold": cold_time / (refresh_time + rescore_time),
    }


def run(scales=DEFAULT_SCALES, output: Path | None = DEFAULT_OUTPUT,
        skip_object_above: int | None = None, seed: int = 7,
        follow_chain: bool = True, base_txs: int = 100_000,
        append_txs: int = 10_000) -> dict:
    results = {"config": {"seed": seed, "scales": list(scales),
                          "skip_object_above": skip_object_above},
               "scales": []}
    for target in scales:
        skip_object = skip_object_above is not None and target > skip_object_above
        record = bench_scale(target, seed=seed, skip_object=skip_object)
        results["scales"].append(record)
        line = (f"[{record['num_transactions']:>8} txs] "
                f"synthesize {record['synthesize_seconds']*1e3:8.1f} ms | "
                f"assemble {record['assemble_seconds']['columnar']*1e3:8.1f} ms")
        if "speedup" in record["assemble_seconds"]:
            line += (f" ({record['assemble_seconds']['speedup']:5.1f}x) | "
                     f"graph {record['graph_seconds']['columnar']*1e3:8.1f} ms "
                     f"({record['graph_seconds']['speedup']:5.1f}x) | "
                     f"ledger+graph {record['ledger_graph_speedup']:5.1f}x")
        else:
            line += (f" | graph {record['graph_seconds']['columnar']*1e3:8.1f} ms "
                     f"(object path skipped)")
        print(line)
    if follow_chain:
        record = bench_follow_chain(base_txs=base_txs, append_txs=append_txs,
                                    seed=seed)
        results["follow_chain"] = record
        print(f"[follow-chain] open {record['open_seconds']*1e3:8.1f} ms "
              f"({record['restart_speedup_vs_regenerate']:6.1f}x vs regenerate) | "
              f"append+rescore {record['append_rescore_ms']:8.1f} ms "
              f"({record['rescore_speedup_vs_cold']:5.1f}x vs cold rebuild, "
              f"{record['rescored_addresses']} addresses)")
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", type=int, nargs="+", default=list(DEFAULT_SCALES),
                        help="target transaction counts (default: 10000 100000 1000000)")
    parser.add_argument("--skip-scales", action="store_true",
                        help="run only the follow-the-chain demo")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="path of the JSON results file")
    parser.add_argument("--skip-object-above", type=int, default=None,
                        help="skip the per-object reference paths above this tx count")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail unless every compared scale hits this "
                             "ledger-build+graph-build speedup")
    parser.add_argument("--skip-follow-chain", action="store_true",
                        help="skip the durable-backend follow-the-chain demo")
    parser.add_argument("--base-txs", type=int, default=100_000,
                        help="persisted ledger size for the follow-chain demo")
    parser.add_argument("--append-txs", type=int, default=10_000,
                        help="transactions appended after the restart")
    parser.add_argument("--min-open-speedup", type=float, default=None,
                        help="fail unless restart-from-disk beats regenerating "
                             "the ledger by this factor")
    parser.add_argument("--max-append-rescore-ms", type=float, default=None,
                        help="fail if append + incremental sync + refresh + "
                             "rescore exceeds this latency")
    args = parser.parse_args()
    results = run(scales=() if args.skip_scales else tuple(args.scales),
                  output=args.output,
                  skip_object_above=args.skip_object_above,
                  follow_chain=not args.skip_follow_chain,
                  base_txs=args.base_txs, append_txs=args.append_txs)
    if args.min_speedup is not None:
        for record in results["scales"]:
            if "ledger_graph_speedup" not in record:
                continue
            got = record["ledger_graph_speedup"]
            assert got >= args.min_speedup, (
                f"ledger+graph speedup {got:.1f}x below {args.min_speedup}x "
                f"at {record['num_transactions']} txs")
    chain = results.get("follow_chain")
    if args.min_open_speedup is not None:
        assert chain is not None, "--min-open-speedup needs the follow-chain demo"
        got = chain["restart_speedup_vs_regenerate"]
        assert got >= args.min_open_speedup, (
            f"restart-from-disk speedup {got:.1f}x below {args.min_open_speedup}x")
    if args.max_append_rescore_ms is not None:
        assert chain is not None, "--max-append-rescore-ms needs the follow-chain demo"
        got = chain["append_rescore_ms"]
        assert got <= args.max_append_rescore_ms, (
            f"append+rescore latency {got:.1f} ms above "
            f"{args.max_append_rescore_ms:.1f} ms")


if __name__ == "__main__":
    main()
