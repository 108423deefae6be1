"""``follow``: serve a ~1M-tx persisted chain while new blocks keep landing.

Set-up synthesizes the ledger (at the default generator seed, so every run
starts from the same chain), syncs it to disk and trains and saves the
three-head served model; the workload seed picks the batch, the touched
addresses and the appended blocks.  The timed part:

* cold start — ``Ledger.open`` (memory-mapped) + ``DeAnonymizer.load`` + ``warm``;
* a cold batched ``score`` of a fixed batch of graph addresses;
* rounds of: append ~2k columnar transactions, a quarter of them touching
  16 addresses of the batch and the rest churn between random existing
  accounts → ``sync`` → ``refresh`` → ``score`` the 16.

After a fixed number of rounds (so the figure does not depend on speed) the
whole batch is re-served and compared with a cold pipeline over the grown
ledger: ``fresh_frac`` is the share of the batch whose score is unchanged
from the cold answer, so samples kept in the cache while their neighbourhood
changed show up as stale.  Output check: the addresses the last round
touched must match the cold pipeline bit for bit.  Rounds then continue until
the run's seconds of round time are spent.  ``chain``, ``graph`` and ``data``
do most of the work; the heads are small.
"""

from __future__ import annotations

import time

import numpy as np

from common import (
    SERVED_CATEGORIES, TXS_PER_UNIT_SCALE, Sizes, fit_saved_model, percentile, timed)

#: An append→rescore round slower than this misses the freshness limit.
ROUND_LIMIT_MS = 2000.0


def setup(sizes: Sizes, seed: int, workdir):
    from repro.chain import LedgerConfig, generate_ledger

    ledger = generate_ledger(LedgerConfig().scaled(sizes.follow_txs / TXS_PER_UNIT_SCALE))
    ledger.sync(workdir / "chain")
    inputs = {"ledger_txs": ledger.num_transactions, "accounts": ledger.num_accounts}
    del ledger
    served = fit_saved_model(workdir / "model", sizes.served_model_scale, sizes.epochs,
                             SERVED_CATEGORIES)
    return {"sizes": sizes, "seed": seed, "workdir": workdir, "setup_metrics": served,
            "inputs": inputs}


def _append(ledger, touched: list[str], count: int, rng) -> None:
    """Append ``count`` submitted transfers; a quarter send to or from ``touched``."""
    store = ledger.store
    n_addresses = store.num_addresses
    senders = rng.integers(0, n_addresses, size=count)
    receivers = rng.integers(0, n_addresses, size=count)
    ids = np.array([store.address_id(address) for address in touched], dtype=np.int64)
    touching = np.arange(max(len(ids), count // 4))
    as_sender, as_receiver = touching[::2], touching[1::2]
    senders[as_sender] = ids[np.arange(len(as_sender)) % len(ids)]
    receivers[as_receiver] = ids[np.arange(len(as_receiver)) % len(ids)]
    receivers = np.where(receivers == senders, (receivers + 1) % n_addresses, receivers)
    start = ledger.timespan()[1] + ledger.block_interval
    ledger.append_blocks_columnar(
        senders, receivers,
        values=rng.uniform(0.5, 20.0, count),
        gas_prices=rng.uniform(10.0, 60.0, count),
        gas_used=np.full(count, 21_000, dtype=np.int64),
        timestamps=start + np.arange(count, dtype=np.float64) * 0.2,
        is_contract_call=np.zeros(count, dtype=bool),
        submitted=np.ones(count, dtype=bool),
        transactions_per_block=50)


def _cold_start(workdir):
    from repro.api import DeAnonymizer
    from repro.chain import Ledger

    model = DeAnonymizer.load(workdir / "model", Ledger.open(workdir / "chain"))
    return model.warm()


def measure(state, seconds: float, tracer=None) -> dict:
    sizes, workdir = state["sizes"], state["workdir"]
    rng = np.random.default_rng(state["seed"])

    cold_start_s, model = timed(_cold_start, workdir)
    ledger = model.ledger
    nodes = model.builder.graph.nodes
    state["inputs"]["graph_nodes"] = len(nodes)
    batch = [nodes[i] for i in rng.choice(len(nodes), size=sizes.follow_batch, replace=False)]
    batch_s, _ = timed(model.score, batch)
    cold_starts, batch_times = [cold_start_s], [batch_s]
    attempted, failed = len(batch), 0

    rounds: list[float] = []
    stages = {"append": [], "sync": [], "refresh": [], "score": []}
    fresh_frac, parity = None, [0, 0]
    round_time = 0.0
    while fresh_frac is None or round_time < seconds:
        touched = [batch[i] for i in
                   rng.choice(len(batch), size=sizes.follow_touch, replace=False)]
        t0 = time.perf_counter()
        _append(ledger, touched, sizes.follow_append, rng)
        t1 = time.perf_counter()
        ledger.sync()
        t2 = time.perf_counter()
        model.refresh()
        t3 = time.perf_counter()
        rescored = model.score(touched)
        t4 = time.perf_counter()
        for name, span in zip(stages, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            stages[name].append(span)
        rounds.append(t4 - t0)
        round_time += t4 - t0
        attempted += len(touched)
        if fresh_frac is None and len(rounds) == sizes.follow_checkpoint_rounds:
            reserved = model.score(batch)
            # The cold pipeline doubles as a second cold-start and cold-batch sample.
            cold_start_s, cold = timed(_cold_start, workdir)
            batch_s, expected = timed(cold.score, batch)
            cold_starts.append(cold_start_s)
            batch_times.append(batch_s)
            del cold
            fresh_frac = sum(reserved[a] == expected[a] for a in batch) / len(batch)
            parity = [len(touched), sum(rescored[a] != expected[a] for a in touched)]
            failed += parity[1]

    cache = model.stats()["serving"]["sample_cache"]
    return {
        "metrics": {
            "cold_start_s": float(np.mean(cold_starts)),
            "batch_score_aps": len(batch) * len(batch_times) / sum(batch_times),
            "latency_p50_ms": percentile(rounds, 50) * 1e3,
            "latency_p90_ms": percentile(rounds, 90) * 1e3,
            "slo_ok_frac": float(np.mean([r * 1e3 <= ROUND_LIMIT_MS for r in rounds])),
            "fresh_frac": fresh_frac,
        },
        "attempted": attempted,
        "failed": failed,
        "checks": {"rescore_matches_cold": parity},
        "validity": {
            "rounds": len(rounds),
            "latency_unit": "one append→sync→refresh→rescore round",
            "slo_limit_ms": ROUND_LIMIT_MS,
            "round_stage_p50_ms": {name: percentile(v, 50) * 1e3 for name, v in stages.items()},
        },
        "primary": "latency_p50_ms",
        "layer": {
            "api.cache_hit_ratio": cache["hits"] / max(1, cache["hits"] + cache["misses"]),
            "api.invalidations": cache["invalidations"],
        },
    }
