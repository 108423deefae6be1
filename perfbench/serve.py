"""``serve``: open-loop Poisson traffic into ``ScoringService`` over a loaded model.

Set-up persists a ~8.3k-tx ledger and trains and saves the three-head served
model.  The timed part sends requests at Poisson arrival times for the run's
seconds, in three slices.  Before, between and after the slices a timing
block opens the ledger and loads and warms the model several times (cold
start) and scores cold batches of addresses spread evenly over the graph's
nodes ranked by degree; the first block's model serves the traffic.  Request
addresses are Zipf-skewed over that ranking (exponent 1.4, about three
requests in four hit the sample cache), so ``core``/``ensemble`` predict and
``api`` micro-batching do the work and sampling is mostly bypassed;
``chain`` and ``graph`` are idle.

Each request is timed from the moment it was due, so a stalled service also
charges the wait it imposes on later arrivals; how late the generator itself
ran is reported beside the latencies as a validity field.

Output check: every answer must equal, bit for bit, a sequential
``DeAnonymizer.score`` of the same addresses on a freshly loaded copy of the
model.
"""

from __future__ import annotations

import asyncio
import os
import time

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from common import SERVED_CATEGORIES, Sizes, fit_saved_model, percentile, sample_times

#: A request answered later than this after its due time misses the limit.
LATENCY_LIMIT_MS = 250.0
ZIPF_EXPONENT = 1.4
#: The traffic is sent in this many slices, with a timing block of cold
#: starts and cold batches before, between and after them.
SLICES = 3
COLD_STARTS_PER_BLOCK = 6
COLD_BATCHES_PER_BLOCK = 2


def setup(sizes: Sizes, seed: int, workdir):
    from repro.chain import LedgerConfig, generate_ledger

    ledger = generate_ledger(LedgerConfig().scaled(sizes.ledger_scale))
    ledger.sync(workdir / "chain")
    served = fit_saved_model(workdir / "model", sizes.served_model_scale, sizes.epochs,
                             SERVED_CATEGORIES)
    return {"sizes": sizes, "seed": seed, "workdir": workdir, "setup_metrics": served,
            "inputs": {"ledger_txs": ledger.num_transactions}}


def _schedule(ranked: list[str], rate: float, seconds: float, rng) -> list[tuple[float, str]]:
    """Poisson due times over ``seconds``; addresses Zipf-distributed over ``ranked``."""
    count = max(1, int(rng.poisson(rate * seconds)))
    due = np.sort(rng.uniform(0.0, seconds, size=count))
    weights = 1.0 / np.arange(1, len(ranked) + 1) ** ZIPF_EXPONENT
    picks = rng.choice(len(ranked), size=count, p=weights / weights.sum())
    return [(float(t), ranked[i]) for t, i in zip(due, picks)]


async def _drive(service, schedule):
    """Send each request at its due time; return answers, latencies, lateness."""
    answers: list = [None] * len(schedule)
    latencies: list = [None] * len(schedule)
    lateness = []

    async def request(i: int, address: str, due: float):
        try:
            answers[i] = await service.score(address)
        except Exception as exc:        # a failed request is counted, not fatal
            answers[i] = exc
            return
        latencies[i] = time.perf_counter() - due

    tasks = []
    base = time.perf_counter() + 0.01
    async with service:
        for i, (offset, address) in enumerate(schedule):
            due = base + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append(time.perf_counter() - due)
            tasks.append(asyncio.create_task(request(i, address, due)))
        await asyncio.gather(*tasks)
    return answers, latencies, lateness


async def _serve(model, schedule, queue_waits):
    from repro.api import ScoringService

    loop = asyncio.get_running_loop()
    loop.set_default_executor(ThreadPoolExecutor(max_workers=os.cpu_count() or 1))
    if queue_waits is not None:
        record = model.metrics.record_seconds

        def record_and_keep(stage, value):
            if stage == "service.queue_wait":
                queue_waits.append(value)
            record(stage, value)
        model.metrics.record_seconds = record_and_keep
    return await _drive(ScoringService(model), schedule)


def measure(state, seconds: float, tracer=None) -> dict:
    from repro.api import DeAnonymizer
    from repro.chain import Ledger

    sizes, workdir = state["sizes"], state["workdir"]
    rng = np.random.default_rng(state["seed"])

    def cold_start():
        model = DeAnonymizer.load(workdir / "model", Ledger.open(workdir / "chain"))
        return model.warm()

    cold_starts, probe_times = [], []

    def timing_block():
        """Cold starts, then cold batches on the last model, its cache emptied each time."""
        fresh = sample_times(COLD_STARTS_PER_BLOCK, cold_start, into=cold_starts)
        if "probe" not in state:
            graph = fresh.builder.graph
            state["inputs"]["graph_nodes"] = graph.num_nodes
            # Busier accounts are looked up more often: popularity follows degree.
            order = np.argsort(-graph.degree_vector(), kind="stable")
            state["ranked"] = [graph.nodes[i] for i in order]
            spread = np.linspace(0, len(order) - 1, sizes.serve_probe).astype(int)
            state["probe"] = [state["ranked"][i] for i in spread]

        def cold_batch():
            fresh.clear_sample_cache()
            return fresh.score(state["probe"])

        sample_times(COLD_BATCHES_PER_BLOCK, cold_batch, into=probe_times)
        return fresh

    model = timing_block()
    model.clear_sample_cache()
    schedule = _schedule(state["ranked"], sizes.serve_rate, seconds, rng)
    before = model.stats()["serving"]["sample_cache"]
    queue_waits = [] if tracer is not None else None
    answers, latencies, lateness = [], [], []
    # The traffic goes out in slices with a timing block after each, so the
    # cold-start and cold-batch medians span the run like the latencies do.
    for k in range(SLICES):
        low, high = k * seconds / SLICES, (k + 1) * seconds / SLICES
        part = [(due - low, address) for due, address in schedule if low <= due < high]
        for pooled, values in zip((answers, latencies, lateness),
                                  asyncio.run(_serve(model, part, queue_waits))):
            pooled.extend(values)
        reference = timing_block()
    after = model.stats()

    distinct = list(dict.fromkeys(address for _, address in schedule))
    expected = reference.score(distinct)
    failed = sum(not isinstance(answer, dict) or answer != expected[address]
                 for (_, address), answer in zip(schedule, answers))
    ok_latencies = [latency for latency in latencies if latency is not None]
    within = sum(latency * 1e3 <= LATENCY_LIMIT_MS
                 for latency, answer, (_, address) in zip(latencies, answers, schedule)
                 if latency is not None and answer == expected[address])
    cache = after["serving"]["sample_cache"]
    hits = cache["hits"] - before["hits"]
    misses = cache["misses"] - before["misses"]
    batch = after["serving"]["stages"].get("service.batch_size", {"mean": 0.0})
    return {
        "metrics": {
            "cold_start_s": float(np.median(cold_starts)),
            "batch_score_aps": len(state["probe"]) / float(np.median(probe_times)),
            "latency_p50_ms": percentile(ok_latencies, 50) * 1e3,
            "latency_p90_ms": percentile(ok_latencies, 90) * 1e3,
            "slo_ok_frac": within / len(schedule),
            # No block lands while the service runs, so no answer can be stale.
            "fresh_frac": 1.0,
        },
        "attempted": len(schedule),
        "failed": failed,
        "checks": {"service_matches_sequential": [len(schedule), failed]},
        "validity": {
            "requests": len(schedule),
            "offered_rate": sizes.serve_rate,
            "generator_late_p99_ms": percentile(lateness, 99) * 1e3,
            "generator_late_max_ms": max(lateness) * 1e3,
            "latency_unit": "one request, from its due time",
            "slo_limit_ms": LATENCY_LIMIT_MS,
        },
        "primary": "latency_p50_ms",
        "layer": {
            "api.cache_hit_ratio": hits / max(1, hits + misses),
            "api.service_batch_mean": batch["mean"],
            "api.queue_wait_p50_ms": (percentile(queue_waits, 50) * 1e3
                                      if queue_waits else 0.0),
        },
    }
