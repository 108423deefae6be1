"""``train``: fit a head per category over a ~8.3k-tx ledger, gated on held-out F1.

Set-up persists the ledger and trains and saves a *reference* model with the
served heads of ``serve`` and ``follow`` (one epoch, on a small ledger).  The
timed part opens the ledger, then fits rounds of nine heads
(``DeAnonymizer`` construction and dataset build included) until the run's
seconds are spent, one round at least, all on the same stratified 70/30
split; the inputs do not depend on the workload seed.
GSG/LDG training in ``core`` does almost all of the work; ``chain`` and
``graph`` are nearly idle.

Before the first head and after each head fit the round also times the
reference model over the persisted ledger: a cold start (open + load +
warm), one cold batch of addresses spread over the degree ranking, and two
of those addresses scored one at a time.  Spreading these short samples over
the whole fit makes their medians average over the host's slow and fast
spells instead of catching one of them.

Output checks: the fitted model is saved and loaded back; every loaded head
must reproduce ``predict_proba`` on its held-out samples bit-for-bit, and the
loaded model's ``score`` of the held-out addresses must equal the in-memory
model's.
"""

from __future__ import annotations

import shutil
import time

import numpy as np

from common import (
    SERVED_CATEGORIES, Sizes, fit_heads, fit_saved_model, heldout_f1, model_config,
    percentile, sample_times, timed)

#: A single-address score answered later than this misses the limit.
LATENCY_LIMIT_MS = 250.0
#: Every run trains and evaluates on the same split, so held-out F1 is a
#: deterministic quality gate for the code: over ten split seeds at this
#: scale F1 ranged 0.54-0.77, an interquartile spread of 27% of the median,
#: too wide for a regression bound to catch a model that learns less.
SPLIT_SEED = 0
#: Addresses of the probe scored one at a time in each gap between head fits.
SINGLES_PER_GAP = 2


def setup(sizes: Sizes, seed: int, workdir):
    from repro.chain import LedgerConfig, generate_ledger

    ledger = generate_ledger(LedgerConfig().scaled(sizes.ledger_scale))
    ledger.sync(workdir / "chain")
    fit_saved_model(workdir / "reference", sizes.reference_scale, 1, SERVED_CATEGORIES)
    return {"sizes": sizes, "seed": seed, "workdir": workdir,
            "inputs": {"ledger_txs": ledger.num_transactions}}


def _time_reference(state, result) -> None:
    """One gap's samples: a cold start, a cold batch, single-address scores."""
    from repro.api import DeAnonymizer
    from repro.chain import Ledger

    workdir = state["workdir"]

    def cold_start():
        return DeAnonymizer.load(workdir / "reference", Ledger.open(workdir / "chain")).warm()

    model = sample_times(1, cold_start, into=result["cold_start_s"])
    if "probe" not in state:
        graph = model.builder.graph
        ranked = np.argsort(-graph.degree_vector(), kind="stable")
        spread = np.linspace(0, len(ranked) - 1, state["sizes"].train_probe).astype(int)
        state["probe"] = [graph.nodes[ranked[i]] for i in spread]
    probe = state["probe"]
    seconds, _ = timed(model.score, probe)
    result["batch_s"].append(seconds)
    # A few probe addresses one at a time, moving through the probe per gap.
    first = len(result["latency_s"]) % len(probe)
    for address in probe[first:first + SINGLES_PER_GAP]:
        model.clear_sample_cache()
        seconds, _ = timed(model.score, [address])
        result["latency_s"].append(seconds)


def _round(state, ledger, result):
    from repro.api import DeAnonymizer
    from repro.chain import Ledger

    sizes, workdir = state["sizes"], state["workdir"]
    _time_reference(state, result)
    build_s, deanon = timed(DeAnonymizer, ledger, model_config=model_config(sizes.epochs),
                            seed=SPLIT_SEED)
    categories = deanon.dataset.categories()
    head_seconds, held_out = fit_heads(deanon, categories, SPLIT_SEED,
                                       between=lambda: _time_reference(state, result))
    result["fit_s"].append(build_s + sum(head_seconds))
    result["head_s"].extend(head_seconds)
    result["attempted"] += len(categories)
    state["inputs"].update(graph_nodes=deanon.builder.graph.num_nodes,
                           samples=len(deanon.dataset))

    model_dir = workdir / "model"
    shutil.rmtree(model_dir, ignore_errors=True)
    deanon.save(model_dir)
    loaded = DeAnonymizer.load(model_dir, Ledger.open(workdir / "chain")).warm()
    result["f1"].append(heldout_f1(deanon, held_out))
    parity = result["checks"]["save_load_predict_proba"]
    for category, (samples, _) in held_out.items():
        parity[0] += 1
        if not np.array_equal(loaded.score_samples(samples, category),
                              deanon.score_samples(samples, category)):
            parity[1] += 1
            result["failed"] += 1

    addresses = list(dict.fromkeys(
        sample.center for samples, _ in held_out.values() for sample in samples))
    served, reference = loaded.score(addresses), deanon.score(addresses)
    mismatches = sum(served[a] != reference[a] for a in addresses)
    same = result["checks"]["loaded_score_matches"]
    same[0] += len(addresses)
    same[1] += mismatches
    result["attempted"] += len(addresses)
    result["failed"] += mismatches


def measure(state, seconds: float, tracer=None) -> dict:
    from repro.chain import Ledger

    result = {"fit_s": [], "head_s": [], "f1": [], "cold_start_s": [], "batch_s": [],
              "latency_s": [], "attempted": 0, "failed": 0,
              "checks": {"save_load_predict_proba": [0, 0], "loaded_score_matches": [0, 0]}}
    ledger = Ledger.open(state["workdir"] / "chain")
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        _round(state, ledger, result)
        rounds += 1
    latencies = result["latency_s"]
    return {
        "metrics": {
            "fit_s": float(np.median(result["fit_s"])),
            "heldout_f1": float(np.mean(result["f1"])),
            "cold_start_s": float(np.median(result["cold_start_s"])),
            "batch_score_aps": len(state["probe"]) / float(np.median(result["batch_s"])),
            "latency_p50_ms": percentile(latencies, 50) * 1e3,
            "latency_p90_ms": percentile(latencies, 90) * 1e3,
            "slo_ok_frac": float(np.mean([s * 1e3 <= LATENCY_LIMIT_MS for s in latencies])),
            # No block lands while a model trains, so no answer can be stale.
            "fresh_frac": 1.0,
        },
        "attempted": result["attempted"],
        "failed": result["failed"],
        "checks": result["checks"],
        "validity": {"rounds": rounds, "head_fit_s": result["head_s"],
                     "latency_unit": "one single-address score of the reference model",
                     "slo_limit_ms": LATENCY_LIMIT_MS},
        "primary": "fit_s",
        "layer": {},
    }
