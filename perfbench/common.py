"""Shared pieces of the three workloads: sizes, statistics, environment, model."""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import subprocess
import time

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Everything a run writes (persisted ledgers, saved models, traces) lives here.
WORKDIR = ROOT / ".perfbench"

#: Heads served by the ``serve`` and ``follow`` workloads.
SERVED_CATEGORIES = ("exchange", "phish/hack", "mining")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``SMOKE`` shrinks every workload to seconds for the smoke test."""

    ledger_scale: float = 1.0             # train/serve: ~8.3k txs, 589 graph nodes
    served_model_scale: float = 0.3       # small ledger the served heads learn from
    epochs: int = 8
    follow_txs: int = 1_000_000
    follow_batch: int = 256
    follow_touch: int = 16
    follow_append: int = 2_000
    follow_checkpoint_rounds: int = 8
    serve_rate: float = 12.0              # requests/s, open loop; the queue builds near 70
    serve_probe: int = 64
    reference_scale: float = 0.15         # train: ledger of the timed reference model
    train_probe: int = 8
    setup_repeats: int = 2


FULL = Sizes()
SMOKE = Sizes(ledger_scale=0.15, served_model_scale=0.15, epochs=1,
              follow_txs=20_000, follow_batch=16, follow_touch=4, follow_append=200,
              follow_checkpoint_rounds=2, serve_probe=8, train_probe=4)

#: Transactions per unit of ``LedgerConfig.scaled`` (default seed, nine scenarios).
TXS_PER_UNIT_SCALE = 8316.0


def model_config(epochs: int):
    """The head configuration every workload trains: fast config, batch 32."""
    from repro.experiments.runner import fast_dbg4eth_config

    return lambda: fast_dbg4eth_config(epochs=epochs, batch_size=32)


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    value = fn(*args, **kwargs)
    return time.perf_counter() - start, value


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (an observed value, never an interpolation)."""
    ordered = sorted(values)
    rank = max(1, int(np.ceil(q / 100.0 * len(ordered))))
    return float(ordered[rank - 1])


def sample_times(repeats: int, fn, *args, into: list):
    """Call ``fn`` ``repeats`` times, appending each call's seconds to ``into``.

    Each call starts from a collected heap, so a collection of garbage left by
    earlier work does not fall into a random sample.  Returns the last value.
    """
    for _ in range(repeats):
        gc.collect()
        seconds, value = timed(fn, *args)
        into.append(seconds)
    return value


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fit_heads(deanon, categories, seed: int, between=None):
    """Fit one head per category on a stratified 70/30 split at ``seed``.

    ``between``, when given, is called after every head fit (outside its
    timing).  Returns ``(per-head fit seconds, {category: (test samples, test
    labels)})``.
    """
    from repro.data.splits import train_test_split

    dataset = deanon.dataset
    head_seconds, held_out = [], {}
    for category in categories:
        samples, labels = dataset.binary_task(category, rng=np.random.default_rng(seed))
        train_s, train_y, test_s, test_y = train_test_split(
            samples, labels, test_fraction=0.3, seed=seed, stratify=True)
        seconds, _ = timed(deanon.fit_category, category, train_s, train_y)
        head_seconds.append(seconds)
        held_out[category] = (test_s, test_y)
        if between is not None:
            between()
    return head_seconds, held_out


def heldout_f1(deanon, held_out) -> float:
    """Macro mean over heads of the repo's F1 on each head's held-out split."""
    from repro.metrics import f1_score

    return float(np.mean([f1_score(labels, deanon.predict_samples(category, samples))
                          for category, (samples, labels) in held_out.items()]))


def fit_saved_model(model_dir: Path, ledger_scale: float, epochs: int,
                    categories=None) -> dict:
    """Train heads on a small ledger at fixed seeds and save them.

    Every run therefore saves the same model; the workload seed only shapes
    the traffic and the chain.  ``categories`` defaults to every category of
    the ledger's dataset.  Returns the fit's seconds and held-out F1.
    """
    from repro.api import DeAnonymizer
    from repro.chain import LedgerConfig, generate_ledger

    ledger = generate_ledger(LedgerConfig().scaled(ledger_scale))
    start = time.perf_counter()
    deanon = DeAnonymizer(ledger, model_config=model_config(epochs), seed=0)
    _, held_out = fit_heads(deanon, categories or deanon.dataset.categories(), seed=0)
    fit_s = time.perf_counter() - start
    f1 = heldout_f1(deanon, held_out)
    deanon.save(model_dir)
    return {"fit_s": fit_s, "heldout_f1": f1}


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(seed: int, sizes: dict) -> dict:
    """The environment block every result carries."""
    return {
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "seed": seed,
        "sizes": sizes,
    }
