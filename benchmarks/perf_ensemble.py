"""Perf harness: flat histogram-GBDT engine vs the recursive exact reference.

For every tree-based classification head, at calibration-set scale:

* **parity first** — the stacked flat-array predictions are asserted to match
  a per-row recursive descent of the same fitted trees to ≤1e-9 (they are in
  fact bitwise identical), and the histogram head's held-out accuracy is
  asserted to be within noise of the exact-splitter head's (the reference
  heads in ``tests/reference/exact_heads.py``), before any timing is
  recorded;
* **fit** — histogram growth (quantile pre-binning + one vectorised bincount
  pass per node) vs the recursive exact splitter;
* **predict** — batched :class:`~repro.ensemble.engine.FlatTreeStack` descent
  vs the per-row recursive walk.

Results are written to ``BENCH_ensemble.json``, and an accuracy-vs-throughput
comparison row per head is merged into ``BENCH_api.json`` under
``"ensemble_heads"``.

Run::

    PYTHONPATH=src:. python benchmarks/perf_ensemble.py                # full record
    PYTHONPATH=src:. python benchmarks/perf_ensemble.py --n-samples 800 \
        --reps 1 --min-fit-speedup 2 --min-predict-speedup 5         # CI smoke
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.ensemble import (
    AdaBoostClassifier,
    GradientBoostingClassifier,
    LightGBMClassifier,
    RandomForestClassifier,
    XGBoostClassifier,
)

from tests.reference.exact_heads import (
    ExactAdaBoostClassifier,
    ExactGradientBoostingClassifier,
    ExactLightGBMClassifier,
    ExactRandomForestClassifier,
    ExactXGBoostClassifier,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_ensemble.json"
API_BENCH = REPO_ROOT / "BENCH_api.json"
PARITY_ATOL = 1e-9
ACCURACY_TOLERANCE = 0.03

#: name -> (production histogram head, exact-splitter reference head)
HEADS = {
    "gbm": (GradientBoostingClassifier, ExactGradientBoostingClassifier),
    "lightgbm": (LightGBMClassifier, ExactLightGBMClassifier),
    "xgboost": (XGBoostClassifier, ExactXGBoostClassifier),
    "adaboost": (AdaBoostClassifier, ExactAdaBoostClassifier),
    "random_forest": (RandomForestClassifier, ExactRandomForestClassifier),
}


def _timed(fn, reps: int) -> tuple[float, object]:
    """(best-of-reps wall seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def calibration_task(n: int, seed: int):
    """Synthetic calibrated ``[P_g, P_l]`` pairs at serving scale."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    gsg = np.clip(0.5 + 0.35 * (labels * 2 - 1) + rng.normal(scale=0.22, size=n), 0.0, 1.0)
    ldg = np.clip(0.5 + 0.28 * (labels * 2 - 1) + rng.normal(scale=0.3, size=n), 0.0, 1.0)
    X = np.column_stack([gsg, ldg])
    split = int(0.75 * n)
    return (X[:split], labels[:split]), (X[split:], labels[split:])


# ------------------------------------------------------------- recursive reference
def _walk_tree(tree, row: np.ndarray):
    """Per-row recursive descent of a flat tree (the reference predictor)."""
    idx = 0
    while tree.feature[idx] >= 0:
        if row[tree.feature[idx]] <= tree.threshold[idx]:
            idx = int(tree.left[idx])
        else:
            idx = int(tree.right[idx])
    return tree.values[idx]


def recursive_reference_proba(model, X: np.ndarray) -> np.ndarray:
    """Positive-class probability via per-row recursive walks of every tree."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if isinstance(model, AdaBoostClassifier):
        score = np.zeros(len(X))
        for stump, alpha in zip(model._stumps, model._alphas):
            votes = np.array([
                stump.classes_[int(np.argmax(_walk_tree(stump.flat, row)))]
                for row in X])
            score += alpha * (2 * votes.astype(int) - 1)
        total = sum(abs(a) for a in model._alphas) or 1.0
        return (score / total + 1.0) / 2.0
    if isinstance(model, RandomForestClassifier):
        votes = np.zeros((len(X), len(model.classes_)))
        for tree in model._trees:
            columns = np.searchsorted(model.classes_, tree.classes_)
            for i, row in enumerate(X):
                votes[i, columns] += _walk_tree(tree.flat, row)
        return (votes / len(model._trees))[:, 1]
    # Boosted heads: accumulate per-tree leaf values in fit order.
    X_in = model._transform_inputs(X)
    raw = np.full(len(X), model._base_score)
    for tree in model._trees:
        raw += model.learning_rate * np.array([_walk_tree(tree, row) for row in X_in])
    return 1.0 / (1.0 + np.exp(-np.clip(raw, -30.0, 30.0)))


def batched_proba(model, X: np.ndarray) -> np.ndarray:
    probs = model.predict_proba(X)
    return probs[:, 1] if probs.ndim == 2 else probs


# --------------------------------------------------------------------- benchmark
def bench_head(name: str, X_fit, y_fit, X_eval, y_eval, reps: int,
               seed: int) -> dict:
    cls, exact_cls = HEADS[name]
    hist = cls(seed=seed).fit(X_fit, y_fit)
    exact = exact_cls(seed=seed).fit(X_fit, y_fit)

    # --- parity before timing ----------------------------------------------
    flat = batched_proba(hist, X_eval)
    reference = recursive_reference_proba(hist, X_eval)
    predict_diff = float(np.abs(flat - reference).max())
    assert predict_diff <= PARITY_ATOL, \
        f"{name}: batched/recursive parity violated ({predict_diff:.3e})"

    hist_accuracy = float((hist.predict(X_eval) == y_eval).mean())
    exact_accuracy = float((exact.predict(X_eval) == y_eval).mean())
    accuracy_gap = abs(hist_accuracy - exact_accuracy)
    assert accuracy_gap <= ACCURACY_TOLERANCE, \
        f"{name}: accuracy drifted {accuracy_gap:.3f} from exact reference"

    # --- timing -------------------------------------------------------------
    t_fit_hist, _ = _timed(
        lambda: cls(seed=seed).fit(X_fit, y_fit), reps)
    t_fit_exact, _ = _timed(
        lambda: exact_cls(seed=seed).fit(X_fit, y_fit), reps)
    t_predict_flat, _ = _timed(lambda: batched_proba(hist, X_eval), reps)
    t_predict_recursive, _ = _timed(
        lambda: recursive_reference_proba(hist, X_eval), max(1, reps // 2))

    return {
        "predict_parity_max_diff": predict_diff,
        "hist_accuracy": hist_accuracy,
        "exact_accuracy": exact_accuracy,
        "n_trees": len(getattr(hist, "_trees", getattr(hist, "_stumps", []))),
        "fit": {
            "hist_seconds": t_fit_hist,
            "exact_seconds": t_fit_exact,
            "speedup": t_fit_exact / t_fit_hist,
        },
        "predict": {
            "batched_seconds": t_predict_flat,
            "recursive_seconds": t_predict_recursive,
            "speedup": t_predict_recursive / t_predict_flat,
            "batched_rows_per_second": len(X_eval) / t_predict_flat,
        },
    }


def merge_api_row(results: dict, api_path: Path) -> None:
    """Read-modify-write the head-comparison row into ``BENCH_api.json``."""
    if not api_path.exists():
        return
    api = json.loads(api_path.read_text())
    api["ensemble_heads"] = {
        name: {
            "accuracy": record["hist_accuracy"],
            "fit_seconds": record["fit"]["hist_seconds"],
            "predict_rows_per_second": record["predict"]["batched_rows_per_second"],
            "fit_speedup_vs_exact": record["fit"]["speedup"],
            "predict_speedup_vs_recursive": record["predict"]["speedup"],
        }
        for name, record in results["heads"].items()
    }
    api_path.write_text(json.dumps(api, indent=2) + "\n")
    print(f"merged ensemble_heads row into {api_path}")


def run(n_samples: int = 4000, reps: int = 3, seed: int = 11,
        output: Path | None = DEFAULT_OUTPUT, api_path: Path | None = API_BENCH,
        ) -> dict:
    (X_fit, y_fit), (X_eval, y_eval) = calibration_task(n_samples, seed)
    print(f"task: {len(X_fit)} fit rows, {len(X_eval)} eval rows")
    results = {
        "config": {"n_samples": n_samples, "reps": reps, "seed": seed,
                   "parity_atol": PARITY_ATOL,
                   "accuracy_tolerance": ACCURACY_TOLERANCE},
        "heads": {},
    }
    for name in sorted(HEADS):
        record = bench_head(name, X_fit, y_fit, X_eval, y_eval, reps, seed)
        results["heads"][name] = record
        print(f"[{name:13s}] fit {record['fit']['speedup']:6.1f}x | "
              f"predict {record['predict']['speedup']:7.1f}x "
              f"({record['predict']['batched_rows_per_second']:9.0f} rows/s) | "
              f"acc hist {record['hist_accuracy']:.3f} "
              f"exact {record['exact_accuracy']:.3f} | "
              f"parity {record['predict_parity_max_diff']:.1e}")

    heads = results["heads"].values()
    results["combined_fit_speedup"] = (
        sum(r["fit"]["exact_seconds"] for r in heads)
        / sum(r["fit"]["hist_seconds"] for r in heads))
    results["combined_predict_speedup"] = (
        sum(r["predict"]["recursive_seconds"] for r in heads)
        / sum(r["predict"]["batched_seconds"] for r in heads))
    print(f"[combined] fit {results['combined_fit_speedup']:.1f}x, "
          f"predict {results['combined_predict_speedup']:.1f}x")

    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    if api_path is not None:
        merge_api_row(results, api_path)
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-samples", type=int, default=4000,
                        help="calibration rows (default: 4000)")
    parser.add_argument("--reps", type=int, default=3,
                        help="best-of repetitions per measurement")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="path of the JSON results file")
    parser.add_argument("--skip-api-row", action="store_true",
                        help="do not merge the comparison row into BENCH_api.json")
    parser.add_argument("--min-fit-speedup", type=float, default=None,
                        help="fail unless the combined fit speedup hits this floor")
    parser.add_argument("--min-predict-speedup", type=float, default=None,
                        help="fail unless the combined predict speedup hits this floor")
    args = parser.parse_args()
    results = run(n_samples=args.n_samples, reps=args.reps, seed=args.seed,
                  output=args.output,
                  api_path=None if args.skip_api_row else API_BENCH)
    if args.min_fit_speedup is not None:
        got = results["combined_fit_speedup"]
        assert got >= args.min_fit_speedup, (
            f"combined fit speedup {got:.2f}x below {args.min_fit_speedup}x floor")
    if args.min_predict_speedup is not None:
        got = results["combined_predict_speedup"]
        assert got >= args.min_predict_speedup, (
            f"combined predict speedup {got:.2f}x below "
            f"{args.min_predict_speedup}x floor")


if __name__ == "__main__":
    main()
