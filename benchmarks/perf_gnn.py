"""Perf harness: CSR sparse message passing vs the seed dense GNN stack.

Measures, at several subgraph node-count scales:

* ``layer``  — single forward passes of GCN / GAT / SAGE and APPNP propagation,
* ``gsg``    — the GSG hierarchical-attention encoder's subgraph embedding,
* ``ldg``    — one time-sliced LDG step (``slice_representations``: GCN + GRU +
  DiffPool over every slice),
* ``slice``  — building the LDG time-slice sequence itself (CSR vs dense),

each against the faithful dense reference implementations preserved in
:mod:`tests.reference.dense_gnn` (the exact seed math, same layer weights).
The ``gsg`` and ``ldg`` rows run the branch networks' stacked forward on a
block of one subgraph, the way a single-sample request is scored.
Forward outputs are asserted to agree to 1e-9 before timings are recorded.
Results, including speedups, are written to ``BENCH_gnn.json``.

Run::

    PYTHONPATH=src:. python benchmarks/perf_gnn.py              # 100/400/1200 nodes
    PYTHONPATH=src:. python benchmarks/perf_gnn.py --scales 80 --output /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import numpy as np

from repro.core.gsg import GSGConfig, _GSGNetwork
from repro.core.ldg import LDGConfig, _LDGNetwork
from repro.data.slicing import time_slice_adjacency, time_slice_csr
from repro.gnn import (
    APPNPPropagation,
    GATLayer,
    GCNLayer,
    GraphSAGELayer,
    SparseAdjacency,
)
from repro.graph.txgraph import TxGraph
from repro.nn import Tensor

from tests.reference import dense_gnn as dense_ref

DEFAULT_SCALES = (100, 400, 1200)
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_gnn.json"
PARITY_ATOL = 1e-9
NUM_SLICES = 5
AVG_DEGREE = 4.0


def synth_subgraph(num_nodes: int, rng: np.random.Generator) -> TxGraph:
    """A random transaction subgraph with ego-subgraph-like connectivity.

    A hub-biased random graph: node 0 is the centre with edges to a large
    fraction of nodes (matching top-K ego sampling), the rest follow a sparse
    Erdős–Rényi pattern at ``AVG_DEGREE`` average degree.
    """
    graph = TxGraph()
    for i in range(num_nodes):
        graph.add_node(i)
    num_random = int(num_nodes * AVG_DEGREE / 2)
    src = rng.integers(0, num_nodes, size=num_random)
    dst = rng.integers(0, num_nodes, size=num_random)
    hub_dst = rng.choice(num_nodes - 1, size=max(num_nodes // 4, 1),
                         replace=False) + 1
    edges = list(zip(src, dst)) + [(0, d) for d in hub_dst]
    for u, v in edges:
        if u == v:
            continue
        graph.add_edge(int(u), int(v), amount=float(rng.lognormal(0.0, 1.0)),
                       timestamp=float(rng.uniform(0.0, 1_000.0)))
    return graph


def _timed(fn, reps: int) -> tuple[float, object]:
    """(best-of-reps wall seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _record(dense_seconds: float, sparse_seconds: float) -> dict:
    return {"dense": dense_seconds, "sparse": sparse_seconds,
            "speedup": dense_seconds / sparse_seconds}


def bench_scale(num_nodes: int, reps: int = 3, seed: int = 7) -> dict:
    """Benchmark one subgraph scale; returns the result record."""
    rng = np.random.default_rng(seed)
    graph = synth_subgraph(num_nodes, rng)
    dense_adj = graph.adjacency_matrix(symmetric=True)
    features = rng.normal(size=(num_nodes, 15))
    edge_features = np.log1p(np.abs(rng.normal(size=(num_nodes, 2))))

    record = {"num_nodes": num_nodes, "num_edges": graph.num_edges,
              "layer": {}, }

    # --- single-layer forwards -------------------------------------------------
    x = Tensor(features)
    layer_specs = [
        ("gcn", GCNLayer(15, 32, rng=np.random.default_rng(0)),
         dense_ref.gcn_forward),
        ("gat", GATLayer(15, 32, rng=np.random.default_rng(0)),
         dense_ref.gat_forward),
        ("sage", GraphSAGELayer(15, 32, rng=np.random.default_rng(0)),
         dense_ref.sage_forward),
        ("appnp", APPNPPropagation(k=5, alpha=0.1), dense_ref.appnp_forward),
    ]
    # Both sides reuse a prebuilt adjacency, the steady-state training pattern:
    # samples cache their CSR form (and its memoized normalisations) across
    # epochs exactly as the dense matrix is prebuilt here.
    sparse_adj = SparseAdjacency.from_graph(graph, symmetric=True)
    for name, layer, dense_fn in layer_specs:
        forward = layer.forward if hasattr(layer, "forward") else layer
        t_sparse, out_sparse = _timed(lambda: forward(x, sparse_adj), reps)
        t_dense, out_dense = _timed(lambda: dense_fn(layer, x, dense_adj), reps)
        assert np.abs(out_sparse.data - out_dense.data).max() < PARITY_ATOL, \
            f"{name} parity violated at n={num_nodes}"
        record["layer"][name] = _record(t_dense, t_sparse)

    # --- GSG encode ------------------------------------------------------------
    gsg = _GSGNetwork(15, 2, GSGConfig(), np.random.default_rng(1))
    block = SparseAdjacency.block_diagonal([sparse_adj])
    t_sparse, emb_sparse = _timed(
        lambda: gsg.embed(features, edge_features, block), reps)
    t_dense, emb_dense = _timed(
        lambda: dense_ref.gsg_embed(gsg, features, edge_features, dense_adj), reps)
    assert np.abs(emb_sparse.data - emb_dense.data).max() < PARITY_ATOL, \
        f"GSG encode parity violated at n={num_nodes}"
    record["gsg_encode"] = _record(t_dense, t_sparse)

    # --- time slicing ----------------------------------------------------------
    t_sparse_slices, sparse_slices = _timed(
        lambda: time_slice_csr(graph, NUM_SLICES, weighted=False), reps)
    t_dense_slices, dense_slices = _timed(
        lambda: time_slice_adjacency(graph, NUM_SLICES, weighted=False), reps)
    for sp, dn in zip(sparse_slices, dense_slices):
        assert np.abs(sp.to_dense() - dn).max() < PARITY_ATOL, \
            f"time-slice parity violated at n={num_nodes}"
    record["time_slice"] = _record(t_dense_slices, t_sparse_slices)

    # --- time-sliced LDG step --------------------------------------------------
    ldg = _LDGNetwork(15, LDGConfig(num_slices=NUM_SLICES),
                      np.random.default_rng(2))
    slice_blocks = [SparseAdjacency.block_diagonal([s]) for s in sparse_slices]
    t_sparse, pooled_sparse = _timed(
        lambda: ldg.slice_representations(features, slice_blocks), reps)
    t_dense, pooled_dense = _timed(
        lambda: dense_ref.ldg_slice_representations(ldg, features, dense_slices),
        reps)
    for ps, pd in zip(pooled_sparse, pooled_dense):
        assert np.abs(ps.data - pd.data).max() < PARITY_ATOL, \
            f"LDG step parity violated at n={num_nodes}"
    record["ldg_step"] = _record(t_dense, t_sparse)
    return record


def run(scales=DEFAULT_SCALES, output: Path | None = DEFAULT_OUTPUT,
        reps: int = 3) -> dict:
    results = {"config": {"scales": list(scales), "num_slices": NUM_SLICES,
                          "avg_degree": AVG_DEGREE, "reps": reps, "seed": 7},
               "scales": []}
    for num_nodes in scales:
        record = bench_scale(num_nodes, reps=reps)
        results["scales"].append(record)
        print(f"[{record['num_nodes']:>5} nodes / {record['num_edges']:>5} edges] "
              f"gcn {record['layer']['gcn']['speedup']:5.1f}x | "
              f"gat {record['layer']['gat']['speedup']:5.1f}x | "
              f"gsg {record['gsg_encode']['speedup']:5.1f}x | "
              f"ldg {record['ldg_step']['speedup']:5.1f}x | "
              f"slice {record['time_slice']['speedup']:5.1f}x")
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", type=int, nargs="+", default=list(DEFAULT_SCALES),
                        help="subgraph node counts (default: 100 400 1200)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="path of the JSON results file")
    parser.add_argument("--reps", type=int, default=3,
                        help="best-of repetitions per measurement")
    parser.add_argument("--min-encode-speedup", type=float, default=None,
                        help="fail unless the largest scale hits this GSG and "
                             "LDG encode speedup")
    args = parser.parse_args()
    results = run(scales=tuple(args.scales), output=args.output, reps=args.reps)
    if args.min_encode_speedup is not None:
        largest = results["scales"][-1]
        for key in ("gsg_encode", "ldg_step"):
            got = largest[key]["speedup"]
            assert got >= args.min_encode_speedup, (
                f"{key} speedup {got:.1f}x below {args.min_encode_speedup}x "
                f"at {largest['num_nodes']} nodes")


if __name__ == "__main__":
    main()
