"""Faithful dense re-implementations of the seed GNN forward passes.

The production layers in :mod:`repro.gnn.layers` aggregate on CSR arrays; this
module preserves the seed's dense ``(n, n)`` math *verbatim*, operating on the
same layer instances (shared weights), so that:

* ``tests/test_gnn_sparse_parity.py`` can pin sparse vs dense agreement to
  1e-9 on randomized adjacencies, and
* ``benchmarks/perf_gnn.py`` can measure the sparse speedup against the exact
  code the seed ran.

All functions take dense ``np.ndarray`` adjacencies and support full autograd,
exactly as the seed layers did.
"""

from __future__ import annotations

import numpy as np

from repro.nn import Tensor, concat
from repro.nn.functional import leaky_relu, relu, softmax

__all__ = [
    "normalize_adjacency_dense",
    "gcn_forward",
    "gat_forward",
    "gin_forward",
    "sage_forward",
    "appnp_forward",
    "diffpool_forward",
    "hierarchical_node_embeddings",
    "hierarchical_encode",
    "gsg_embed",
    "gsg_forward",
    "ldg_slice_representations",
    "ldg_forward",
    "time_slice_adjacency_dense",
]


def normalize_adjacency_dense(adjacency: np.ndarray, add_self_loops: bool = True,
                              ) -> np.ndarray:
    """Seed ``D^{-1/2} (A + I) D^{-1/2}`` on a dense matrix."""
    adj = np.asarray(adjacency, dtype=np.float64)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be a square matrix")
    if add_self_loops:
        adj = adj + np.eye(adj.shape[0])
    degree = adj.sum(axis=1)
    inv_sqrt = np.zeros_like(degree)
    nonzero = degree > 0
    inv_sqrt[nonzero] = degree[nonzero] ** -0.5
    return adj * inv_sqrt[:, None] * inv_sqrt[None, :]


def gcn_forward(layer, x: Tensor, adjacency: np.ndarray) -> Tensor:
    """Seed :class:`GCNLayer` forward: ``act(normalize(A) @ X W)``."""
    normalized = Tensor(normalize_adjacency_dense(adjacency))
    out = normalized @ layer.linear(x)
    return layer.activation(out) if layer.activation is not None else out


def gat_forward(layer, x: Tensor, adjacency: np.ndarray) -> Tensor:
    """Seed :class:`GATLayer` forward: masked ``(n, n)`` softmax attention."""
    n = x.shape[0]
    mask = (np.asarray(adjacency) > 0).astype(np.float64) + np.eye(n)
    neg_inf = Tensor((mask <= 0).astype(np.float64) * -1e9)
    head_outputs = []
    for head in range(layer.num_heads):
        h = layer.projections[head](x)
        score_src = h @ layer.attn_src[head]
        score_dst = h @ layer.attn_dst[head]
        scores = leaky_relu(score_src + score_dst.T, layer.negative_slope)
        attn = softmax(scores + neg_inf, axis=1)
        head_outputs.append(attn @ h)
    if layer.num_heads == 1:
        out = head_outputs[0]
    else:
        stacked = concat([h.reshape(n, 1, layer.out_dim) for h in head_outputs], axis=1)
        out = stacked.mean(axis=1)
    return layer.activation(out) if layer.activation is not None else out


def gin_forward(layer, x: Tensor, adjacency: np.ndarray) -> Tensor:
    """Seed :class:`GINLayer` forward: ``MLP((1 + eps) x + (A > 0) x)``."""
    adj = Tensor((np.asarray(adjacency) > 0).astype(np.float64))
    aggregated = adj @ x
    combined = x * (layer.eps + 1.0) + aggregated
    return layer.fc2(relu(layer.fc1(combined)))


def sage_forward(layer, x: Tensor, adjacency: np.ndarray) -> Tensor:
    """Seed :class:`GraphSAGELayer` forward with dense mean aggregation."""
    adj = (np.asarray(adjacency) > 0).astype(np.float64)
    degree = adj.sum(axis=1, keepdims=True)
    degree[degree == 0] = 1.0
    mean_adj = Tensor(adj / degree)
    out = layer.self_linear(x) + layer.neighbor_linear(mean_adj @ x)
    return layer.activation(out) if layer.activation is not None else out


def appnp_forward(module, h0: Tensor, adjacency: np.ndarray) -> Tensor:
    """Seed :class:`APPNPPropagation` forward with a dense normalised matrix."""
    normalized = Tensor(normalize_adjacency_dense(adjacency))
    h = h0
    for _ in range(module.k):
        h = (normalized @ h) * (1.0 - module.alpha) + h0 * module.alpha
    return h


def diffpool_forward(pool, x: Tensor, adjacency: np.ndarray):
    """Seed :class:`DiffPool` forward: dense GCNs + ``M^T A M`` coarsening."""
    assignment = softmax(gcn_forward(pool.assign_gnn, x, adjacency), axis=1)
    embedded = gcn_forward(pool.embed_gnn, x, adjacency)
    pooled_features = assignment.T @ embedded
    assign_np = assignment.data
    pooled_adjacency = assign_np.T @ np.asarray(adjacency) @ assign_np
    return pooled_features, pooled_adjacency, assignment


def hierarchical_node_embeddings(encoder, x: Tensor, adjacency: np.ndarray) -> Tensor:
    """Seed GAT-stack node embeddings of a :class:`HierarchicalAttentionEncoder`."""
    h = x
    for layer in encoder.layers:
        h = gat_forward(layer, h, adjacency)
    return h


def hierarchical_encode(encoder, x: Tensor, adjacency: np.ndarray) -> Tensor:
    """Seed hierarchical encoder forward (the read-out has no adjacency)."""
    return encoder.readout(hierarchical_node_embeddings(encoder, x, adjacency))


def gsg_embed(network, features: np.ndarray, edge_features: np.ndarray,
              adjacency: np.ndarray) -> Tensor:
    """Seed per-sample GSG embedding with the dense encoder path."""
    aligned = leaky_relu(network.align(Tensor(np.hstack([features, edge_features]))))
    return hierarchical_encode(network.encoder, aligned, adjacency)


def gsg_forward(network, features: np.ndarray, edge_features: np.ndarray,
                adjacency: np.ndarray) -> Tensor:
    return network.head(gsg_embed(network, features, edge_features, adjacency))


def ldg_slice_representations(network, features: np.ndarray,
                              slices: list[np.ndarray]) -> list[Tensor]:
    """Seed per-sample LDG slice representations on dense time slices."""
    projected = relu(network.input_proj(Tensor(features)))
    hidden = projected
    pooled_per_slice: list[Tensor] = []
    for adjacency in slices:
        topo = gcn_forward(network.gcn, hidden, adjacency)
        hidden = network.gru(topo, hidden)
        pooled, pooled_adj = hidden, adjacency
        for pool in network.pools:
            pooled, pooled_adj, _assign = diffpool_forward(pool, pooled, pooled_adj)
        pooled_per_slice.append(pooled.mean(axis=0, keepdims=True))
    return pooled_per_slice


def ldg_forward(network, features: np.ndarray, slices: list[np.ndarray]) -> Tensor:
    """Seed per-sample LDG forward on dense time slices."""
    pooled_per_slice = ldg_slice_representations(network, features, slices)
    weights = softmax(network.slice_logits.reshape(1, -1), axis=1)
    representation = None
    for t, pooled in enumerate(pooled_per_slice):
        weighted = pooled * weights[0, t].reshape(1, 1)
        representation = weighted if representation is None else representation + weighted
    return network.head(relu(representation))


def time_slice_adjacency_dense(graph, num_slices: int, weighted: bool = True,
                               cumulative: bool = False) -> list[np.ndarray]:
    """Seed dense time slicer (kept as the parity reference for the CSR slicer)."""
    from repro.data.slicing import time_slice_adjacency

    return time_slice_adjacency(graph, num_slices, weighted=weighted,
                                cumulative=cumulative)
