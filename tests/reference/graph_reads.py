"""From-scratch references for the graph layer's incremental read path.

* :func:`csr_rows` — the CSR row index built from nothing with one stable
  argsort, the way ``TxGraph._ensure_adjacency`` built it before it learned
  to extend the index in place.  The extended arrays must equal it after
  every growth step.
* :func:`set_ego_subgraph` — the per-centre ego sampler over Python sets of
  node names, with the induced edges chosen by one dense scan of the edge
  columns.  ``repro.graph.sampling.ego_subgraph`` must return the same node
  order and bitwise-identical edge columns.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.graph.sampling import top_k_neighbors
from repro.graph.txgraph import TxGraph


def csr_rows(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, slots)``: edge slots grouped by ``keys`` over ``n`` rows, in slot order."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    return indptr, np.argsort(keys, kind="stable")


def assert_csr_matches_fresh_sort(graph: TxGraph) -> None:
    """The graph's current CSR row index equals a from-scratch stable argsort."""
    graph._ensure_adjacency()
    src, dst = graph.edge_arrays()[:2]
    n = graph.num_nodes
    for (indptr, slots), (ref_indptr, ref_slots) in (
            ((graph._out_indptr, graph._out_slots), csr_rows(src, n)),
            ((graph._in_indptr, graph._in_slots), csr_rows(dst, n))):
        np.testing.assert_array_equal(indptr, ref_indptr)
        np.testing.assert_array_equal(slots, ref_slots)
        assert slots.dtype == ref_slots.dtype and indptr.dtype == ref_indptr.dtype


def set_ego_subgraph(graph: TxGraph, center: Hashable, hops: int = 2, k: int = 2000,
                     ) -> tuple[list, tuple[np.ndarray, ...]]:
    """``(nodes, (src, dst, amount, count, timestamp))`` of the ego subgraph.

    Frontiers are sets of node names; each frontier node contributes all its
    neighbours when its degree is at most ``k`` and its
    :func:`top_k_neighbors` otherwise.  Raises ``KeyError`` for an unknown
    centre.
    """
    if center not in graph:
        raise KeyError(f"center node {center!r} is not in the graph")
    selected: set[Hashable] = {center}
    frontier: set[Hashable] = {center}
    for _hop in range(hops):
        next_frontier: set[Hashable] = set()
        for node in frontier:
            if graph.degree(node) <= k:
                candidates = graph.neighbors(node)
            else:
                candidates = top_k_neighbors(graph, node, k)
            for neighbor in candidates:
                if neighbor not in selected:
                    next_frontier.add(neighbor)
        selected |= next_frontier
        frontier = next_frontier
        if not frontier:
            break
    keep_ids = sorted(graph.node_index(node) for node in selected)
    order = graph.node_order
    src, dst, amount, count, ts = graph.edge_arrays()
    in_keep = np.zeros(graph.num_nodes, dtype=bool)
    in_keep[keep_ids] = True
    slots = np.flatnonzero(in_keep[src] & in_keep[dst])
    remap = np.zeros(graph.num_nodes, dtype=np.int64)
    remap[keep_ids] = np.arange(len(keep_ids))
    return ([order[i] for i in keep_ids],
            (remap[src[slots]], remap[dst[slots]], amount[slots], count[slots],
             ts[slots]))
