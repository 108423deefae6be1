"""Neighbourhood sampling used to build account-centred subgraphs (Eq. 2)."""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.graph.txgraph import TxGraph

__all__ = ["top_k_neighbors", "ego_subgraph"]


def top_k_neighbors(graph: TxGraph, node: Hashable, k: int) -> list[Hashable]:
    """Return up to ``k`` neighbours of ``node``, highest-value first.

    Each neighbour is scored by its **best per-direction average transaction
    value**: for the (at most two) merged directed edges connecting it with
    ``node``, the maximum of ``edge.amount / edge.count`` — the per-direction
    mean transfer size of Section III-B1's value ranking.  Ties on that best
    average are broken by the **total** amount transferred across both
    directions (descending), and remaining ties by the string form of the
    node identifier (ascending), so the ranking is fully deterministic.
    Self-loops never rank.

    The scoring runs on the graph's edge columns (amount/count gathered by
    the CSR row index) — no :class:`~repro.graph.txgraph.Edge` object is
    materialised.  Totals fold out-edges before in-edges, the same
    accumulation order the edges_between-based loop used.
    """
    if node not in graph:
        return []
    node_order = graph.node_order
    return [node_order[i] for i in _top_k_ids(graph, graph.node_index(node), k)]


def _top_k_ids(graph: TxGraph, idx: int, k: int) -> list[int]:
    """:func:`top_k_neighbors` over node ids: the ranked ids of node ``idx``'s top-k."""
    ids = np.array([idx], dtype=np.int64)
    src_ids, dst_ids, amount_col, count_col, _ts = graph.edge_arrays()
    out_slots = graph.incident_slots(ids, out=True)[0]
    in_slots = graph.incident_slots(ids, out=False)[0]
    others = np.concatenate([dst_ids[out_slots], src_ids[in_slots]])
    slots = np.concatenate([out_slots, in_slots])
    not_self = others != idx
    others, slots = others[not_self], slots[not_self]
    if not len(others):
        return []
    amounts = amount_col[slots]
    avgs = amounts / np.maximum(count_col[slots], 1)
    # Group by neighbour: totals are a left-fold from 0.0 in (out, in) order
    # via bincount — the same accumulation the per-edge loop performed — and
    # the best average is an exact max, order-independent.
    uniq, inverse = np.unique(others, return_inverse=True)
    totals = np.bincount(inverse, weights=amounts, minlength=len(uniq))
    best = np.full(len(uniq), -np.inf)
    np.maximum.at(best, inverse, avgs)
    best = np.maximum(best, 0.0)
    # Zero-copy lookup table: graph.nodes would copy the full node list per
    # call, dwarfing the O(deg) scoring on large graphs.
    node_order = graph.node_order
    ranked = sorted(
        zip(uniq.tolist(), best.tolist(), totals.tolist()),
        key=lambda item: (-item[1], -item[2], str(node_order[item[0]])))
    return [i for i, _best, _total in ranked[:k]]


def ego_subgraph(graph: TxGraph, center: Hashable, hops: int = 2, k: int = 2000) -> TxGraph:
    """Extract the ``hops``-hop top-K ego subgraph around ``center``.

    This implements the iterative sampling of Eq. 2: starting from the centre,
    each frontier node contributes its top-K neighbours (by average transaction
    value) to the next frontier, and the union of all sampled nodes induces the
    returned subgraph.

    Each hop gathers the frontier's out- and in-rows from the CSR row index
    in one pass and tracks the sampled set as a boolean mask over node ids.
    A frontier node with at most ``k`` incident edges contributes all of its
    neighbours (they all rank in its top-k), so only nodes of larger degree
    pay for :func:`top_k_neighbors`' ranking.
    """
    if center not in graph:
        raise KeyError(f"center node {center!r} is not in the graph")
    src_ids, dst_ids = graph.edge_arrays()[:2]
    selected = np.zeros(graph.num_nodes, dtype=bool)
    frontier = np.array([graph.node_index(center)], dtype=np.int64)
    selected[frontier] = True
    for _hop in range(hops):
        out_slots, out_lens = graph.incident_slots(frontier, out=True)
        in_slots, in_lens = graph.incident_slots(frontier, out=False)
        out_nbrs = dst_ids[out_slots]
        in_nbrs = src_ids[in_slots]
        out_owner = np.repeat(np.arange(len(frontier)), out_lens)
        in_owner = np.repeat(np.arange(len(frontier)), in_lens)
        # graph.degree per frontier node: a self-loop sits in both rows but
        # counts once.
        loops = np.bincount(out_owner[out_nbrs == frontier[out_owner]],
                            minlength=len(frontier))
        large = out_lens + in_lens - loops > k
        candidates = [out_nbrs[~large[out_owner]], in_nbrs[~large[in_owner]]]
        candidates += [np.array(_top_k_ids(graph, idx, k), dtype=np.int64)
                       for idx in frontier[large].tolist()]
        reached = np.concatenate(candidates)
        frontier = np.unique(reached[~selected[reached]])
        if not len(frontier):
            break
        selected[frontier] = True
    return graph._induced_subgraph(np.flatnonzero(selected))
