"""Perf harness: columnar-edge-store TxGraph vs dict-backed and seed references.

Measures, at several transaction-count scales:

* ``build``      — full transaction-graph construction from the ledger: the
  columnar ``TxGraph`` (parallel numpy edge columns, lazy ``Edge`` views)
  against ``DictTxGraph``, a faithful re-implementation of the previous
  dict-backed edge store (one merged ``Edge`` object plus three index-dict
  writes per edge),
* ``sample``     — 2-hop top-K ego-subgraph extraction (Eq. 2),
* ``extract``    — batched deep-feature extraction (Table I),
* ``centrality`` — eigenvector + PageRank power iteration,
* ``ingest_resample`` — append rows touching some sampled centres,
  ``TxGraph.ingest`` them, then time the first re-sample (which extends the
  CSR row index) and the following ones, against the first sample on a
  cold graph of the grown ledger (which builds the index from nothing),

``sample``, ``extract`` and ``centrality`` run against faithful
re-implementations of the seed code paths (``LegacyTxGraph`` re-derives
``neighbors``/``degree``/``out_edges``/``in_edges``/``subgraph`` from a full
edge-dict scan; the legacy extract is a per-address loop; the legacy
centralities run dense ``(n, n)`` matrices).

Bit parity between the columnar and dict-backed graphs — node order, edge
order, amounts, counts and the iterative count-weighted timestamp means — is
asserted before any timing is recorded.  Results, including speedups, are
written to ``BENCH_graph.json``.  Scales above ``--build-only-above`` run the
build comparison and ``ingest_resample`` only (the legacy O(V*E) sampler
would take minutes there).  ``ingest_resample`` asserts that the re-sampled
node sets equal the cold graph's before recording its timings.

Run::

    PYTHONPATH=src python benchmarks/perf_graph.py              # 1k/10k/100k/1M
    PYTHONPATH=src python benchmarks/perf_graph.py --scales 20000 --min-build-speedup 2
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path
from typing import Hashable

import numpy as np

from repro.chain import LedgerConfig, generate_ledger
from repro.data.features import DeepFeatureExtractor
from repro.data.pipeline import build_transaction_graph
from repro.graph.centrality import eigenvector_centrality, pagerank_centrality
from repro.graph.sampling import ego_subgraph
from repro.graph.txgraph import Edge, TxGraph

#: Transactions generated per unit of LedgerConfig scale with seed 7
#: (measured on the nine-scenario engine at scale 100).
_TXS_PER_UNIT_SCALE = 8316.0

DEFAULT_SCALES = (1_000, 10_000, 100_000, 1_000_000)
DEFAULT_BUILD_ONLY_ABOVE = 150_000
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_graph.json"


class DictTxGraph:
    """The previous (PR 4) dict-backed edge store, kept as the build reference.

    Every merged edge is a frozen ``Edge`` object stored under its ``(src,
    dst)`` key in a global dict plus two per-node adjacency dicts, with a
    fourth dict recording global insertion rank.  ``add_edges_bulk`` performs
    the same vectorised merge as the columnar store but must still materialise
    one ``Edge`` and three dict writes per merged edge — the per-edge cost the
    columnar refactor removed.
    """

    def __init__(self):
        self._nodes: dict[Hashable, int] = {}
        self._node_order: list[Hashable] = []
        self._edges: dict[tuple[Hashable, Hashable], Edge] = {}
        self._node_attrs: dict[Hashable, dict] = {}
        self._out: dict[Hashable, dict[Hashable, Edge]] = {}
        self._in: dict[Hashable, dict[Hashable, Edge]] = {}
        self._edge_seq: dict[tuple[Hashable, Hashable], int] = {}

    # ------------------------------------------------------------------ nodes
    def add_node(self, node: Hashable, **attrs) -> None:
        if node not in self._nodes:
            self._nodes[node] = len(self._node_order)
            self._node_order.append(node)
            self._node_attrs[node] = {}
            self._out[node] = {}
            self._in[node] = {}
        if attrs:
            self._node_attrs[node].update(attrs)

    def has_node(self, node: Hashable) -> bool:
        return node in self._nodes

    def __contains__(self, node: Hashable) -> bool:
        return node in self._nodes

    def node_index(self, node: Hashable) -> int:
        return self._nodes[node]

    def set_node_attr(self, node: Hashable, key: str, value) -> None:
        self._node_attrs[node][key] = value

    @property
    def nodes(self) -> list[Hashable]:
        return list(self._node_order)

    @property
    def num_nodes(self) -> int:
        return len(self._node_order)

    # ------------------------------------------------------------------ edges
    def add_edge(self, src: Hashable, dst: Hashable, amount: float = 0.0,
                 count: int = 1, timestamp: float = 0.0) -> None:
        self.add_node(src)
        self.add_node(dst)
        key = (src, dst)
        existing = self._edges.get(key)
        if existing is None:
            edge = Edge(src, dst, amount, count, timestamp)
        else:
            total = existing.count + count
            if total > 0:
                mean_ts = (existing.timestamp * existing.count + timestamp * count) / total
            else:
                mean_ts = existing.timestamp
            edge = Edge(src, dst, existing.amount + amount, total, mean_ts)
        if existing is None:
            self._edge_seq[key] = len(self._edges)
        self._edges[key] = edge
        self._out[src][dst] = edge
        self._in[dst][src] = edge

    def add_edges_bulk(self, srcs, dsts, amounts=None, counts=None,
                       timestamps=None, node_keys: list | None = None) -> None:
        """The PR 4 vectorised merge, ending in the per-edge object/dict loop."""
        srcs = np.asarray(srcs)
        n = len(srcs)
        if n == 0:
            return
        dsts = np.asarray(dsts)
        amounts = (np.zeros(n) if amounts is None
                   else np.ascontiguousarray(amounts, dtype=np.float64))
        counts = (np.ones(n, dtype=np.int64) if counts is None
                  else np.ascontiguousarray(counts, dtype=np.int64))
        timestamps = (np.zeros(n) if timestamps is None
                      else np.ascontiguousarray(timestamps, dtype=np.float64))
        if node_keys is None:
            for i in range(n):
                self.add_edge(srcs[i], dsts[i], float(amounts[i]),
                              int(counts[i]), float(timestamps[i]))
            return
        src_codes = np.ascontiguousarray(srcs, dtype=np.int64)
        dst_codes = np.ascontiguousarray(dsts, dtype=np.int64)

        interleaved_codes = np.empty(2 * n, dtype=np.int64)
        interleaved_codes[0::2] = src_codes
        interleaved_codes[1::2] = dst_codes
        _uniq_codes, first_pos = np.unique(interleaved_codes, return_index=True)
        for pos in np.sort(first_pos).tolist():
            node = node_keys[interleaved_codes[pos]]
            if node not in self._nodes:
                self._nodes[node] = len(self._node_order)
                self._node_order.append(node)
                self._node_attrs[node] = {}
                self._out[node] = {}
                self._in[node] = {}

        num_keys = len(node_keys)
        pair_keys = src_codes * np.int64(num_keys) + dst_codes
        uniq_pairs, pair_first, pair_inverse = np.unique(
            pair_keys, return_index=True, return_inverse=True)
        if self._edges:
            for i in range(n):
                self.add_edge(node_keys[src_codes[i]], node_keys[dst_codes[i]],
                              float(amounts[i]), int(counts[i]), float(timestamps[i]))
            return

        pair_appearance = np.argsort(pair_first, kind="stable")
        edge_rank = np.empty(len(uniq_pairs), dtype=np.int64)
        edge_rank[pair_appearance] = np.arange(len(uniq_pairs))
        groups = edge_rank[pair_inverse]
        num_edges_new = len(uniq_pairs)
        order = np.argsort(groups, kind="stable")
        sizes = np.bincount(groups, minlength=num_edges_new)
        starts = np.zeros(num_edges_new, dtype=np.int64)
        np.cumsum(sizes[:-1], out=starts[1:])
        edge_amounts = np.bincount(groups, weights=amounts, minlength=num_edges_new)
        edge_counts = np.bincount(groups, weights=counts.astype(np.float64),
                                  minlength=num_edges_new).astype(np.int64)
        single = sizes == 1
        if single.any():
            edge_amounts[single] = amounts[order[starts[single]]]
        ts_acc = np.zeros(num_edges_new)
        cnt_acc = np.zeros(num_edges_new, dtype=np.int64)
        k = 0
        active = np.arange(num_edges_new)
        while len(active):
            rows = order[starts[active] + k]
            t_k = timestamps[rows]
            c_k = counts[rows]
            if k == 0:
                ts_acc[active] = t_k
                cnt_acc[active] = c_k
            else:
                prev_ts = ts_acc[active]
                prev_cnt = cnt_acc[active]
                total = prev_cnt + c_k
                positive = total > 0
                merged = prev_ts.copy()
                merged[positive] = ((prev_ts[positive] * prev_cnt[positive]
                                     + t_k[positive] * c_k[positive])
                                    / total[positive])
                ts_acc[active] = merged
                cnt_acc[active] = total
            k += 1
            active = active[sizes[active] > k]

        src_nodes = [node_keys[c] for c in (uniq_pairs // num_keys)[pair_appearance].tolist()]
        dst_nodes = [node_keys[c] for c in (uniq_pairs % num_keys)[pair_appearance].tolist()]
        edges = self._edges
        edge_seq = self._edge_seq
        out_index = self._out
        in_index = self._in
        seq = len(edges)
        for src, dst, amount, count, ts in zip(
                src_nodes, dst_nodes, edge_amounts.tolist(),
                edge_counts.tolist(), ts_acc.tolist()):
            edge = Edge(src, dst, amount, count, ts)
            key = (src, dst)
            edge_seq[key] = seq
            seq += 1
            edges[key] = edge
            out_index[src][dst] = edge
            in_index[dst][src] = edge

    @property
    def edges(self) -> list[Edge]:
        return list(self._edges.values())

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edge_feature_matrix(self) -> np.ndarray:
        if not self._edges:
            return np.zeros((0, 2))
        return np.array([[e.amount, float(e.count)] for e in self._edges.values()])

    def out_edges(self, node: Hashable):
        yield from self._out.get(node, {}).values()

    def in_edges(self, node: Hashable):
        yield from self._in.get(node, {}).values()

    def neighbors(self, node: Hashable) -> set[Hashable]:
        return set(self._out.get(node, ())) | set(self._in.get(node, ()))

    def degree(self, node: Hashable) -> int:
        out_nbrs = self._out.get(node)
        in_nbrs = self._in.get(node)
        if out_nbrs is None and in_nbrs is None:
            return 0
        loop = 1 if out_nbrs and node in out_nbrs else 0
        return len(out_nbrs or ()) + len(in_nbrs or ()) - loop

    def adjacency_matrix(self, weighted: bool = False, symmetric: bool = False) -> np.ndarray:
        n = self.num_nodes
        adj = np.zeros((n, n), dtype=np.float64)
        nodes = self._nodes
        for (src, dst), edge in self._edges.items():
            adj[nodes[src], nodes[dst]] = edge.amount if weighted else 1.0
        if symmetric:
            adj = np.maximum(adj, adj.T)
        return adj

    def subgraph(self, nodes):
        keep = {node for node in nodes if node in self._nodes}
        sub = type(self)()
        node_index = self._nodes
        for i, node in enumerate(sorted(keep, key=node_index.__getitem__)):
            sub._nodes[node] = i
            sub._node_order.append(node)
            sub._node_attrs[node] = dict(self._node_attrs[node])
            sub._out[node] = {}
            sub._in[node] = {}
        if len(keep) * 4 < len(self._node_order):
            keys = [(src, dst) for src in keep for dst in self._out[src] if dst in keep]
            keys.sort(key=self._edge_seq.__getitem__)
            kept_edges = [(key, self._edges[key]) for key in keys]
        else:
            kept_edges = [(key, edge) for key, edge in self._edges.items()
                          if key[0] in keep and key[1] in keep]
        for seq, (key, edge) in enumerate(kept_edges):
            sub._edges[key] = edge
            sub._edge_seq[key] = seq
            src, dst = key
            sub._out[src][dst] = edge
            sub._in[dst][src] = edge
        return sub


class LegacyTxGraph(DictTxGraph):
    """The seed implementation: every traversal is a full O(E) edge-dict scan."""

    def out_edges(self, node: Hashable):
        for (src, _dst), edge in self._edges.items():
            if src == node:
                yield edge

    def in_edges(self, node: Hashable):
        for (_src, dst), edge in self._edges.items():
            if dst == node:
                yield edge

    def neighbors(self, node: Hashable) -> set[Hashable]:
        out_nbrs = {dst for (src, dst) in self._edges if src == node}
        in_nbrs = {src for (src, dst) in self._edges if dst == node}
        return out_nbrs | in_nbrs

    def degree(self, node: Hashable) -> int:
        return sum(1 for (src, dst) in self._edges if src == node or dst == node)

    def subgraph(self, nodes):
        keep = set(nodes)
        sub = LegacyTxGraph()
        for node in self._node_order:
            if node in keep:
                sub.add_node(node, **self._node_attrs[node])
        for (src, dst), edge in self._edges.items():
            if src in keep and dst in keep:
                sub.add_edge(src, dst, edge.amount, edge.count, edge.timestamp)
        return sub


def build_dict_graph(ledger, min_value: float = 0.0) -> DictTxGraph:
    """``build_transaction_graph`` against the dict-backed reference store."""
    graph = DictTxGraph()
    cols = ledger.tx_columns()
    keep = (cols.submitted
            & (cols.sender_id != cols.receiver_id)
            & (cols.value >= min_value))
    graph.add_edges_bulk(
        cols.sender_id[keep], cols.receiver_id[keep],
        amounts=cols.value[keep], timestamps=cols.timestamp[keep],
        node_keys=ledger.store.addresses)
    contracts = ledger.contract_address_set()
    labels = ledger.labels
    for node in graph.nodes:
        graph.set_node_attr(node, "is_contract", node in contracts)
        label = labels.get(node)
        graph.set_node_attr(node, "label", label.value if label else None)
    return graph


def assert_build_parity(columnar: TxGraph, dict_graph: DictTxGraph) -> None:
    """Bit parity: node order, edge order, amounts/counts, timestamp means."""
    assert columnar.nodes == dict_graph.nodes, "build parity violated on nodes"
    col_edges = columnar.edges
    ref_edges = dict_graph.edges
    assert [(e.src, e.dst) for e in col_edges] == \
        [(e.src, e.dst) for e in ref_edges], "build parity violated on edge order"
    assert np.array_equal(columnar.edge_feature_matrix(),
                          dict_graph.edge_feature_matrix()), \
        "build parity violated on amounts/counts"
    ts_col = np.array([e.timestamp for e in col_edges])
    ts_ref = np.array([e.timestamp for e in ref_edges])
    assert np.array_equal(ts_col, ts_ref), \
        "build parity violated on merged timestamp means"


def legacy_ego_subgraph(graph: LegacyTxGraph, center, hops: int = 2, k: int = 2000):
    """Seed Eq. 2 sampling: per-frontier-node top-K by average transaction value."""

    def top_k(node):
        scores = {}
        for edge in list(graph.out_edges(node)) + list(graph.in_edges(node)):
            other = edge.dst if edge.src == node else edge.src
            if other == node:
                continue
            avg_value = edge.amount / max(edge.count, 1)
            total_prev, avg_prev = scores.get(other, (0.0, 0.0))
            scores[other] = (total_prev + edge.amount, max(avg_prev, avg_value))
        ranked = sorted(scores.items(), key=lambda item: (-item[1][1], -item[1][0], str(item[0])))
        return [node_id for node_id, _score in ranked[:k]]

    selected = {center}
    frontier = {center}
    for _hop in range(hops):
        next_frontier = set()
        for node in frontier:
            for neighbor in top_k(node):
                if neighbor not in selected:
                    next_frontier.add(neighbor)
        selected |= next_frontier
        frontier = next_frontier
        if not frontier:
            break
    return graph.subgraph(selected)


def legacy_extract_many(extractor: DeepFeatureExtractor, addresses: list[str]) -> np.ndarray:
    """Seed extract_many: a per-address loop over extract()."""
    if not addresses:
        return np.zeros((0, 15))
    return np.vstack([extractor.extract(address) for address in addresses])


def legacy_eigenvector(graph, max_iter: int = 100, tol: float = 1e-8) -> dict:
    """Seed eigenvector centrality: dense (n, n) power iteration."""
    nodes = graph.nodes
    n = len(nodes)
    if n == 0:
        return {}
    adj = graph.adjacency_matrix(symmetric=True) + np.eye(n)
    x = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        x_next = adj @ x + 1e-12
        x_next = x_next / np.linalg.norm(x_next)
        if np.linalg.norm(x_next - x) < tol:
            x = x_next
            break
        x = x_next
    return dict(zip(nodes, np.abs(x)))


def legacy_pagerank(graph, damping: float = 0.85, max_iter: int = 100,
                    tol: float = 1e-10) -> dict:
    """Seed PageRank: dense adjacency with a per-row Python loop."""
    nodes = graph.nodes
    n = len(nodes)
    if n == 0:
        return {}
    adj = graph.adjacency_matrix()
    out_degree = adj.sum(axis=1)
    rank = np.full(n, 1.0 / n)
    for _ in range(max_iter):
        new_rank = np.full(n, (1.0 - damping) / n)
        for i in range(n):
            if out_degree[i] > 0:
                new_rank += damping * rank[i] * adj[i] / out_degree[i]
            else:
                new_rank += damping * rank[i] / n
        if np.abs(new_rank - rank).sum() < tol:
            rank = new_rank
            break
        rank = new_rank
    return dict(zip(nodes, rank))


def _timed(fn, reps: int = 1) -> tuple[float, object]:
    """(best-of-reps wall seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _sample_centers(graph: TxGraph, rng: np.random.Generator, count: int) -> list:
    """Deterministic mix of labelled-ish (higher degree) and random nodes."""
    nodes = graph.nodes
    by_degree = sorted(nodes, key=lambda n: (-graph.degree(n), str(n)))
    picks = list(by_degree[: count // 2])
    picked = set(picks)
    rest = [n for n in nodes if n not in picked]
    idx = rng.permutation(len(rest))[: count - len(picks)]
    picks.extend(rest[i] for i in idx)
    return picks


def bench_ingest_resample(ledger, graph: TxGraph, num_centers: int, hops: int,
                          top_k: int, seed: int) -> dict:
    """Sample some centres, append rows touching them, ``ingest``, re-sample.

    The follow-the-chain round in miniature: the first ``ego_subgraph`` call
    after the ingest extends the graph's CSR row index over the new edges,
    the following calls read it as is.  The re-sampled node sets must equal
    those of a cold graph built over the grown ledger, whose first call
    builds the index from nothing (timed for comparison).
    """
    rng = np.random.default_rng(seed)
    nodes = graph.nodes
    centers = [nodes[i] for i in
               rng.choice(len(nodes), size=min(num_centers, len(nodes)), replace=False)]
    for center in centers:
        ego_subgraph(graph, center, hops=hops, k=top_k)

    store = ledger.store
    count = max(100, ledger.num_transactions // 500)
    senders = rng.integers(0, store.num_addresses, size=count)
    receivers = rng.integers(0, store.num_addresses, size=count)
    ids = np.array([store.address_id(center) for center in centers], dtype=np.int64)
    touching = np.arange(count // 4)
    senders[touching[::2]] = ids[touching[::2] % len(ids)]
    receivers[touching[1::2]] = ids[touching[1::2] % len(ids)]
    receivers = np.where(receivers == senders, (receivers + 1) % store.num_addresses,
                         receivers)
    start = ledger.timespan()[1] + ledger.block_interval
    ledger.append_blocks_columnar(
        senders, receivers,
        values=rng.uniform(0.5, 20.0, count),
        gas_prices=np.full(count, 20.0),
        gas_used=np.full(count, 21_000, dtype=np.int64),
        timestamps=start + np.arange(count, dtype=np.float64),
        is_contract_call=np.zeros(count, dtype=bool),
        submitted=np.ones(count, dtype=bool),
        transactions_per_block=50)

    def resample(g, which):
        return [ego_subgraph(g, center, hops=hops, k=top_k) for center in which]

    ingest_time, _ = _timed(lambda: graph.ingest(ledger))
    first_time, subs = _timed(lambda: resample(graph, centers[:1]))
    rest_time, rest = _timed(lambda: resample(graph, centers[1:]))
    cold_graph = build_transaction_graph(ledger)
    cold_first_time, cold_subs = _timed(lambda: resample(cold_graph, centers[:1]))
    cold_subs += resample(cold_graph, centers[1:])
    for sub, cold_sub in zip(subs + rest, cold_subs):
        assert sub.nodes == cold_sub.nodes, "ingest->resample parity violated"
    return {"appended_rows": count, "centers": len(centers),
            "ingest_seconds": ingest_time,
            "first_sample_seconds": first_time,
            "following_sample_seconds_mean": rest_time / max(1, len(rest)),
            "cold_graph_first_sample_seconds": cold_first_time}


def bench_scale(target_txs: int, hops: int = 2, top_k: int = 2000,
                num_centers: int = 20, extract_reps: int = 5,
                seed: int = 7, build_only: bool = False) -> dict:
    """Benchmark one transaction-count scale; returns the result record."""
    config = LedgerConfig().scaled(target_txs / _TXS_PER_UNIT_SCALE)
    config.seed = seed
    ledger = generate_ledger(config)

    build_reps = 2 if target_txs <= 150_000 else 1
    build_time, graph = _timed(lambda: build_transaction_graph(ledger),
                               reps=build_reps)
    build_dict_time, dict_graph = _timed(lambda: build_dict_graph(ledger),
                                         reps=build_reps)
    # Bit parity between the columnar and dict-backed stores, before any
    # timing is recorded in the results.
    assert_build_parity(graph, dict_graph)

    record = {
        "target_transactions": target_txs,
        "num_transactions": ledger.num_transactions,
        "num_accounts": ledger.num_accounts,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "build_seconds": {"dict": build_dict_time, "columnar": build_time,
                          "speedup": build_dict_time / build_time},
    }
    csr_time, _ = _timed(lambda: graph.to_csr(weighted=True, symmetric=True))
    record["to_csr_seconds"] = csr_time
    if build_only:
        record["build_only"] = True
        record["ingest_resample"] = bench_ingest_resample(
            ledger, graph, num_centers, hops, top_k, seed + 1)
        return record

    legacy_graph = LegacyTxGraph()
    for edge in graph.edges:
        legacy_graph.add_edge(edge.src, edge.dst, edge.amount, edge.count,
                              edge.timestamp)

    rng = np.random.default_rng(seed)
    centers = _sample_centers(graph, rng, num_centers)

    def run_indexed_sampling():
        return [ego_subgraph(graph, c, hops=hops, k=top_k) for c in centers]

    def run_legacy_sampling():
        return [legacy_ego_subgraph(legacy_graph, c, hops=hops, k=top_k) for c in centers]

    sample_reps = 3 if target_txs <= 20_000 else 1
    sample_new, subs_new = _timed(run_indexed_sampling, reps=sample_reps)
    sample_old, subs_old = _timed(run_legacy_sampling, reps=sample_reps)
    for sub_new, sub_old in zip(subs_new, subs_old):
        assert sub_new.nodes == sub_old.nodes, "sampling parity violated"
        assert sub_new.num_edges == sub_old.num_edges, "sampling parity violated"

    addresses = graph.nodes
    extractor = DeepFeatureExtractor(ledger)
    extract_old, feats_old = _timed(lambda: legacy_extract_many(extractor, addresses))
    cold_extractor = DeepFeatureExtractor(ledger)
    extract_cold, feats_cold = _timed(lambda: cold_extractor.extract_many(addresses))
    # Amortized: the single-pass table is built once and reused, the realistic
    # pattern for the dataset builder (one extract_many call per subgraph).
    amortized_extractor = DeepFeatureExtractor(ledger)
    t0 = time.perf_counter()
    for _ in range(extract_reps):
        feats_new = amortized_extractor.extract_many(addresses)
    extract_new = (time.perf_counter() - t0) / extract_reps
    assert np.array_equal(feats_cold, feats_new), "extract_many must be deterministic"
    assert np.array_equal(feats_old, feats_new), "extract_many parity violated"

    # Centrality on a mid-size sampled subgraph (the augmentation workload);
    # capped so the legacy dense per-row PageRank loop stays tractable.
    cent_sub = max(subs_new, key=lambda s: s.num_nodes)
    if cent_sub.num_nodes > 500:
        cent_sub = cent_sub.subgraph(cent_sub.nodes[:500])
    cent_new, _ = _timed(lambda: (eigenvector_centrality(cent_sub),
                                  pagerank_centrality(cent_sub)), reps=2)
    cent_old, _ = _timed(lambda: (legacy_eigenvector(cent_sub),
                                  legacy_pagerank(cent_sub)), reps=2)

    record.update({
        "num_sample_centers": len(centers),
        "sample_seconds": {"legacy": sample_old, "indexed": sample_new,
                           "speedup": sample_old / sample_new},
        "extract_seconds": {"legacy_per_call": extract_old,
                            "indexed_cold": extract_cold,
                            "indexed_amortized": extract_new,
                            "cold_speedup": extract_old / extract_cold,
                            "speedup": extract_old / extract_new},
        "centrality_seconds": {"legacy": cent_old, "indexed": cent_new,
                               "speedup": cent_old / cent_new,
                               "subgraph_nodes": cent_sub.num_nodes},
        # Last: it appends to the ledger every other leg reads.
        "ingest_resample": bench_ingest_resample(
            ledger, graph, num_centers, hops, top_k, seed + 1),
    })
    return record


def run(scales=DEFAULT_SCALES, output: Path | None = DEFAULT_OUTPUT,
        build_only_above: int = DEFAULT_BUILD_ONLY_ABOVE, **kwargs) -> dict:
    results = {"config": {"hops": 2, "top_k": 2000, "seed": 7,
                          "scales": list(scales),
                          "build_only_above": build_only_above},
               "scales": []}
    for target in scales:
        scale_kwargs = dict(kwargs)
        if target > 20_000:
            # The legacy O(V*E) sampler would take minutes with the full
            # centre count at 100k transactions; same workload both sides.
            scale_kwargs["num_centers"] = min(scale_kwargs.get("num_centers", 20), 5)
        build_only = target > build_only_above
        record = bench_scale(target, build_only=build_only, **scale_kwargs)
        results["scales"].append(record)
        line = (f"[{record['num_transactions']:>7} txs] "
                f"build {record['build_seconds']['dict']*1e3:8.1f} -> "
                f"{record['build_seconds']['columnar']*1e3:7.1f} ms "
                f"({record['build_seconds']['speedup']:5.1f}x)")
        if not build_only:
            line += (f" | sample {record['sample_seconds']['legacy']*1e3:8.1f} -> "
                     f"{record['sample_seconds']['indexed']*1e3:7.1f} ms "
                     f"({record['sample_seconds']['speedup']:6.1f}x) | "
                     f"extract {record['extract_seconds']['speedup']:5.1f}x | "
                     f"centrality {record['centrality_seconds']['speedup']:5.1f}x")
        else:
            line += " | build-only scale"
        leg = record["ingest_resample"]
        line += (f" | resample after ingest: first "
                 f"{leg['first_sample_seconds']*1e3:.1f} ms (cold graph "
                 f"{leg['cold_graph_first_sample_seconds']*1e3:.1f} ms), then "
                 f"{leg['following_sample_seconds_mean']*1e3:.1f} ms")
        print(line)
    if output is not None:
        output.write_text(json.dumps(results, indent=2) + "\n")
        print(f"wrote {output}")
    return results


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scales", type=int, nargs="+", default=list(DEFAULT_SCALES),
                        help="target transaction counts (default: 1000 10000 100000 1000000)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help="path of the JSON results file")
    parser.add_argument("--centers", type=int, default=20,
                        help="ego-subgraph sampling centres per scale")
    parser.add_argument("--build-only-above", type=int, default=DEFAULT_BUILD_ONLY_ABOVE,
                        help="scales above this tx count compare graph builds only")
    parser.add_argument("--min-build-speedup", type=float, default=None,
                        help="fail unless every scale hits this columnar-vs-dict "
                             "build speedup")
    parser.add_argument("--min-sample-speedup", type=float, default=None,
                        help="fail unless every full scale hits this sampling speedup")
    parser.add_argument("--min-extract-speedup", type=float, default=None,
                        help="fail unless every full scale hits this extract speedup")
    args = parser.parse_args()
    results = run(scales=tuple(args.scales), output=args.output,
                  build_only_above=args.build_only_above,
                  num_centers=args.centers)
    for record in results["scales"]:
        if args.min_build_speedup is not None:
            got = record["build_seconds"]["speedup"]
            assert got >= args.min_build_speedup, (
                f"build speedup {got:.1f}x below {args.min_build_speedup}x "
                f"at {record['num_transactions']} txs")
        if record.get("build_only"):
            continue
        if args.min_sample_speedup is not None:
            got = record["sample_seconds"]["speedup"]
            assert got >= args.min_sample_speedup, (
                f"sampling speedup {got:.1f}x below {args.min_sample_speedup}x "
                f"at {record['num_transactions']} txs")
        if args.min_extract_speedup is not None:
            got = record["extract_seconds"]["speedup"]
            assert got >= args.min_extract_speedup, (
                f"extract speedup {got:.1f}x below {args.min_extract_speedup}x "
                f"at {record['num_transactions']} txs")


if __name__ == "__main__":
    main()
