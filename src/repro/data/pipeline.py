"""Transaction filtering and global transaction-graph construction."""

from __future__ import annotations

from typing import Iterable

from repro.chain.ledger import Ledger
from repro.chain.transactions import Transaction
from repro.graph.txgraph import TxGraph

__all__ = ["filter_transactions", "build_transaction_graph"]


def filter_transactions(transactions: Iterable[Transaction],
                        min_value: float = 0.0) -> list[Transaction]:
    """Drop unsubmitted transactions, self-transfers and dust below ``min_value``.

    Mirrors the data-filtering step of Section III-B1 ("delete all unsubmitted
    transactions").
    """
    kept = []
    for tx in transactions:
        if not tx.submitted:
            continue
        if tx.sender == tx.receiver:
            continue
        if tx.value < min_value:
            continue
        kept.append(tx)
    return kept


def build_transaction_graph(ledger: Ledger, min_value: float = 0.0) -> TxGraph:
    """Build the full account-interaction graph with merged edges.

    Every submitted transaction becomes (part of) a directed edge from sender to
    receiver; repeated transfers between the same ordered pair are merged into a
    single edge carrying the total amount and count (Section III-B3).  Node
    attributes record whether the account is a contract so downstream feature
    extraction can distinguish EOAs from contract accounts.

    The edge stream is ingested straight from the ledger's column arrays via
    :meth:`TxGraph.add_edges_bulk` — the filter mask (the vectorised
    :func:`filter_transactions`), the merge and the timestamp means are all
    vectorised, and no ``Transaction`` object is ever materialised.

    The built graph remembers how many ledger rows it consumed (and the dust
    filter), so blocks appended to the ledger afterwards can be folded in
    incrementally with :meth:`TxGraph.ingest` instead of a full rebuild.
    """
    graph = TxGraph()
    cols = ledger.tx_columns()
    keep = (cols.submitted
            & (cols.sender_id != cols.receiver_id)
            & (cols.value >= min_value))
    graph.add_edges_bulk(
        cols.sender_id[keep], cols.receiver_id[keep],
        amounts=cols.value[keep], timestamps=cols.timestamp[keep],
        node_keys=ledger.store.addresses)
    graph._ingested_rows = ledger.num_transactions
    graph._ingest_min_value = min_value
    contracts = ledger.contract_address_set()
    labels = ledger.labels
    for node in graph.nodes:
        graph.set_node_attr(node, "is_contract", node in contracts)
        label = labels.get(node)
        graph.set_node_attr(node, "label", label.value if label else None)
    return graph
