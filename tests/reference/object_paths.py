"""Per-``Transaction`` ledger assembly and graph construction.

The original object paths that the columnar ones replaced: one
:class:`Transaction` per synthesized row appended block by block, and one
``TxGraph.add_edge`` per filtered transaction.  Both must produce ledgers and
graphs bit-identical to ``LedgerGenerator.generate`` and
``build_transaction_graph`` (``tests/test_chain_generator.py``,
``tests/test_data_pipeline.py``, ``benchmarks/perf_ledger.py``).
"""

from __future__ import annotations

import numpy as np

from repro.chain import Ledger, LedgerConfig, LedgerGenerator
from repro.chain.scenarios import RawTxBlock
from repro.chain.transactions import Block, Transaction
from repro.data import filter_transactions
from repro.graph import TxGraph

__all__ = ["assemble_blocks_objects", "generate_ledger_objects",
           "build_transaction_graph_objects"]


def assemble_blocks_objects(config: LedgerConfig, ledger: Ledger, raw: RawTxBlock,
                            rng: np.random.Generator) -> None:
    """Sort ``raw`` by timestamp and append it one ``Transaction`` at a time."""
    if len(raw) == 0:
        return
    ordered = raw.take(np.argsort(raw.timestamp, kind="stable"))
    address = ledger.store.address
    rows = zip(ordered.sender_id.tolist(), ordered.receiver_id.tolist(),
               ordered.value.tolist(), ordered.gas_price.tolist(),
               ordered.gas_used.tolist(), ordered.timestamp.tolist(),
               ordered.is_contract_call.tolist())
    blocks: list[Block] = []
    current: list[Transaction] = []
    block_number = 0
    for i, (sender, receiver, value, gas_price, gas_used, ts, is_call) in \
            enumerate(rows):
        submitted = rng.random() >= config.unsubmitted_fraction
        tx = Transaction(
            tx_hash=f"0x{i:064x}",
            sender=address(sender),
            receiver=address(receiver),
            value=round(float(value), 8),
            gas_price=round(float(gas_price), 4),
            gas_used=int(gas_used),
            timestamp=float(ts),
            is_contract_call=bool(is_call),
            block_number=block_number,
            submitted=submitted,
        )
        current.append(tx)
        if len(current) >= config.transactions_per_block:
            blocks.append(Block(block_number, current[-1].timestamp, current))
            current = []
            block_number += 1
    if current:
        blocks.append(Block(block_number, current[-1].timestamp, current))
    for block in blocks:
        ledger.append_block(block)


def generate_ledger_objects(config: LedgerConfig) -> Ledger:
    """``LedgerGenerator(config).generate()`` through the object assembly."""
    rng = np.random.default_rng(config.seed)
    ledger = Ledger(genesis_timestamp=config.start_timestamp)
    raw = LedgerGenerator(config).synthesize(ledger, rng)
    assemble_blocks_objects(config, ledger, raw, rng)
    return ledger


def build_transaction_graph_objects(ledger: Ledger, min_value: float = 0.0) -> TxGraph:
    """``build_transaction_graph`` with one ``add_edge`` per kept transaction."""
    graph = TxGraph()
    for tx in filter_transactions(ledger.transactions(), min_value=min_value):
        graph.add_edge(tx.sender, tx.receiver, amount=tx.value, count=1,
                       timestamp=tx.timestamp)
    graph._ingested_rows = ledger.num_transactions
    graph._ingest_min_value = min_value
    contracts = ledger.contract_address_set()
    labels = ledger.labels
    for node in graph.nodes:
        graph.set_node_attr(node, "is_contract", node in contracts)
        label = labels.get(node)
        graph.set_node_attr(node, "label", label.value if label else None)
    return graph
