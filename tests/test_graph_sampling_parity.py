"""Property tests: the array-gather ego sampler vs the set-based reference.

``ego_subgraph`` gathers each hop's frontier rows from the CSR row index and
tracks the sampled set as a boolean mask over node ids; the reference in
``tests/reference/graph_reads.py`` walks Python sets of node names.  For
every centre — including isolated ones, ones carrying self-loops and unknown
ones (``KeyError``) — the two must return the same node order and
bitwise-identical edge columns, with ``k`` small enough that the top-k
ranking branch runs, on graphs that keep growing (``add_edge`` /
``add_edges_bulk`` batches and ledger ``ingest``) between samples.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chain.ledger import Ledger
from repro.data.pipeline import build_transaction_graph
from repro.graph import TxGraph, ego_subgraph

from tests.reference.graph_reads import assert_csr_matches_fresh_sort, set_ego_subgraph

#: Few distinct amounts so the top-k ranking hits its tie-breaks.
AMOUNTS = (0.0, 1.0, 2.5, 7.0)

row = st.tuples(st.integers(0, 7), st.integers(0, 7), st.sampled_from(AMOUNTS),
                st.integers(0, 3))

# Batches applied via add_edges_bulk (True) or an add_edge loop (False), plus
# an isolated node registered after the batch (or None).
program = st.lists(
    st.tuples(st.booleans(), st.lists(row, min_size=1, max_size=16),
              st.one_of(st.none(), st.integers(8, 10))),
    min_size=1, max_size=5)


def assert_ego_parity(graph: TxGraph, center, hops: int, k: int) -> None:
    try:
        nodes, columns = set_ego_subgraph(graph, center, hops=hops, k=k)
    except KeyError:
        with pytest.raises(KeyError):
            ego_subgraph(graph, center, hops=hops, k=k)
        return
    sub = ego_subgraph(graph, center, hops=hops, k=k)
    assert sub.nodes == nodes
    for got, want in zip(sub.edge_arrays(), columns):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def assert_every_centre_matches(graph: TxGraph, k: int, unknown) -> None:
    for center in graph.nodes + [unknown]:
        for hops in (0, 1, 2, 3):
            assert_ego_parity(graph, center, hops, k)


@settings(max_examples=60, deadline=None)
@given(program, st.integers(1, 3))
def test_growing_graph_samples_match_set_reference(batches, k):
    graph = TxGraph()
    for step, (bulk, rows, isolated) in enumerate(batches):
        if bulk:
            graph.add_edges_bulk(
                np.array([r[0] for r in rows], dtype=np.int64),
                np.array([r[1] for r in rows], dtype=np.int64),
                amounts=np.array([r[2] for r in rows]),
                counts=np.array([r[3] for r in rows], dtype=np.int64),
                timestamps=np.full(len(rows), float(step)))
        else:
            for src, dst, amount, count in rows:
                graph.add_edge(src, dst, amount=amount, count=count,
                               timestamp=float(step))
        if isolated is not None:
            graph.add_node(isolated)
        assert_every_centre_matches(graph, k, unknown=99)
        assert_csr_matches_fresh_sort(graph)


def append_rows(ledger: Ledger, rows) -> None:
    n = len(rows)
    start = ledger.num_transactions
    ledger.append_blocks_columnar(
        [f"0xa{r[0]}" for r in rows], [f"0xa{r[1]}" for r in rows],
        values=np.array([r[2] for r in rows]),
        gas_prices=np.full(n, 20.0),
        gas_used=np.full(n, 21_000, dtype=np.int64),
        timestamps=1_000.0 + start + np.arange(n, dtype=np.float64),
        is_contract_call=np.zeros(n, dtype=bool),
        submitted=np.ones(n, dtype=bool),
        transactions_per_block=4)


ledger_batches = st.lists(st.lists(row, min_size=1, max_size=16), min_size=2, max_size=5)


@settings(max_examples=40, deadline=None)
@given(ledger_batches, st.integers(1, 3))
def test_ingested_graph_samples_match_set_reference(batches, k):
    ledger = Ledger()
    append_rows(ledger, batches[0])
    graph = build_transaction_graph(ledger, min_value=1.0)
    assert_every_centre_matches(graph, k, unknown="0xnot_there")
    for rows in batches[1:]:
        append_rows(ledger, rows)
        graph.ingest(ledger)
        assert_every_centre_matches(graph, k, unknown="0xnot_there")
        assert_csr_matches_fresh_sort(graph)
        cold = build_transaction_graph(ledger, min_value=1.0)
        for center in cold.nodes:
            assert (ego_subgraph(graph, center, hops=2, k=k).nodes
                    == ego_subgraph(cold, center, hops=2, k=k).nodes)
