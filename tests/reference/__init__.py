"""Slow reference implementations that production code is pinned against.

``src/repro`` keeps one production path per operation; the slower paths it
replaced live here, used only by the parity tests and the ``benchmarks/perf_*``
harnesses:

* :mod:`tests.reference.exact_tree` — recursive exact-splitter CART trees;
* :mod:`tests.reference.exact_heads` — the tree heads fitted with those trees
  (the histogram engine's accuracy reference);
* :mod:`tests.reference.looped_branches` — GSG/LDG on the production
  minibatch schedule with one forward per sample (the stacked kernel's
  ≤1e-9 reference);
* :mod:`tests.reference.object_paths` — per-``Transaction`` ledger assembly
  and graph construction (bit-identical to the columnar paths);
* :mod:`tests.reference.dense_gnn` — the seed's dense ``(n, n)`` GNN math;
* :mod:`tests.reference.behaviors` — the per-tuple behaviour API over the
  scenario engine;
* :mod:`tests.reference.graph_reads` — the CSR row index rebuilt by one
  stable argsort and the set-based per-centre ego sampler (the references
  for the extended index and the array-gather sampler).

Import with the repository root on ``sys.path`` (``python -m pytest`` from
the root does this; the benchmark scripts run with ``PYTHONPATH=src:.``).
"""
