"""``src/repro`` keeps one production path per operation.

The slow parity references live in ``tests/reference``; these guards keep
them — and optional native GBDT packages — from leaking back into ``src``,
and check that the removed path selectors and per-sample branch paths stay
removed.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.baselines import DeepWalkClassifier
from repro.chain import LedgerGenerator
from repro.core import GSGBranch, LDGBranch
from repro.core.gsg import _GSGNetwork
from repro.core.ldg import _LDGNetwork
from repro.data import build_transaction_graph
from repro.ensemble import (
    AdaBoostClassifier,
    GradientBoostingClassifier,
    LightGBMClassifier,
    RandomForestClassifier,
    XGBoostClassifier,
)

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FORBIDDEN_TOP_LEVEL = {"tests", "lightgbm", "xgboost"}


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module


def test_src_imports_no_tests_or_native_gbdt_packages():
    offenders = []
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources found under {SRC}"
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for lineno, module in _imported_modules(tree):
            if module.split(".")[0] in FORBIDDEN_TOP_LEVEL:
                offenders.append(f"{path.relative_to(SRC.parent)}:{lineno}: {module}")
    assert not offenders, "forbidden imports in src/:\n" + "\n".join(offenders)


@pytest.mark.parametrize("factory", [GradientBoostingClassifier, LightGBMClassifier,
                                     XGBoostClassifier, AdaBoostClassifier,
                                     RandomForestClassifier, DeepWalkClassifier])
def test_tree_method_selector_is_gone(factory):
    with pytest.raises(TypeError):
        factory(tree_method="exact")


@pytest.mark.parametrize("factory", [LightGBMClassifier, XGBoostClassifier])
def test_backend_selector_is_gone(factory):
    with pytest.raises(TypeError):
        factory(backend="native")


def test_columnar_selectors_are_gone(small_ledger):
    with pytest.raises(TypeError):
        LedgerGenerator(columnar=False)
    with pytest.raises(TypeError):
        build_transaction_graph(small_ledger, columnar=False)


@pytest.mark.parametrize("branch_cls", [GSGBranch, LDGBranch])
def test_batched_kernel_flag_is_gone(branch_cls):
    assert not hasattr(branch_cls(), "_batched_kernel")


@pytest.mark.parametrize("network_cls, methods", [
    (_GSGNetwork, {"embed", "forward"}),
    (_LDGNetwork, {"slice_representations", "forward"}),
])
def test_branch_networks_have_one_forward(network_cls, methods):
    # Each stage has one (stacked) method; a per-sample twin would add a name.
    defined = {name for name, value in vars(network_cls).items()
               if callable(value) and not name.startswith("_")}
    assert defined == methods


def _compares_batch_size_to_one(node: ast.AST) -> bool:
    if not isinstance(node, ast.Compare) or len(node.ops) != 1 \
            or not isinstance(node.ops[0], (ast.Eq, ast.NotEq, ast.LtE)):
        return False
    operands = [node.left, *node.comparators]
    names = {getattr(o, "id", None) or getattr(o, "attr", None) for o in operands}
    return "batch_size" in names and any(
        isinstance(o, ast.Constant) and o.value == 1 for o in operands)


def test_core_has_no_batch_size_one_branch():
    offenders = []
    for path in sorted((SRC / "core").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if _compares_batch_size_to_one(node)]
    assert not offenders, "batch_size == 1 branches in core/: " + ", ".join(offenders)
