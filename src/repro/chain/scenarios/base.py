"""Core contracts of the scenario synthesis engine.

A *scenario* is a vectorised generator of labelled on-chain behaviour: given
the interned account ids of its centre (labelled) accounts plus background
user / contract pools, it emits a :class:`RawTxBlock` — parallel numpy
columns, one row per raw transaction — using a handful of batched RNG calls
instead of per-transaction Python tuples.  The engine
(:class:`~repro.chain.generator.LedgerGenerator`) concatenates the blocks of
every registered scenario, sorts them by timestamp and feeds them straight
into the ledger's columnar store; no per-tx Python object is ever created.

Scenarios register themselves under their :class:`AccountCategory` via
:func:`register_scenario`; the registry is the single source of truth for
which behaviour families exist, and new families plug in by subclassing
:class:`Scenario` — the label flows through labelcloud → features →
classification unchanged.

Because the vectorised RNG layout intentionally differs from the historical
per-tuple behaviours, every scenario also declares a statistical *envelope*
(:class:`ScenarioEnvelope`): per-centre transaction counts, flow direction,
contract-call fraction, counterparty degree, value dispersion and timing
spread.  :meth:`Scenario.self_check` verifies a synthesized block against the
envelope, so a refactor that silently changes the shape of a family — the
thing the paper's category separability rests on — fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from repro.chain.labelcloud import AccountCategory

__all__ = [
    "TRANSFER_GAS",
    "CONTRACT_GAS",
    "RawTxBlock",
    "ScenarioEnvelope",
    "ScenarioCheckError",
    "Scenario",
    "register_scenario",
    "scenario_for",
    "registered_scenarios",
    "draw_from_pool",
    "segment_arange",
]

TRANSFER_GAS = 21_000
CONTRACT_GAS = 90_000

#: (field name, numpy dtype) of every RawTxBlock column.
_BLOCK_DTYPES: tuple[tuple[str, type], ...] = (
    ("sender_id", np.int64),
    ("receiver_id", np.int64),
    ("value", np.float64),
    ("gas_price", np.float64),
    ("gas_used", np.int64),
    ("timestamp", np.float64),
    ("is_contract_call", np.bool_),
)


@dataclass
class RawTxBlock:
    """A batch of raw transactions as parallel numpy columns.

    ``sender_id``/``receiver_id`` hold interned account ids (or any opaque
    integer identifiers — the engine passes the ledger store's ids, the
    tuple-API shim in ``tests/reference/behaviors.py`` passes indices into
    ad-hoc pools).  The
    remaining columns mirror the per-transaction fields of the historical
    ``RawTx`` tuple; ordering is arbitrary — the assembly stage sorts the
    concatenated stream by timestamp.
    """

    sender_id: np.ndarray
    receiver_id: np.ndarray
    value: np.ndarray
    gas_price: np.ndarray
    gas_used: np.ndarray
    timestamp: np.ndarray
    is_contract_call: np.ndarray

    def __post_init__(self):
        n = None
        for name, dtype in _BLOCK_DTYPES:
            column = np.ascontiguousarray(getattr(self, name), dtype=dtype)
            setattr(self, name, column)
            if n is None:
                n = len(column)
            elif len(column) != n:
                raise ValueError(
                    f"RawTxBlock column {name!r} has length {len(column)}, "
                    f"expected {n}")

    def __len__(self) -> int:
        return len(self.sender_id)

    @classmethod
    def empty(cls) -> "RawTxBlock":
        return cls(**{name: np.empty(0, dtype=dtype)
                      for name, dtype in _BLOCK_DTYPES})

    @classmethod
    def concat(cls, blocks: Sequence["RawTxBlock"]) -> "RawTxBlock":
        """Concatenate blocks row-wise (order preserved)."""
        blocks = [b for b in blocks if len(b)]
        if not blocks:
            return cls.empty()
        if len(blocks) == 1:
            return blocks[0]
        return cls(**{name: np.concatenate([getattr(b, name) for b in blocks])
                      for name, _ in _BLOCK_DTYPES})

    def take(self, order: np.ndarray) -> "RawTxBlock":
        """A new block holding ``self``'s rows permuted/gathered by ``order``."""
        return RawTxBlock(**{name: getattr(self, name)[order]
                             for name, _ in _BLOCK_DTYPES})


@dataclass(frozen=True)
class ScenarioEnvelope:
    """Statistical bounds a synthesized block must satisfy.

    Every field is an inclusive ``(lo, hi)`` interval, or ``None`` to skip the
    check.  Per-centre statistics are averaged across centres before testing,
    so the bounds describe the *typical* centre and stay robust for blocks
    with a handful of centres (the property-test regime) as well as at
    engine scale.  The bounds assume non-degenerate pools — with an empty or
    singleton counterparty pool a scenario may emit far fewer transactions
    than its envelope describes, so :meth:`Scenario.self_check` is skipped by
    the engine when pools are degenerate.
    """

    #: Raw transactions emitted per centre.
    txs_per_center: tuple[float, float] | None = None
    #: Fraction of rows whose *receiver* is the centre (inbound flow).
    in_fraction: tuple[float, float] | None = None
    #: Fraction of rows flagged as contract calls.
    contract_call_fraction: tuple[float, float] | None = None
    #: Mean (over centres) number of distinct counterparty accounts.
    mean_distinct_counterparties: tuple[float, float] | None = None
    #: Coefficient of variation of inbound values (std / mean).
    in_value_cv: tuple[float, float] | None = None
    #: Mean (over centres) of (latest - earliest timestamp) / window span.
    span_fraction: tuple[float, float] | None = None
    #: Mean (over centres) of |inflow - outflow| / max(inflow, outflow).
    net_flow_imbalance: tuple[float, float] | None = None


class ScenarioCheckError(AssertionError):
    """A synthesized block violated its scenario's statistical envelope."""


class Scenario:
    """Base class of every pluggable behaviour family.

    Subclasses set :attr:`category`, implement :meth:`synthesize` and return
    their statistical bounds from :meth:`envelope`.  ``synthesize`` must be a
    pure function of its arguments and the RNG stream — the engine relies on
    that for deterministic ledger generation — and must only emit rows where
    exactly one endpoint is a centre (so the centre's label describes every
    transaction of the block) and sender != receiver.
    """

    #: The labelled category this scenario's centres carry.
    category: AccountCategory

    def synthesize(self, centers: np.ndarray, users: np.ndarray,
                   contracts: np.ndarray, rng: np.random.Generator,
                   start: float, span: float) -> RawTxBlock:
        raise NotImplementedError

    def envelope(self) -> ScenarioEnvelope:
        raise NotImplementedError

    def is_contract_center(self, index: int) -> bool:
        """Whether the ``index``-th centre account should be a contract."""
        return False

    # ------------------------------------------------------------ self-check
    def self_check(self, block: RawTxBlock, centers: np.ndarray,
                   start: float, span: float) -> None:
        """Verify ``block`` against hard invariants plus :meth:`envelope`.

        Raises :class:`ScenarioCheckError` listing every violated bound.
        Assumes non-degenerate counterparty pools (see
        :class:`ScenarioEnvelope`).
        """
        problems: list[str] = []
        centers = np.ascontiguousarray(centers, dtype=np.int64)
        if len(centers) == 0 or len(block) == 0:
            return
        sender_is_center = np.isin(block.sender_id, centers)
        receiver_is_center = np.isin(block.receiver_id, centers)

        # Hard invariants first: they make the envelope statistics well defined.
        if not np.all(sender_is_center ^ receiver_is_center):
            problems.append("every row must have exactly one centre endpoint")
        if np.any(block.sender_id == block.receiver_id):
            problems.append("self-transfers are not part of any scenario")
        if not np.all(block.value > 0):
            problems.append("values must be strictly positive")
        if not np.all(block.gas_price > 0):
            problems.append("gas prices must be strictly positive")
        if not np.all(block.gas_used > 0):
            problems.append("gas used must be strictly positive")
        lo_t = start - 0.01 * span
        hi_t = start + span + max(3600.0, 0.05 * span)
        if np.any(block.timestamp < lo_t) or np.any(block.timestamp > hi_t):
            problems.append(
                f"timestamps must fall within the observation window "
                f"[{lo_t:.0f}, {hi_t:.0f}]")
        if problems:
            raise ScenarioCheckError(
                f"{type(self).__name__}: " + "; ".join(problems))

        env = self.envelope()
        sorted_centers = np.sort(centers)
        center_col = np.where(sender_is_center, block.sender_id, block.receiver_id)
        counterparty_col = np.where(sender_is_center, block.receiver_id,
                                    block.sender_id)
        center_idx = np.searchsorted(sorted_centers, center_col)
        n_centers = len(sorted_centers)
        per_center = np.bincount(center_idx, minlength=n_centers)
        active = per_center > 0

        def _within(name: str, value: float, bounds) -> None:
            if bounds is not None and not (bounds[0] <= value <= bounds[1]):
                problems.append(
                    f"{name}={value:.4g} outside [{bounds[0]:.4g}, {bounds[1]:.4g}]")

        _within("txs_per_center", float(per_center[active].mean()),
                env.txs_per_center)
        _within("in_fraction", float(receiver_is_center.mean()), env.in_fraction)
        _within("contract_call_fraction", float(block.is_contract_call.mean()),
                env.contract_call_fraction)

        if env.mean_distinct_counterparties is not None:
            pair_keys = (center_idx.astype(np.int64)
                         * np.int64(counterparty_col.max() + 1) + counterparty_col)
            uniq_centers = np.unique(pair_keys) // np.int64(counterparty_col.max() + 1)
            distinct = np.bincount(uniq_centers.astype(np.int64),
                                   minlength=n_centers)
            _within("mean_distinct_counterparties",
                    float(distinct[active].mean()),
                    env.mean_distinct_counterparties)

        if env.in_value_cv is not None:
            # Per-centre dispersion, averaged: different centres legitimately
            # operate at different value levels (e.g. per-miner reward sizes).
            in_idx = center_idx[receiver_is_center]
            in_val = block.value[receiver_is_center]
            count = np.bincount(in_idx, minlength=n_centers)
            total = np.bincount(in_idx, weights=in_val, minlength=n_centers)
            total_sq = np.bincount(in_idx, weights=in_val * in_val,
                                   minlength=n_centers)
            ok = count >= 2
            if ok.any():
                mean = total[ok] / count[ok]
                var = np.maximum(total_sq[ok] / count[ok] - mean * mean, 0.0)
                pos = mean > 0
                if pos.any():
                    cv = np.sqrt(var[pos]) / mean[pos]
                    _within("in_value_cv", float(cv.mean()), env.in_value_cv)

        if env.span_fraction is not None and span > 0:
            order = np.argsort(center_idx, kind="stable")
            bounds_idx = np.concatenate([
                np.flatnonzero(np.diff(center_idx[order]) != 0) + 1, [len(order)]])
            starts = np.concatenate([[0], bounds_idx[:-1]])
            ts_sorted = block.timestamp[order]
            spans = np.array([
                ts_sorted[lo:hi].max() - ts_sorted[lo:hi].min()
                for lo, hi in zip(starts, bounds_idx)])
            _within("span_fraction", float((spans / span).mean()),
                    env.span_fraction)

        if env.net_flow_imbalance is not None:
            inflow = np.bincount(center_idx[receiver_is_center],
                                 weights=block.value[receiver_is_center],
                                 minlength=n_centers)
            outflow = np.bincount(center_idx[~receiver_is_center],
                                  weights=block.value[~receiver_is_center],
                                  minlength=n_centers)
            top = np.maximum(inflow, outflow)
            ok = top > 0
            imbalance = np.abs(inflow[ok] - outflow[ok]) / top[ok]
            if len(imbalance):
                _within("net_flow_imbalance", float(imbalance.mean()),
                        env.net_flow_imbalance)

        if problems:
            raise ScenarioCheckError(
                f"{type(self).__name__} envelope violated: " + "; ".join(problems))


# ------------------------------------------------------------------ registry
_REGISTRY: dict[AccountCategory, Scenario] = {}


def register_scenario(cls: type[Scenario]) -> type[Scenario]:
    """Class decorator: instantiate ``cls`` and register it under its category."""
    instance = cls()
    category = AccountCategory(instance.category)
    _REGISTRY[category] = instance
    return cls


def scenario_for(category: AccountCategory | str) -> Scenario:
    """The registered scenario of ``category`` (accepts category value strings)."""
    return _REGISTRY[AccountCategory(category)]


def registered_scenarios() -> dict[AccountCategory, Scenario]:
    """A snapshot of the registry (category -> scenario instance)."""
    return dict(_REGISTRY)


# ------------------------------------------------------------------- helpers
def draw_from_pool(rng: np.random.Generator, pool: np.ndarray,
                   size: int) -> np.ndarray:
    """``size`` draws (with replacement) from ``pool``; empty-pool safe.

    The degenerate cases the historical per-tuple behaviours tripped over
    (``rng.integers(0, 0)`` on an empty pool) return an empty array instead:
    callers emit no transactions for the affected rows.
    """
    if len(pool) == 0 or size <= 0:
        return np.empty(0, dtype=np.int64)
    return pool[rng.integers(0, len(pool), size=size)]


def segment_arange(counts: np.ndarray) -> np.ndarray:
    """``[0..counts[0]), [0..counts[1]), ...`` concatenated (vectorised)."""
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - starts
