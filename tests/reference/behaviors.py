"""Per-tuple behaviour API, now a compatibility shim over the scenario engine.

The behavioural archetypes themselves live in :mod:`repro.chain.scenarios`
as vectorised :class:`~repro.chain.scenarios.Scenario` classes (see that
package's docstrings for the per-category patterns).  This module keeps the
original tuple-based surface — one centre address in, a list of
``(sender, receiver, value, gas_price, gas_used, timestamp, is_contract_call)``
tuples out — by running the matching scenario over an ad-hoc id universe and
mapping the resulting columns back to address strings.  Tests use it to get
a handful of transactions without a ledger; the generator itself calls the
scenarios directly on interned id arrays.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.chain.labelcloud import AccountCategory
from repro.chain.scenarios import registered_scenarios, scenario_for

__all__ = ["RawTx", "BEHAVIORS", "behavior_for"]

RawTx = tuple[str, str, float, float, int, float, bool]

_TRANSFER_GAS = 21_000
_CONTRACT_GAS = 90_000


def _sample_counterparties(rng: np.random.Generator, pool: Sequence[str], n: int) -> list[str]:
    """Sample up to ``n`` distinct members of ``pool`` (all of them if fewer).

    Safe on degenerate pools: an empty pool yields ``[]`` and a singleton
    pool yields its single member, without touching the RNG stream for the
    empty case.
    """
    n = min(n, len(pool))
    if n <= 0:
        return []
    idx = rng.choice(len(pool), size=n, replace=False)
    return [pool[i] for i in idx]


def _run_scenario(category: AccountCategory, center: str, users: Sequence[str],
                  contracts: Sequence[str], rng: np.random.Generator,
                  start: float, span: float) -> list[RawTx]:
    """Run ``category``'s scenario for one centre, returning address tuples."""
    addresses = [center, *users, *contracts]
    centers = np.zeros(1, dtype=np.int64)
    user_ids = np.arange(1, 1 + len(users), dtype=np.int64)
    contract_ids = np.arange(1 + len(users), len(addresses), dtype=np.int64)
    block = scenario_for(category).synthesize(
        centers, user_ids, contract_ids, rng, start, span)
    return [
        (addresses[s], addresses[r], float(v), float(g), int(gu), float(t), bool(c))
        for s, r, v, g, gu, t, c in zip(
            block.sender_id.tolist(), block.receiver_id.tolist(),
            block.value.tolist(), block.gas_price.tolist(),
            block.gas_used.tolist(), block.timestamp.tolist(),
            block.is_contract_call.tolist())
    ]


def _behavior(category: AccountCategory) -> Callable[..., list[RawTx]]:
    def run(center: str, users: Sequence[str], contracts: Sequence[str],
            rng: np.random.Generator, start: float, span: float) -> list[RawTx]:
        return _run_scenario(category, center, users, contracts, rng, start, span)

    run.__name__ = f"{category.name.lower()}_behavior"
    run.__doc__ = f"Tuple-based shim over {scenario_for(category).__class__.__name__}."
    return run


BEHAVIORS: dict[AccountCategory, Callable[..., list[RawTx]]] = {
    category: _behavior(category) for category in registered_scenarios()
}

exchange_behavior = BEHAVIORS[AccountCategory.EXCHANGE]
ico_wallet_behavior = BEHAVIORS[AccountCategory.ICO_WALLET]
mining_behavior = BEHAVIORS[AccountCategory.MINING]
phish_hack_behavior = BEHAVIORS[AccountCategory.PHISH_HACK]
bridge_behavior = BEHAVIORS[AccountCategory.BRIDGE]
defi_behavior = BEHAVIORS[AccountCategory.DEFI]
wash_trading_behavior = BEHAVIORS[AccountCategory.WASH_TRADING]
airdrop_farming_behavior = BEHAVIORS[AccountCategory.AIRDROP_FARMING]
mixer_behavior = BEHAVIORS[AccountCategory.MIXER]


def behavior_for(category: AccountCategory) -> Callable[..., list[RawTx]]:
    """Return the behaviour generator for ``category``."""
    return BEHAVIORS[AccountCategory(category)]
