"""Deterministic substream derivation and order-free aggregation for Monte Carlo."""

from __future__ import annotations

import math

import numpy as np


def substream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator derived from (seed, key...) by seed-sequence spawning.

    Results depend only on the key tuple, never on call order or scheduling.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def mean_stderr(values) -> tuple:
    """Mean of per-run values and its standard error (0 for a single run).

    Both sums are exactly rounded, so the result does not depend on the
    order of the values.
    """
    values = list(values)
    n = len(values)
    est = math.fsum(values) / n
    if n == 1:
        return est, 0.0
    var = math.fsum((v - est) ** 2 for v in values) / (n - 1)
    return est, math.sqrt(var / n)
