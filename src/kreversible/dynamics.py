"""Synchronous update rule of the k-reversible process.

A vertex flips its state exactly when at least k of its neighbors currently
hold the opposite state; otherwise it keeps its state.  All vertices update
simultaneously.
"""

from __future__ import annotations

import numpy as np

from .graphs import Graph, as_config

__all__ = ["check_k", "step", "simulate", "is_predecessor"]


def check_k(k: int) -> int:
    try:
        ok = int(k) == k and k >= 1
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return int(k)


def step(g: Graph, k: int, y) -> np.ndarray:
    """One synchronous update; returns a fresh configuration."""
    k = check_k(k)
    y = as_config(y, g.n)
    eu, ev = g.edge_arrays()
    su, sv = y[eu], y[ev]
    differs = su != sv
    du, dv = eu[differs], ev[differs]
    diff_count = np.bincount(du, minlength=g.n) + np.bincount(dv, minlength=g.n)
    return np.where(diff_count >= k, -y, y).astype(np.int8)


def simulate(g: Graph, k: int, y, t: int) -> np.ndarray:
    """t-fold composition of step; t=0 returns the (validated) input.

    Stops as soon as y_i == y_{i-2}: step is deterministic, so the orbit
    then alternates between y_i and y_{i-1}, and the parity of the steps
    left picks the answer.  Any t, however large, costs at most the
    transient plus two steps.
    """
    check_k(k)
    if int(t) != t or t < 0:
        raise ValueError(f"step count must be nonnegative, got {t!r}")
    t = int(t)
    older, y = None, as_config(y, g.n)
    for done in range(1, t + 1):
        nxt = step(g, k, y)
        if older is not None and np.array_equal(nxt, older):
            return nxt if (t - done) % 2 == 0 else y
        older, y = y, nxt
    return y


def is_predecessor(g: Graph, k: int, candidate, target) -> bool:
    """True iff one step from candidate yields target."""
    target = as_config(target, g.n)
    return bool(np.array_equal(step(g, k, candidate), target))
