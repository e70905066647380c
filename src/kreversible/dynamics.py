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


def _advance(y: np.ndarray, eu: np.ndarray, ev: np.ndarray, n: int, k: int) -> np.ndarray:
    """One synchronous update of validated int8 states y on the n-vertex
    graph with edges (eu, ev), for k at most n; a fresh int8 array.

    The counts of differing neighbours are float64, exact up to any n; k is
    clamped by the caller because a Python int past 2**1023 cannot convert
    to float, and no count reaches n anyway.
    """
    differs = y[eu] != y[ev]
    count = np.bincount(eu, differs, n) + np.bincount(ev, differs, n)
    return np.where(count >= k, -y, y)


def step(g: Graph, k: int, y) -> np.ndarray:
    """One synchronous update; returns a fresh configuration."""
    k = check_k(k)
    y = as_config(y, g.n)
    return _advance(y, *g.edge_arrays(), g.n, min(k, g.n))


def simulate(g: Graph, k: int, y, t: int) -> np.ndarray:
    """t-fold composition of step; t=0 returns the (validated) input.

    Stops as soon as y_i == y_{i-2}: step is deterministic, so the orbit
    then alternates between y_i and y_{i-1}, and the parity of the steps
    left picks the answer.  Any t, however large, costs at most the
    transient plus two steps.
    """
    k = min(check_k(k), g.n)
    if int(t) != t or t < 0:
        raise ValueError(f"step count must be nonnegative, got {t!r}")
    t = int(t)
    eu, ev = g.edge_arrays()
    older, y = None, as_config(y, g.n)
    for done in range(1, t + 1):
        nxt = _advance(y, eu, ev, g.n, k)
        if older is not None and np.array_equal(nxt, older):
            return nxt if (t - done) % 2 == 0 else y
        older, y = y, nxt
    return y


def is_predecessor(g: Graph, k: int, candidate, target) -> bool:
    """True iff one step from candidate yields target."""
    target = as_config(target, g.n)
    return bool(np.array_equal(step(g, k, candidate), target))
