"""One routing table for predecessor existence and counting.

``auto`` takes the first row that applies, so the order is the paper's map:
k=1 on any graph, trees for any k, k=2 with max degree <= 3 through 2SAT, k
above every degree (nothing can flip), and brute force for the NP-complete rest.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import oracle
from .deg3 import find_predecessor_deg3
from .dynamics import check_k, is_predecessor
from .graphs import Graph, as_config, max_degree, root_tree
from .k1 import find_predecessor_k1
from .tree_count import count_predecessors_tree
from .tree_decide import find_predecessor_tree

__all__ = ["Route", "ROUTES", "route", "choose_method", "find_predecessor", "count_predecessors"]


class Route(NamedTuple):
    name: str
    prepare: Callable  # (g, k, oracle_limit) -> the solvers' input; None: the row does not apply
    error: str  # for an explicit request the row does not apply to; may name {limit}
    decide: Callable  # (input, k, y) -> witness or None
    count: Callable | None  # (input, k, y) -> number of predecessors; None: no counter


def _rooted(g: Graph, k: int, limit: int):
    """The tree rooted at 0, or None: one BFS both routes and roots."""
    try:
        return root_tree(g, 0)
    except ValueError:  # not a tree
        return None


ROUTES = (
    Route("pre1", lambda g, k, limit: g if k == 1 else None, "method pre1 requires k=1",
          lambda g, k, y: find_predecessor_k1(g, y), None),
    Route("tree", _rooted, "method tree requires a tree graph",
          find_predecessor_tree, count_predecessors_tree),
    Route("twosat", lambda g, k, limit: g if k == 2 and max_degree(g) <= 3 else None,
          "method twosat requires k=2 and max degree 3",
          lambda g, k, y: find_predecessor_deg3(g, y), None),
    # No vertex has k neighbors, so none can flip: y is its own unique predecessor.
    Route("fixed", lambda g, k, limit: g if k > max_degree(g) else None,
          "method fixed requires k above the max degree",
          lambda g, k, y: as_config(y, g.n).copy(), lambda g, k, y: int(is_predecessor(g, k, y, y))),
    Route("oracle", lambda g, k, limit: (g, limit) if g.n <= limit else None,
          "oracle limited to n <= {limit}",
          lambda x, k, y: oracle.find_predecessor_bruteforce(x[0], k, y, limit=x[1]),
          lambda x, k, y: oracle.count_predecessors_bruteforce(x[0], k, y, limit=x[1])),
)


def route(g: Graph, k: int, requested: str = "auto", oracle_limit: int = oracle.DEFAULT_LIMIT,
          counting: bool = False) -> tuple[Route, object]:
    """The row that serves a request, and its solvers' input.

    'auto' takes the first row that applies; a named row must apply.
    """
    check_k(k)
    rows = [r for r in ROUTES if requested in ("auto", r.name) and (r.count or not counting)]
    if not rows:
        raise ValueError(f"unknown method {requested!r}")
    for r in rows:
        x = r.prepare(g, k, oracle_limit)
        if x is not None:
            return r, x
    if requested != "auto":
        raise ValueError(rows[0].error.format(limit=oracle_limit))
    if counting:
        raise ValueError("counting is available for trees, k above the max degree "
                         "and brute-force-sized instances only")
    raise ValueError("instance class is NP-complete in general and exceeds the brute-force limit")


def choose_method(g: Graph, k: int, requested: str, oracle_limit: int = oracle.DEFAULT_LIMIT) -> str:
    """Resolve 'auto' to a concrete method, or validate an explicit request."""
    return route(g, k, requested, oracle_limit)[0].name


def find_predecessor(g: Graph, k: int, y, method: str = "auto", oracle_limit: int = oracle.DEFAULT_LIMIT):
    """A predecessor of y under threshold k, or None, from the routed method."""
    r, x = route(g, k, method, oracle_limit)
    return r.decide(x, k, y)


def count_predecessors(g: Graph, k: int, y, method: str = "auto",
                       oracle_limit: int = oracle.DEFAULT_LIMIT) -> int:
    """The exact predecessor count of y under threshold k, from the routed method."""
    r, x = route(g, k, method, oracle_limit, counting=True)
    return r.count(x, k, y)
