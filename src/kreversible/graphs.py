"""Graph, configuration, and rooted-tree primitives shared by every solver.

Vertices are dense 0-based ids.  Vertex states live in {-1, +1}; a
configuration is an int8 numpy array of states indexed by vertex id.
All structures are immutable after construction.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Graph",
    "RootedTree",
    "parse_graph",
    "write_graph",
    "parse_config",
    "format_config",
    "as_config",
    "root_tree",
    "is_tree",
    "max_degree",
    "connected_components",
    "is_bipartite",
    "component_labels",
]

_STATE_TOKENS = {"+1": 1, "-1": -1, "+": 1, "-": -1}
_INT64_MAX = 2**63 - 1
# Largest n whose edge codes u*n+v (at most n*n - 1) fit in int64.
_MAX_CODED_N = 3_037_000_499  # math.isqrt(_INT64_MAX)


class Graph:
    """Simple undirected graph: no loops, no parallel edges.

    One sort of the 2m arc codes ``u*n+v`` and ``v*n+u`` builds everything:
    the sorted arcs are the CSR adjacency, with ascending neighbor lists,
    and their forward arcs (u < v) are the canonical edges in sorted order.
    So iteration order is deterministic everywhere.
    """

    __slots__ = ("n", "m", "_eu", "_ev", "_indptr", "_indices", "_adj", "_degs")

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > _INT64_MAX:
            raise ValueError("vertex count must fit in int64")
        try:
            e = np.asarray(edges, dtype=np.int64)
        except OverflowError:
            raise ValueError("edge endpoint out of range") from None
        if e.size == 0:
            e = e.reshape(0, 2)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be pairs of vertex ids")
        if e.size and n > _MAX_CODED_N:
            raise ValueError(f"vertex count must be at most {_MAX_CODED_N} in a graph with edges")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError("edge endpoint out of range")
        u, v = e[:, 0], e[:, 1]
        loops = u == v
        if loops.any():
            raise ValueError(f"loop at vertex {int(u[np.argmax(loops)])}")
        arcs = np.sort(np.concatenate([u * n + v, v * n + u]))
        repeats = arcs[1:] == arcs[:-1]
        if repeats.any():
            # The first repeated arc is the smallest duplicated pair, u < v.
            u, v = divmod(int(arcs[np.argmax(repeats)]), n)
            raise ValueError(f"duplicate edge {u} {v}")
        src, self._indices = np.divmod(arcs, n)
        fwd = src < self._indices
        self.n = int(n)
        self.m = int(e.shape[0])
        self._eu = src[fwd]
        self._ev = self._indices[fwd]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        self._indptr = indptr
        self._adj = None
        self._degs = None

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Canonical (u < v) edge list, sorted."""
        return list(zip(self._eu.tolist(), self._ev.tolist()))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical edge endpoints as parallel numpy arrays (u < v)."""
        return self._eu, self._ev

    def neighbors(self, v: int) -> list[int]:
        return self._indices[self._indptr[v]:self._indptr[v + 1]].tolist()

    def adjacency(self) -> list[list[int]]:
        """Full adjacency as lists of ascending neighbor ids (cached)."""
        if self._adj is None:
            flat = self._indices.tolist()
            ptr = self._indptr.tolist()
            self._adj = [flat[ptr[v]:ptr[v + 1]] for v in range(self.n)]
        return self._adj

    def degree(self, v: int) -> int:
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        if self._degs is None:
            self._degs = np.diff(self._indptr)
        return self._degs

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and bool(np.array_equal(self._eu, other._eu))
            and bool(np.array_equal(self._ev, other._ev))
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


class RootedTree:
    """Breadth-first orientation of a tree.

    ``parent[root]`` is None; ``parent_array`` holds the same parents as
    int64, with -1 at the root.  ``children(v)`` lists children in ascending
    vertex id, the fixed order every tree algorithm relies on.
    ``bfs_order`` visits parents before children.
    """

    __slots__ = ("graph", "root", "parent", "parent_array", "bfs_order", "_cptr", "_cidx")

    def __init__(self, graph: Graph, root: int, parent, parent_array, bfs_order, cptr, cidx):
        self.graph = graph
        self.root = root
        self.parent = parent
        self.parent_array = parent_array
        self.bfs_order = bfs_order
        self._cptr = cptr
        self._cidx = cidx

    def children(self, v: int) -> list[int]:
        return self._cidx[self._cptr[v]:self._cptr[v + 1]]

    def n_children(self, v: int) -> int:
        return self._cptr[v + 1] - self._cptr[v]

    def child_slices(self) -> tuple[list[int], list[int]]:
        """Flat child storage (ptr, ids) for allocation-free traversal."""
        return self._cptr, self._cidx

    def __repr__(self) -> str:
        return f"RootedTree(n={self.graph.n}, root={self.root})"


def _decode(text) -> str:
    if isinstance(text, (bytes, bytearray)):
        return text.decode("utf-8")
    return text


def _ascii_bytes(text) -> np.ndarray | None:
    """The input as a uint8 array, or None if a str is not pure ASCII."""
    if isinstance(text, str):
        if not text.isascii():
            return None
        text = text.encode("ascii")
    return np.frombuffer(text, dtype=np.uint8)


# Longest token the canonical fast path reads: 18 digits always fit in int64,
# while np.fromstring silently clamps longer ones.
_MAX_FAST_DIGITS = 18


def _parse_graph_canonical(text) -> Graph | None:
    """Vectorised parse of a graph file in canonical shape, else None.

    Canonical means: only ASCII digits, spaces, tabs and newlines; every
    non-blank line holds exactly two tokens of at most 18 digits; and the
    body has exactly m lines.  Such a file reads the same under
    :func:`_parse_graph_lines`, which handles every other input.
    """
    a = _ascii_bytes(text)
    if a is None:
        return None
    digit = (a - np.uint8(48)) < 10
    nl = a == 10
    if np.count_nonzero(digit | nl | (a == 32) | (a == 9)) != a.size:
        return None
    # Token boundaries alternate: start, end, start, end, ...
    bounds = np.flatnonzero(np.diff(digit, prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]
    if starts.size < 2 or starts.size % 2 or int((ends - starts).max()) > _MAX_FAST_DIGITS:
        return None
    # Tokens 2i and 2i+1 must share a line and tokens 2i+1 and 2i+2 must
    # not: so the token counts before the newlines, with 0 ahead of them and
    # the token count behind, step by 0 or 2 only.
    before = np.searchsorted(starts, np.flatnonzero(nl))
    step = np.diff(before, prepend=0, append=starts.size)
    if ((step != 0) & (step != 2)).any():
        return None
    tok = np.fromstring(a, dtype=np.int64, sep=" ")
    n, m = int(tok[0]), int(tok[1])
    if tok.size != 2 * m + 2:
        return None
    return Graph(n, tok[2:].reshape(m, 2))


def _ascii_int(token: str) -> int:
    """int() of an ASCII token: int() alone also reads non-ASCII digits."""
    if not token.isascii():
        raise ValueError(f"non-ASCII token {token!r}")
    return int(token)


def _parse_graph_lines(text) -> Graph:
    """Line-by-line parser for the full grammar; the source of every error message."""
    lines = [
        ln.split()
        for ln in _decode(text).splitlines()
        if ln.strip() and not ln.lstrip().startswith("#")
    ]
    if not lines:
        raise ValueError("empty graph file")
    header = lines[0]
    if len(header) != 2:
        raise ValueError("header must be 'n m'")
    try:
        n, m = _ascii_int(header[0]), _ascii_int(header[1])
    except ValueError:
        raise ValueError("header must contain two integers") from None
    if n < 0 or m < 0:
        raise ValueError("header counts must be nonnegative")
    if n > _INT64_MAX or m > _INT64_MAX:
        raise ValueError("header counts must fit in int64")
    body = lines[1:]
    if len(body) != m:
        raise ValueError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for ln in body:
        if len(ln) != 2:
            raise ValueError(f"edge line must be 'u v', got {' '.join(ln)!r}")
        try:
            edges.append((_ascii_int(ln[0]), _ascii_int(ln[1])))
        except ValueError:
            raise ValueError(f"non-integer edge line {' '.join(ln)!r}") from None
    return Graph(n, edges)


def parse_graph(text) -> Graph:
    """Parse the graph file format (str or bytes).

    First significant line is ``n m``, followed by exactly m lines ``u v``.
    Lines starting with ``#`` and blank lines are ignored.
    """
    g = _parse_graph_canonical(text)
    return g if g is not None else _parse_graph_lines(text)


# Edge count above which write_graph formats the edges in numpy instead of
# one `%` format over 2m Python ints.  The numpy pass costs per digit
# column, so the crossover grows with the ids' width: on a 2-core x86 VM it
# lay near m=128 for 2-digit ids (33 us `%` against 30 us), m=192 for
# 4-digit ids (56 against 55 us) and m=300 for 5-digit ids (61 against
# 71 us at m=256).  At 4*10^6 edges the `%` format took 1.4-1.6 s against
# 0.6 s.
_MATRIX_WRITE_M = 256


def _decimal_bytes(v: np.ndarray, sep) -> np.ndarray:
    """Decimal ASCII of each uint32 in v, each followed by its sep byte
    (sep broadcasts against v), concatenated in C order as one uint8 array.

    Each value gets a row of L digits, L that of the largest value, and the
    separator; a mask of the same shape drops the leading zeros.
    """
    width = len(str(int(v.max(initial=0))))
    mat = np.empty(v.shape + (width + 1,), dtype=np.uint8)
    keep = np.ones(mat.shape, dtype=bool)
    mat[..., width] = sep
    for j in range(width - 1, -1, -1):
        q = v // 10
        mat[..., j] = v - 10 * q + 48
        if j < width - 1:
            keep[..., j] = v != 0
        v = q
    return mat[keep]


def write_graph(g: Graph) -> str:
    """The canonical graph file: header, then one sorted edge ``u v`` (u < v) per line."""
    head = f"{g.n} {g.m}\n"
    if g.m <= _MATRIX_WRITE_M:
        ends = np.stack(g.edge_arrays(), axis=1).ravel().tolist()
        return head + ("%d %d\n" * g.m) % tuple(ends)
    # A Graph with edges has n <= _MAX_CODED_N < 2**32, so uint32 holds every id.
    ids = np.empty((g.m, 2), dtype=np.uint32)
    ids[:, 0], ids[:, 1] = g.edge_arrays()
    return head + str(_decimal_bytes(ids, (ord(" "), ord("\n"))), "ascii")


def _parse_config_canonical(text, n: int) -> np.ndarray | None:
    """Vectorised parse of the canonical ``+1 -1 ...`` layout, else None.

    Canonical means each token is ``+1`` or ``-1`` and is followed by one
    space or newline (the last one may end the file instead).
    """
    a = _ascii_bytes(text)
    if a is None or a.size not in (3 * n, 3 * n - 1):
        return None
    sign, one, sep = a[0::3], a[1::3], a[2::3]
    plus = sign == 43
    if not ((plus | (sign == 45)).all() and (one == 49).all() and ((sep == 32) | (sep == 10)).all()):
        return None
    return np.where(plus, np.int8(1), np.int8(-1))


def _parse_config_tokens(text, n: int) -> np.ndarray:
    tokens = _decode(text).split()
    if len(tokens) != n:
        raise ValueError(f"expected {n} state tokens, found {len(tokens)}")
    try:
        states = [_STATE_TOKENS[t] for t in tokens]
    except KeyError as exc:
        raise ValueError(f"unknown state token {exc.args[0]!r}") from None
    return np.array(states, dtype=np.int8)


def parse_config(text, n: int) -> np.ndarray:
    """Parse n whitespace-separated state tokens (+1, -1, +, -)."""
    y = _parse_config_canonical(text, n)
    return y if y is not None else _parse_config_tokens(text, n)


def format_config(y) -> str:
    """Canonical serialization: +1/-1 tokens, space separated."""
    y = np.asarray(y)
    if y.size == 0:
        return "\n"
    out = np.empty((y.size, 3), dtype=np.uint8)
    out[:, 0] = np.where(y > 0, np.uint8(43), np.uint8(45))
    out[:, 1] = 49
    out[:, 2] = 32
    out[-1, 2] = 10
    return out.tobytes().decode("ascii")


def as_config(y, n: int) -> np.ndarray:
    """Normalize y to a validated int8 state array of length n."""
    arr = np.asarray(y, dtype=np.int8)
    if arr.shape != (n,):
        raise ValueError(f"configuration length {arr.shape} does not match n={n}")
    if arr.size and not np.all(np.abs(arr) == 1):
        raise ValueError("states must be -1 or +1")
    return arr


def config_list(y, n: int) -> list[int]:
    """Like as_config but yielding a plain list, cheap for small inputs."""
    lst = y.tolist() if isinstance(y, np.ndarray) else list(y)
    if len(lst) != n:
        raise ValueError(f"configuration length {len(lst)} does not match n={n}")
    for s in lst:
        if s != 1 and s != -1:
            raise ValueError("states must be -1 or +1")
    return lst


# Vertex count above which _bfs_from hands the search to scipy's compiled
# BFS, and k1 its partition to numpy.  At or below it a list loop is faster
# and keeps scipy unimported, which tiny-instance callers would otherwise
# pay for in start-up time and memory.  On a 2-core x86 VM root_tree took
# 21 us against 131 us at n=7; the two paths cross between 256 (is_tree)
# and 1024 (root_tree) vertices.
_SMALL_N = 512


def _bfs_from(g: Graph, root: int) -> tuple[np.ndarray, np.ndarray]:
    """BFS in time independent of depth: (int64 parents, -1 for root and
    unreached vertices; int64 visit order of the vertices reached)."""
    n = g.n
    if n > _SMALL_N:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order

        # The CSR already holds both arcs of every edge, so directed=True
        # searches the undirected graph without building a transpose.
        adj = csr_matrix(
            (np.ones(g._indices.size, dtype=np.int8), g._indices, g._indptr), shape=(n, n)
        )
        order, pred = breadth_first_order(adj, root, directed=True, return_predecessors=True)
        parent = pred.astype(np.int64)
        parent[parent < 0] = -1
        return parent, order.astype(np.int64)
    adj = g.adjacency()
    parent = [-1] * n
    seen = [False] * n
    seen[root] = True
    order = [root]
    for v in order:  # order grows while it is scanned: a FIFO queue
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                order.append(u)
    return np.array(parent, dtype=np.int64), np.array(order, dtype=np.int64)


def root_tree(g: Graph, root: int) -> RootedTree:
    """Orient a tree from root via BFS; children ordered by ascending id."""
    n = g.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    if g.m != n - 1:
        raise ValueError(f"not a tree: m={g.m}, expected {n - 1}")
    parent_arr, order = _bfs_from(g, root)
    if order.size != n:
        raise ValueError("not a tree: graph is disconnected")
    nonroot = np.concatenate([np.arange(root), np.arange(root + 1, n)])
    by_parent = nonroot[np.argsort(parent_arr[nonroot] * n + nonroot)]
    counts = np.bincount(parent_arr[nonroot], minlength=n)
    cptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=cptr[1:])
    parent = parent_arr.tolist()
    parent[root] = None
    return RootedTree(g, root, parent, parent_arr, order.tolist(), cptr.tolist(), by_parent.tolist())


def is_tree(g: Graph) -> bool:
    """True iff g is connected with exactly n-1 edges."""
    if g.n == 0 or g.m != g.n - 1:
        return False
    _, order = _bfs_from(g, 0)
    return order.size == g.n


def max_degree(g: Graph) -> int:
    return int(g.degrees().max()) if g.n else 0


def component_labels(n: int, u, v) -> np.ndarray:
    """Connected-component label per vertex for the graph (n, {u_i v_i}).

    Labels are canonical: numbered by order of each component's smallest
    vertex, so the labeling is independent of edge order.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    if u.size == 0:
        return np.arange(n, dtype=np.int64)
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components as _cc

    mat = coo_matrix((np.ones(u.size, dtype=np.int8), (u, v)), shape=(n, n))
    _, labels = _cc(mat, directed=False)
    _, first = np.unique(labels, return_index=True)
    rank = np.empty(first.size, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(first.size)
    return rank[labels]


def connected_components(g: Graph) -> list[list[int]]:
    """Vertex partition into connected components, each sorted ascending."""
    eu, ev = g.edge_arrays()
    labels = component_labels(g.n, eu, ev)
    ncomp = int(labels.max()) + 1 if g.n else 0
    comps: list[list[int]] = [[] for _ in range(ncomp)]
    for v, c in enumerate(labels.tolist()):
        comps[c].append(v)
    return comps


def is_bipartite(g: Graph) -> tuple[bool, np.ndarray | None]:
    """Check bipartiteness; on success also return a witness 2-coloring.

    In the bipartite double cover vertex v splits into 2v and 2v+1 and edge
    uv into edges (2u, 2v+1) and (2u+1, 2v); g is bipartite iff no 2v shares
    a component with 2v+1.  Each component's smallest vertex gets color 0.
    """
    eu, ev = g.edge_arrays()
    lab = component_labels(2 * g.n, np.concatenate([2 * eu, 2 * eu + 1]),
                           np.concatenate([2 * ev + 1, 2 * ev]))
    if (lab[0::2] == lab[1::2]).any():
        return False, None
    return True, (lab[0::2] > lab[1::2]).astype(np.int8)
