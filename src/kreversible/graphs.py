"""Graph, configuration, and rooted-tree primitives shared by every solver.

Vertices are dense 0-based ids.  Vertex states live in {-1, +1}; a
configuration is an int8 numpy array of states indexed by vertex id.
All structures are immutable after construction.
"""

from __future__ import annotations

import operator
import os
import threading

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

    One sort of the m canonical codes ``min(u,v)*n + max(u,v)`` builds the
    graph: the sorted codes are the canonical edges (u < v) in sorted order,
    so iteration order is deterministic everywhere.  The rest is derived on
    first use: ``degrees`` from two bincounts, ``adjacency`` from the sorted
    edges, and the CSR arrays, which only the compiled consumers read, from
    one sort of the 2m arc codes.
    """

    __slots__ = ("n", "m", "_eu", "_ev", "_indptr", "_indices", "_adj", "_degs")

    def __init__(self, n: int, edges=()):
        if isinstance(n, bool):
            raise ValueError("vertex count must be an integer")
        try:
            n = operator.index(n)
        except TypeError:
            raise ValueError("vertex count must be an integer") from None
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        if n > _INT64_MAX:
            raise ValueError("vertex count must fit in int64")
        e = np.asarray(edges)
        if e.size == 0:  # numpy makes an empty list float64
            e = np.zeros((0, 2), dtype=np.int64)
        if e.ndim != 2 or e.shape[1] != 2:
            raise ValueError("edges must be pairs of vertex ids")
        if e.dtype.kind not in "iu":
            # numpy gives Python ints a float64 or object dtype only when one
            # of them is at least 2**63, so out of range; anything else, such
            # as 1.7, is not a vertex id.
            try:
                huge = e.dtype.kind in "fO" and bool((abs(e) >= 2**63).any())
            except TypeError:  # an object that is not a number
                huge = False
            raise ValueError("edge endpoint out of range" if huge else "edge endpoints must be integers")
        if e.size and n > _MAX_CODED_N:
            raise ValueError(f"vertex count must be at most {_MAX_CODED_N} in a graph with edges")
        if e.size and (e.min() < 0 or e.max() >= n):
            raise ValueError("edge endpoint out of range")
        e = e.astype(np.int64, copy=False)
        u, v = e[:, 0], e[:, 1]
        loops = u == v
        if loops.any():
            raise ValueError(f"loop at vertex {int(u[np.argmax(loops)])}")
        codes = np.minimum(u, v) * n + np.maximum(u, v)
        if not (codes[1:] > codes[:-1]).all():  # as gen and write_graph's edges do
            codes.sort()
            repeats = codes[1:] == codes[:-1]
            if repeats.any():
                # The first repeated code is the smallest duplicated pair, u < v.
                u, v = divmod(int(codes[np.argmax(repeats)]), n)
                raise ValueError(f"duplicate edge {u} {v}")
        self._set_codes(int(n), codes)

    def _set_codes(self, n: int, codes: np.ndarray) -> None:
        self.n = n
        self.m = int(codes.size)
        self._eu = codes // n  # empty when n is 0
        self._ev = codes - self._eu * n
        self._indptr = self._indices = self._adj = self._degs = None

    @classmethod
    def _from_codes(cls, n: int, codes: np.ndarray) -> Graph:
        """The graph whose canonical codes are ``codes``, unchecked: sorted,
        distinct int64 ``u*n+v`` with u < v < n."""
        g = cls.__new__(cls)
        g._set_codes(n, codes)
        return g

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Canonical (u < v) edge list, sorted."""
        return list(zip(self._eu.tolist(), self._ev.tolist()))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical edge endpoints as parallel numpy arrays (u < v)."""
        return self._eu, self._ev

    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, indices)``, the ascending neighbours of v being
        ``indices[indptr[v]:indptr[v + 1]]``; built on first use from one
        sort of the 2m arc codes ``u*n+v`` and ``v*n+u`` (cached)."""
        if self._indptr is None:
            n, eu, ev = self.n, self._eu, self._ev
            arcs = np.sort(np.concatenate([eu * n + ev, ev * n + eu]))
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(self.degrees(), out=indptr[1:])
            self._indices = arcs - arcs // n * n
            self._indptr = indptr
        return self._indptr, self._indices

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v!r} is not in the graph")

    def neighbors(self, v: int) -> list[int]:
        """Neighbours of v in ascending id."""
        self._check_vertex(v)
        return list(self.adjacency()[v])  # a copy: the cached list stays intact

    def adjacency(self) -> list[list[int]]:
        """Full adjacency as lists of ascending neighbor ids (cached).

        The sorted edges reach each vertex's lower neighbours, in ascending
        order, before its higher ones, so appending keeps every list sorted.
        """
        if self._adj is None:
            adj: list[list[int]] = [[] for _ in range(self.n)]
            for u, v in zip(self._eu.tolist(), self._ev.tolist()):
                adj[u].append(v)
                adj[v].append(u)
            self._adj = adj
        return self._adj

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return int(self.degrees()[v])

    def degrees(self) -> np.ndarray:
        if self._degs is None:
            n = self.n
            self._degs = np.bincount(self._eu, minlength=n) + np.bincount(self._ev, minlength=n)
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
    """Breadth-first orientation of a tree, held as two int64 arrays.

    ``parent_array`` holds each vertex's parent, -1 at the root, and
    ``order_array`` the BFS visit order, parents before children.  That
    order is the only child structure: the children of the vertex at BFS
    rank r are ``order[cptr[r]:cptr[r + 1]]``, in ascending vertex id.

    The scalar engines read Python lists: ``parent`` (None at the root),
    ``bfs_order`` and :meth:`child_slices`' ``(cptr, bfs_order)``.  A tree
    rooted by the list BFS holds the three lists that search built; one
    rooted by scipy's BFS builds each on its first read and caches it (see
    ``_LazyRootedTree``).  The contraction reads only ``parent_array``, and
    the count above ``_SMALL_N`` only the two arrays, so neither builds one.
    """

    __slots__ = ("graph", "root", "parent_array", "order_array", "parent", "bfs_order", "_cptr")

    def __init__(self, graph: Graph, root: int, parent_array, order_array, parent, bfs_order, cptr):
        self.graph = graph
        self.root = root
        self.parent_array = parent_array
        self.order_array = order_array
        self.parent = parent
        self.bfs_order = bfs_order
        self._cptr = cptr

    def children(self, v: int) -> list[int]:
        """Children of v in ascending id, read off ``parent_array`` in O(n)."""
        if not 0 <= v < self.graph.n:  # -1 would match the root's missing parent
            raise ValueError(f"vertex {v!r} is not in the tree")
        return np.flatnonzero(self.parent_array == v).tolist()

    def n_children(self, v: int) -> int:
        return len(self.children(v))

    def child_slices(self) -> tuple[list[int], list[int]]:
        """``(cptr, bfs_order)``: the children of ``bfs_order[r]`` are
        ``bfs_order[cptr[r]:cptr[r + 1]]``, so rank r's run follows rank r-1's."""
        return self._cptr, self.bfs_order

    def __repr__(self) -> str:
        return f"RootedTree(n={self.graph.n}, root={self.root})"


class _LazyRootedTree(RootedTree):
    """A RootedTree that starts from the arrays alone and builds each list
    view on its first read.  It is a subclass because a class with
    ``__getattr__`` reads every attribute, a filled slot too, slower (about
    27 ns a read under CPython 3.11 on a 2-core x86 VM), which the scalar
    engines would pay on every call on tiny trees."""

    __slots__ = ()

    def __init__(self, graph: Graph, root: int, parent_array, order_array):
        self.graph = graph
        self.root = root
        self.parent_array = parent_array
        self.order_array = order_array

    def __getattr__(self, name):
        # Reached only while a slot is unset: a built view reads as a slot.
        if name == "parent":
            view = self.parent_array.tolist()
            view[self.root] = None
        elif name == "bfs_order":
            view = self.order_array.tolist()
        elif name == "_cptr":
            view = _child_ptr(self.parent_array, self.order_array).tolist()
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        setattr(self, name, view)
        return view


def _child_ptr(parent: np.ndarray, order: np.ndarray) -> np.ndarray:
    """The int64 ``cptr`` of a tree's arrays: the children of the vertex at
    BFS rank r sit at ranks ``cptr[r]`` to ``cptr[r + 1] - 1``.  A FIFO BFS
    over ascending neighbour lists appends each vertex's children as one
    run, in ascending id, right after the run of the vertex before it."""
    n = order.size
    cptr = np.ones(n + 1, dtype=np.int64)
    cptr[1:] += np.cumsum(np.bincount(parent[order[1:]], minlength=n)[order])
    return cptr


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
_SPACE_NEWLINE = np.frombuffer(b" \n", dtype=np.uint16)[0]  # as one native uint16


def _write_graph_token_count(a: np.ndarray, sep: np.ndarray, s: np.ndarray) -> int | None:
    """Token count of bytes in write_graph's layout, else None, read off the
    separators ``s`` at ``sep`` alone: they alternate space and newline, the
    last one ends the bytes, and 1-18 digits precede each."""
    if s.size % 2 or not s.size or sep[-1] != a.size - 1 or not (s.view(np.uint16) == _SPACE_NEWLINE).all():
        return None
    gap = np.diff(sep, prepend=-1)  # each separator and the digits before it
    return int(s.size) if gap.min() > 1 and gap.max() <= _MAX_FAST_DIGITS + 1 else None


def _canonical_token_count(a: np.ndarray, least: int = 2) -> int | None:
    """Token count of a graph file's bytes, or of a line-aligned chunk of
    them, if its layout is canonical and it holds at least ``least`` tokens,
    else None.  The scan's index arrays die with this call, before the
    decode and the Graph allocate theirs."""
    # Every check runs over the separators, the non-digit bytes.
    sep = np.flatnonzero((a - np.uint8(48)) > 9)
    s = a[sep]
    count = _write_graph_token_count(a, sep, s)
    if count is not None:
        return count  # even and nonzero, so at least ``least``
    nl = s == 10
    if np.count_nonzero(nl | (s == 32) | (s == 9)) != sep.size:
        return None
    # Digits before each separator and before the end: a token ends wherever
    # that run is not empty.
    width = np.diff(sep, prepend=-1, append=a.size) - 1
    ntok = np.cumsum(width > 0)
    if ntok[-1] < least or ntok[-1] % 2 or int(width.max()) > _MAX_FAST_DIGITS:
        return None
    # Tokens 2i and 2i+1 must share a line and tokens 2i+1 and 2i+2 must
    # not: so the token counts up to the newlines, with 0 ahead of them and
    # the token count behind, step by 0 or 2 only.
    step = np.diff(ntok[:-1][nl], prepend=0, append=ntok[-1])
    if ((step != 0) & (step != 2)).any():
        return None
    return int(ntok[-1])


# The CPUs this process may run on, and the size above which parse_graph
# (the file's bytes) and write_graph (its digit matrix) split the work into
# that many line-aligned chunks, one thread each: the scan's ufuncs,
# np.fromstring, the sort and the digit matrix release the GIL.  On a 2-core
# x86 VM two chunks read a G(n, 4n) file in 0.73-0.77x the time of one at
# 128 KiB, 0.61x at 256 KiB and 0.63x at 512 KiB, and wrote the matrix in
# 1.02-1.07x, 0.68-0.72x and 0.71x: the threads' start-up cost is lost
# below about 150 KiB on the write.
_WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
_THREAD_BYTES = 1 << 18


def _on_threads(fn, jobs: list) -> list:
    """``[fn(*job) for job in jobs]``, the first job in this thread and each
    other in a thread of its own; the first exception a job raised is
    re-raised once every thread has ended."""
    out = [None] * len(jobs)
    errors = []

    def run(i):
        try:
            out[i] = fn(*jobs[i])
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    helpers = [threading.Thread(target=run, args=(i,)) for i in range(1, len(jobs))]
    for t in helpers:
        t.start()
    try:
        out[0] = fn(*jobs[0])
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[0]
    return out


def _line_cuts(text) -> list[int]:
    """Offsets that cut an ASCII file into up to _WORKERS chunks of about
    equal size, each chunk but the last ending with a newline."""
    nl = "\n" if isinstance(text, str) else b"\n"  # an ASCII str indexes as its bytes
    size = len(text)
    cuts = [0]
    for i in range(1, _WORKERS):
        at = text.find(nl, max(cuts[-1], size * i // _WORKERS)) + 1
        if not 0 < at < size:
            break
        cuts.append(at)
    cuts.append(size)
    return cuts


def _chunk_codes(a: np.ndarray, n: int, first: bool):
    """Sorted edge codes of a line-aligned chunk in canonical shape; None if
    it holds an out-of-range edge or a loop; False if its layout is not
    canonical, and then neither is the file's (or the chunk is its first
    and holds blank lines only).  The first chunk opens with the header,
    which holds the only tokens it skips; any other may hold no token."""
    count = _canonical_token_count(a, 2 if first else 0)
    if count is None:
        return False
    tok = np.fromstring(a, dtype=np.int64, count=count, sep=" ")[2 if first else 0:]
    if tok.size and int(tok.max()) >= n:
        return None
    u, v = tok[0::2], tok[1::2]
    if (u == v).any():
        return None
    codes = np.minimum(u, v) * n + np.maximum(u, v)
    del tok, u, v  # the chunk's tokens need not outlive its codes
    if not (codes[1:] > codes[:-1]).all():
        codes.sort()
    return codes


def _parse_graph_chunks(text, a: np.ndarray, not_canonical=None):
    """The graph of a canonical file read as line-aligned chunks on
    _on_threads; ``not_canonical`` if a chunk's layout is not canonical;
    else None, so that the one-chunk parse decides it: the file did not
    split, or the graph was refused."""
    cuts = _line_cuts(text)
    # Every chunk needs n, so the header is read here: if the first chunk is
    # canonical, its first two tokens are the first two that split() finds.
    head = text[:256].split(None, 2)
    if len(cuts) < 3 or len(head) < 3 or not (head[0].isdigit() and head[1].isdigit()):
        return None
    n, m = int(head[0]), int(head[1])
    if n > _MAX_CODED_N:
        return None
    jobs = [(a[lo:hi], n, lo == 0) for lo, hi in zip(cuts, cuts[1:])]
    runs = _on_threads(_chunk_codes, jobs)
    if any(r is False for r in runs):
        return not_canonical
    if any(r is None for r in runs) or sum(r.size for r in runs) != m:
        return None
    codes = np.concatenate(runs)
    # gen and write_graph emit the edges sorted, so the joined runs ascend
    if not (codes[1:] > codes[:-1]).all():
        codes.sort(kind="stable")  # a merge of the sorted runs
        if (codes[1:] == codes[:-1]).any():
            return None
    return Graph._from_codes(n, codes)


def _parse_graph_canonical(text) -> Graph | None:
    """Vectorised parse of a graph file in canonical shape, else None.

    Canonical means: only ASCII digits, spaces, tabs and newlines; every
    non-blank line holds exactly two tokens of at most 18 digits; and the
    body has exactly m lines.  Such a file reads the same under
    :func:`_parse_graph_lines`, which handles every other input.  Above
    ``_THREAD_BYTES`` it is read in chunks on every usable CPU first.
    """
    a = _ascii_bytes(text)
    if a is None:
        return None
    if a.size > _THREAD_BYTES and _WORKERS > 1:
        g = _parse_graph_chunks(text, a, not_canonical=False)
        if g is not None:
            return g or None  # False sends the file to the line parser
    count = _canonical_token_count(a)
    if count is None:
        return None
    # the count lets numpy allocate the tokens once
    tok = np.fromstring(a, dtype=np.int64, count=count, sep=" ")
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


def _decimal_bytes(v: np.ndarray, sep, width: int | None = None) -> np.ndarray:
    """Decimal ASCII of each uint32 in v, each followed by its sep byte
    (sep broadcasts against v), concatenated in C order as one uint8 array.

    Each value gets a row of L digits, L that of the largest value unless
    ``width`` (at least that) is given, and the separator; a mask of the
    same shape drops the leading zeros.
    """
    if width is None:
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
    width = len(str(int(ids[:, 1].max(initial=0))))  # v > u on every row
    # rows of the digit matrix above _THREAD_BYTES go to _WORKERS threads
    parts = _WORKERS if 2 * (width + 1) * g.m > _THREAD_BYTES else 1
    cuts = [g.m * i // parts for i in range(parts + 1)]
    text = _on_threads(
        lambda lo, hi: str(_decimal_bytes(ids[lo:hi], (ord(" "), ord("\n")), width), "ascii"),
        list(zip(cuts, cuts[1:])),
    )
    return head + "".join(text)


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
    y = as_config(y, len(y))
    if y.size == 0:
        return "\n"
    out = np.empty((y.size, 3), dtype=np.uint8)
    out[:, 0] = np.where(y > 0, np.uint8(43), np.uint8(45))
    out[:, 1] = 49
    out[:, 2] = 32
    out[-1, 2] = 10
    return out.tobytes().decode("ascii")


def as_config(y, n: int) -> np.ndarray:
    """Normalize y to a validated int8 state array of length n.

    States are checked before the cast to int8, which would read 255 as -1
    and 1.5 as 1.
    """
    arr = np.asarray(y)
    if arr.shape != (n,):
        raise ValueError(f"configuration length {arr.shape} does not match n={n}")
    ok = np.abs(arr) == 1 if arr.dtype == np.int8 else (arr == 1) | (arr == -1)
    if arr.size and not ok.all():
        raise ValueError("states must be -1 or +1")
    return arr.astype(np.int8, copy=False)


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
# BFS (k1 and deg3 have their own cutoffs, _LIST_N and _TARJAN_N).
# At or below it the list loops are faster and keep scipy unimported, which
# tiny-instance callers would otherwise pay for in start-up time and memory.
# On a 2-core x86 VM root_tree took 21 us against 131 us at n=7; the two BFS
# paths cross between 256 (is_tree) and 1024 (root_tree) vertices.
_SMALL_N = 512


def _csgraph(indptr: np.ndarray, indices: np.ndarray, n: int):
    """n x n CSR matrix of the arcs ``v -> indices[indptr[v]:indptr[v+1]]``, in
    float64, which csgraph would copy other data to, and in the index dtype
    scipy.sparse picks: int32 while it holds n and the arc count."""
    from scipy.sparse import csr_matrix

    dtype = np.int32 if max(n, indices.size) <= np.iinfo(np.int32).max else np.int64
    arcs = (np.ones(indices.size), indices.astype(dtype, copy=False), indptr.astype(dtype, copy=False))
    return csr_matrix(arcs, shape=(n, n))


def _bfs_from(g: Graph, root: int):
    """BFS in time independent of depth: (parents, -1 for root and
    unreached vertices; visit order of the vertices reached; cptr).  Above
    _SMALL_N the first two are int64 arrays from scipy and cptr is None; at
    or below it all three are Python lists, cptr[r + 1] being the length of
    the order once rank r's neighbours are scanned.  Both paths scan each
    vertex's neighbours in CSR (ascending) order, so they return the same
    order."""
    n = g.n
    if n > _SMALL_N:
        from scipy.sparse.csgraph import breadth_first_order

        # The CSR holds both arcs of every edge, so directed=True searches
        # the undirected graph without building a transpose.
        adj = _csgraph(*g._csr(), n)
        order, pred = breadth_first_order(adj, root, directed=True, return_predecessors=True)
        parent = pred.astype(np.int64)
        parent[parent < 0] = -1
        return parent, order.astype(np.int64), None
    adj = g.adjacency()
    parent = [-1] * n
    seen = [False] * n
    seen[root] = True
    order = [root]
    cptr = [1]
    for v in order:  # order grows while it is scanned: a FIFO queue
        for u in adj[v]:
            if not seen[u]:
                seen[u] = True
                parent[u] = v
                order.append(u)
        cptr.append(len(order))
    return parent, order, cptr


def root_tree(g: Graph, root: int) -> RootedTree:
    """Orient a tree from root via BFS; children are runs of the BFS order."""
    n = g.n
    if not 0 <= root < n:
        raise ValueError(f"root {root} out of range")
    if g.m != n - 1:
        raise ValueError(f"not a tree: m={g.m}, expected {n - 1}")
    parent, order, cptr = _bfs_from(g, root)
    if len(order) != n:
        raise ValueError("not a tree: graph is disconnected")
    if cptr is None:
        return _LazyRootedTree(g, root, parent, order)
    # the list BFS's own lists are the views
    parent_arr = np.array(parent, dtype=np.int64)
    parent[root] = None
    return RootedTree(g, root, parent_arr, np.array(order, dtype=np.int64), parent, order, cptr)


def is_tree(g: Graph) -> bool:
    """True iff g is connected with exactly n-1 edges."""
    if g.n == 0 or g.m != g.n - 1:
        return False
    return len(_bfs_from(g, 0)[1]) == g.n


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
    return _canonical_labels(labels)


def _canonical_labels(labels: np.ndarray) -> np.ndarray:
    """int64 labels renumbered by order of each label's first vertex."""
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
