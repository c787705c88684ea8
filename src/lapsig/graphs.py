"""Undirected weighted graphs and their fundamental difference operators.

Vertices are labelled 0..n-1.  Edges are canonicalised to (i, j, w) with
i < j and sorted lexicographically; the incidence operator orients every
edge from its low-index endpoint to its high-index endpoint, so all derived
matrices are reproducible run to run.
"""

from __future__ import annotations

import json
import math
import re
from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Graph",
    "CirculantSpec",
    "Cosupport",
    "adjacency",
    "laplacian",
    "incidence",
    "connected_components",
    "hop_distances",
    "khop_localization_check",
    "compile_circulant",
    "cycle_graph",
    "complete_graph",
    "random_connected_graph",
    "random_circulant_spec",
    "graph_from_json",
    "circulant_spec_to_json",
    "circulant_spec_from_json",
    "parse_edge_list",
    "format_edge_list",
]

LOCALIZATION_RTOL = 1e-12  # |L^k| allowed beyond k hops, relative to max(|L^k|_max, 1)


@dataclass(frozen=True)
class Graph:
    """Immutable undirected weighted graph on vertices 0..n-1."""

    n: int
    edges: tuple[tuple[int, int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        canon = []
        for edge in self.edges:
            if len(edge) == 2:
                i, j = edge
                w = 1.0
            elif len(edge) == 3:
                i, j, w = edge
            else:
                raise ValueError(f"edge {edge!r} is not (i, j) or (i, j, w)")
            i, j, w = int(i), int(j), float(w)
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if i > j:
                i, j = j, i
            if i < 0 or j >= self.n:
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            if not (w > 0.0 and math.isfinite(w)):
                raise ValueError(f"edge ({i}, {j}) needs a positive finite weight, got {w}")
            canon.append((i, j, w))
        canon.sort(key=lambda e: (e[0], e[1]))
        for a, b in zip(canon, canon[1:]):
            if a[:2] == b[:2]:
                raise ValueError(f"duplicate edge ({a[0]}, {a[1]})")
        object.__setattr__(self, "edges", tuple(canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class CirculantSpec:
    """Generating hops and weights of a circulant graph.

    Each generator (s, d) connects every vertex i to (i +/- s) mod n with
    weight d.  Hops satisfy 0 < s <= n/2; the wrap hop s = n/2 (even n only)
    pairs each vertex with its antipode exactly once.
    """

    n: int
    generators: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        if self.n < 2:
            raise ValueError("circulant graph needs at least two vertices")
        canon = []
        for gen in self.generators:
            s, d = gen
            s, d = int(s), float(d)
            if s <= 0 or 2 * s > self.n:
                raise ValueError(f"generator {s} outside 0 < s <= n/2 for n={self.n}")
            if not (d > 0.0 and math.isfinite(d)):
                raise ValueError(f"generator {s} needs a positive finite weight, got {d}")
            canon.append((s, d))
        if not canon:
            raise ValueError("generating set must be non-empty")
        canon.sort()
        for a, b in zip(canon, canon[1:]):
            if a[0] == b[0]:
                raise ValueError(f"duplicate generator {a[0]}")
        object.__setattr__(self, "generators", tuple(canon))

    @property
    def bandwidth(self) -> int:
        return self.generators[-1][0]

    @property
    def hops(self) -> tuple[int, ...]:
        return tuple(s for s, _ in self.generators)


@dataclass(frozen=True)
class Cosupport:
    """Sorted vertex subset (the annihilated locations) plus its complement."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        if self.n < 1:
            raise ValueError("ambient size must be >= 1")
        mem = tuple(sorted(int(i) for i in self.members))
        for i in mem:
            if i < 0 or i >= self.n:
                raise ValueError(f"index {i} out of range for n={self.n}")
        for a, b in zip(mem, mem[1:]):
            if a == b:
                raise ValueError(f"duplicate index {a}")
        object.__setattr__(self, "members", mem)

    @classmethod
    def from_support(cls, n: int, support) -> "Cosupport":
        """Build from the complement set (the non-annihilated vertices)."""
        sup = {int(i) for i in support}
        for i in sup:
            if i < 0 or i >= n:
                raise ValueError(f"index {i} out of range for n={n}")
        return cls(n, tuple(i for i in range(n) if i not in sup))

    @property
    def complement(self) -> tuple[int, ...]:
        mem = set(self.members)
        return tuple(i for i in range(self.n) if i not in mem)

    @property
    def size(self) -> int:
        return len(self.members)


# ----------------------------------------------------------------------
# Operators
# ----------------------------------------------------------------------


def adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for i, j, w in g.edges:
        a[i, j] = w
        a[j, i] = w
    return a


def _circulant_view(row: np.ndarray) -> np.ndarray:
    """Read-only n x n view of the circulant whose row i is ``row`` shifted
    cyclically by i.

    Entry (i, j) is ``row[(j - i) % n]``: the doubled row, seen from its
    second copy and stepping back one slot per matrix row, with no n x n
    array or index array.
    """
    n = row.size
    ext = np.concatenate([row, row])
    step = ext.itemsize
    view = np.ndarray((n, n), ext.dtype, ext, n * step, (-step, step))
    view.flags.writeable = False
    return view


def _circulant(row: np.ndarray) -> np.ndarray:
    """Circulant matrix whose row i is ``row`` shifted cyclically by i: the
    strided view, copied out row by row."""
    return _circulant_view(row).copy()


def _circulant_times(row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The circulant with the symmetric first row ``row`` times ``x`` along axis 0.

    The sum of ``row[k]`` times ``x`` shifted cyclically by k, over the
    nonzero entries of ``row``: a banded circulant costs a few shifted
    copies and no n x n matrix.  Of two first rows it is their circular
    convolution, the first row of the product.
    """
    out = np.zeros(x.shape)
    for k in np.flatnonzero(row):
        out += row[k] * np.roll(x, k, axis=0)
    return out


def _laplacian_row(spec: CirculantSpec) -> np.ndarray:
    """First Laplacian row of a circulant graph; the wrap hop n/2 counts once."""
    row = np.zeros(spec.n)
    for s, d in spec.generators:
        row[s] -= d
        if 2 * s != spec.n:
            row[spec.n - s] -= d
    row[0] = -row.sum()  # the common degree: Laplacian rows sum to zero
    return row


def laplacian(g: Graph | CirculantSpec) -> np.ndarray:
    """Combinatorial Laplacian D - A.

    The diagonal holds the summed incident weights, i.e. the negated
    off-diagonal row sums, so rows sum to zero (exactly so for integer
    weights).  A circulant spec is densified from its first row, with no
    edge list.
    """
    if isinstance(g, CirculantSpec):
        return _circulant(_laplacian_row(g))
    a = adjacency(g)
    lap = -a
    np.fill_diagonal(lap, a.sum(axis=1))
    return lap


def _apply_laplacian(g: Graph | CirculantSpec, x: np.ndarray) -> np.ndarray:
    """L x for a signal x, or L X for every column of a matrix X.

    A circulant spec applies its first row by shifts and forms no n x n
    matrix; a Graph forms its dense Laplacian.
    """
    if isinstance(g, CirculantSpec):
        return _circulant_times(_laplacian_row(g), x)
    return laplacian(g) @ x


def incidence(g: Graph) -> np.ndarray:
    """Oriented edge-vertex incidence matrix, one row per edge.

    Rows follow the lexicographic edge order; each row carries +sqrt(w) at
    the low-index endpoint and -sqrt(w) at the high-index endpoint.  The
    orientation is arbitrary but fixed: S^T S reproduces the Laplacian
    regardless of the per-row sign choice.
    """
    s = np.zeros((len(g.edges), g.n))
    for row, (i, j, w) in enumerate(g.edges):
        root = math.sqrt(w)
        s[row, i] = root
        s[row, j] = -root
    return s


def _neighbor_lists(g: Graph) -> list[list[int]]:
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for i, j, _ in g.edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    return nbrs


def connected_components(g: Graph | CirculantSpec) -> int:
    """Number of connected components.

    A circulant graph has gcd(n, s_1, ..., s_k) of them (its hops generate
    the subgroup of Z_n its vertex 0 reaches); a Graph is traversed
    breadth-first.
    """
    if isinstance(g, CirculantSpec):
        return math.gcd(g.n, *g.hops)
    nbrs = _neighbor_lists(g)
    seen = [False] * g.n
    count = 0
    for start in range(g.n):
        if seen[start]:
            continue
        count += 1
        seen[start] = True
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
    return count


def hop_distances(g: Graph) -> np.ndarray:
    """All-pairs unweighted shortest-path hop counts; -1 when unreachable."""
    nbrs = _neighbor_lists(g)
    dist = np.full((g.n, g.n), -1, dtype=int)
    for src in range(g.n):
        dist[src, src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in nbrs[u]:
                if dist[src, v] < 0:
                    dist[src, v] = dist[src, u] + 1
                    queue.append(v)
    return dist


def _within_hops(lap: np.ndarray, k: int) -> np.ndarray:
    """Boolean n x n mask of the vertex pairs at most k >= 1 hops apart.

    The pattern of (I + A)^k, taken one hop at a time: each product of 0/1
    patterns holds counts no larger than n, so the float test is exact.
    """
    step = (lap != 0.0).astype(float)
    np.fill_diagonal(step, 1.0)
    reach = step
    for _ in range(k - 1):
        reach = reach @ step
        np.minimum(reach, 1.0, out=reach)
    return reach > 0.0


def khop_localization_check(g: Graph, k: int) -> bool:
    """Whether L^k vanishes at every pair further than k hops apart."""
    if k < 1:
        raise ValueError("hop order k must be >= 1")
    lap = laplacian(g)
    lk = np.linalg.matrix_power(lap, k)
    far = ~_within_hops(lap, k)
    if not far.any():
        return True
    scale = max(float(np.abs(lk).max()), 1.0)
    return bool(np.abs(lk[far]).max() <= LOCALIZATION_RTOL * scale)


# ----------------------------------------------------------------------
# Constructions
# ----------------------------------------------------------------------


def compile_circulant(spec: CirculantSpec) -> Graph:
    """Materialise the circulant graph of a generating set (natural labelling)."""
    weights: dict[tuple[int, int], float] = {}
    for s, d in spec.generators:
        for i in range(spec.n):
            j = (i + s) % spec.n
            weights[(min(i, j), max(i, j))] = d
    return Graph(spec.n, tuple((i, j, w) for (i, j), w in sorted(weights.items())))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a simple cycle needs n >= 3")
    return compile_circulant(CirculantSpec(n, ((1, 1.0),)))


def complete_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("a complete graph needs n >= 2")
    return Graph(n, tuple((i, j, 1.0) for i in range(n) for j in range(i + 1, n)))


def random_connected_graph(
    n: int,
    rng: np.random.Generator,
    extra_edge_prob: float = 0.15,
    weights: str = "uniform",
) -> Graph:
    """Random connected graph: a random spanning tree plus Bernoulli extras.

    Each vertex pair outside the tree, in lexicographic order, takes one
    uniform draw and joins when it falls below ``extra_edge_prob``; then
    every edge, in the same order, draws its weight.

    weights: "unit" (all 1), "integer" (uniform 1..5) or "uniform" (0.5..2).
    """
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    order = rng.permutation(n)
    tree = np.zeros((n, n), dtype=bool)
    for idx in range(1, n):
        u, v = order[idx], order[int(rng.integers(0, idx))]
        tree[min(u, v), max(u, v)] = True
    rows, cols = np.triu_indices(n, 1)
    keep = tree[rows, cols]
    free = ~keep
    keep[free] = rng.random(int(free.sum())) < extra_edge_prob
    drawn = _draw_weights(rng, weights, int(keep.sum()))
    return Graph(n, tuple(zip(rows[keep].tolist(), cols[keep].tolist(), drawn)))


def random_circulant_spec(
    n: int, rng: np.random.Generator, weights: str = "unit"
) -> CirculantSpec:
    """Random generating set with hop 1 and bandwidth < n/2."""
    max_hop = (n - 1) // 2
    if max_hop < 1:
        raise ValueError("need n >= 3 for a strict-band generating set")
    hops = {1}
    for h in range(2, max_hop + 1):
        if len(hops) >= 4:
            break
        if rng.random() < 0.4:
            hops.add(h)
    ordered = sorted(hops)
    return CirculantSpec(n, tuple(zip(ordered, _draw_weights(rng, weights, len(ordered)))))


def _draw_weights(rng: np.random.Generator, kind: str, count: int) -> list[float]:
    """``count`` edge weights; one array draw takes the same stream as
    ``count`` scalar draws."""
    if kind == "unit":
        return [1.0] * count
    if kind == "integer":
        return rng.integers(1, 6, count).astype(float).tolist()
    if kind == "uniform":
        return rng.uniform(0.5, 2.0, count).tolist()
    raise ValueError(f"unknown weight kind {kind!r}")


# ----------------------------------------------------------------------
# Serialisation
# ----------------------------------------------------------------------


def graph_from_json(obj) -> Graph:
    """Build a Graph from {"n": int, "edges": [[i, j, w], ...]} (dict or JSON text)."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        return Graph(int(obj["n"]), tuple(tuple(e) for e in obj["edges"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc


def circulant_spec_to_json(spec: CirculantSpec) -> dict:
    return {"n": spec.n, "generators": [[s, d] for s, d in spec.generators]}


def circulant_spec_from_json(obj) -> CirculantSpec:
    """Build a CirculantSpec from {"n": int, "generators": [[s, d], ...]}."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        return CirculantSpec(int(obj["n"]), tuple(tuple(gen) for gen in obj["generators"]))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed circulant spec JSON: {exc}") from exc


def parse_edge_list(text: str) -> Graph:
    """Parse "i j w" lines into a Graph; '#' starts a comment.

    The weight defaults to 1 when omitted.  A first line "# n=N", as
    ``format_edge_list`` writes it, gives the vertex count, so isolated
    vertices survive the round trip; without it the count is the largest
    endpoint plus one.
    """
    lines = text.splitlines()
    header = re.fullmatch(r"# n=([0-9]+)", lines[0]) if lines else None
    n = int(header.group(1)) if header else None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 'i j [w]', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
        edges.append((i, j, w))
    if n is None:
        if not edges:
            raise ValueError("edge list is empty and has no '# n=N' header")
        n = max(max(i, j) for i, j, _ in edges) + 1
    return Graph(n, tuple(edges))


def format_edge_list(g: Graph) -> str:
    lines = [f"# n={g.n}"]
    lines += [f"{i} {j} {w!r}" for i, j, w in g.edges]
    return "\n".join(lines) + "\n"
