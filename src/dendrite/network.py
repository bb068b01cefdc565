"""Level-L electrical networks on the fractal lattice.

Every word w of length L contributes the two edges F_w(q1)-F_w(q2) and
F_w(q1)-F_w(q3) with conductance 1/s_w.  The resulting graph is a tree;
vertex identity comes from the addressing normal form, so all network
reductions and solves are exact in rational arithmetic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .addressing import Vertex, canonicalize, vertex_str, words_of_length

DEFAULT_MAX_LEVEL = 12


class CapacityError(Exception):
    """Requested level exceeds the configured maximum."""


def _vertex_key(v: Vertex):
    return (len(v[0]), v[0], v[1])


@dataclass
class LevelGraph:
    """Immutable tree network: vertices, adjacency and exact conductances.

    Cell k is `words[k]`; its corners F_w(q1), F_w(q2), F_w(q3) are the
    vertex ids `corners[3k:3k+3]`, and `s0_digits[k]` counts the digits
    of its word in {0,1}, which fixes its conductance and its measure.
    """

    level: int
    s0: Fraction
    vertices: list[Vertex]
    index: dict[Vertex, int]
    edges: list[tuple[int, int, Fraction]]
    adj: list[list[tuple[int, Fraction]]]
    words: tuple[str, ...]
    corners: Sequence[int]
    s0_digits: bytes

    def vertex_id(self, v: Vertex) -> int:
        key = canonicalize(*v)
        try:
            return self.index[key]
        except KeyError:
            raise KeyError(f"vertex {vertex_str(key)} not in graph") from None

    def distances_from(self, start: Vertex) -> list[Fraction]:
        """Tree distance (sum of edge resistances) from start to every vertex."""
        dist: list[Optional[Fraction]] = [None] * len(self.vertices)
        s = self.vertex_id(start)
        dist[s] = Fraction(0)
        stack = [s]
        while stack:
            i = stack.pop()
            di = dist[i]
            for j, cond in self.adj[i]:
                if dist[j] is None:
                    dist[j] = di + 1 / cond
                    stack.append(j)
        assert all(d is not None for d in dist), "graph is not connected"
        return dist  # type: ignore[return-value]

    def to_json(self) -> str:
        payload = {
            "level": self.level,
            "s0": str(self.s0),
            "vertices": [vertex_str(v) for v in self.vertices],
            "edges": [
                [vertex_str(self.vertices[i]), vertex_str(self.vertices[j]), str(c)]
                for i, j, c in self.edges
            ],
        }
        return json.dumps(payload, indent=1)


def word_conductance(word: str, s0: Fraction) -> Fraction:
    """1/s_w = s0^-a (1-s0)^-(L-a), with a the number of digits of w in {0,1}."""
    a = word.count("0") + word.count("1")
    return 1 / (s0**a * (1 - s0) ** (len(word) - a))


def build_cells_graph(words: Iterable[str], s0: Fraction, level: int) -> LevelGraph:
    """Graph induced by a set of level-`level` cells (two edges per cell)."""
    s0 = Fraction(s0)
    if not 0 < s0 < 1:
        raise ValueError("s0 must lie strictly between 0 and 1")
    words = tuple(sorted(set(words)))
    index: dict[Vertex, int] = {}
    vertices: list[Vertex] = []

    def vid(word: str, corner: int) -> int:
        v = canonicalize(word, corner)
        i = index.get(v)
        if i is None:
            i = len(vertices)
            index[v] = i
            vertices.append(v)
        return i

    # a local import, so that runs that build no network (quadrature,
    # doubling) do not pay the extension module's 0.2 MB of resident memory
    from array import array

    raw_corners = array("i")
    s0_digits = bytearray()
    for w in words:
        if len(w) != level:
            raise ValueError(f"word {w!r} does not have length {level}")
        s0_digits.append(w.count("0") + w.count("1"))
        raw_corners.extend((vid(w, 1), vid(w, 2), vid(w, 3)))

    # reindex into deterministic vertex order
    order = sorted(range(len(vertices)), key=lambda i: _vertex_key(vertices[i]))
    remap = [0] * len(vertices)
    for new, old in enumerate(order):
        remap[old] = new
    vertices = [vertices[old] for old in order]
    index = {v: i for i, v in enumerate(vertices)}
    corners = array("i", map(remap.__getitem__, raw_corners))
    # cells with a digits in {0,1} share one conductance
    cond = [word_conductance("0" * a + "2" * (level - a), s0) for a in range(level + 1)]
    edges = []
    it = iter(corners)
    for a, q1, q2, q3 in zip(s0_digits, it, it, it):
        edges.append((min(q1, q2), max(q1, q2), cond[a]))
        edges.append((min(q1, q3), max(q1, q3), cond[a]))
    edges.sort()
    adj: list[list[tuple[int, Fraction]]] = [[] for _ in vertices]
    for i, j, c in edges:
        adj[i].append((j, c))
        adj[j].append((i, c))
    return LevelGraph(level, s0, vertices, index, edges, adj, words, corners, bytes(s0_digits))


def build_level_graph(
    level: int, s0: Fraction = Fraction(1, 2), max_level: int = DEFAULT_MAX_LEVEL
) -> LevelGraph:
    """The full level-L network on 2*4^L + 1 vertices."""
    if level < 0:
        raise ValueError("level must be non-negative")
    if level > max_level:
        raise CapacityError(f"level {level} exceeds maximum {max_level}")
    if level > 9:
        # 4^10 cells is already ~2M vertices; full graphs beyond that are
        # never needed (ball subgraphs and network reductions cover big L)
        raise CapacityError(f"full graphs are capped at level 9, got {level}")
    return build_cells_graph(words_of_length(level), s0, level)


def ball_cell_words(n: int, level: int) -> list[str]:
    """Level-`level` cells covering the closed ball B(q0, 2^-n) (s0 = 1/2).

    The closed ball is the union of the 2^(n-1) lower branches K_{2w}
    (w in {0,1}^(n-1)) and the upper spine cells K_{0 2^(n-1) 0^m 2}; the
    spine tip is completed with the level-L cells around the apex.
    """
    if n < 1:
        raise ValueError("ball index n must be >= 1")
    if level < n + 1:
        raise ValueError(f"level {level} too small for ball index {n}")
    words: list[str] = []
    suffix_len = level - n
    for branch_bits in range(1 << (n - 1)):
        prefix = "2" + format(branch_bits, f"0{n - 1}b") if n > 1 else "2"
        for tail in words_of_length(suffix_len):
            words.append(prefix + tail)
    upper = "0" + "2" * (n - 1)
    for m in range(level - n):
        prefix = upper + "0" * m + "2"
        for tail in words_of_length(level - len(prefix)):
            words.append(prefix + tail)
    tip = upper + "0" * (level - n - 1)
    for d in "013":
        words.append(tip + d)
    return words


@dataclass
class BallRegion:
    """Interior/frontier split of a metric ball on a level graph."""

    graph: LevelGraph
    center: Vertex
    radius: Fraction
    interior: frozenset[Vertex]
    frontier: frozenset[Vertex]
    distances: dict[Vertex, Fraction]
    dist: list[Fraction]  # the same distances, indexed by vertex id
    cut_edges: list[tuple[Vertex, Vertex, Fraction]]  # (inside, outside, crossing fraction)
    upper_boundary: Optional[frozenset[Vertex]] = None
    lower_boundary: Optional[frozenset[Vertex]] = None

    @property
    def level(self) -> int:
        return self.graph.level


def ball(graph: LevelGraph, center: Vertex, radius: Fraction) -> BallRegion:
    """Open metric ball: interior at distance < radius, grounded frontier at >= radius."""
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = canonicalize(*center)
    dist = graph.distances_from(center)
    interior = set()
    for i, d in enumerate(dist):
        if d < radius:
            interior.add(graph.vertices[i])
    frontier = set()
    cut_edges = []
    for i, j, cond in graph.edges:
        di, dj = dist[i], dist[j]
        if (di < radius) == (dj < radius):
            continue
        if di > dj:
            i, j, di, dj = j, i, dj, di
        u, v = graph.vertices[i], graph.vertices[j]
        frontier.add(v)
        cut_edges.append((u, v, (radius - di) * cond))  # edge resistance = 1/cond
    upper = lower = None
    if center == ("2", 1):
        upper = frozenset(v for v in frontier if v[0].startswith("0"))
        lower = frozenset(v for v in frontier if v[0].startswith("2"))
    return BallRegion(
        graph=graph,
        center=center,
        radius=radius,
        interior=frozenset(interior),
        frontier=frozenset(frontier),
        distances={graph.vertices[i]: d for i, d in enumerate(dist)},
        dist=dist,
        cut_edges=sorted(cut_edges, key=lambda e: (_vertex_key(e[0]), _vertex_key(e[1]))),
        upper_boundary=upper,
        lower_boundary=lower,
    )


def ball_graph(n: int, level: int, s0: Fraction = Fraction(1, 2)) -> LevelGraph:
    """Subgraph covering B(q0, 2^-n) at the given level (much smaller than the full graph)."""
    if Fraction(s0) != Fraction(1, 2):
        raise ValueError("ball subgraphs assume s0 = 1/2 (dyadic radii)")
    return build_cells_graph(ball_cell_words(n, level), s0, level)


@dataclass
class ReducedNetwork:
    """Result of tracing a network onto a kept vertex set."""

    vertices: list[Vertex]
    edges: dict[frozenset[Vertex], Fraction] = field(default_factory=dict)

    def edge_list(self) -> list[tuple[Vertex, Vertex, Fraction]]:
        out = []
        for pair, c in self.edges.items():
            a, b = sorted(pair, key=_vertex_key)
            out.append((a, b, c))
        out.sort(key=lambda e: (_vertex_key(e[0]), _vertex_key(e[1])))
        return out


def schur_trace(graph: LevelGraph, keep: Sequence[Vertex]) -> ReducedNetwork:
    """Exact trace of the quadratic form onto `keep`.

    On a tree this is iterated elimination of degree-1 and degree-2
    vertices outside the kept set; the reduced form equals the infimum of
    the original over all extensions.
    """
    keep_set = {canonicalize(*v) for v in keep}
    missing = [v for v in keep_set if v not in graph.index]
    if missing:
        raise KeyError(f"kept vertices not in graph: {sorted(missing)[:3]}")
    if len(keep_set) < 2:
        raise ValueError("need at least two kept vertices")
    cond: dict[Vertex, dict[Vertex, Fraction]] = {v: {} for v in graph.vertices}
    for i, j, c in graph.edges:
        u, v = graph.vertices[i], graph.vertices[j]
        cond[u][v] = cond[u].get(v, Fraction(0)) + c
        cond[v][u] = cond[v].get(u, Fraction(0)) + c

    queue = sorted(
        (v for v in graph.vertices if v not in keep_set and len(cond[v]) <= 2),
        key=_vertex_key,
    )
    pending = set(queue)
    while queue:
        v = queue.pop()
        pending.discard(v)
        if v in keep_set:
            continue
        nbrs = cond.pop(v, None)
        if nbrs is None:
            continue
        if len(nbrs) > 2:  # re-queued stale entry
            cond[v] = nbrs
            continue
        for u in nbrs:
            del cond[u][v]
        if len(nbrs) == 2:
            (a, ca), (b, cb) = nbrs.items()
            c = ca * cb / (ca + cb)
            cond[a][b] = cond[a].get(b, Fraction(0)) + c
            cond[b][a] = cond[b].get(a, Fraction(0)) + c
        for u in nbrs:
            if u not in keep_set and len(cond[u]) <= 2 and u not in pending:
                queue.append(u)
                pending.add(u)

    leftovers = [v for v in cond if v not in keep_set]
    if leftovers:
        raise RuntimeError(f"non-tree structure: could not eliminate {leftovers[:3]}")
    edges: dict[frozenset[Vertex], Fraction] = {}
    for u, nbrs in cond.items():
        for v, c in nbrs.items():
            edges[frozenset((u, v))] = c
    return ReducedNetwork(sorted(cond, key=_vertex_key), edges)


def resistance_distance(graph: LevelGraph, u: Vertex, v: Vertex) -> Fraction:
    """Sum of edge resistances along the unique tree path (= effective resistance)."""
    du = graph.distances_from(u)
    return du[graph.vertex_id(v)]
