"""Level-L electrical networks on the fractal lattice.

Every word w of length L contributes the two edges F_w(q1)-F_w(q2) and
F_w(q1)-F_w(q3) with conductance 1/s_w.  The resulting graph is a tree;
vertex identity comes from the addressing normal form, so all network
reductions and solves are exact in rational arithmetic.  `Network` is
the one network type: the level graphs, their Schur traces and the
small reduced networks of `reduction` are all instances of it.
"""

from __future__ import annotations

import json
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Iterable, Optional

from .addressing import Q0, Vertex, canonicalize, check_word, in_cell, vertex_str, words_of_length
from .metric import Metric


class CapacityError(Exception):
    """Requested level exceeds the configured maximum or the full-graph limit."""


def _pack(n: int, tails: Sequence[int], heads: Sequence[int], kind: Sequence[int], kinds: int):
    """Half-edge arrays (offsets, nbrs, kind) of ids 0..n-1 for the edges tails[e]-heads[e] of kind kind[e] < `kinds`.

    Each edge gives two integer keys (v n + u) kinds + kind, one per end v,
    and one sort of them lists every vertex's half-edges by ascending
    neighbour id u.  That is the sorted (i, j) edge order `Network.edges`
    reads back, and the order that walks and float sums follow.
    """
    from array import array  # a local import: see build_cells_graph

    keys = [(i * n + j) * kinds + k for i, j, k in zip(tails, heads, kind)]
    keys += [(j * n + i) * kinds + k for i, j, k in zip(tails, heads, kind)]
    keys.sort()
    degree = Counter(tails)
    degree.update(heads)
    offsets = array("i", accumulate(map(degree.__getitem__, range(n)), initial=0))
    return offsets, array("i", [key // kinds % n for key in keys]), array("i", [key % kinds for key in keys])


class _Adjacency(Sequence):
    """`Network.adj`: the (neighbour, conductance) pairs of each id, read off the half-edge arrays."""

    def __init__(self, net: Network):
        self._net = net

    def __len__(self) -> int:
        return len(self._net.offsets) - 1

    def __getitem__(self, i: int) -> list[tuple[int, Fraction]]:
        net, i = self._net, range(len(self))[i]
        nbrs, kind, conds = net.nbrs, net.kind, net.conds
        return [(nbrs[h], conds[kind[h]]) for h in range(net.offsets[i], net.offsets[i + 1])]


@dataclass
class Network:
    """Conductance network on vertex ids.

    `vertices[i]` is the label of id i and `index` inverts it.  Labels
    are vertices in normal form, or names such as the grounded node
    "GND".  The edges are stored once, as packed half-edges: the
    half-edges of id i are h = offsets[i] .. offsets[i+1]-1, listed by
    ascending neighbour id `nbrs[h]`, and `conds[kind[h]]` is the
    conductance of h; `conds` is a short table, so no edge holds an
    object of its own.  `adj[i]` and `edges` are read-only views that
    give the same facts as (neighbour, conductance) pairs and as sorted
    (i, j, conductance) triples.  Every edge resistance is a whole
    multiple of 1/`unit`, so tree distances are walked in integers.
    """

    vertices: list
    index: dict
    offsets: Sequence[int]
    nbrs: Sequence[int]
    kind: Sequence[int]
    conds: tuple[Fraction, ...]
    unit: int

    @classmethod
    def _of_conductances(cls, vertices: list, index: dict, cond: dict[tuple[int, int], Fraction], unit: int) -> Network:
        """The network of the edges `cond[i, j]`, with one `conds` entry per distinct conductance."""
        kinds: dict[Fraction, int] = {}
        kind = [kinds.setdefault(c, len(kinds)) for c in cond.values()]
        packed = _pack(len(vertices), [i for i, _ in cond], [j for _, j in cond], kind, len(kinds))
        return cls(vertices, index, *packed, tuple(kinds), unit)

    @property
    def adj(self) -> Sequence[list[tuple[int, Fraction]]]:
        """The (neighbour, conductance) pairs of each id, by ascending neighbour."""
        return _Adjacency(self)

    @property
    def edges(self) -> list[tuple[int, int, Fraction]]:
        """The (i, j, conductance) triples with i < j, sorted."""
        offsets, nbrs, kind, conds = self.offsets, self.nbrs, self.kind, self.conds
        return [
            (i, nbrs[h], conds[kind[h]])
            for i in range(len(offsets) - 1)
            for h in range(offsets[i], offsets[i + 1])
            if nbrs[h] > i
        ]

    @classmethod
    def from_edges(cls, triples: Iterable[tuple[object, object, Fraction]]) -> Network:
        """Network of (u, v, conductance) triples; parallel edges are summed.

        Ids follow the labels' first appearance.  The unit is the lcm of
        the summed conductances' numerators.
        """
        vertices: list = []
        index: dict = {}
        cond: dict[tuple[int, int], Fraction] = {}
        for u, v, c in triples:
            if c <= 0:
                raise ValueError("conductance must be positive")
            if u == v:
                raise ValueError("self-loops not allowed")
            for x in (u, v):
                if x not in index:
                    index[x] = len(vertices)
                    vertices.append(x)
            i, j = sorted((index[u], index[v]))
            cond[i, j] = cond.get((i, j), Fraction(0)) + Fraction(c)
        return cls._of_conductances(vertices, index, cond, lcm(*(c.numerator for c in cond.values())))

    def vertex_id(self, v) -> int:
        """Id of a label; a vertex not found as given is looked up in normal form."""
        i = self.index.get(v)
        if i is None:
            if not isinstance(v, tuple):
                raise KeyError(f"label {v!r} not in network")
            key = canonicalize(*v)
            i = self.index.get(key)
            if i is None:
                raise KeyError(f"vertex {vertex_str(key)} not in graph")
        return i

    def _walk(self, s: int) -> tuple[list[int], list[int]]:
        """Tree distances from id s in units of 1/unit (sums of edge resistances) and parent ids (-1 at s)."""
        dist: list = [None] * len(self.vertices)
        parent = [-1] * len(self.vertices)
        dist[s] = 0
        resistance = []  # per kind
        for cond in self.conds:
            r, rem = divmod(self.unit * cond.denominator, cond.numerator)
            assert not rem, f"resistance 1/{cond} is not a multiple of 1/{self.unit}"
            resistance.append(r)
        offsets, nbrs, kind = self.offsets, self.nbrs, self.kind
        stack = [s]
        while stack:
            i = stack.pop()
            di = dist[i]
            for h in range(offsets[i], offsets[i + 1]):
                j = nbrs[h]
                if dist[j] is None:
                    dist[j] = di + resistance[kind[h]]
                    parent[j] = i
                    stack.append(j)
        assert all(d is not None for d in dist), "graph is not connected"
        return dist, parent

    def distances_from(self, start) -> list[Fraction]:
        """Tree distance (sum of edge resistances) from start to every vertex."""
        unit = self.unit
        return [Fraction(d, unit) for d in self._walk(self.vertex_id(start))[0]]

    def edge_list(self) -> list[tuple[object, object, Fraction]]:
        """The edges as (label, label, conductance) triples, in id order."""
        return [(self.vertices[i], self.vertices[j], c) for i, j, c in self.edges]


@dataclass
class LevelGraph(Network):
    """Tree network of level-L cells, two edges per cell.

    Cell k is `words[k]`; its corners F_w(q1), F_w(q2), F_w(q3) are the
    vertex ids `corners[3k:3k+3]`, and `s0_digits[k]` counts the digits
    of its word in {0,1}, which fixes its conductance and its measure.
    Its edges q1-q2 and q1-q3 are the half-edges of kind a =
    `s0_digits[k]`, and `conds[a]` = s0^-a (1-s0)^-(L-a) for a = 0..L.
    Vertex ids follow the order (word length, word, corner).  The unit
    is q^L for s0 = p/q.
    """

    level: int
    s0: Fraction
    words: tuple[str, ...]
    corners: Sequence[int]
    s0_digits: bytes

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


def _sorted_ids(vertices: list[Vertex], raw_corners: Sequence[int], level: int) -> tuple[list[Vertex], Sequence[int]]:
    """The vertices in the order (word length, word, corner), and the corner ids renumbered to match."""
    from array import array  # a local import: see build_cells_graph

    # one integer per vertex, len(word) | word in base 4 | corner: words of one
    # length compare as their base-4 values, and every word has at most `level` digits
    shift = 2 * level + 2
    keys = [len(word) << shift | int(word or "0", 4) << 2 | corner for word, corner in vertices]
    order = sorted(range(len(vertices)), key=keys.__getitem__)
    remap = [0] * len(vertices)
    for new, old in enumerate(order):
        remap[old] = new
    return [vertices[old] for old in order], array("i", map(remap.__getitem__, raw_corners))


def build_cells_graph(words: Iterable[str], s0: Fraction, level: int) -> LevelGraph:
    """Graph induced by a set of level-`level` cells (two edges per cell)."""
    s0 = Fraction(s0)
    if not 0 < s0 < 1:
        raise ValueError("s0 must lie strictly between 0 and 1")
    words = tuple(sorted(set(words)))
    raw_index: dict[Vertex, int] = {}  # ids in first-touch order

    # a local import, so that runs that build no network (quadrature,
    # doubling) do not pay the extension module's 0.2 MB of resident memory
    from array import array

    raw_corners = array("i")
    s0_digits = bytearray()
    for w in words:
        if len(w) != level:
            raise ValueError(f"word {w!r} does not have length {level}")
        check_word(w)
        s0_digits.append(w.count("0") + w.count("1"))
        # the normal forms of F_w(q1), F_w(q2), F_w(q3), by `canonicalize`'s
        # rule: strip the digits that fix the corner, then rewrite
        # F_{k0}(q2) = F_{k2}(q1) and F_{k1}(q3) = F_{k3}(q1)
        t2, t3 = w.rstrip("2"), w.rstrip("3")
        raw_corners.extend((
            raw_index.setdefault((w.rstrip("01"), 1), len(raw_index)),
            raw_index.setdefault((t2[:-1] + "2", 1) if t2.endswith("0") else (t2, 2), len(raw_index)),
            raw_index.setdefault((t3[:-1] + "3", 1) if t3.endswith("1") else (t3, 3), len(raw_index)),
        ))
    # renumber in deterministic vertex order, and free the first-touch index
    # before the half-edge keys are made: they are the build's peak
    vertices, corners = _sorted_ids(list(raw_index), raw_corners, level)
    del raw_index
    # cells with a digits in {0,1} share one conductance, of kind a
    conds = tuple(word_conductance("0" * a + "2" * (level - a), s0) for a in range(level + 1))
    q1 = corners[0::3]
    packed = _pack(len(vertices), q1 + q1, corners[1::3] + corners[2::3], s0_digits + s0_digits, level + 1)
    index = {v: i for i, v in enumerate(vertices)}
    return LevelGraph(vertices, index, *packed, conds, s0.denominator**level, level, s0, words, corners, bytes(s0_digits))


def build_level_graph(level: int, s0: Fraction = Fraction(1, 2)) -> LevelGraph:
    """The full level-L network on 2*4^L + 1 vertices."""
    if level < 0:
        raise ValueError("level must be non-negative")
    if level > 9:
        # 4^10 cells is already ~2M vertices; full graphs beyond that are
        # never needed (ball subgraphs and network reductions cover big L)
        raise CapacityError(f"full graphs are capped at level 9, got {level}")
    return build_cells_graph(words_of_length(level), s0, level)


# farthest distance from F_w(q1), F_w(q2), F_w(q3) to a point of K_w, in units of s_w
_CORNER_REACH = (1, 2, 2)
_half_metric = cache(lambda: Metric(Fraction(1, 2)))  # made on first use; every cover shares its memo


def _in_units(d: Fraction, unit: int) -> int:
    """d * unit, which must be an integer: else `ArithmeticError`."""
    n, rem = divmod(d.numerator * unit, d.denominator)
    if rem:
        raise ArithmeticError(f"distance {d} is not a multiple of 1/{unit}")
    return n


@cache
def _digit_moves(s0: Fraction) -> tuple:
    """The cover's table per child digit i, for s0 = p/q, read off the unit cell once per s0: its
    count of digits in {0,1}, its scale over the parent's scale / q, and per parent corner the
    distance to the child's nearest corner in that unit, with that corner."""
    metric, p, q = Metric(s0), s0.numerator, s0.denominator
    return tuple(
        (str(i), int(i < 2), p if i < 2 else q - p,
         tuple(min((_in_units(metric.dist(("", k), (str(i), j + 1)), q), j) for j in range(3)) for k in (1, 2, 3)))
        for i in range(4)
    )


class _BallCover:
    """The cover of the open ball B(center, radius) by cells, down to `max_depth`.

    The cover holds each maximal cell K_w inside the ball and each cell at
    depth `max_depth` that straddles it.  A cell meets the rest of K only
    at its corners, and an arc between two of its points stays in it
    (Kigami 2001, ch. 2-3).  So the root and the cells that hold the
    center (in them, on no corner) form one chain, walked with exact
    `metric.dist` corner distances, and any other cell is entered through
    one corner e: a point x of it lies at d(e) + d(e, x).  A cell lies
    inside when some corner's distance plus its reach (`_CORNER_REACH`
    times the cell's scale) is below the radius; off the chain that corner
    is e.

    Off the chain a cell is its state (depth, scale, d, e), d = d(e), and
    `_rule` is the one rule of the cover below it: a cell with d >= radius
    is dropped, an inside cell or one at `max_depth` is a leaf, and any
    other cell splits into four child states, each entered through its
    corner nearest to e.  The state fixes all of the cover below the cell
    but its word prefix and digit count, and a ball has few distinct states
    (86 under the 6,468 cells that cover B(y_6, 1/32) to depth 12), so
    `fold` works each state out once.

    Integers throughout: with s0 = p/q, distances and scales are in the
    unit 1/U, U = q^(D+2) den(radius), D the larger of `max_depth` and the
    center's word length.  Each `Fraction` is converted with `divmod`, and
    a nonzero remainder raises `ArithmeticError`, so every comparison
    equals the rational one.
    """

    def __init__(self, center: Vertex, radius: Fraction, max_depth: int, metric: Metric):
        radius = Fraction(radius)
        if radius <= 0:
            raise ValueError("radius must be positive")
        center = canonicalize(*center)
        q = metric.s0.denominator
        unit = q ** (max(max_depth, len(center[0]), 0) + 2) * radius.denominator

        def center_dists(word: str) -> tuple[int, int, int]:
            return tuple(_in_units(metric.dist(center, (word, j)), unit) for j in (1, 2, 3))

        self._digits = _digit_moves(metric.s0)
        self._q, self._r, self._max_depth = q, _in_units(radius, unit), max_depth
        # (word, a, node) per cell under which the cover hangs: the chain's last
        # cell with its inside flag, and each child of the chain off it, with its state
        self.cells = []
        held = "", 0, unit, center_dists("")
        while held:
            word, a, scale, ds = held
            inside = any(d + reach * scale < self._r for d, reach in zip(ds, _CORNER_REACH))
            if inside or len(word) >= max_depth:
                self.cells.append((word, a, inside))
                break
            step, held = scale // q, None
            for digit, da, factor, _ in self._digits:
                child, cds = word + digit, center_dists(word + digit)
                if 0 not in cds and in_cell(center, child):
                    held = child, a + da, step * factor, cds
                else:
                    self.cells.append((child, a + da, (len(child), step * factor, *min(zip(cds, range(3))))))

    def _rule(self, state):
        """None for a cell off the ball, its inside flag for a leaf, else its four (digit, da, child state)."""
        depth, scale, d, e = state
        if d >= self._r:
            return None
        inside = d + _CORNER_REACH[e] * scale < self._r
        if inside or depth >= self._max_depth:
            return inside
        step = scale // self._q
        return [
            (digit, da, (depth + 1, step * factor, d + step * moves[e][0], moves[e][1]))
            for digit, da, factor, moves in self._digits
        ]

    def fold(self, leaf, join) -> list:
        """(word, a, value) per cell of `cells` that meets the ball.

        A leaf at depth k has the value `leaf(k, inside)`; a cell that splits
        has `join([(digit, da, value), ...])` over its children that meet
        the ball, da each child's digit count in {0,1}.  Each distinct state
        is folded once, children first, with a memo that lives for one call.
        """
        memo: dict = {}
        out = []
        for word, a, node in self.cells:
            if isinstance(node, bool):
                out.append((word, a, leaf(len(word), node)))
                continue
            todo = [(node, self._rule(node))]  # (state, its rule), children above parents
            while todo:
                state, got = todo[-1]
                if state in memo:
                    todo.pop()
                    continue
                if isinstance(got, list):
                    waiting = [(kid, self._rule(kid)) for _, _, kid in got if kid not in memo]
                    if waiting:
                        todo += waiting
                        continue
                    got = join([(digit, da, memo[kid]) for digit, da, kid in got if memo[kid] is not None])
                elif got is not None:
                    got = leaf(state[0], got)
                memo[state] = got
                todo.pop()
            if memo[node] is not None:
                out.append((word, a, memo[node]))
        return out


def ball_cell_words(center: Vertex, radius: Fraction, level: int) -> list[str]:
    """Level-`level` cells that meet the open ball B(center, radius) (s0 = 1/2)."""
    # fold to the leaves' word suffixes and expand each leaf at the end, so the
    # memo holds no level words; a leaf's word length is its depth
    cells = _BallCover(center, radius, level, _half_metric()).fold(
        lambda depth, inside: [""],
        lambda kids: [digit + suffix for digit, _, below in kids for suffix in below],
    )
    leaves = [word + suffix for word, _, below in cells for suffix in below]
    return [leaf + tail for leaf in leaves for tail in words_of_length(level - len(leaf))]


@dataclass
class BallRegion:
    """Interior/frontier split of a metric ball on a level graph.

    It is stored once, as the graph's integer walk from the center: the
    vertex with id i lies at `units[i] / graph.unit` from it, and inside
    the ball when `units[i] < cut()`.  `interior`, `frontier` and
    `cut_edges` are label views of it, made on first use.
    """

    graph: LevelGraph
    center: Vertex
    radius: Fraction
    units: list[int]  # distance from the center in units of 1/graph.unit, indexed by vertex id

    def cut(self, radius: Optional[Fraction] = None) -> int:
        """The least integer distance outside the open ball of `radius` (default: the region's)."""
        return units_cut(self.radius if radius is None else Fraction(radius), self.graph.unit)

    @cached_property
    def interior(self) -> frozenset[Vertex]:
        """The vertices inside the open ball."""
        cut = self.cut()
        return frozenset([v for v, d in zip(self.graph.vertices, self.units) if d < cut])

    @cached_property
    def cut_edges(self) -> list[tuple[Vertex, Vertex, Fraction]]:
        """(inside, outside, crossing fraction) per edge that leaves the ball, sorted."""
        vertices = self.graph.vertices
        # ids follow the vertex order, so sorting by id sorts by vertex
        crossings = sorted(radius_crossings(self.graph, self.units, self.radius))
        return [(vertices[i], vertices[j], t) for i, j, t in crossings]

    @cached_property
    def frontier(self) -> frozenset[Vertex]:
        """The grounded vertices: those off the ball with an edge into it."""
        return frozenset(v for _, v, _ in self.cut_edges)


def units_cut(radius: Fraction, unit: int) -> int:
    """ceil(radius * unit): an integer distance d (in units of 1/unit) has d / unit < radius iff d < it."""
    return -(-radius.numerator * unit // radius.denominator)


def radius_crossings(graph: LevelGraph, units: Sequence[int], radius: Fraction):
    """Edges that leave the open ball {d < radius}, in edge order.

    `units` are the distances from the center in units of 1/graph.unit,
    as `graph._walk` gives them.  Returns (inside id, outside id, t) triples,
    where t = (radius - d_inside) times the conductance is the fraction of
    the edge's resistance that lies inside the ball.  The cells are
    scanned, as both edges of a cell leave its corner q1.
    """
    unit, conds = graph.unit, graph.conds
    cut = units_cut(radius, unit)
    num, den = radius.numerator * unit, radius.denominator
    out = []
    it = iter(graph.corners)
    for a, q1, q2, q3 in zip(graph.s0_digits, it, it, it):
        inside = units[q1] < cut
        for j in (q2, q3):
            if (units[j] < cut) != inside:
                i, o = (q1, j) if inside else (j, q1)
                c = conds[a]
                out.append((i, o, Fraction((num - units[i] * den) * c.numerator, den * unit * c.denominator)))
    # back into edge order: by the smaller end's id, then the larger's
    out.sort(key=lambda e: (e[0], e[1]) if e[0] < e[1] else (e[1], e[0]))
    return out


def ball(graph: LevelGraph, center: Vertex, radius: Fraction) -> BallRegion:
    """Open metric ball: interior at distance < radius, grounded frontier at >= radius."""
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = canonicalize(*center)
    return BallRegion(graph, center, radius, graph._walk(graph.vertex_id(center))[0])


def ball_graph(n: int, level: int) -> LevelGraph:
    """Subgraph covering B(q0, 2^-n) at the given level, s0 = 1/2 (much smaller than the full graph)."""
    if n < 1:
        raise ValueError("ball index n must be >= 1")
    if level < n + 1:
        raise ValueError(f"level {level} too small for ball index {n}")
    return build_cells_graph(ball_cell_words(Q0, Fraction(1, 2**n), level), Fraction(1, 2), level)


def schur_trace(graph: Network, keep: Sequence[Vertex]) -> Network:
    """Exact trace of the quadratic form of a tree onto `keep`.

    On a tree the trace is again a tree, fixed by resistance distances:
    rooted at a kept vertex, every other kept vertex v links to its
    nearest kept ancestor u with conductance 1/(d(v) - d(u)).  A vertex
    outside `keep` that separates three kept vertices would be a star
    in the trace, which no tree edge can express, so it is refused.
    The kept vertices keep their relative id order, and the graph's unit.
    """
    kept = sorted({graph.vertex_id(v) for v in keep})
    if len(kept) < 2:
        raise ValueError("need at least two kept vertices")
    if len(graph.nbrs) != 2 * (len(graph.vertices) - 1):
        raise RuntimeError("non-tree structure: the network has a cycle")
    dist, parent = graph._walk(kept[0])
    unit = graph.unit
    is_kept = [False] * len(graph.vertices)
    for i in kept:
        is_kept[i] = True
    crossed = [False] * len(graph.vertices)
    new_id = {i: k for k, i in enumerate(kept)}
    links: dict[tuple[int, int], Fraction] = {}
    for i in kept[1:]:
        u = parent[i]
        while not is_kept[u]:
            if crossed[u]:
                raise RuntimeError(f"non-tree structure: could not eliminate {graph.vertices[u]!r}")
            crossed[u] = True
            u = parent[u]
        links[new_id[u], new_id[i]] = Fraction(unit, dist[i] - dist[u])
    vertices = [graph.vertices[i] for i in kept]
    index = {v: k for k, v in enumerate(vertices)}
    return Network._of_conductances(vertices, index, links, unit)


def resistance_distance(graph: Network, u: Vertex, v: Vertex) -> Fraction:
    """Sum of edge resistances along the unique tree path (= effective resistance)."""
    return Fraction(graph._walk(graph.vertex_id(u))[0][graph.vertex_id(v)], graph.unit)
