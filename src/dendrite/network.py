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
from bisect import bisect_left
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction
from itertools import accumulate, chain
from math import lcm
from typing import Iterable, Optional

from .addressing import Q0, Vertex, canonicalize, check_word, in_cell, vertex_str, words_of_length
from .metric import Metric


class CapacityError(Exception):
    """Requested level exceeds the configured maximum or the full-graph limit."""


def _pack(n: int, links: Mapping[tuple[int, int], object]):
    """Half-edge arrays (offsets, nbrs, kind) of ids 0..n-1 for the edges i-j of `links`, and its distinct values.

    Kind k is the k-th distinct value by first appearance.  Each edge gives two integer
    keys (v n + u) kinds + kind, one per end v, and one sort of them lists every vertex's
    half-edges by ascending neighbour id u: the sorted (i, j) edge order `Network.edges`
    reads back, and the order that walks and float sums follow.
    """
    from array import array  # a local import: see build_cells_graph

    values: dict = {}
    kind = [values.setdefault(x, len(values)) for x in links.values()]
    kinds = len(values)
    keys = [(i * n + j) * kinds + k for (i, j), k in zip(links, kind)]
    keys += [(j * n + i) * kinds + k for (i, j), k in zip(links, kind)]
    keys.sort()
    degree = Counter(i for i, _ in links)
    degree.update(j for _, j in links)
    offsets = array("i", accumulate(map(degree.__getitem__, range(n)), initial=0))
    nbrs, kind = array("i", [key // kinds % n for key in keys]), array("i", [key % kinds for key in keys])
    return offsets, nbrs, kind, tuple(values)


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
    "GND"; a network made from edges or by a trace stores them as a list
    and a dict.  The edges are stored once, as packed half-edges: the
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
        return cls(vertices, index, *_pack(len(vertices), cond), lcm(*(c.numerator for c in cond.values())))

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

    def _resistances(self) -> list[int]:
        """Each kind's edge resistance in units of 1/unit."""
        out = []
        for cond in self.conds:
            r, rem = divmod(self.unit * cond.denominator, cond.numerator)
            assert not rem, f"resistance 1/{cond} is not a multiple of 1/{self.unit}"
            out.append(r)
        return out

    def _walk(self, s: int) -> tuple[list[int], list[int]]:
        """Tree distances from id s in units of 1/unit (sums of edge resistances) and parent ids (-1 at s)."""
        dist: list = [None] * len(self.vertices)
        parent = [-1] * len(self.vertices)
        dist[s] = 0
        resistance = self._resistances()
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

    def _tree_walk(self, s: int, cut: int):
        """Breadth-first walk of the tree from id s that keeps its tree.

        Returns (dist, parent, order, parent_kind, inside): the tree
        distances in units of 1/unit, a list; the parent ids (-1 at s); the
        ids in walk order; the kind of each id's half-edge to its parent (0
        at s); and the number of ids at distance below `cut`.  The walk
        reaches every id below the cut before any other, so those come first
        in `order`, in breadth-first order from s.  The three per-id tables
        are arrays, so no entry holds an int object of its own.  Keeping them
        makes the walk about 40% slower than `_walk`, so only a ball does.
        """
        from array import array  # a local import: see build_cells_graph

        n = len(self.offsets) - 1
        dist: list = [None] * n
        parent = array("i", [-1]) * n
        parent_kind = array(self.kind.typecode, [0]) * n
        dist[s] = 0
        resistance = self._resistances()
        offsets, nbrs, kind = self.offsets, self.nbrs, self.kind
        # `order` doubles as the queue of the ids below the cut, `rest` as the
        # queue of the others, which is walked once no id below the cut is left
        order, rest = array("i", [s]), array("i")
        below, beyond = order.append, rest.append
        for i in chain(order, rest):
            di = dist[i]
            for h in range(offsets[i], offsets[i + 1]):
                j = nbrs[h]
                if dist[j] is None:
                    k = kind[h]
                    dist[j] = d = di + resistance[k]
                    parent[j] = i
                    parent_kind[j] = k
                    if d < cut:
                        below(j)
                    else:
                        beyond(j)
        inside = len(order)
        order += rest
        assert len(order) == n, "graph is not connected"
        return dist, parent, order, parent_kind, inside

    def distances_from(self, start) -> list[Fraction]:
        """Tree distance (sum of edge resistances) from start to every vertex."""
        unit = self.unit
        return [Fraction(d, unit) for d in self._walk(self.vertex_id(start))[0]]

    def edge_list(self) -> list[tuple[object, object, Fraction]]:
        """The edges as (label, label, conductance) triples, in id order."""
        return [(self.vertices[i], self.vertices[j], c) for i, j, c in self.edges]


class _Labels(Sequence):
    """`LevelGraph.vertices`: the label (names[i], corner[i]) of each id i, made on read."""

    def __init__(self, names: list[str], corner: bytes):
        self._names, self._corner = names, corner

    def __len__(self) -> int:
        return len(self._names)

    def __getitem__(self, i: int) -> Vertex:
        return self._names[i], self._corner[i]

    def __iter__(self):
        return zip(self._names, self._corner)


class _LabelIndex(Mapping):
    """`LevelGraph.index`: a label's id, by bisecting the sorted `names` of its word length's ids."""

    def __init__(self, names: list[str], corner: bytes, starts: Sequence[int]):
        self._names, self._corner, self._starts = names, corner, starts

    def __getitem__(self, v) -> int:
        hash(v)  # an unhashable label raises TypeError, as in a dict
        if isinstance(v, tuple) and len(v) == 2 and isinstance(v[0], str) and len(v[0]) + 1 < len(self._starts):
            names, (word, c) = self._names, v
            hi = self._starts[len(word) + 1]
            i = bisect_left(names, word, self._starts[len(word)], hi)
            while i < hi and names[i] == word:  # a word's ids list its corners in order
                if self._corner[i] == c:
                    return i
                i += 1
        raise KeyError(v)

    def __len__(self) -> int:
        return len(self._names)

    def __iter__(self):
        return zip(self._names, self._corner)


@dataclass
class LevelGraph(Network):
    """Tree network of level-L cells, two edges per cell.

    Cell k is `words[k]`, the level-L words in sorted order: a shorter
    word given to `build_cells_graph` stands for all of its level-L
    subcells, and each of them is listed.  The corners F_w(q1), F_w(q2),
    F_w(q3) of cell k are the vertex ids `corners[3k:3k+3]`, and
    `s0_digits[k]` counts the digits of its word in {0,1}, which fixes
    its conductance and its measure.  Its edges q1-q2 and q1-q3 are the
    half-edges of kind a = `s0_digits[k]`, one byte each, and `conds[a]`
    = s0^-a (1-s0)^-(L-a) for a = 0..L.  The unit is q^L for s0 = p/q.

    Vertex ids follow the order (word length, word, corner); those of
    word length l run from `starts[l]` to `starts[l + 1]`.  Id i stores
    its word `names[i]` (of length L, its cell's string in `words`) and
    its corner byte `corner[i]`, and `vertices` and `index` are read-only
    views of them, as `adj` and `edges` are of the half-edges.
    """

    vertices: Sequence = field(init=False, repr=False, compare=False)
    index: Mapping = field(init=False, repr=False, compare=False)
    level: int
    s0: Fraction
    words: tuple[str, ...]
    corners: Sequence[int]
    s0_digits: bytes
    names: list[str]
    corner: bytes
    starts: list[int]

    def __post_init__(self):
        self.vertices = _Labels(self.names, self.corner)
        self.index = _LabelIndex(self.names, self.corner, self.starts)

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


@dataclass
class _Template:
    """The graph of all level-`depth` cells under one root word, labelled relative to it.

    Ids follow the order (word length, word, corner): ids 0-2 are the
    root's corners ("", 1), ("", 2), ("", 3), and the ids of label length
    l run from `starts[l]` to `starts[l + 1]`.  `corner` holds each id's
    corner and `names` the word of each id below `starts[depth]`; the last
    block's words are the cell words, so it is kept as cell numbers in `top`.
    The half-edge arrays, `corners` and `digits` are a `LevelGraph`'s,
    with kinds and digit counts relative to the root; `degree` holds each
    id's half-edge count, and `corner_edges` the (id, neighbour, kind) of
    the corners' half-edges.  `listed` holds (id, m) per interior id with
    m >= 2 of the corners as neighbours: the only half-edge lists that a
    stamp can put out of order.
    """

    depth: int
    names: list[str]
    top: list[int]
    corner: bytes
    starts: list[int]
    offsets: Sequence[int]
    nbrs: Sequence[int]
    kind: bytes
    degree: Sequence[int]
    corners: Sequence[int]
    digits: bytes
    corner_edges: list[tuple[int, int, int]]
    listed: list[tuple[int, int]]


def _stamp(stamps: list[tuple[str, _Template]], cells: Optional[list[str]]):
    """The graph of the cells under the sorted, disjoint words p of `stamps`, each with its template.

    A stamp relabels its template's vertex (x, c) as (p x, c), which is in
    normal form for a nonempty x; its corners ("", c) become the normal
    forms of F_p(q_c), the junctions where stamps meet.  A template's
    block of length l lands at length |p| + l, in one piece, and within a
    length the pieces of different stamps come in word order, so ids come
    from sorting one key per piece and junction, not per vertex.  An
    interior vertex keeps its half-edge order, but for its neighbours
    among the stamp's corners (`_Template.listed`); a junction's
    half-edges are gathered from every stamp that touches it and sorted.
    Kinds and digit counts add the digits of p in {0,1}.

    With `cells`, the words of all cells stamp after stamp, the names of
    the top length are the cell words, sharing the cell's string; with
    None they are `_Template.top` cell numbers.  Returns the names, the top
    cell numbers, the corner bytes, the length starts, offsets, nbrs, kind,
    degree, corners and digits.
    """
    from array import array  # a local import: see build_cells_graph

    pieces: dict[tuple, object] = {}  # sort key -> junction label, or stamp number for a block
    junctions = []
    top = 0
    for s, (p, t) in enumerate(stamps):
        # the normal forms of F_p(q1), F_p(q2), F_p(q3), by `canonicalize`'s
        # rule: strip the digits that fix the corner, then rewrite
        # F_{k0}(q2) = F_{k2}(q1) and F_{k1}(q3) = F_{k3}(q1)
        t2, t3 = p.rstrip("2"), p.rstrip("3")
        corner_labels = (
            (p.rstrip("01"), 1),
            (t2[:-1] + "2", 1) if t2.endswith("0") else (t2, 2),
            (t3[:-1] + "3", 1) if t3.endswith("1") else (t3, 3),
        )
        junctions.append(corner_labels)
        for v in corner_labels:
            pieces[len(v[0]), v[0], v[1]] = v
        # a block's words extend p, and a junction's do not, so (length, p) sorts
        # the whole block against every junction and every other block
        for length in range(len(p) + 1, len(p) + t.depth + 1):
            pieces[length, p] = s
        top = max(top, len(p) + t.depth)
    order = sorted(pieces)

    first: dict[tuple, int] = {}  # sort key -> the first id of its piece
    starts: list[int] = []
    n = 0
    for key in order:
        starts += [n] * (key[0] + 1 - len(starts))
        first[key] = n
        if len(key) == 3:
            n += 1
        else:
            p, t = stamps[pieces[key]]
            b = key[0] - len(p)
            n += t.starts[b + 1] - t.starts[b]
    starts.append(n)

    tables = []  # per stamp, the id of each template id
    shifts: list[bytes] = []
    # per digit count a <= top in {0,1}: the `bytes.translate` table that adds a to a kind
    shift_by = [bytes(range(a, 256)) + bytes(a) for a in range(top + 1)]
    jkeys: list[int] = []  # the junctions' half-edges, as (id n + neighbour) << 8 | kind
    corners: list[int] = []
    digits = []
    for s, (p, t) in enumerate(stamps):
        table = [first[len(w), w, c] for w, c in junctions[s]]
        for b in range(1, t.depth + 1):
            i = first[len(p) + b, p]
            table += range(i, i + t.starts[b + 1] - t.starts[b])
        tables.append(table)
        shift = shift_by[p.count("0") + p.count("1")]
        shifts.append(shift)
        jkeys += [(table[i] * n + table[j]) << 8 | shift[k] for i, j, k in t.corner_edges]
        corners += [table[j] for j in t.corners]
        digits.append(t.digits.translate(shift))
    jkeys.sort()
    jdegree = Counter([(key >> 8) // n for key in jkeys])
    jnbrs = [(key >> 8) % n for key in jkeys]
    jkind = bytes([key & 255 for key in jkeys])

    names: list[str] = []
    top_cells: list[int] = []
    corner = bytearray()
    cell_base = list(accumulate((len(t.digits) for _, t in stamps), initial=0))
    nbrs: list[int] = []
    kind, degree = bytearray(), array("i")
    i = done = waiting = 0  # the next id; the junction half-edges placed, and those still to place
    for key in order:
        piece = pieces[key]
        if len(key) == 3:
            if cells is None and key[0] == top:  # in a template, a word of the top length is cell k, its base-4 value
                top_cells.append(int(piece[0], 4))
            else:
                names.append(piece[0])
            corner.append(piece[1])
            degree.append(jdegree[i])
            waiting += jdegree[i]
            i += 1
            continue
        # the half-edges of the junctions since the last block, then the block's
        nbrs += jnbrs[done : done + waiting]
        kind += jkind[done : done + waiting]
        done, waiting = done + waiting, 0
        p, t = stamps[piece]
        b = key[0] - len(p)
        lo, hi = t.starts[b], t.starts[b + 1]
        if b < t.depth:
            names += [p + x for x in t.names[lo:hi]]
        elif cells is None:
            base = cell_base[piece]
            top_cells += [k + base for k in t.top]
        else:
            base = cell_base[piece]
            names += [cells[base + k] for k in t.top]
        corner += t.corner[lo:hi]
        ha, hb = t.offsets[lo], t.offsets[hi]
        table = tables[piece]
        nbrs += [table[j] for j in t.nbrs[ha:hb]]
        kind += t.kind[ha:hb].translate(shifts[piece])
        degree += t.degree[lo:hi]
        i += hi - lo
    nbrs += jnbrs[done:]
    kind += jkind[done:]
    offsets = array("i", accumulate(degree, initial=0))

    # the listed vertices' neighbours among the corners, back into id order
    # where the stamp's corners are not
    for (_, t), table in zip(stamps, tables):
        if table[0] < table[1] < table[2]:
            continue
        for v, m in t.listed:
            h = offsets[table[v]]
            pairs = sorted(zip(nbrs[h : h + m], kind[h : h + m]))
            nbrs[h : h + m] = [j for j, _ in pairs]
            kind[h : h + m] = bytes([k for _, k in pairs])
    return (names, top_cells, bytes(corner), starts, offsets, array("i", nbrs), bytes(kind), degree,
            array("i", corners), b"".join(digits))


@cache
def _template(depth: int) -> _Template:
    """T_depth: T_0 is one cell, and T_d is T_(d-1) stamped at 0, 1, 2 and 3.

    A template depends on its depth alone, not on s0 or on the level of
    the graph it is stamped into, so each is built once and kept for the
    life of the process, and every build shares it: `_stamp` only reads
    it.  The cache holds one template per depth up to the deepest one
    stamped; a build that stamps T_d holds at least four copies of it,
    and T_0 .. T_d hold about 4/3 of T_d's bytes, so the cache keeps
    about a third of the bytes of the largest graph built.
    """
    from array import array  # a local import: see build_cells_graph

    if depth == 0:
        # one cell: its q1 (id 0) is joined to its q2 and q3 by edges of kind 0
        edges = [(0, 1, 0), (0, 2, 0), (1, 0, 0), (2, 0, 0)]
        return _Template(0, [], [0, 0, 0], bytes([1, 2, 3]), [0, 3], array("i", [0, 2, 3, 4]),
                         array("i", [1, 2, 0, 0]), bytes(4), array("i", [2, 1, 1]), array("i", [0, 1, 2]), bytes(1),
                         edges, [])
    names, top, corner, starts, offsets, nbrs, kind, degree, corners, digits = _stamp(
        [(d, _template(depth - 1)) for d in "0123"], None)
    edges = [(i, nbrs[h], kind[h]) for i in range(3) for h in range(offsets[i], offsets[i + 1])]
    # the interior ids next to two or more corners
    hits = Counter(j for _, j, _ in edges if j >= 3)
    listed = [(v, m) for v, m in hits.items() if m >= 2]
    return _Template(depth, names, top, corner, starts, offsets, nbrs, kind, degree, corners, digits, edges, listed)


def _expand(words: Sequence[str], level: int) -> list[str]:
    """The level-`level` cell words under each of `words`, in order."""
    tails = {depth: list(words_of_length(depth)) for depth in sorted({level - len(w) for w in words})}
    return [w + tail for w in words for tail in tails[level - len(w)]]


def build_cells_graph(words: Iterable[str], s0: Fraction, level: int) -> LevelGraph:
    """Graph induced by a set of cells at level `level` (two edges per level cell).

    A word of length at most `level` stands for all of its level-`level`
    subcells, which `words` of the graph lists.  The words are taken
    sorted, duplicates merged, and must be disjoint: no word may extend
    another.  An empty set, a word longer than `level` or two nested
    words raise `ValueError`.

    Four sibling words merge into their parent, and then each word w is
    a stamp of the template of depth `level` - |w| (see `_stamp`); the
    words of the greatest depth are split into their four children, so
    the largest template is never built only to be stamped once.  Each
    template is built once per process and kept (`_template`), since it
    depends on its depth alone: one per depth, so T_0 .. T_(L-1) after a
    full level-L build, about a third of that graph's bytes (0.74 MB
    against 2.36 MB at L = 7, tracemalloc).
    """
    s0 = Fraction(s0)
    if not 0 < s0 < 1:
        raise ValueError("s0 must lie strictly between 0 and 1")
    if level > 255:
        raise CapacityError(f"cell graphs are capped at level 255 (kinds are bytes), got {level}")
    leaves = sorted(set(words))
    if not leaves:
        raise ValueError("the cell set is empty")
    for w in leaves:
        check_word(w)
        if len(w) > level:
            raise ValueError(f"word {w!r} is longer than level {level}")
    for a, b in zip(leaves, leaves[1:]):
        if b.startswith(a):
            raise ValueError(f"words {a!r} and {b!r} are nested: cells must be disjoint")

    # a local import, so that runs that build no network (quadrature,
    # doubling) do not pay the extension module's 0.2 MB of resident memory
    from array import array

    # four sibling words stand for their parent, so each stamp is as large as the set allows;
    # sorted disjoint words list a complete sibling group together
    stamped: list[str] = []
    for w in leaves:
        stamped.append(w)
        while stamped[-1].endswith("3") and stamped[-4:] == [stamped[-1][:-1] + d for d in "0123"]:
            stamped[-4:] = [stamped[-1][:-1]]
    leaves = stamped
    cells = _expand(leaves, level)
    depth = level - min(map(len, leaves))
    stamps, k = [], 0
    for w in leaves:
        for p in [w + d for d in "0123"] if level - len(w) == depth > 0 else [w]:
            e = level - len(p)
            # a single cell stamps its word's string, which its corner labels share where rstrip keeps it
            stamps.append((cells[k] if e == 0 else p, e))
            k += 4**e
    names, _, corner, starts, offsets, nbrs, kind, _, corners, digits = _stamp(
        [(p, _template(e)) for p, e in stamps], cells)
    # cells with a digits in {0,1} share one conductance, of kind a
    conds = tuple(word_conductance("0" * a + "2" * (level - a), s0) for a in range(level + 1))
    return LevelGraph(offsets, nbrs, array("B", kind), conds, s0.denominator**level, level, s0,
                      tuple(cells), corners, digits, names, corner, starts)


def build_level_graph(level: int, s0: Fraction = Fraction(1, 2)) -> LevelGraph:
    """The full level-L network on 2*4^L + 1 vertices: the cells under the empty word."""
    if level < 0:
        raise ValueError("level must be non-negative")
    if level > 9:
        # 4^10 cells is already ~2M vertices; full graphs beyond that are
        # never needed (ball subgraphs and network reductions cover big L)
        raise CapacityError(f"full graphs are capped at level 9, got {level}")
    return build_cells_graph([""], s0, level)


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


def _ball_leaves(center: Vertex, radius: Fraction, level: int) -> list[str]:
    """The cover's cells that meet the open ball B(center, radius) down to `level` (s0 = 1/2), sorted.

    `_BallCover.cells` lists them in chain order; sorted, they are the
    disjoint words that `build_cells_graph` takes.
    """
    # fold to the leaves' word suffixes, so the memo holds no words; a
    # leaf's word length is its depth
    cells = _BallCover(center, radius, level, _half_metric()).fold(
        lambda depth, inside: [""],
        lambda kids: [digit + suffix for digit, _, below in kids for suffix in below],
    )
    return sorted(word + suffix for word, _, below in cells for suffix in below)


def ball_cell_words(center: Vertex, radius: Fraction, level: int) -> list[str]:
    """Level-`level` cells that meet the open ball B(center, radius) (s0 = 1/2), sorted."""
    return _expand(_ball_leaves(center, radius, level), level)


@dataclass
class BallRegion:
    """Interior/frontier split of a metric ball on a level graph.

    It is stored once, as the graph's breadth-first walk from the center:
    the vertex with id i lies at `units[i] / graph.unit` from it, and
    inside the ball when `units[i] < cut()`.  The walk's tree is kept in
    arrays: `order` lists the ids, the `n_inside` ids inside the ball
    first, each after its parent; `parent[i]` is the parent of id i (-1 at
    the center) and `parent_kind[i]` the kind of the half-edge between
    them.  The ball is a subtree, so the ids off the ball with a neighbour
    inside (`frontier_ids`) are those whose parent is inside.  `interior`,
    `frontier` and `cut_edges` are label views of it, made on first use.
    """

    graph: LevelGraph
    center: Vertex
    radius: Fraction
    units: list[int]  # distance from the center in units of 1/graph.unit, indexed by vertex id
    order: Sequence[int]
    parent: Sequence[int]
    parent_kind: Sequence[int]
    n_inside: int

    def cut(self, radius: Optional[Fraction] = None) -> int:
        """The least integer distance outside the open ball of `radius` (default: the region's)."""
        return units_cut(self.radius if radius is None else Fraction(radius), self.graph.unit)

    @cached_property
    def frontier_ids(self) -> tuple[int, ...]:
        """The ids off the ball with a neighbour inside it, ascending."""
        units, parent, cut = self.units, self.parent, self.cut()
        return tuple(sorted(j for j in self.order[self.n_inside:] if units[parent[j]] < cut))

    @cached_property
    def interior(self) -> frozenset[Vertex]:
        """The vertices inside the open ball."""
        vertices = self.graph.vertices
        return frozenset([vertices[i] for i in self.order[: self.n_inside]])

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
        vertices = self.graph.vertices
        return frozenset([vertices[j] for j in self.frontier_ids])


def units_cut(radius: Fraction, unit: int) -> int:
    """ceil(radius * unit): an integer distance d (in units of 1/unit) has d / unit < radius iff d < it."""
    return -(-radius.numerator * unit // radius.denominator)


def crossing_fraction(graph: Network, radius: Fraction):
    """The cut-edge interpolation: t(d, k), the fraction of an edge of kind k that lies inside
    the open ball of `radius` when its inner end is at distance d / graph.unit from the center.

    t = (radius - d / unit) times the edge's conductance, returned as an
    (numerator, denominator) pair of ints.
    """
    unit = graph.unit
    num, den = radius.numerator * unit, radius.denominator
    terms = [(c.numerator, den * unit * c.denominator) for c in graph.conds]

    def t(d: int, k: int) -> tuple[int, int]:
        a, b = terms[k]
        return (num - d * den) * a, b

    return t


def radius_crossings(graph: LevelGraph, units: Sequence[int], radius: Fraction):
    """Edges that leave the open ball {d < radius}, in edge order.

    `units` are the distances from the center in units of 1/graph.unit,
    as `graph._walk` gives them.  Returns (inside id, outside id, t) triples,
    with t the `crossing_fraction` of the edge as a `Fraction`.  The cells
    are scanned, as both edges of a cell leave its corner q1.
    """
    cut, t = units_cut(radius, graph.unit), crossing_fraction(graph, radius)
    out = []
    it = iter(graph.corners)
    for a, q1, q2, q3 in zip(graph.s0_digits, it, it, it):
        inside = units[q1] < cut
        for j in (q2, q3):
            if (units[j] < cut) != inside:
                i, o = (q1, j) if inside else (j, q1)
                out.append((i, o, Fraction(*t(units[i], a))))
    # back into edge order: by the smaller end's id, then the larger's
    out.sort(key=lambda e: (e[0], e[1]) if e[0] < e[1] else (e[1], e[0]))
    return out


def ball(graph: LevelGraph, center: Vertex, radius: Fraction) -> BallRegion:
    """Open metric ball: interior at distance < radius, grounded frontier at >= radius."""
    radius = Fraction(radius)
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = canonicalize(*center)
    units, parent, order, parent_kind, inside = graph._tree_walk(graph.vertex_id(center), units_cut(radius, graph.unit))
    return BallRegion(graph, center, radius, units, order, parent, parent_kind, inside)


def ball_graph(n: int, level: int) -> LevelGraph:
    """Subgraph covering B(q0, 2^-n) at the given level, s0 = 1/2 (much smaller than the full graph).

    It is built from the ball cover's leaves, each word standing for its
    level subcells, so `words` holds the same level cells as
    `ball_cell_words`.
    """
    if n < 1:
        raise ValueError("ball index n must be >= 1")
    if level < n + 1:
        raise ValueError(f"level {level} too small for ball index {n}")
    return build_cells_graph(_ball_leaves(Q0, Fraction(1, 2**n), level), Fraction(1, 2), level)


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
    links: dict[tuple[int, int], int] = {}  # resistances in units of 1/unit
    for i in kept[1:]:
        u = parent[i]
        while not is_kept[u]:
            if crossed[u]:
                raise RuntimeError(f"non-tree structure: could not eliminate {graph.vertices[u]!r}")
            crossed[u] = True
            u = parent[u]
        links[new_id[u], new_id[i]] = dist[i] - dist[u]
    offsets, nbrs, kind, resistances = _pack(len(kept), links)
    vertices = [graph.vertices[i] for i in kept]
    index = {v: k for k, v in enumerate(vertices)}
    return Network(vertices, index, offsets, nbrs, kind, tuple(Fraction(unit, r) for r in resistances), unit)


def resistance_distance(graph: Network, u: Vertex, v: Vertex) -> Fraction:
    """Sum of edge resistances along the unique tree path (= effective resistance)."""
    return Fraction(graph._walk(graph.vertex_id(u))[0][graph.vertex_id(v)], graph.unit)
