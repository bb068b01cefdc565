"""Exact and floating Dirichlet solves on tree networks.

The solver is a tree elimination in two steps.  The tree step links each
free vertex to its parent and sums its pinned neighbours: on a general
network one breadth-first pass reads each free vertex's edges once, and a
ball problem reads the tree its region's walk already built (`ball_tree`),
summing its boundary values by id.  A pinned id may then have free
neighbours other than its parent: the source of an exact
`equilibrium_on_ball` is pinned inside the ball, and its children in the
walk are roots (`_source_tree`).  The sweep, one piece of code for both
trees, expresses every free vertex backward as an affine function of its
parent, then substitutes values forward.  Exact mode runs the sweep on
Python ints, scaled once, and returns the energy minimiser exactly, so its
values do not depend on the tree; float mode runs the same algorithm in
double precision, whose sums depend on the tree's order.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Optional

from .addressing import Vertex, canonicalize, vertex_str
from .network import BallRegion, Network


@dataclass
class VertexFunction:
    """Values on every vertex of a network, indexed by vertex id."""

    graph: Network
    values: list
    mode: str = "exact"

    def __getitem__(self, v: Vertex):
        return self.values[self.graph.vertex_id(v)]


def _cond_numbers(graph: Network, mode: str) -> Sequence:
    """The conductance of each half-edge kind, as a Fraction in exact mode and a float in float mode."""
    return graph.conds if mode == "exact" else [float(c) for c in graph.conds]


@dataclass(frozen=True)
class ById:
    """Values keyed by vertex id, held for the ids that have one: the sparse form of a
    sequence with one value per id."""

    values: Mapping[int, object]

    def __bool__(self) -> bool:
        return bool(self.values)


def _by_id(graph: Network, data: Mapping[Vertex, object] | Sequence | ById) -> Iterable[tuple[int, object]]:
    """The (id, value) pairs of a label mapping, of a `ById`, or of a sequence with one value per id."""
    if isinstance(data, ById):
        return data.values.items()
    if isinstance(data, Mapping):
        return [(graph.vertex_id(v), x) for v, x in data.items()]
    if len(data) != len(graph.vertices):
        raise ValueError(f"a per-id sequence needs {len(graph.vertices)} entries, got {len(data)}")
    return enumerate(data)


class Tree(NamedTuple):
    """The elimination tree of a Dirichlet problem whose pinned set is known beforehand.

    `order` lists the free ids, each after its parent; `parent[i]` is the
    parent of id i (-1 at a root) and `parent_kind[i]` the kind of the
    half-edge between them, both indexed by id.  Every id not in `order`
    is pinned, and `pinned` lists them.  `boundary` lists the edges
    between a pinned and a free id as (pinned id, free id, kind) triples,
    in the order their values are summed.  A pinned id may have a free
    neighbour other than its parent: a root's pinned neighbour, as in
    `_source_tree`.  `ball_tree` reads a tree off a ball region.
    """

    order: Sequence[int]
    parent: Sequence[int]
    parent_kind: Sequence[int]
    boundary: Sequence[tuple[int, int, int]]
    pinned: Sequence[int]


def ball_tree(region: BallRegion) -> Tree:
    """The tree of a ball problem, read off the region's walk: the ids inside the ball, in
    walk order from the center, are free, and every id off the ball is pinned.

    The boundary edges are those from each frontier id to its parent, by ascending frontier id.
    """
    order, k, parent, kind = region.order, region.n_inside, region.parent, region.parent_kind
    boundary = [(j, parent[j], kind[j]) for j in region.frontier_ids]
    return Tree(order[:k], parent, kind, boundary, order[k:])


def _source_tree(region: BallRegion, x: int) -> Tree:
    """The tree of the equilibrium problem at the interior id x, read off the region's walk.

    The ids inside the ball but x are free, in walk order; x and every id
    off the ball are pinned.  The children of x inside the ball become
    roots, each with x as a pinned neighbour, and x's parent, when x is
    not the center, has x as one.
    """
    graph, kind, cut, units, k = region.graph, region.parent_kind, region.cut(), region.units, region.n_inside
    parent = region.parent[:]
    order = region.order[:k]
    order.remove(x)
    boundary = [(j, parent[j], kind[j]) for j in region.frontier_ids if parent[j] != x]
    if parent[x] >= 0:
        boundary.append((x, parent[x], kind[x]))
    for h in range(graph.offsets[x], graph.offsets[x + 1]):
        c = graph.nbrs[h]
        if parent[c] == x and units[c] < cut:
            parent[c] = -1
            boundary.append((x, c, kind[c]))
    pinned = region.order[k:]
    pinned.append(x)
    return Tree(order, parent, kind, boundary, pinned)


def _bfs_tree(graph: Network, conds: Sequence, data: Mapping[int, object], carries: list, zero):
    """The breadth-first tree of the free vertices, and the pinned sums of each free id.

    `order` doubles as the queue; a parent of None marks a vertex not yet
    reached, -1 a root, which is the lowest free id of its component.
    Cycles through pinned vertices are fine: pinned values are Dirichlet
    data.  The sums map a free id to (sum of c, sum of c * value) over its
    pinned neighbours, by ascending neighbour id.
    """
    from array import array  # a local import: see network.build_cells_graph

    n = len(graph.offsets) - 1
    parent: list = [None] * n
    parent_kind = array(graph.kind.typecode, [0]) * n
    pinned_sums = {}
    no_pins = zero, zero
    offsets, nbrs, kind = graph.offsets, graph.nbrs, graph.kind
    order, k = [], 0
    for start in range(n):
        if parent[start] is not None or start in data:
            continue
        parent[start] = -1
        order.append(start)
        while k < len(order):
            i = order[k]
            k += 1
            for h in range(offsets[i], offsets[i + 1]):
                j = nbrs[h]
                if j in data:
                    cc = conds[kind[h]]
                    pinned_c, pinned_b = pinned_sums.get(i, no_pins)
                    pinned_sums[i] = pinned_c + cc, pinned_b + cc * data[j]
                    carries[i] = True
                elif parent[j] is None:
                    parent[j] = i
                    parent_kind[j] = kind[h]
                    order.append(j)
                elif j != parent[i]:
                    raise RuntimeError("free subgraph contains a cycle")
    return order, parent, parent_kind, pinned_sums


def _boundary_sums(tree: Tree, conds: Sequence, data: Mapping[int, object], carries: list, zero):
    """The pinned sums of a given tree: each boundary edge adds to its free end's, in list order."""
    pinned_sums = {}
    no_pins = zero, zero
    for j, i, k in tree.boundary:
        cc = conds[k]
        pinned_c, pinned_b = pinned_sums.get(i, no_pins)
        pinned_sums[i] = pinned_c + cc, pinned_b + cc * data.get(j, zero)
        carries[i] = True
    return pinned_sums


def solve_dirichlet(
    graph: Network,
    pinned: Mapping[Vertex, object] | Sequence | ById,
    masses: Optional[Mapping[Vertex, object] | Sequence | ById] = None,
    mode: str = "exact",
    tree: Optional[Tree] = None,
) -> VertexFunction:
    """Energy minimiser among functions with the pinned values.

    At every free vertex the solution satisfies the weighted-mean
    property, shifted by the vertex mass when `masses` is given (discrete
    Green problems).  Pinning every vertex returns the pinned data.
    `pinned` and `masses` map labels to values, hold one value per vertex
    id, or are a `ById`; a value of None pins nothing or loads nothing.

    The solve is a tree step and a sweep.  Without a `tree` the tree step
    is a breadth-first pass over the free vertices.  With one, the
    vertices outside `tree.order` are the pinned set, `pinned` gives their
    values (0 where unset; an entry at a free vertex is ignored), and the
    tree step only sums the values across `tree.boundary`.
    """
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    exact = mode == "exact"
    number, zero = (Fraction, 0) if exact else (float, 0.0)
    pin = {i: number(val) for i, val in _by_id(graph, pinned) if val is not None}
    if not (pin if tree is None else tree.pinned):
        raise ValueError("constraints must pin at least one vertex")
    n = len(graph.vertices)
    load = [zero] * n
    # a vertex carries current when it has a load, a pinned neighbour or a
    # child that carries current; one that does not is the exact case
    # alpha = 1, beta = 0 and simply takes its parent's value
    carries = [False] * n
    if masses:
        for i, m in _by_id(graph, masses):
            if m is not None:
                load[i] += number(m)
                carries[i] = True
    if exact:
        # in integers: with M the lcm of the conductance denominators and K that of the
        # pin and load denominators, K u solves for conductances c M, pins v K, loads m K M
        m_unit = lcm(*(c.denominator for c in graph.conds))
        loaded = (m.denominator for m in load if m) if masses else ()
        k_unit = lcm(*(v.denominator for v in pin.values()), *loaded)
        conds = [c.numerator * (m_unit // c.denominator) for c in graph.conds]
        data = {i: v.numerator * (k_unit // v.denominator) for i, v in pin.items()}
        load = [m.numerator * (k_unit // m.denominator) * m_unit for m in load] if masses else load
    else:
        conds, data = _cond_numbers(graph, mode), pin
    if tree is None:
        order, parent, parent_kind, pinned_sums = _bfs_tree(graph, conds, data, carries, zero)
        pinned_ids = pin
    else:
        order, parent, parent_kind = tree.order, tree.parent, tree.parent_kind
        pinned_sums = _boundary_sums(tree, conds, data, carries, zero)
        pinned_ids = tree.pinned
    if exact:
        values = _exact_sweep(n, order, parent, parent_kind, conds, pinned_sums, carries, load, k_unit)
    else:
        values = _float_sweep(n, order, parent, parent_kind, conds, pinned_sums, carries, load)
    # the pins, which no sweep reads: the parent of a free vertex is free
    unset = number(0)
    for i in pinned_ids:
        values[i] = pin.get(i, unset)
    return VertexFunction(graph, values, mode)


def _exact_sweep(n, order, parent, parent_kind, conds, pinned_sums, carries, load, k_unit) -> list:
    """The tree elimination in ints; returns each free vertex's value, as a `Fraction`, by id.

    A carrying i ends the backward sweep with alpha = a / d, beta = b / d as
    alpha[i], beta[i], den[i]; until then they hold its children's sums of
    k (1 - alpha) and k beta over den[i], plus its load (`load` is `beta`).
    """
    alpha, beta, den = [0] * n, load, [1] * n
    no_pins = 0, 0
    for i in reversed(order):
        p = parent[i]
        if p >= 0 and not carries[i]:
            continue
        pinned_c, pinned_b = pinned_sums.get(i, no_pins)
        pc, s = conds[parent_kind[i]] if p >= 0 else 0, den[i]
        a, b, d = pc * s, beta[i] + pinned_b * s, alpha[i] + (pinned_c + pc) * s
        if d == 0:
            raise RuntimeError("floating component without pinned vertex")
        g = gcd(a, b, d)
        alpha[i], beta[i], den[i] = a, b, d = a // g, b // g, d // g
        if p >= 0:
            carries[p] = True
            s, g = den[p], gcd(den[p], d)
            alpha[p] = alpha[p] * (d // g) + pc * (d - a) * (s // g)
            beta[p] = beta[p] * (d // g) + pc * b * (s // g)
            den[p] = s * (d // g)
    # forward sweep: alpha takes each vertex's value u = (a u(p) K + b) / (d K), a
    # parent's before its children's, as one Fraction (u(p) = 0 at a root)
    for i in order:
        p = parent[i]
        if p >= 0 and not carries[i]:
            alpha[i] = alpha[p]
        else:
            up, e = (alpha[p].numerator, alpha[p].denominator) if p >= 0 else (0, 1)
            alpha[i] = Fraction(alpha[i] * up * k_unit + beta[i] * e, den[i] * k_unit * e)
    return alpha


def _float_sweep(n, order, parent, parent_kind, conds, pinned_sums, carries, load) -> list:
    """The tree elimination in floats; returns each free vertex's value by id.

    The backward sweep writes each carrying vertex as an affine function of
    its parent; until it reaches i, alpha[i] and beta[i] hold the sums of
    k (1 - alpha) and k beta over i's processed children.
    """
    alpha, beta = [0.0] * n, [0.0] * n
    no_pins = 0.0, 0.0
    for i in reversed(order):
        p = parent[i]
        if p >= 0 and not carries[i]:
            continue
        pinned_c, pinned_b = pinned_sums.get(i, no_pins)
        pc = conds[parent_kind[i]] if p >= 0 else 0.0
        denom = alpha[i] + pinned_c + pc
        if denom == 0:
            raise RuntimeError("floating component without pinned vertex")
        alpha[i] = pc / denom
        beta[i] = (beta[i] + pinned_b + load[i]) / denom
        if p >= 0:
            carries[p] = True
            alpha[p] += pc * (1.0 - alpha[i])
            beta[p] += pc * beta[i]

    # forward sweep: beta takes each vertex's value, a parent's before its
    # children's (a root's beta is its value already)
    for i in order:
        p = parent[i]
        if p >= 0 and carries[i]:
            beta[i] = alpha[i] * beta[p] + beta[i]
        elif p >= 0:
            # equals the parent's 1 * x + 0: a free parent's value comes
            # from beta, whose sums start at +0, so it is never -0.0
            beta[i] = beta[p]
    return beta


def dirichlet_energy(f: VertexFunction):
    """Sum over edges of conductance times squared increment, in edge order."""
    graph = f.graph
    conds, offsets, nbrs, kind = _cond_numbers(graph, f.mode), graph.offsets, graph.nbrs, graph.kind
    total = Fraction(0) if f.mode == "exact" else 0.0
    values = f.values
    for i, vi in enumerate(values):
        for h in range(offsets[i], offsets[i + 1]):
            j = nbrs[h]
            if j > i and vi != values[j]:
                du = vi - values[j]
                total += conds[kind[h]] * du * du
    return total


def _pinned_potential(
    graph: Network, pinned: Mapping[Vertex, object] | ById, top: set[int], mode: str, tree: Optional[Tree] = None
):
    """The potential with the 0/1 pins `pinned`, held at 1 on the ids `top`, and 1 / its net current.

    The current out of `top`, the sum of c (1 - u(j)) over the edges that
    leave it, equals the potential's energy (Green's identity).
    """
    u = solve_dirichlet(graph, pinned, mode=mode, tree=tree)
    values = u.values
    conds, offsets, nbrs, kind = _cond_numbers(graph, mode), graph.offsets, graph.nbrs, graph.kind
    current = sum(
        conds[kind[h]] * (1 - values[nbrs[h]])
        for i in top
        for h in range(offsets[i], offsets[i + 1])
        if nbrs[h] not in top
    )
    return u, 1 / current


def _potential(graph: Network, low, high, mode: str):
    """The potential pinned to 0 on the labels `low` and 1 on the labels `high`, and 1 / its net current."""
    pinned = {v: 0 for v in low}
    pinned.update({v: 1 for v in high})
    return _pinned_potential(graph, pinned, {graph.vertex_id(v) for v in high}, mode)


def effective_resistance(graph: Network, a, b, mode: str = "exact"):
    """1 / inf{ E(u) : u = 0 on A, u = 1 on B }."""
    a = {canonicalize(*v) for v in a}
    b = {canonicalize(*v) for v in b}
    if not a or not b:
        raise ValueError("both vertex sets must be nonempty")
    if a & b:
        raise ValueError("vertex sets must be disjoint")
    return _potential(graph, a, b, mode)[1]


def equilibrium_potential(graph: Network, x: Vertex, grounded, mode: str = "exact"):
    """Unit potential at x, zero on the grounded set; returns (psi, R)."""
    x = canonicalize(*x)
    grounded = {canonicalize(*v) for v in grounded}
    if x in grounded:
        raise ValueError("source vertex is grounded")
    return _potential(graph, grounded, [x], mode)


def equilibrium_on_ball(region: BallRegion, x: Vertex, mode: str = "exact"):
    """Unit potential at an interior x, zero on the ball's frontier; returns (psi, R(x, frontier)).

    The values are those of `equilibrium_potential` against the frontier.
    Exact mode solves on the region's walk tree (`_source_tree`) with no
    breadth-first pass: x is pinned to 1 and its children are roots, and
    the frontier and every id beyond it are pinned to 0, the value they
    take when free.  Exact values do not depend on the elimination tree,
    so psi and R are the same Fractions.  Float sums do, so float mode
    grounds the frontier by id and keeps the breadth-first pass of
    `equilibrium_potential`, whose floats it matches bit for bit.  A label
    off the graph or off the ball, or a ball without a frontier, raises
    ValueError.
    """
    graph = region.graph
    x = canonicalize(*x)
    try:
        i = graph.vertex_id(x)
    except KeyError:
        i = None
    if i is None or region.units[i] >= region.cut():
        raise ValueError(f"{vertex_str(x)} is not interior to the ball")
    _require_frontier(region)
    if mode == "exact":
        return _pinned_potential(graph, ById({i: 1}), {i}, mode, tree=_source_tree(region, i))
    pinned = dict.fromkeys(region.frontier_ids, 0)
    pinned[i] = 1
    return _pinned_potential(graph, ById(pinned), {i}, mode)


def _require_frontier(region: BallRegion) -> None:
    """Raise ValueError for a ball without a frontier, on which no potential is grounded."""
    # the graph is connected and the center inside, so the frontier is
    # empty exactly when no vertex lies off the ball
    if region.n_inside == len(region.units):
        raise ValueError("ball has empty frontier; enlarge the level or shrink the radius")


def solve_on_ball(
    region: BallRegion,
    boundary: Mapping[Vertex, object],
    masses: Optional[Mapping[Vertex, object] | Sequence] = None,
    mode: str = "exact",
) -> VertexFunction:
    """Dirichlet problem on an open ball, pinned to `boundary` (0 where unset) off the ball.

    `boundary` labels are read in normal form; one off the graph raises KeyError,
    and an entry on the ball pins nothing.  `masses` is a label mapping or a
    per-id sequence, as `solve_dirichlet` takes it.  The solve runs on the
    region's own tree (`ball_tree`), with no breadth-first pass of its own.
    """
    return solve_dirichlet(region.graph, boundary, masses, mode=mode, tree=ball_tree(region))


def green_g1(
    region: BallRegion,
    masses: Mapping[Vertex, object] | Sequence,
    mode: str = "exact",
) -> VertexFunction:
    """Discrete Green problem on a ball: zero on the frontier, Laplacian = mass inside.

    `masses` is a label mapping or a per-id sequence, as `solve_dirichlet` takes it.
    """
    cut, units, graph = region.cut(), region.units, region.graph
    try:
        loads = _by_id(graph, masses)
    except KeyError as exc:  # a label off the graph
        raise ValueError(f"mass on non-interior vertex: {exc.args[0]}") from None
    for i, m in loads:
        if m is not None and units[i] >= cut:
            raise ValueError(f"mass on non-interior vertex {vertex_str(graph.vertices[i])}")
    if isinstance(masses, Mapping):  # handed on by id, so each label is resolved once
        masses = [None] * len(units)
        for i, m in loads:
            if m is not None:  # two labels of one vertex add, as in solve_dirichlet
                masses[i] = m if masses[i] is None else masses[i] + m
    _require_frontier(region)
    return solve_on_ball(region, {}, masses=masses, mode=mode)
