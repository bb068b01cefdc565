"""Exact and floating Dirichlet solves on tree networks.

The solver is a tree elimination: one breadth-first pass reads each free
vertex's edges once, linking it to its parent and summing its pinned
neighbours; a backward sweep expresses every free vertex as an affine
function of its parent, a forward sweep substitutes values.  Exact mode
runs them on Python ints, scaled once, and returns the energy minimiser
exactly; float mode runs the same algorithm in double precision.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional

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


def _by_id(graph: Network, data: Mapping[Vertex, object] | Sequence) -> Iterable[tuple[int, object]]:
    """The (id, value) pairs of a label mapping, or of a sequence with one value per id."""
    if isinstance(data, Mapping):
        return [(graph.vertex_id(v), x) for v, x in data.items()]
    if len(data) != len(graph.vertices):
        raise ValueError(f"a per-id sequence needs {len(graph.vertices)} entries, got {len(data)}")
    return enumerate(data)


def solve_dirichlet(
    graph: Network,
    pinned: Mapping[Vertex, object] | Sequence,
    masses: Optional[Mapping[Vertex, object] | Sequence] = None,
    mode: str = "exact",
) -> VertexFunction:
    """Energy minimiser among functions with the pinned values.

    At every free vertex the solution satisfies the weighted-mean
    property, shifted by the vertex mass when `masses` is given (discrete
    Green problems).  Pinning every vertex returns the pinned data.
    `pinned` and `masses` map labels to values, or hold one value per
    vertex id; a value of None pins nothing or loads nothing.
    """
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    exact = mode == "exact"
    number, zero = (Fraction, 0) if exact else (float, 0.0)
    pin = {i: number(val) for i, val in _by_id(graph, pinned) if val is not None}
    if not pin:
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

    # breadth-first over the free subgraph, `order` doubling as the queue; a
    # parent of None marks a vertex not yet reached, -1 a root.  Cycles through
    # pinned vertices are fine: pinned values are Dirichlet data.
    parent: list = [None] * n
    parent_cond = [zero] * n
    pinned_sums = {}  # free id -> (sum of c, sum of c * value) over its pinned neighbours
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
                    parent_cond[j] = conds[kind[h]]
                    order.append(j)
                elif j != parent[i]:
                    raise RuntimeError("free subgraph contains a cycle")

    if exact:
        # backward sweep in ints: a carrying i ends with alpha = a / d, beta = b / d as alpha[i], beta[i],
        # den[i]; until then they hold its children's sums of k (1 - alpha) and k beta over den[i], plus its load
        alpha, beta, den = [0] * n, load, [1] * n
        for i in reversed(order):
            p = parent[i]
            if p >= 0 and not carries[i]:
                continue
            pinned_c, pinned_b = pinned_sums.get(i, no_pins)
            pc, s = parent_cond[i], den[i]
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
        for i, val in pin.items():
            alpha[i] = val
        for i in order:
            p = parent[i]
            if p >= 0 and not carries[i]:
                alpha[i] = alpha[p]
            else:
                up, e = (alpha[p].numerator, alpha[p].denominator) if p >= 0 else (0, 1)
                alpha[i] = Fraction(alpha[i] * up * k_unit + beta[i] * e, den[i] * k_unit * e)
        return VertexFunction(graph, alpha, mode)

    # float backward sweep: each carrying vertex as an affine function of its
    # parent; until the sweep reaches i, alpha[i] and beta[i] hold the sums
    # of k (1 - alpha) and k beta over i's processed children
    alpha, beta = [0.0] * n, [0.0] * n
    for i in reversed(order):
        p = parent[i]
        if p >= 0 and not carries[i]:
            continue
        pinned_c, pinned_b = pinned_sums.get(i, no_pins)
        pc = parent_cond[i]  # zero at a root
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
    for i, val in pin.items():
        beta[i] = val
    for i in order:
        p = parent[i]
        if p >= 0 and carries[i]:
            beta[i] = alpha[i] * beta[p] + beta[i]
        elif p >= 0:
            # equals the parent's 1 * x + 0: a free parent's value comes
            # from beta, whose sums start at +0, so it is never -0.0
            beta[i] = beta[p]
    return VertexFunction(graph, beta, mode)


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


def _potential(graph: Network, low, high, mode: str):
    """The potential pinned to 0 on `low` and 1 on `high`, and 1 / its net current.

    The current out of `high`, the sum of c (1 - u(j)) over the edges that
    leave it, equals the potential's energy (Green's identity).
    """
    pinned = {v: 0 for v in low}
    pinned.update({v: 1 for v in high})
    u = solve_dirichlet(graph, pinned, mode=mode)
    top, values = {graph.vertex_id(v) for v in high}, u.values
    conds, offsets, nbrs, kind = _cond_numbers(graph, mode), graph.offsets, graph.nbrs, graph.kind
    current = sum(
        conds[kind[h]] * (1 - values[nbrs[h]])
        for i in top
        for h in range(offsets[i], offsets[i + 1])
        if nbrs[h] not in top
    )
    return u, 1 / current


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


def solve_on_ball(
    region: BallRegion,
    boundary: Mapping[Vertex, object],
    masses: Optional[Mapping[Vertex, object] | Sequence] = None,
    mode: str = "exact",
) -> VertexFunction:
    """Dirichlet problem on an open ball, pinned to `boundary` (0 where unset) off the ball.

    `boundary` labels are read in normal form; one off the graph raises KeyError.
    `masses` is a label mapping or a per-id sequence, as `solve_dirichlet` takes it.
    """
    cut, units, graph = region.cut(), region.units, region.graph
    # the vertices off the ball lie at integer distance >= cut; an entry of
    # `boundary` on the ball pins nothing
    pinned = [0 if d >= cut else None for d in units]
    for v, val in boundary.items():
        i = graph.vertex_id(v)
        if units[i] >= cut:
            pinned[i] = val
    return solve_dirichlet(graph, pinned, masses=masses, mode=mode)


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
    # the graph is connected and the center inside, so the frontier is
    # empty exactly when no vertex lies off the ball
    if max(units) < cut:
        raise ValueError("ball has empty frontier; enlarge the level or shrink the radius")
    return solve_on_ball(region, {}, masses=masses, mode=mode)
