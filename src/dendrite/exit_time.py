"""Resistance to the ball frontier, typical points, and exit-time experiments.

The mean exit time analogue G1 solves the discrete Green problem with the
ball's self-similar mass; the product identity (resistance times the
potential's integral) gives the same quantity with certified bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .addressing import Q0, Vertex, canonicalize, vertex_str
from .dirichlet import VertexFunction, equilibrium_potential, green_g1
from .measure import (
    IntegralBounds,
    WeightVector,
    cell_measure_table,
    classify_region_cells,
    harmonic_weights,
)
from .network import BallRegion, LevelGraph, ball, ball_graph
from .reduction import x_point_word, y_point_word


@dataclass(frozen=True)
class TypicalPoint:
    """Distinguished lattice points in the ball B(q0, 2^-n).

    kind "q0"; "xmk" (upper spine, indices m, k); "yk" (lower branch,
    index k); "xmk_reflected" (word in {2,3}^(k-1) replacing 3^(k-1));
    "yk_reflected" (branch word in {0,1}^(n-1) and tail in {2,3}^k).
    """

    kind: str
    n: int
    m: int = 0
    k: int = 0
    branch: str = ""
    tail: str = ""

    def vertex(self) -> Vertex:
        n = self.n
        if n < 1:
            raise ValueError("ball index n must be >= 1")
        if self.kind == "q0":
            return Q0
        if self.kind == "xmk":
            if self.m < 0 or self.k < 0:
                raise ValueError("indices must be non-negative")
            return canonicalize(x_point_word(n, self.m, self.k), 1)
        if self.kind == "yk":
            if self.k < 1:
                raise ValueError("yk needs k >= 1")
            return canonicalize(y_point_word(n, self.k), 1)
        if self.kind == "xmk_reflected":
            if self.k < 1 or len(self.tail) != self.k - 1 or any(c not in "23" for c in self.tail):
                raise ValueError("tail must lie in {2,3}^(k-1)")
            word = "0" + "2" * (n - 1) + "0" * self.m + "23" + self.tail
            return canonicalize(word, 1)
        if self.kind == "yk_reflected":
            if len(self.branch) != n - 1 or any(c not in "01" for c in self.branch):
                raise ValueError("branch must lie in {0,1}^(n-1)")
            if self.k < 1 or len(self.tail) != self.k or any(c not in "23" for c in self.tail):
                raise ValueError("tail must lie in {2,3}^k")
            return canonicalize("2" + self.branch + self.tail, 1)
        raise ValueError(f"unknown typical point kind {self.kind!r}")


def q0_ball(n: int, level: int, graph: Optional[LevelGraph] = None) -> BallRegion:
    """The ball B(q0, 2^-n) on `graph`, which must have this level, or on a new ball graph."""
    if graph is None:
        graph = ball_graph(n, level)
    elif graph.level != level:
        raise ValueError(f"graph has level {graph.level}, not the requested level {level}")
    return ball(graph, Q0, Fraction(1, 2**n))


def boundary_resistance(
    x: Vertex, n: int, level: int, graph: Optional[LevelGraph] = None, mode: str = "exact"
):
    """Equilibrium potential of x against the frontier of B(q0, 2^-n).

    Returns (region, psi, R).  R decreases in the level toward the
    continuum resistance.
    """
    region = q0_ball(n, level, graph)
    x = canonicalize(*x)
    if x not in region.interior:
        raise ValueError(f"{vertex_str(x)} is not interior to the ball")
    psi, r = equilibrium_potential(region.graph, x, region.frontier, mode=mode)
    return region, psi, r


@dataclass
class ReductionResult:
    """Two-node reduction of the ball network around an interior point."""

    z_left: Vertex
    z_right: Vertex
    r_left: float
    r_right: float
    resistance: float
    psi_left: float
    psi_right: float


def locate_reduction_nodes(x: Vertex, n: int) -> tuple[Vertex, Vertex]:
    """The two typical points flanking x, from its first address.

    Upper case: x sits between consecutive spine junctions, between a
    junction and the first turned node, or inside the turned {2,3} chain;
    lower case: between branch chain nodes.  A {2,3} run that the address
    never leaves means x lies on a boundary Cantor piece.
    """
    word, corner = canonicalize(*x)
    tail = {1: "0", 2: "2", 3: "3"}[corner]
    addr = word + tail * (len(word) + n + 8)

    def run_flanks(anchor: str, rest: str) -> tuple[Vertex, Vertex]:
        k = 0
        while k < len(rest) and rest[k] in "23":
            k += 1
        if k >= len(rest):
            raise ValueError("point lies on a boundary Cantor piece")
        run, direction = rest[:k], rest[k]
        left = canonicalize(anchor + run, 1)
        right = canonicalize(anchor + run + ("2" if direction == "0" else "3"), 1)
        return left, right

    if addr[0] == "0":
        head = "0" + "2" * (n - 1)
        if not addr.startswith(head):
            raise ValueError("point is not interior to the ball")
        rest = addr[len(head):]
        m = 0
        while m < len(rest) and rest[m] == "0":
            m += 1
        if m >= len(rest) or rest[m] != "2":
            raise ValueError("point is not interior to the ball")
        base = head + "0" * m + "2"
        rest = rest[m + 1:]
        if rest[0] in "02":
            # between the spine junctions x_{m-1,0} and x_{m,0}
            return canonicalize(base, 2), canonicalize(base, 1)
        if rest[0] == "1":
            return canonicalize(base, 1), canonicalize(base + "3", 1)
        return run_flanks(base, rest)
    if addr[0] != "2":
        raise ValueError("point is not interior to the ball")
    body = addr[1:n]
    if any(c not in "01" for c in body):
        raise ValueError("point is not interior to the ball")
    return run_flanks("2" + body, addr[n:])


def network_reduce(
    x: Vertex, n: int, level: int, graph: Optional[LevelGraph] = None
) -> ReductionResult:
    """Parallel-arm reduction of R(x, frontier) through the flanking typical points.

    r_left/r_right solve the two-equation system matching the measured
    boundary resistances of the flanking nodes; the reconstructed
    resistance and potential values are exact when x lies on the arc.
    """
    x = canonicalize(*x)
    region = q0_ball(n, level, graph)
    graph = region.graph
    if x not in region.interior:
        raise ValueError(f"{vertex_str(x)} is not interior to the ball")
    z_l, z_r = locate_reduction_nodes(x, n)
    if x == z_l:
        psi, r = equilibrium_potential(graph, x, region.frontier, mode="float")
        return ReductionResult(z_l, z_r, math.inf, math.inf, r, 1.0, float(psi[z_r]))

    _, r_l_total = equilibrium_potential(graph, z_l, region.frontier, mode="float")
    _, r_r_total = equilibrium_potential(graph, z_r, region.frontier, mode="float")
    d_lr = float(graph.distances_from(z_l)[graph.vertex_id(z_r)])
    from_x = graph.distances_from(x)
    d_xl = float(from_x[graph.vertex_id(z_l)])
    d_xr = float(from_x[graph.vertex_id(z_r)])

    # arm resistances: 1/R(z_a, frontier) = 1/r_a + 1/(d(z_l,z_r) + r_other).
    # With g = r_l r_r / (r_l + r_r + d) both equations become
    # g^2 + d g = R_l R_r, and each arm is d g / (R_other - g).
    rr = r_l_total * r_r_total
    g = 2.0 * rr / (d_lr + math.sqrt(d_lr * d_lr + 4.0 * rr))
    r_l = d_lr * g / (r_r_total - g)
    r_r = d_lr * g / (r_l_total - g)
    resistance = 1.0 / (1.0 / (d_xl + r_l) + 1.0 / (d_xr + r_r))
    return ReductionResult(
        z_l,
        z_r,
        r_l,
        r_r,
        resistance,
        r_l / (d_xl + r_l),
        r_r / (d_xr + r_r),
    )


def region_cell_masses(w: WeightVector, region: BallRegion) -> dict[Vertex, Fraction]:
    """Ball mass lumped onto interior lattice points, corner-weighted by `harmonic_weights`."""
    graph = region.graph
    p = harmonic_weights(w, graph.s0)
    inside, straddle = classify_region_cells(region)
    # a cell's share at each corner, by the cell's digits in {0,1}
    shares = [[mu * pj for pj in p] for mu in cell_measure_table(w, graph.level)]
    masses: dict[Vertex, Fraction] = {}
    for k in inside + straddle:
        share = shares[graph.s0_digits[k]]
        for j in range(3):
            v = graph.vertices[graph.corners[3 * k + j]]
            if v in region.interior:
                masses[v] = masses.get(v, Fraction(0)) + share[j]
    return masses


def exit_time_profile(
    n: int,
    w: WeightVector,
    level: int,
    graph: Optional[LevelGraph] = None,
    mode: str = "float",
) -> tuple[BallRegion, VertexFunction]:
    """Discrete mean exit time G1 on the ball B(q0, 2^-n)."""
    region = q0_ball(n, level, graph)
    masses = region_cell_masses(w, region)
    g1 = green_g1(region, masses, mode=mode)
    return region, g1


def g1_via_identity(
    x: Vertex,
    n: int,
    w: WeightVector,
    level: int,
    graph: Optional[LevelGraph] = None,
) -> IntegralBounds:
    """G1(x) through the product identity, with certified quadrature bounds.

    The resistance is exact; the potential's integral over the ball is
    bracketed by per-cell corner bounds, and the corner-weighted exact
    pairing (equal to the direct Green solve) sits inside.
    """
    region, psi, r = boundary_resistance(x, n, level, graph=graph, mode="exact")
    graph = region.graph
    inside, straddle = classify_region_cells(region)
    p = harmonic_weights(w, graph.s0)
    table = cell_measure_table(w, graph.level)
    lo = Fraction(0)
    hi = Fraction(0)
    exact = Fraction(0)
    for k in inside + straddle:
        mu = table[graph.s0_digits[k]]
        vals = [psi.values[graph.corners[3 * k + j]] for j in range(3)]
        lo += mu * min(vals)
        hi += mu * max(vals)
        exact += mu * sum(p[j] * vals[j] for j in range(3))
    return IntegralBounds(r * lo, r * hi, exact=r * exact)


@dataclass
class ExitRatioRow:
    n: int
    level: int
    inf_core: float  # infimum of G1 over the shrunken ball 4^-n B_n
    sup_ball: float  # supremum of G1 over the ball
    ratio: float


def fit_log2_slope(xs, ys) -> tuple[float, float]:
    """Least-squares slope of log2(y) against x, with its standard error.

    Fewer than two points fix no slope: both come back NaN.
    """
    pts = [(float(x), math.log2(y)) for x, y in zip(xs, ys)]
    n = len(pts)
    if n < 2:
        return math.nan, math.nan
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    slope = sxy / sxx
    if n == 2:
        return slope, 0.0
    resid = sum((p[1] - my - slope * (p[0] - mx)) ** 2 for p in pts)
    stderr = math.sqrt(resid / (n - 2) / sxx)
    return slope, stderr


def exit_ratio_experiment(
    n_values,
    w: WeightVector,
    level_offset: int = 5,
) -> tuple[list[ExitRatioRow], float, float]:
    """Ratio of the exit-time infimum over 4^-n B_n to its supremum over B_n.

    Returns the per-ball rows and the fitted log2 slope with standard
    error; a slope near -1 exhibits the scale-free ratio collapsing.
    """
    rows = []
    for n in n_values:
        level = n + level_offset
        region, g1 = exit_time_profile(n, w, level)
        core_radius = Fraction(1, 2**n) * Fraction(1, 4**n)
        inf_core = min(float(x) for x, d in zip(g1.values, region.dist) if d < core_radius)
        sup_ball = max(float(x) for x, d in zip(g1.values, region.dist) if d < region.radius)
        rows.append(ExitRatioRow(n, level, inf_core, sup_ball, inf_core / sup_ball))
    slope, stderr = fit_log2_slope([r.n for r in rows], [r.ratio for r in rows])
    return rows, slope, stderr
