"""Resistance to the ball frontier, and exit-time experiments.

The mean exit time analogue G1 solves the discrete Green problem with the
ball's self-similar mass; the product identity (resistance times the
potential's integral) gives the same quantity with certified bounds.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .addressing import Q0, Vertex
from .dirichlet import VertexFunction, equilibrium_on_ball, green_g1
from .measure import (
    IntegralBounds,
    WeightVector,
    cell_measure_units,
    classify_region_cells,
    harmonic_weights,
)
from .network import BallRegion, LevelGraph, ball, ball_graph


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
    psi, r = equilibrium_on_ball(region, x, mode=mode)
    return region, psi, r


def _lumped_masses(
    w: WeightVector, region: BallRegion, value: Callable[[int, int], object]
) -> dict[int, object]:
    """Ball mass lumped onto interior lattice points, corner-weighted by `harmonic_weights`, by vertex id.

    Each vertex's share is summed as an integer s in the unit 1/(den P)
    and handed over as `value(s, den * P)`; the ids come in the order the
    cells first touch them.
    """
    graph = region.graph
    p = harmonic_weights(w, graph.s0)
    P = math.lcm(*(pj.denominator for pj in p))
    nums, den = cell_measure_units(w, graph.level)
    inside, straddle = classify_region_cells(region)
    # a cell's corner shares by its digits in {0,1}, in the unit 1/(den P): n_a p_j P
    shares = [[n * (pj * P).numerator for pj in p] for n in nums]
    cut, units, corners, digits = region.cut(), region.units, graph.corners, graph.s0_digits
    sums: dict[int, int] = {}
    for k in inside + straddle:
        share = shares[digits[k]]
        for j in range(3):
            i = corners[3 * k + j]
            if units[i] < cut:  # an interior vertex
                sums[i] = sums.get(i, 0) + share[j]
    unit = den * P
    return {i: value(s, unit) for i, s in sums.items()}


def region_cell_masses(w: WeightVector, region: BallRegion) -> dict[Vertex, Fraction]:
    """Ball mass lumped onto interior lattice points, corner-weighted by `harmonic_weights`."""
    vertices = region.graph.vertices
    return {vertices[i]: m for i, m in _lumped_masses(w, region, Fraction).items()}


def exit_time_profile(
    n: int,
    w: WeightVector,
    level: int,
    graph: Optional[LevelGraph] = None,
    mode: str = "float",
) -> tuple[BallRegion, VertexFunction]:
    """Discrete mean exit time G1 on the ball B(q0, 2^-n)."""
    region = q0_ball(n, level, graph)
    # a float solve reads s / unit: int / int rounds the exact quotient once,
    # as float(Fraction(s, unit)) does, and builds no Fraction
    loads: list = [None] * len(region.units)
    for i, m in _lumped_masses(w, region, operator.truediv if mode == "float" else Fraction).items():
        loads[i] = m
    g1 = green_g1(region, loads, mode=mode)
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
    nums, den = cell_measure_units(w, graph.level)
    values, corners, digits = psi.values, graph.corners, graph.s0_digits
    # the solve shares one value object among the ids that take their parent's value
    # (1,600 objects for 43,693 ids at q0 on ball_graph(1, 8)), so each object is converted once
    distinct = {id(v): v for v in values}
    V = math.lcm(*{v.denominator for v in distinct.values()})  # psi's Kirchhoff denominator, a small unit
    scaled = {key: v.numerator * (V // v.denominator) for key, v in distinct.items()}
    u = [scaled[id(v)] for v in values]  # psi V, by id
    lo = hi = s1 = s2 = s3 = 0
    for k in inside + straddle:
        mu = nums[digits[k]]
        a, b, c = u[corners[3 * k]], u[corners[3 * k + 1]], u[corners[3 * k + 2]]
        lo, hi = lo + mu * min(a, b, c), hi + mu * max(a, b, c)
        s1, s2, s3 = s1 + mu * a, s2 + mu * b, s3 + mu * c
    p, unit = harmonic_weights(w, graph.s0), den * V
    exact = (p[0] * s1 + p[1] * s2 + p[2] * s3) / unit
    return IntegralBounds(r * Fraction(lo, unit), r * Fraction(hi, unit), exact=r * exact)


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
        core, whole = region.cut(Fraction(1, 2**n) * Fraction(1, 4**n)), region.cut()
        inf_core = min(float(x) for x, d in zip(g1.values, region.units) if d < core)
        sup_ball = max(float(x) for x, d in zip(g1.values, region.units) if d < whole)
        rows.append(ExitRatioRow(n, level, inf_core, sup_ball, inf_core / sup_ball))
    slope, stderr = fit_log2_slope([r.n for r in rows], [r.ratio for r in rows])
    return rows, slope, stderr
