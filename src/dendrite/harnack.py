"""Boundary-indicator harmonics and elliptic Harnack experiments.

Harmonic functions on the ball B(q0, 2^-n) with indicator data on one
Cantor piece of the frontier; their sup/inf collapse exhibits the strong
Harnack failure, while delta-power means against the self-similar
measure probe the weak inequality's weight threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .addressing import on_cantor_piece
from .dirichlet import ById, VertexFunction, ball_tree, solve_dirichlet
from .exit_time import fit_log2_slope, q0_ball
from .measure import WeightVector, cell_measure_units, classify_region_cells
from .network import BallRegion, LevelGraph, crossing_fraction
from .reduction import x_point_word


@dataclass(frozen=True)
class BoundaryProfile:
    """Indicator (or mixture) boundary data on the ball frontier.

    kind "upper": the Cantor piece under the spine address
    0 2^(n-1) 0^m 2 3^k; kind "lower": the piece 2 w 2^k inside the
    branch labelled by w in {0,1}^(n-1) (default w = 0^(n-1)); kind
    "mixture": non-negative coefficients on several pieces.
    """

    kind: str
    m: int = 0
    k: int = 1
    branch: Optional[str] = None
    parts: tuple = ()  # mixture: ((profile, coefficient), ...)

    def __post_init__(self):
        if self.kind not in ("upper", "lower", "mixture"):
            raise ValueError(f"unknown boundary profile kind {self.kind!r}")
        if self.kind in ("upper", "lower") and (self.m < 0 or self.k < 0):
            raise ValueError("piece indices m and k must be >= 0")

    def piece_prefix(self, n: int) -> str:
        if self.kind == "upper":
            return x_point_word(n, self.m, self.k)
        if self.kind == "lower":
            branch = self.branch if self.branch is not None else "0" * (n - 1)
            if len(branch) != n - 1 or any(c not in "01" for c in branch):
                raise ValueError("branch label must lie in {0,1}^(n-1)")
            return "2" + branch + "2" * self.k
        raise ValueError("mixtures have no single piece")


def piece_values(region: BallRegion, profile: BoundaryProfile, n: int) -> dict[int, Fraction]:
    """The profile's frontier data by vertex id, over `region.frontier_ids` in ascending order."""
    if profile.kind == "mixture":
        values = dict.fromkeys(region.frontier_ids, Fraction(0))
        for part, coeff in profile.parts:
            for j, val in piece_values(region, part, n).items():
                values[j] += Fraction(coeff) * val
        return values
    prefix = profile.piece_prefix(n)
    vertices, one, zero = region.graph.vertices, Fraction(1), Fraction(0)
    values = {j: one if on_cantor_piece(vertices[j], prefix) else zero for j in region.frontier_ids}
    if one not in values.values():
        raise ValueError(f"piece {prefix!r} has no lattice points on this frontier")
    return values


def piece_boundary_values(region: BallRegion, profile: BoundaryProfile, n: int) -> dict:
    """The profile's frontier data by label."""
    vertices = region.graph.vertices
    return {vertices[j]: val for j, val in piece_values(region, profile, n).items()}


def boundary_harmonic(
    n: int,
    profile: BoundaryProfile,
    level: int,
    graph: Optional[LevelGraph] = None,
    mode: str = "float",
) -> tuple[BallRegion, VertexFunction]:
    """Harmonic function on B(q0, 2^-n) with the profile's frontier data.

    The data are pinned by id on the region's own tree, as `solve_on_ball`
    pins them once it has resolved its labels.
    """
    if profile.kind != "mixture" and level < n + profile.k + 3:
        raise ValueError("level too small to resolve the boundary piece")
    region = q0_ball(n, level, graph)
    values = ById(piece_values(region, profile, n))
    return region, solve_dirichlet(region.graph, values, mode=mode, tree=ball_tree(region))


def extrema_over_subball(
    region: BallRegion, values: VertexFunction, radius: Fraction
) -> tuple[float, float]:
    """Extrema of a vertex function over B(center, radius), cut edges interpolated.

    The sub-ball is a subtree of the region's walk, so its cut edges are
    the pairs (parent[j], j) with the parent inside and j not.
    """
    radius = Fraction(radius)
    units, cut, parent, kinds = region.units, region.cut(radius), region.parent, region.parent_kind
    vals = values.values
    xs = [float(val) for val, d in zip(vals, units) if d < cut]
    if not xs:
        raise ValueError("sub-ball contains no vertices at this level")
    t = crossing_fraction(region.graph, radius)
    for j in [j for j, d in enumerate(units) if d >= cut and units[parent[j]] < cut]:
        i = parent[j]
        a, b = t(units[i], kinds[j])
        vi = float(vals[i])
        xs.append(vi + a / b * (float(vals[j]) - vi))  # int / int rounds as float(Fraction(a, b)) does
    return min(xs), max(xs)


def ehi_ratio(
    n: int,
    k: int,
    epsilon: Fraction,
    level: int,
) -> dict:
    """inf/sup collapse of the branch-piece harmonic over epsilon-shrunken balls.

    Returns inf, sup, their ratio and the model value 1/(2^n epsilon + 1).
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon <= Fraction(1, 2):
        raise ValueError("epsilon must lie in (0, 1/2]")
    profile = BoundaryProfile("lower", k=k)
    region, sol = boundary_harmonic(n, profile, level)
    lo, hi = extrema_over_subball(region, sol, epsilon * Fraction(1, 2**n))
    model = 1.0 / (float(2**n * epsilon) + 1.0)
    return {
        "n": n,
        "k": k,
        "epsilon": epsilon,
        "level": region.graph.level,
        "inf": lo,
        "sup": hi,
        "ratio": lo / hi if hi > 0 else float("nan"),
        "model": model,
    }


def ehi_slope(n_values, k: int, epsilon: Fraction, level_offset: int = 4):
    rows = [ehi_ratio(n, k, epsilon, n + level_offset) for n in n_values]
    slope, stderr = fit_log2_slope([r["n"] for r in rows], [r["ratio"] for r in rows])
    return rows, slope, stderr


@dataclass
class HarnackReport:
    n: int
    delta: float
    level: int
    mean_lower: float
    mean_upper: float
    inf_power: float
    ratio_lower: float
    ratio_upper: float


def weh_ratio(
    n: int,
    delta: Fraction,
    w: WeightVector,
    profile: BoundaryProfile,
    level: int,
) -> HarnackReport:
    """Certified mean of u^delta over the half ball against its infimum there.

    The mean uses per-cell corner bounds of the harmonic function (u^delta
    is monotone in u); straddling cells widen the certified interval.
    """
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    region, sol = boundary_harmonic(n, profile, level)
    graph = region.graph
    half = Fraction(1, 2**(n + 1))
    inside, straddle = classify_region_cells(region, radius=half)
    full = set(inside)
    nums, den = cell_measure_units(w, graph.level)
    mu = [num / den for num in nums]  # int / int rounds each exact measure once, as float(Fraction) does
    values, corners = sol.values, graph.corners
    d = float(delta)
    num_lo = num_hi = 0.0
    mass_in = mass_all = 0.0
    for k in sorted(inside + straddle):  # the float sums run in word order
        m = mu[graph.s0_digits[k]]
        vals = [float(values[corners[3 * k + j]]) for j in range(3)]
        mass_all += m
        num_hi += m * max(vals) ** d
        if k in full:
            mass_in += m
            num_lo += m * min(vals) ** d
    if mass_in <= 0:
        raise ValueError("half ball resolves no full cells; raise the level")
    inf_u, _ = extrema_over_subball(region, sol, half)
    inf_power = inf_u**d
    mean_lo = num_lo / mass_all
    mean_hi = num_hi / mass_in
    return HarnackReport(
        n=n,
        delta=d,
        level=graph.level,
        mean_lower=mean_lo,
        mean_upper=mean_hi,
        inf_power=inf_power,
        ratio_lower=mean_lo / inf_power,
        ratio_upper=mean_hi / inf_power,
    )


def weights_for_rho(delta: Fraction, rho: Fraction) -> WeightVector:
    """Weights with w2/w0 = 2^(1-delta) rho, normalised to total mass one."""
    delta = Fraction(delta)
    rho = Fraction(rho)
    if rho <= 0:
        raise ValueError("rho must be positive")
    if delta == 1:
        factor = rho
    elif delta == Fraction(1, 2):
        # 2^(1/2) is irrational; a rational proxy keeps the measure exact
        factor = rho * Fraction(1_414_213_562_373_095, 10**15)
    else:
        factor = rho * Fraction.from_float(2.0 ** float(1 - delta)).limit_denominator(10**12)
    w0 = 1 / (2 * (1 + factor))
    w2 = factor * w0
    return WeightVector(w0, w2)


def weh_growth(
    n_values,
    delta: Fraction,
    w: WeightVector,
    profile: BoundaryProfile,
    level_offset: int = 4,
) -> tuple[list[HarnackReport], float, float]:
    """Growth of the mean-to-infimum ratio across the ball family.

    Returns (reports, fitted per-ball factor, total growth over the range).
    The fitted factor carries a long transient from the branch mass; the
    range total is the robust threshold witness.
    """
    reports = [weh_ratio(n, delta, w, profile, n + level_offset) for n in n_values]
    mids = [math.sqrt(r.ratio_lower * r.ratio_upper) for r in reports]
    slope, _ = fit_log2_slope([r.n for r in reports], mids)
    return reports, 2.0**slope, mids[-1] / mids[0]


def weh_threshold_scan(
    delta: Fraction,
    rho_values,
    n_values,
    level_offset: int = 4,
) -> list[dict]:
    """Growth factors across the weight threshold w2 = 2^(1-delta) w0."""
    out = []
    # every rho is checked, through its weights, before the first scan
    weights = [weights_for_rho(delta, rho) for rho in rho_values]
    for rho, w in zip(rho_values, weights):
        reports, per_n, total = weh_growth(
            n_values, delta, w, BoundaryProfile("upper", m=0, k=1), level_offset
        )
        out.append(
            {
                "delta": float(delta),
                "rho": float(rho),
                "weights": str(w),
                "growth_per_n": per_n,
                "growth_range": total,
                "reports": reports,
            }
        )
    return out
