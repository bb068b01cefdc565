import math
from fractions import Fraction

import pytest

from dendrite.addressing import canonicalize
from dendrite.exit_time import (
    boundary_resistance,
    exit_ratio_experiment,
    exit_time_profile,
    fit_log2_slope,
    g1_via_identity,
    q0_ball,
)
from dendrite.harnack import BoundaryProfile, boundary_harmonic
from dendrite.measure import WeightVector
from dendrite.network import ball, ball_graph
from dendrite.reduction import psi_skeleton_values, q0_boundary_resistance

Q0 = ("2", 1)
EQUAL = WeightVector.equal()


def test_boundary_resistance_q0_values():
    # exact targets 1/9 and 1/30 from the closed resistance formula
    for n, want in ((1, Fraction(1, 9)), (2, Fraction(1, 30))):
        level = n + 7
        g = ball_graph(n, level)
        _, _, r = boundary_resistance(Q0, n, level, graph=g, mode="exact")
        assert want <= r <= want * Fraction(21, 20)
        assert r == q0_boundary_resistance(n, level)


def test_boundary_resistance_monotone_in_level():
    values = [q0_boundary_resistance(1, level) for level in range(3, 9)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_boundary_resistance_rejects_frontier_point():
    g = ball_graph(1, 5)
    with pytest.raises(ValueError):
        boundary_resistance(("", 1), 1, 5, graph=g)


def test_typical_resistance_uniform_window():
    # R(x_{m,k}) 2^(n+m+k) stays in one window across n (uniform comparability)
    scaled = []
    for n in (1, 2, 3):
        _, r = psi_skeleton_values(n, n + 6, "x", m0=1, k0=1)
        scaled.append(float(r) * 2 ** (n + 2))
    assert max(scaled) / min(scaled) < 1.3


# every entry point that takes the ball graph B(q0, 1/2) at level 6
BALL_ENTRY_POINTS = {
    "q0_ball": lambda g: q0_ball(1, 6, g),
    "boundary_resistance": lambda g: boundary_resistance(Q0, 1, 6, graph=g, mode="float"),
    "exit_time_profile": lambda g: exit_time_profile(1, EQUAL, 6, graph=g),
    "g1_via_identity": lambda g: g1_via_identity(Q0, 1, EQUAL, 6, graph=g),
    "boundary_harmonic": lambda g: boundary_harmonic(1, BoundaryProfile("lower", k=1), 6, graph=g),
}


@pytest.mark.parametrize("entry", sorted(BALL_ENTRY_POINTS))
def test_ball_entry_points_refuse_a_graph_of_another_level(entry):
    call = BALL_ENTRY_POINTS[entry]
    for wrong in (5, 7):
        with pytest.raises(ValueError, match="graph has level"):
            call(ball_graph(1, wrong))
    call(ball_graph(1, 6))


def test_dichotomy_window(check_result):
    """The ratio of the dichotomy model to R(x, complement of B(q0, 2^-n))
    stays inside a factor-12 window: `checks.check_dichotomy_window`, read
    from the session cache."""
    ok, detail, _ = check_result("exit", "dichotomy window")
    assert ok, detail


def test_g1_identity_contains_direct_solve():
    n, level = 1, 6
    g = ball_graph(n, level)
    region, g1 = exit_time_profile(n, EQUAL, level, graph=g, mode="exact")
    for x in (Q0, ("02", 1), ("22", 1)):
        x = canonicalize(*x)
        b = g1_via_identity(x, n, EQUAL, level, graph=g)
        assert b.lower <= g1[x] <= b.upper
        assert b.exact == g1[x]


def test_g1_bounds_at_q0_against_eps_window():
    # int-q0 window: psi integral per unit ball mass within [eps0 ^ eps1, 4 (eps0 v eps1)]
    n, level = 2, 8
    g = ball_graph(n, level)
    from dendrite.measure import ball_measure

    region = ball(g, Q0, Fraction(1, 4))
    b = g1_via_identity(Q0, n, EQUAL, level, graph=g)
    r = q0_boundary_resistance(n, level)
    mu = ball_measure(EQUAL, region)
    # 1/7 is the lower constant of criterion 10a (the exact integral of u_down
    # is 1/2); 1/12 is the exact integral of u_up, (16/15) times its top rung
    # 5/64 (notes/decisions.md)
    eps0, eps1 = Fraction(1, 7), Fraction(1, 12)
    lo_model = min(eps0, eps1) * mu.lower * r
    hi_model = 4 * max(eps0, eps1) * mu.upper * r
    assert lo_model <= b.exact <= hi_model


def test_exit_profile_positive_inside():
    n, level = 2, 6
    region, g1 = exit_time_profile(n, EQUAL, level)
    assert all(float(g1[v]) > 0 for v in region.interior)
    assert all(float(g1[v]) == 0 for v in region.frontier)


def test_single_ball_ratio_in_unit_interval():
    rows, slope, err = exit_ratio_experiment([2, 3], EQUAL, level_offset=4)
    for row in rows:
        assert 0 < row.ratio <= 1


def test_fit_log2_slope_needs_two_points():
    assert all(math.isnan(v) for v in fit_log2_slope([3], [0.5]))


def test_fit_log2_slope_exact_line():
    xs = [1, 2, 3, 4]
    ys = [2.0 ** (-x) for x in xs]
    slope, err = fit_log2_slope(xs, ys)
    assert slope == pytest.approx(-1.0, abs=1e-12)
    assert err == pytest.approx(0.0, abs=1e-12)
