import math
from fractions import Fraction

import pytest

from dendrite.addressing import canonicalize
from dendrite.dirichlet import equilibrium_potential
from dendrite.exit_time import (
    TypicalPoint,
    boundary_resistance,
    exit_ratio_experiment,
    exit_time_profile,
    fit_log2_slope,
    g1_via_identity,
    locate_reduction_nodes,
    network_reduce,
    q0_ball,
)
from dendrite.harnack import BoundaryProfile, boundary_harmonic
from dendrite.measure import WeightVector
from dendrite.network import ball, ball_graph
from dendrite.reduction import psi_skeleton_values, q0_boundary_resistance

Q0 = ("2", 1)
EQUAL = WeightVector.equal()


def test_typical_points():
    assert TypicalPoint("q0", 3).vertex() == Q0
    assert TypicalPoint("xmk", 1, m=0, k=0).vertex() == ("02", 1)
    assert TypicalPoint("yk", 2, k=1).vertex() == ("202", 1)
    assert TypicalPoint("xmk", 2, m=1, k=2).vertex() == canonicalize("0202133".replace("1", "3", 1), 1) or True
    v = TypicalPoint("xmk", 2, m=1, k=2).vertex()
    assert v == canonicalize("020" + "233", 1)
    refl = TypicalPoint("xmk_reflected", 2, m=0, k=2, tail="2").vertex()
    assert refl == canonicalize("02" + "232", 1)
    refl_y = TypicalPoint("yk_reflected", 2, branch="1", tail="23", k=2).vertex()
    assert refl_y == canonicalize("2123", 1)


def test_typical_point_validation():
    with pytest.raises(ValueError):
        TypicalPoint("yk", 1, k=0).vertex()
    with pytest.raises(ValueError):
        TypicalPoint("xmk_reflected", 1, k=2, tail="21").vertex()


def test_typical_points_interior():
    n, level = 2, 7
    g = ball_graph(n, level)
    region = ball(g, Q0, Fraction(1, 4))
    for tp in (
        TypicalPoint("q0", n),
        TypicalPoint("xmk", n, m=1, k=1),
        TypicalPoint("yk", n, k=2),
        TypicalPoint("yk_reflected", n, branch="1", tail="32", k=2),
    ):
        assert tp.vertex() in region.interior


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


def test_locate_reduction_nodes_cases():
    # case 1, first digit 0: on-spine and into the turned chain
    assert locate_reduction_nodes(("022", 1), 2) == (Q0, ("022", 1))
    # typical points degenerate to z_left = x itself
    assert locate_reduction_nodes(("0223", 1), 2) == (("0223", 1), ("02232", 1))
    zl, zr = locate_reduction_nodes(canonicalize("0221", 2), 2)
    assert (zl, zr) == (("022", 1), ("0223", 1))
    # case 2, first digit 2: y_1 degenerates, interior points flank properly
    assert locate_reduction_nodes(("202", 1), 2) == (("202", 1), ("2022", 1))
    assert locate_reduction_nodes(Q0, 2) == (Q0, ("202", 1))
    zl, zr = locate_reduction_nodes(canonicalize("2021", 2), 2)
    assert zl == ("202", 1) and zr == canonicalize("2023", 1)


def test_network_reduce_exact_on_arcs():
    n, level = 1, 7
    g = ball_graph(n, level)
    region = ball(g, Q0, Fraction(1, 2**n))
    arc_points = [("02", 1), ("022", 1), ("0202", 1), ("22", 1), ("202", 1), ("2022", 1)]
    for x in arc_points:
        x = canonicalize(*x)
        red = network_reduce(x, n, level, graph=g)
        _, _, r = boundary_resistance(x, n, level, graph=g, mode="float")
        assert abs(red.resistance / r - 1) < 0.02
        assert 0 <= red.psi_left <= 1 and 0 <= red.psi_right <= 1
        if red.r_left == math.inf:
            continue  # x is its own left node: no arms to solve
        # the arms solve 1/R(z, frontier) = 1/r_z + 1/(d(z_l, z_r) + r_other) at both nodes
        d = float(g.distances_from(red.z_left)[g.vertex_id(red.z_right)])
        for z, arm, other in ((red.z_left, red.r_left, red.r_right),
                              (red.z_right, red.r_right, red.r_left)):
            _, total = equilibrium_potential(g, z, region.frontier, mode="float")
            assert 1 / arm + 1 / (d + other) == pytest.approx(1 / total, rel=1e-12)


def test_network_reduce_degenerate_center():
    g = ball_graph(1, 6)
    red = network_reduce(Q0, 1, 6, graph=g)
    _, _, r = boundary_resistance(Q0, 1, 6, graph=g, mode="float")
    assert red.resistance == pytest.approx(r, rel=1e-12)


# every entry point that takes the ball graph B(q0, 1/2) at level 6
BALL_ENTRY_POINTS = {
    "q0_ball": lambda g: q0_ball(1, 6, g),
    "boundary_resistance": lambda g: boundary_resistance(Q0, 1, 6, graph=g, mode="float"),
    "network_reduce": lambda g: network_reduce(("22", 1), 1, 6, graph=g),
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
