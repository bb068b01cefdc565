import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from dendrite.addressing import canonicalize, parse_vertex, vertex_str
from dendrite.dirichlet import equilibrium_potential, green_g1, solve_dirichlet
from dendrite.exit_time import (
    boundary_resistance,
    exit_ratio_experiment,
    exit_time_profile,
    fit_log2_slope,
    g1_via_identity,
    q0_ball,
    region_cell_masses,
)
from dendrite.harnack import BoundaryProfile, boundary_harmonic, piece_boundary_values
from dendrite.measure import WeightVector, ball_measure
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
    assert ("", 3) not in g.index
    for x in (("", 1), ("", 3)):  # on the frontier, and off the ball graph
        with pytest.raises(ValueError):
            boundary_resistance(x, 1, 5, graph=g)


def test_boundary_resistance_grounds_the_frontier_ids():
    """`boundary_resistance` grounds the frontier by id; psi and R equal the label-keyed
    `equilibrium_potential` against `region.frontier`.  Exact values are equal Fractions,
    although the exact solve runs on the region's walk tree, since they do not depend on
    the tree.  Float values are equal bit for bit, since float mode keeps the breadth-first
    pass on the same pinned set."""
    for n, level in ((1, 6), (2, 6), (3, 7)):
        g = ball_graph(n, level)
        region = q0_ball(n, level, g)
        for x in (Q0, sorted(region.interior)[len(region.interior) // 3]):
            for mode in ("exact", "float"):
                _, psi, r = boundary_resistance(x, n, level, graph=g, mode=mode)
                want_psi, want_r = equilibrium_potential(g, x, region.frontier, mode=mode)
                if mode == "exact":
                    assert r == want_r and psi.values == want_psi.values
                else:
                    assert r.hex() == want_r.hex()
                    assert [v.hex() for v in psi.values] == [v.hex() for v in want_psi.values]


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


def test_cell_pairings_match_recorded_values():
    """`g1_via_identity`, `region_cell_masses` and `ball_measure` against values
    recorded before their per-cell sums moved to integer units.

    The identity cases take q0 and two interior points at half the radius
    of B(q0, 2^-n), n = 1..3, at levels n + 4 and n + 5, with the weights
    1/4,1/4, 1/10,2/5, 3/10,1/5 and 1/8,3/8 taken in turn.  The masses and
    ball measures cover the exit-ratio balls (n = 2..5, level n + 5) at
    every one of those weights; a masses dict is kept as the sha256 of its
    "vertex value" lines, in insertion order, and its length.
    """
    golden = json.loads(Path(__file__).with_name("exit_time_golden.json").read_text())
    graphs = {}
    wrong = []
    for case in golden["g1_via_identity"]:
        n, level = case["n"], case["level"]
        if (n, level) not in graphs:
            graphs[n, level] = ball_graph(n, level)
        g = graphs[n, level]
        b = g1_via_identity(parse_vertex(case["x"]), n, WeightVector.parse(case["weights"]), level, graph=g)
        if (b.lower, b.upper, b.exact) != tuple(Fraction(case[k]) for k in ("lower", "upper", "exact")):
            wrong.append(case)
    regions = {}
    for masses_case, ball_case in zip(golden["region_cell_masses"], golden["ball_measure"]):
        n, level, w = masses_case["n"], masses_case["level"], WeightVector.parse(masses_case["weights"])
        if n not in regions:
            regions[n] = q0_ball(n, level)
        region = regions[n]
        masses = region_cell_masses(w, region)
        text = "\n".join(f"{vertex_str(v)} {m}" for v, m in masses.items())
        if (len(masses), hashlib.sha256(text.encode()).hexdigest()) != (masses_case["count"], masses_case["sha256"]):
            wrong.append(masses_case)
        b = ball_measure(w, region)
        if (b.lower, b.upper) != (Fraction(ball_case["lower"]), Fraction(ball_case["upper"])):
            wrong.append(ball_case)
    assert [len(golden[k]) for k in ("g1_via_identity", "region_cell_masses", "ball_measure")] == [18, 16, 16]
    assert not wrong


@pytest.mark.parametrize("weights", ["1/4,1/4", "1/10,2/5"])
def test_float_green_solve_agrees_with_exact(weights):
    """G1 in float mode is within 1e-12 relative of the exact solve at every
    vertex of B(q0, 2^-n), n = 1..3, level n + 4."""
    w = WeightVector.parse(weights)
    for n in (1, 2, 3):
        g = ball_graph(n, n + 4)
        _, exact = exit_time_profile(n, w, n + 4, graph=g, mode="exact")
        _, approx = exit_time_profile(n, w, n + 4, graph=g, mode="float")
        for v, e, f in zip(g.vertices, exact.values, approx.values):
            assert abs(f - float(e)) <= 1e-12 * abs(float(e)), (n, vertex_str(v))


def test_float_masses_match_the_fraction_masses():
    """The float profile reads its masses as int / int, with no Fraction on the way; the
    solve is bit for bit the one on `region_cell_masses`, at level n + 5 as in exit-ratio."""
    weights = [WeightVector.parse(text) for text in ("1/10,2/5", "1/4,1/4")]
    for n in (2, 3, 4):
        g = ball_graph(n, n + 5)
        for w in weights:
            region, g1 = exit_time_profile(n, w, n + 5, graph=g)
            via_fractions = green_g1(region, region_cell_masses(w, region), mode="float")
            assert [x.hex() for x in g1.values] == [x.hex() for x in via_fractions.values], (n, w)
            if n == 2:
                region, g1 = exit_time_profile(n, w, n + 5, graph=g, mode="exact")
                assert g1.values == green_g1(region, region_cell_masses(w, region), mode="exact").values


def _label_keyed_solve(region, boundary, masses, mode):
    """Oracle: the ball solve as one `solve_dirichlet` call on label-keyed pins and masses."""
    cut = region.cut()
    pinned = {v: boundary.get(v, 0) for v, d in zip(region.graph.vertices, region.units) if d >= cut}
    return solve_dirichlet(region.graph, pinned, masses, mode)


def _bits(values):
    """Float values as hex strings, so that -0.0 and 0.0 differ."""
    return [x.hex() for x in values]


def test_ball_solves_by_id_match_label_keyed_solves():
    """Exit-time and boundary-harmonic solves pin and load by vertex id; their values equal
    the label-keyed solve bit for bit, the sign of zero included."""
    weights = [WeightVector.parse(text) for text in ("1/10,2/5", "1/4,1/4")]
    for n in (2, 3, 4):
        g = ball_graph(n, n + 5)
        for w in weights:
            region, g1 = exit_time_profile(n, w, n + 5, graph=g)
            masses = {v: float(m) for v, m in region_cell_masses(w, region).items()}
            assert _bits(g1.values) == _bits(_label_keyed_solve(region, {}, masses, "float").values), (n, w)
        for profile in (BoundaryProfile("upper", m=0, k=1), BoundaryProfile("lower", k=1)):
            region, sol = boundary_harmonic(n, profile, n + 4)
            want = _label_keyed_solve(region, piece_boundary_values(region, profile, n), None, "float")
            assert _bits(sol.values) == _bits(want.values), (n, profile)
    region, g1 = exit_time_profile(2, weights[0], 7, mode="exact")
    want = _label_keyed_solve(region, {}, region_cell_masses(weights[0], region), "exact")
    assert g1.values == want.values and all(type(x) is Fraction for x in g1.values)


def test_g1_bounds_at_q0_against_eps_window():
    # int-q0 window: psi integral per unit ball mass within [eps0 ^ eps1, 4 (eps0 v eps1)]
    n, level = 2, 8
    g = ball_graph(n, level)
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
